"""symorbit benchmark: three workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is family_sweep, sign_scan, cli_commands, or ``all`` (each workload in its
own process, one after another). Run it from a source checkout: it imports
symorbit from ``src/`` next to this directory and needs nothing built.

The benchmark is closed-loop, single-process and single-threaded: each operation
starts when the previous one returns. A run repeats whole passes over the
workload's inputs and starts another pass while less than ``--seconds`` have
passed, so it makes at least one pass.

``--trace 0`` measures the end-to-end metrics:

- ``setup_s``: median of several fresh-interpreter set-ups (import, config and
  problem build, one warm-up miss per problem);
- ``peak_rss_mb``: peak resident memory of the measuring process;
- ``op_ms_p50`` and ``op_ms_p90``: latency of the workload's unit operation,
  one orbit (solve, extend, validate) in family_sweep, one miss evaluation in
  sign_scan, one CLI command in cli_commands;
- ``ops_per_s``: unit operations per second of operation time.

Times are given at a reference host speed (see ``speed.py``): each run's wall
times are multiplied by the host-speed factor measured during that run. The
raw wall times are printed beside them as ``raw.*``.

``--trace 1`` runs the workload's leading operations untraced, then one full
pass with every public symorbit function wrapped (see ``spans.py``), and
reports the per-layer metrics, ``trace.overhead_ratio`` (traced over untraced
wall time of those leading operations) and writes the spans to
``.bench_out/``.

Every output is checked (see ``workloads.py``). The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it name each metric with its unit and sample
count, including the workload-specific names (``orbit_s_p50``,
``miss_s_p90``, ``cli_verify_s_p50``, ...) and ``failed_ops_ratio``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"  # per-run working files, removed before exit
SPANS_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("family_sweep", "sign_scan", "cli_commands")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def percentile(values, q):
    """Percentile q (1..99) as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def setup_seconds(name: str, seed: int) -> list:
    """(raw, scaled) seconds of SETUP_REPEATS set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        workdir = tempfile.mkdtemp(dir=SCRATCH, prefix="setup-")
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), workdir],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        raw, scaled = done.stdout.split()[-2:]
        times.append((float(raw), float(scaled)))
    return times


def run_pass(ops, gate, samples, tracer=None) -> list:
    """Run operations in order; returns the wall time of each."""
    walls = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i + 1
        t0 = time.perf_counter()
        op(gate, samples)
        walls.append(time.perf_counter() - t0)
    return walls


def timed(workload, gate, seconds, setup):
    samples, passes = defaultdict(list), 0
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        run_pass(workload.ops(), gate, samples)
        passes += 1
    ops = samples[workload.sample_kind]
    scale = workload.probe.scale()
    raw = {
        "op_ms_p50": (1e3 * statistics.median(ops), "ms", len(ops)),
        "op_ms_p90": (1e3 * percentile(ops, 90), "ms", len(ops)),
        "ops_per_s": (len(ops) / sum(ops), "1/s", len(ops)),
    }
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), "s", len(setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "op_ms_p50": (raw["op_ms_p50"][0] * scale, "ms", len(ops)),
        "op_ms_p90": (raw["op_ms_p90"][0] * scale, "ms", len(ops)),
        "ops_per_s": (raw["ops_per_s"][0] / scale, "1/s", len(ops)),
    }
    report = {f"raw.{k}": v for k, v in raw.items()}
    report["raw.setup_s"] = (statistics.median(r for r, _ in setup), "s", len(setup))
    report["host.scale"] = (scale, "ratio", len(workload.probe.loops))
    named = {
        "orbit": [("orbit_s_p50", "orbit", 50), ("orbits_per_s", "orbit", None)],
        "miss": [("miss_s_p50", "miss", 50), ("miss_s_p90", "miss", 90), ("miss_evals_per_s", "miss", None)],
        "command": [
            ("cli_solve_s_p50", "solve", 50),
            ("cli_verify_s_p50", "verify", 50),
            ("cli_analyze_s_p50", "analyze", 50),
            ("cli_refuse_s_p50", "refuse", 50),
            ("cli_cmds_per_s", "command", None),
        ],
    }[workload.sample_kind]
    for label, kind, q in named:
        values = samples[kind]
        if q is None:
            report[label] = (len(values) / sum(values) / scale, "1/s", len(values))
        else:
            report[label] = (percentile(values, q) * scale, "s", len(values))
    header = f"{passes} pass(es) in {time.perf_counter() - t_start:.1f} s"
    return metrics, report, header


def accel_ns(problems) -> float:
    """Median time of one force evaluation at fixed annulus points, in ns."""
    points = [
        (r * math.cos(a), r * math.sin(a))
        for r in (0.8, 1.0, 1.25)
        for a in (2.0 * math.pi * k / 64 for k in range(64))
    ]
    per_call = []
    for problem in problems:
        accel = problem.field.acceleration
        for _ in range(20):
            t0 = time.perf_counter()
            for x, y in points:
                accel(x, y, 0.01)
            per_call.append((time.perf_counter() - t0) / len(points))
    return 1e9 * statistics.median(per_call)


def traced(workload, gate, seed):
    import spans

    ns = accel_ns(workload.problems())
    ops = workload.ops()
    n_ref = workload.reference_ops or len(ops)
    untraced_wall = sum(run_pass(ops[:n_ref], gate, defaultdict(list)))

    tracer = spans.Tracer()
    bytes_before = getattr(workload, "output_bytes", 0)
    tracer.install()
    try:
        walls = run_pass(workload.ops(), gate, defaultdict(list), tracer)
    finally:
        tracer.uninstall()

    metrics = {k: (v, u, 1) for k, (v, u) in spans.layer_metrics(tracer).items()}
    metrics["forcefield.acceleration_ns"] = (ns, "ns", 1)
    metrics["cli.output_bytes"] = (getattr(workload, "output_bytes", 0) - bytes_before, "count", 1)
    metrics["trace.overhead_ratio"] = (sum(walls[:n_ref]) / untraced_wall, "ratio", 1)
    metrics["trace.host_scale"] = (workload.probe.scale(), "ratio", 1)
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(path)
    header = f"1 traced pass, {sum(walls):.1f} s; {len(tracer.spans)} spans written to {path.relative_to(ROOT)}"
    return metrics, {}, header


def run_one(args) -> dict:
    import workloads

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=SCRATCH, prefix=f"{args.workload}-"))
    try:
        setup = [] if args.trace else setup_seconds(args.workload, args.seed)
        workload = workloads.build(args.workload, args.seed, workdir)
        workloads.warm_up(workload)
        gate = workloads.Gate()
        if args.trace:
            metrics, report, header = traced(workload, gate, args.seed)
        else:
            metrics, report, header = timed(workload, gate, args.seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {header}, correct={gate.correct}")
    for label, (value, unit, n) in {**metrics, **report}.items():
        print(f"  {label:40s} {value:14.6g} {unit:10s} n={n}")
    ratio = gate.failed / gate.attempted if gate.attempted else 0.0
    print(f"  {'failed_ops_ratio':40s} {ratio:14.6g} {'ratio':10s} ({gate.failed} failed / {gate.attempted} attempted)")
    for note, times in gate.notes.items():
        print(f"    {note} (x{times})")
    return {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in a fresh process, so set-up and peak memory stay per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=3 * CHILD_TIMEOUT_S)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"{name} failed with exit code {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "symorbit" / "__init__.py").is_file():
        sys.stderr.write(f"symorbit sources not found under {SRC}: run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
