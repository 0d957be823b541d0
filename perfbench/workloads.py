"""The three benchmark workloads: inputs from a seed, timed operations, correctness gate.

family_sweep  Warm-started ``continuation.sweep`` with full validation over the
              three acceptance families (39 orbits). Its time is root-finding
              plus validation, and neighbouring mu values share work through
              the warm bracket.
sign_scan     ``continuation.zero_set_scan`` over a 41x21 (sigma, mu) grid:
              861 independent miss evaluations, pure integration and event
              location, no root-finding, no validation, no shared work.
cli_commands  In-process ``symorbit.cli.main`` over three configurations: few,
              long, wide-annulus integrations, plus the only calls into
              analysis, serialization, config loading and the bracket-failure
              path.

Seed 0 gives exactly the acceptance-battery inputs. Any other seed shifts the
grids by a sub-cell offset and picks the ``analyze`` launch speeds and the
configuration ``seed``; the gate then keeps the closed-form and ``valid``
checks and drops the comparisons against recorded seed-0 references.

Every operation appends the latency (seconds) of each unit it completes to
``samples[kind]``, lets ``probe`` time the host between units, and reports to
a ``Gate``: an operation fails when the program reports an error where
success was expected, and an output that contradicts a reference also marks
the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

from symorbit import cli, continuation
from symorbit.errors import BoundaryHypothesisFailure
from symorbit.forcefield import (
    ForceField,
    PowerLawParams,
    axis_poly_perturbation,
    circular_speed,
    potential,
    radial_power_perturbation,
)
from symorbit.shooting import Mode, ShootingProblem, miss
from speed import SpeedProbe

REFERENCE_PATH = Path(__file__).with_name("reference.json")

SOLVE_TOL = 1e-10  # the acceptance battery's solve tolerance
# A different root-finder may stop anywhere with |miss| < SOLVE_TOL. The miss
# slope is 1.3 (alpha 0.5) to 23 (alpha 3) per unit sigma and the period moves
# by 13 to 63 per unit sigma, so these leave two orders of margin.
SIGMA_TOL = 100 * SOLVE_TOL
PERIOD_TOL = 1000 * SOLVE_TOL
CLOSED_FORM_TOL = 1e-9  # quarter radial family: sigma* = sqrt(1 + lam mu)
# Scan cells this close to the closed-form zero set carry an integration-noise
# sign: at seed 0 that is (sigma=1, mu=0), |miss| 2.65e-12, next smallest 2.5e-5.
ZERO_SET_MARGIN = 1e-8

RADIAL = {"kind": "radial_power", "params": {"lam": 1.0, "beta": 3.0}, "symmetries": ["x_axis", "y_axis"]}
# Even power in x breaks the y-axis reflection, odd power in y keeps the x-axis one.
AXIS_POLY = {"kind": "axis_poly", "params": {"cx": 1.0, "px": 2, "cy": 1.0, "py": 3}, "symmetries": ["x_axis"]}


class Gate:
    """Attempted and failed operation counts, plus whether every output was right."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: dict[str, int] = {}

    def attempt(self, n: int = 1):
        self.attempted += n

    def fail(self, note: str, wrong: bool = False):
        """One failed operation; ``wrong`` marks an output that contradicts a reference."""
        self.failed += 1
        self.correct = self.correct and not wrong
        key = ("WRONG " if wrong else "FAILED ") + note
        self.notes[key] = self.notes.get(key, 0) + 1


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def quarter_radial_problem() -> ShootingProblem:
    field = ForceField(base=PowerLawParams(1.0, 1.0), perturbation=radial_power_perturbation(lam=1.0, beta=3.0))
    return ShootingProblem(field=field, radius=1.0, mode=Mode.QUARTER)


def half_problem(alpha: float, eta: float) -> ShootingProblem:
    field = ForceField(base=PowerLawParams(1.0, alpha), perturbation=axis_poly_perturbation(cx=1.0, px=2, cy=1.0, py=3))
    return ShootingProblem(field=field, radius=1.0, mode=Mode.HALF, eta=eta)


@contextlib.contextmanager
def item_latencies(module, name: str, latencies: list, probe: SpeedProbe):
    """Append the seconds of each item of a looping call to ``latencies``.

    An item ends when ``module.name`` returns or raises (``validate_orbit`` ends
    an orbit of a sweep, ``miss`` a cell of a scan); the next one starts after
    the speed probe that may run in between.
    """
    original = getattr(module, name)
    last = [time.perf_counter()]

    def stamped(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        finally:
            latencies.append(time.perf_counter() - last[0])
            probe.tick()
            last[0] = time.perf_counter()

    setattr(module, name, stamped)
    try:
        yield
    finally:
        setattr(module, name, original)


class FamilySweep:
    name = "family_sweep"
    sample_kind = "orbit"
    reference_ops = 1  # trace overhead is measured on the first sweep only

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        # Other seeds pull every nonzero mu towards 0 by up to half a step, which
        # keeps the grids inside each family's validated range.
        shift = 0.0 if seed == 0 else float(rng.uniform(0.0, 0.5))
        grids = {
            "half_a05": (np.linspace(0.0, 0.04, 9), 0.005),
            "quarter": (np.arange(0.0, 0.1001, 0.005), 0.005),
            "half_a3": (np.linspace(0.0, 0.01, 9), 0.00125),
        }
        problems = {
            "half_a05": half_problem(0.5, 0.1),
            "quarter": quarter_radial_problem(),
            "half_a3": half_problem(3.0, 0.04),
        }
        self.families = []
        for key, (grid, step) in grids.items():
            grid = grid.copy()
            grid[1:] -= shift * step
            self.families.append((key, problems[key], grid))
        self.reference = load_reference()["families"] if seed == 0 else None

    def problems(self):
        return [p for _, p, _ in self.families]

    def ops(self):
        return [self._sweep_op(*fam) for fam in self.families]

    def _sweep_op(self, key, problem, grid):
        def op(gate: Gate, samples: dict):
            with item_latencies(continuation, "validate_orbit", samples[self.sample_kind], self.probe):
                curve = continuation.sweep(problem, grid, tol=SOLVE_TOL)
            self._check(gate, key, grid, curve)

        return op

    def _check(self, gate: Gate, key, grid, curve):
        gate.attempt(len(grid))
        for mu in grid[len(curve.entries):]:
            gate.fail(f"{key}: no valid orbit at mu={mu:.6g} ({(curve.failure or {}).get('error')})")
        ref = None if self.reference is None else self.reference.get(key)
        for k, e in enumerate(curve.entries):
            if not e.diagnostics.get("valid"):
                gate.fail(f"{key}: orbit at mu={e.mu:.6g} not valid", wrong=True)
            elif key == "quarter" and abs(e.sigma_star - math.sqrt(1.0 + e.mu)) >= CLOSED_FORM_TOL:
                gate.fail(f"quarter: sigma* off sqrt(1+mu) at mu={e.mu:.6g}", wrong=True)
            elif ref is not None and (
                abs(e.sigma_star - ref["sigma_star"][k]) >= SIGMA_TOL
                or abs(e.period - ref["period"][k]) >= PERIOD_TOL
            ):
                gate.fail(f"{key}: sigma*/period off reference at mu={e.mu:.6g}", wrong=True)


class SignScan:
    name = "sign_scan"
    sample_kind = "miss"
    reference_ops = None  # trace overhead is measured on the whole pass

    def __init__(self, seed: int, workdir: Path):
        self.problem = quarter_radial_problem()
        self.sigmas = np.linspace(0.9, 1.1, 41)
        self.mus = np.linspace(0.0, 0.05, 21)
        if seed != 0:
            rng = np.random.default_rng(seed)
            self.sigmas = self.sigmas + float(rng.uniform(0.0, 1.0)) * (self.sigmas[1] - self.sigmas[0])
            self.mus = self.mus + float(rng.uniform(0.0, 1.0)) * (self.mus[1] - self.mus[0])
        offset = self.sigmas[:, None] - np.sqrt(1.0 + self.mus[None, :])
        self.expected = np.sign(offset).astype(int)
        self.checked = np.abs(offset) >= ZERO_SET_MARGIN
        self.reference = None
        if seed == 0:
            rows = load_reference()["scan_signs"]
            self.reference = np.array([[{"+": 1, "-": -1, "0": 0}[c] for c in row] for row in rows])

    def problems(self):
        return [self.problem]

    def ops(self):
        return [self._scan_op]

    def _scan_op(self, gate: Gate, samples: dict):
        with item_latencies(continuation, "miss", samples[self.sample_kind], self.probe):
            try:
                scan = continuation.zero_set_scan(self.problem, self.sigmas, self.mus)
            except BoundaryHypothesisFailure as exc:
                scan, error = None, exc
        gate.attempt(self.sigmas.size * self.mus.size)
        if scan is None:
            gate.fail(f"scan: boundary hypothesis failed ({error})", wrong=True)
            return
        for i, j in zip(*np.nonzero(scan.signs == 0)):
            gate.fail(f"scan: miss failed at sigma={self.sigmas[i]:.6g}, mu={self.mus[j]:.6g}")
        wrong = self.checked & (scan.signs != 0) & (scan.signs != self.expected)
        if self.reference is not None:
            wrong |= self.checked & (scan.signs != 0) & (scan.signs != self.reference)
        for i, j in zip(*np.nonzero(wrong)):
            gate.fail(f"scan: sign at sigma={self.sigmas[i]:.6g}, mu={self.mus[j]:.6g}", wrong=True)
        if not (np.all(scan.signs[0] == -1) and np.all(scan.signs[-1] == 1)):
            gate.fail("scan: boundary rows are not -1/+1", wrong=True)
        if not scan.row_complete or scan.component_count() != 1:
            gate.fail(f"scan: row_complete={scan.row_complete}, components={scan.component_count()}", wrong=True)


# key: (alpha, perturbation, mode, eta, solve mu); each solve mu is a grid point
# of the family's acceptance sweep.
CLI_CONFIGS = {
    "quarter": (1.0, RADIAL, "quarter", 0.1, 0.05),
    "half_a05": (0.5, AXIS_POLY, "half", 0.1, 0.02),
    "half_a3": (3.0, AXIS_POLY, "half", 0.04, 0.005),
}


def cli_config(key: str, seed: int) -> dict:
    alpha, pert, mode, eta, mu = CLI_CONFIGS[key]
    return {
        "field": {"kappa": 1.0, "alpha": alpha, "perturbation": pert, "mu_range": 0.5, "annulus": [0.5, 2.0]},
        "mode": mode,
        "radius": 1.0,
        "eta": eta,
        "delta": 0.2,
        "solve_tol": SOLVE_TOL,
        "mu": mu,
        "seed": seed,
    }


class CliCommands:
    name = "cli_commands"
    sample_kind = "command"
    reference_ops = None  # trace overhead is measured on the whole pass

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.output_bytes = 0  # stdout plus files written, over every command run
        rng = np.random.default_rng(seed)
        # Other seeds move each launch speed by up to 0.005: far enough for other
        # inputs, near enough that the work per command stays the same.
        analyze_sigmas = [s + (0.0 if seed == 0 else float(rng.uniform(-0.005, 0.005))) for s in (0.95, 1.05, 1.1)]
        reference = load_reference()["cli_solve"]
        self.configs = []
        for key, (alpha, pert, mode, eta, mu) in CLI_CONFIGS.items():
            path = workdir / f"{key}.json"
            path.write_text(json.dumps(cli_config(key, seed)), encoding="utf-8")
            params = PowerLawParams(1.0, alpha)
            v0 = circular_speed(params, 1.0)
            analyze = {
                s: {"E": 0.5 * (s * v0) ** 2 + potential(params, 1.0), "K": s * v0} for s in analyze_sigmas
            } if alpha < 2.0 else {}
            self.configs.append({
                "key": key, "path": str(path), "alpha": alpha, "analyze": analyze,
                "sigma_star": math.sqrt(1.0 + mu) if mode == "quarter" else reference[key]["sigma_star"],
                "sigma_tol": CLOSED_FORM_TOL if mode == "quarter" else SIGMA_TOL,
                "period": None if mode == "quarter" else reference[key]["period"],
            })

    def problems(self):
        return [cli.RunConfig.load(c["path"]).problem() for c in self.configs]

    def ops(self):
        ops = []
        for c in self.configs:
            ops.append(self._command(c, "verify", ["--json"], self._check_verify))
            out = self.workdir / f"out_{c['key']}"
            ops.append(self._command(c, "solve", ["--out", str(out), "--json"], self._check_solve, out))
            for s in c["analyze"]:
                ops.append(self._command(c, "analyze", ["--sigma", repr(s), "--json"], self._check_analyze, s))
            ops.append(self._command(c, "refuse", ["--mu", "0.49", "--json"], self._check_refuse))
        return ops

    def _command(self, c, kind, extra, check, arg=None):
        argv = ["solve" if kind == "refuse" else kind, "--config", c["path"], *extra]

        def op(gate: Gate, samples: dict):
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            samples[self.sample_kind].append(time.perf_counter() - t0)
            samples[kind].append(samples[self.sample_kind][-1])
            self.probe.tick()
            stdout = out.getvalue()
            self.output_bytes += len(stdout.encode())
            gate.attempt()
            label = f"{kind} {c['key']}"
            try:
                check(gate, label, c, code, stdout, err.getvalue(), arg)
            except (ValueError, KeyError, TypeError, OSError) as exc:
                gate.fail(f"{label}: unreadable output ({type(exc).__name__}: {exc})", wrong=True)

        return op

    def _check_verify(self, gate, label, c, code, stdout, stderr, arg):
        payload = json.loads(stdout)
        if code != 0 or not payload["passed"]:
            failing = [r["name"] for r in payload["checks"] if not r["passed"]]
            gate.fail(f"{label}: exit {code}, failing checks {failing}")

    def _check_solve(self, gate, label, c, code, stdout, stderr, out_dir):
        if code != 0:
            gate.fail(f"{label}: exit {code}: {stderr.strip()[:120]}")
            return
        payload = json.loads(stdout)
        with open(out_dir / "orbit.json", encoding="utf-8") as fh:
            saved = json.load(fh)
        csv_bytes = (out_dir / "orbit.csv").read_bytes()
        self.output_bytes += len(csv_bytes) + (out_dir / "orbit.json").stat().st_size
        ok = (
            payload["diagnostics"]["valid"]
            and abs(payload["sigma_star"] - c["sigma_star"]) < c["sigma_tol"]
            and (c["period"] is None or abs(payload["period"] - c["period"]) < PERIOD_TOL)
            and saved["sigma_star"] == payload["sigma_star"]
            and len(saved["samples"]) == 1025
            and csv_bytes.count(b"\n") == 1026
        )
        if not ok:
            gate.fail(f"{label}: orbit or written files disagree with the reference", wrong=True)

    def _check_analyze(self, gate, label, c, code, stdout, stderr, sigma):
        if code != 0:
            gate.fail(f"{label}: exit {code}: {stderr.strip()[:120]}")
            return
        p = json.loads(stdout)
        want = c["analyze"][sigma]
        ok = (
            math.isclose(p["E"], want["E"], rel_tol=1e-12, abs_tol=1e-15)
            and math.isclose(p["K"], want["K"], rel_tol=1e-12)
            and p["r_min"] <= 1.0 + 1e-12 and p["r_max"] >= 1.0 - 1e-12
            and len(p["apsides"]) > 0
            and (c["alpha"] != 1.0 or abs(p["Phi"] - math.pi) < 1e-6)  # Kepler: apsidal angle pi
        )
        if not ok:
            gate.fail(f"{label} sigma={sigma:.6g}: diagnostics off the closed form", wrong=True)

    def _check_refuse(self, gate, label, c, code, stdout, stderr, arg):
        # mu = 0.49 lies beyond every family's usable range: the solve must
        # refuse with the bracketing exit code.
        if code != 2 or not stderr.startswith("BracketFailure"):
            gate.fail(f"{label}: expected exit 2 with BracketFailure, got exit {code}")


WORKLOADS = {w.name: w for w in (FamilySweep, SignScan, CliCommands)}


def build(name: str, seed: int, workdir: Path):
    workload = WORKLOADS[name](seed, workdir)
    workload.probe = SpeedProbe()
    return workload


def warm_up(workload):
    """One miss evaluation per problem: the last step of set-up."""
    for problem in workload.problems():
        miss(problem, 1.0, 0.0)

