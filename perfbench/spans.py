"""Traced runs: spans around every public symorbit function, recorded from outside.

``Tracer.install`` wraps each public module-level function of the layers in
``LAYERS`` and replaces it in every ``symorbit`` module namespace that holds
it, including names bound by ``from ... import`` (``continuation.miss``,
``orbit.flow``, ``cli.run_solve``, ...); a wrapper missing from one namespace
would lose its spans without any error. ``ForceField.acceleration`` is only
counted, because a span per force evaluation would cost more than the
evaluation. ``uninstall`` restores every original.

A span is ``[name, parent, op, t_start, t_end, error, info]``, kept in memory
and written out as JSON lines when the run ends. ``layer_metrics`` turns the
spans into the per-layer metrics; a layer's self time is its spans' duration
minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "forcefield",
    "integrator",
    "section",
    "shooting",
    "orbit",
    "analysis",
    "continuation",
    "cli",
    "serialize",
)

# Methods traced like functions, under the given span name.
METHODS = (("orbit", "PeriodicOrbit", "write_csv"),)

NAME, PARENT, OP, T0, T1, ERROR, INFO = range(7)


def _info(name, args, kwargs, result, exc):
    """Per-span facts the metrics need beyond timing; None when there are none."""
    if name == "integrator.flow":
        traj = result if exc is None else getattr(exc, "trajectory", None)
        return traj.n_steps if traj is not None else 0
    if name == "orbit.validate_orbit" and exc is None:
        return bool(result[0])
    if name == "shooting.bracket":
        # Warm brackets are the sweep's tries around the previous sigma*.
        return "center" in kwargs or len(args) > 3
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = 0
        self.accel_calls = [0]
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, fn, name):
        spans, stack, accel = self.spans, self._stack, self.accel_calls
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0, None, accel[0]]
            stack.append(len(spans))
            spans.append(rec)
            result = exc = None
            rec[T0] = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                rec[ERROR] = type(err).__name__
                raise
            finally:
                rec[T1] = perf()
                stack.pop()
                evals = accel[0] - rec[INFO]
                rec[INFO] = {"evals": evals, "info": _info(name, args, kwargs, result, exc)}

        return traced

    def install(self):
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"symorbit.{layer}")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == module.__name__:
                    originals[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for module in [m for n, m in sys.modules.items() if n == "symorbit" or n.startswith("symorbit.")]:
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])

        for layer, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"symorbit.{layer}"), cls_name)
            self._patch(cls, attr, self._wrap(getattr(cls, attr), f"{layer}.{attr}"))

        from symorbit.forcefield import ForceField

        accelerate, accel = ForceField.acceleration, self.accel_calls

        def counted(field, x, y, mu):
            accel[0] += 1
            return accelerate(field, x, y, mu)

        self._patch(ForceField, "acceleration", counted)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "parent": s[PARENT], "op": s[OP],
                    "start": s[T0], "end": s[T1], "error": s[ERROR], **s[INFO],
                }) + "\n")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from the spans of one traced pass, as name -> (value, unit)."""
    spans = tracer.spans
    count, total = {}, {}
    child_time = [0.0] * len(spans)
    for s in spans:
        name, dur = s[NAME], s[T1] - s[T0]
        count[name] = count.get(name, 0) + 1
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur
        # Time of outermost calls only, so recursion is not counted twice.
        if not _has_ancestor(spans, s, name):
            total[name] = total.get(name, 0.0) + dur

    def n(name):
        return count.get(name, 0)

    def t(*names):
        return sum(total.get(x, 0.0) for x in names)

    def ratio(a, b):
        return a / b if b else 0.0

    def each(name):
        return [s for s in spans if s[NAME] == name]

    flows = each("integrator.flow")
    steps = sum(s[INFO]["info"] for s in flows)
    flow_evals = sum(s[INFO]["evals"] for s in flows)
    crossing_flows = sum(1 for s in flows if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "section.crossing_time")
    brackets = each("shooting.bracket")
    warm = [s for s in brackets if s[INFO]["info"]]
    root_finding = {i for i, s in enumerate(spans) if s[NAME] in ("shooting.solve", "shooting.bracket")}
    solve_misses = sum(
        1 for s in each("shooting.miss") if s[PARENT] in root_finding
    )
    solves = sum(1 for s in each("shooting.solve") if s[ERROR] is None)
    self_time = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        self_time[s[NAME].split(".")[0]] += s[T1] - s[T0] - child_time[i]

    m = {
        "forcefield.acceleration_calls": (tracer.accel_calls[0], "count"),
        "integrator.flow_calls": (n("integrator.flow"), "count"),
        "integrator.flow_s": (t("integrator.flow"), "s"),
        "integrator.steps_accepted": (steps, "count"),
        "integrator.us_per_step": (1e6 * ratio(t("integrator.flow"), steps), "us"),
        "integrator.evals_per_step": (ratio(flow_evals, steps), "evals/step"),
        "integrator.domain_exits": (sum(1 for s in flows if s[ERROR] == "DomainExit"), "count"),
        "section.crossing_time_calls": (n("section.crossing_time"), "count"),
        "section.crossing_time_s": (t("section.crossing_time"), "s"),
        "section.first_transversal_crossing_s": (t("section.first_transversal_crossing"), "s"),
        "section.flows_per_crossing": (ratio(crossing_flows, n("section.crossing_time")), "flows/call"),
        "shooting.miss_calls": (n("shooting.miss"), "count"),
        "shooting.miss_s": (t("shooting.miss"), "s"),
        "shooting.bracket_calls": (len(brackets), "count"),
        "shooting.bracket_s": (t("shooting.bracket"), "s"),
        "shooting.bracket_failures": (sum(1 for s in brackets if s[ERROR] == "BracketFailure"), "count"),
        "shooting.solve_s": (t("shooting.solve"), "s"),
        "shooting.miss_per_orbit": (ratio(solve_misses, solves), "miss/orbit"),
        "shooting.warm_bracket_hit_ratio": (ratio(sum(1 for s in warm if s[ERROR] is None), len(warm)), "ratio"),
        "shooting.sign_table_s": (t("shooting.sign_table"), "s"),
        "shooting.crossing_time_deviation_s": (t("shooting.crossing_time_deviation"), "s"),
        "orbit.extend_s": (t("orbit.extend_quarter", "orbit.extend_half"), "s"),
        "orbit.validate_orbit_s": (t("orbit.validate_orbit"), "s"),
        "orbit.verify_closure_s": (t("orbit.verify_closure"), "s"),
        "orbit.is_simple_closed_s": (t("orbit.is_simple_closed"), "s"),
        "orbit.winding_number_s": (t("orbit.winding_number"), "s"),
        "orbit.symmetry_residual_s": (t("orbit.symmetry_residual"), "s"),
        "orbit.axis_crossings_s": (t("orbit.axis_crossings"), "s"),
        "orbit.validation_failures": (sum(1 for s in each("orbit.validate_orbit") if s[INFO]["info"] is False), "count"),
        "orbit.write_csv_s": (t("orbit.write_csv"), "s"),
        "analysis.radial_problem_from_launch_s": (t("analysis.radial_problem_from_launch"), "s"),
        "analysis.apsidal_angle_s": (t("analysis.apsidal_angle"), "s"),
        "analysis.apsides_s": (t("analysis.apsides"), "s"),
        "continuation.sweep_s": (t("continuation.sweep"), "s"),
        "continuation.zero_set_scan_s": (t("continuation.zero_set_scan"), "s"),
        "cli.main_s": (t("cli.main"), "s"),
        "serialize.dump_s": (t("serialize.dump"), "s"),
        "serialize.write_csv_s": (t("serialize.write_csv"), "s"),
        "trace.spans": (len(spans), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_time[layer], "s")
    return m


def _has_ancestor(spans, span, name) -> bool:
    parent = span[PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
