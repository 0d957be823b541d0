"""Self-test of the traced run: two traced passes over the same inputs give identical counts.

    python3 -m pytest perfbench/test_spans.py

Uses trimmed workloads (three orbits of one family, the cheap CLI commands of
one configuration) so it finishes in seconds.
"""

import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

TIME_UNITS = {"s", "us"}


def traced_counts(tmp_path):
    family = workloads.build("family_sweep", 0, tmp_path)
    family.families = [(key, problem, grid[:3]) for key, problem, grid in family.families[:1]]
    commands = workloads.build("cli_commands", 0, tmp_path)
    cheap = commands.ops()[2:6]  # the quarter config's three analyze commands and its refusal

    gate, samples = workloads.Gate(), defaultdict(list)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op in family.ops() + cheap:
            op(gate, samples)
    finally:
        tracer.uninstall()
    assert gate.correct and gate.failed == 0, gate.notes
    metrics = spans.layer_metrics(tracer)
    return {name: value for name, (value, unit) in metrics.items() if unit not in TIME_UNITS}


def test_two_traced_runs_give_identical_counts(tmp_path):
    first = traced_counts(tmp_path)
    second = traced_counts(tmp_path)
    assert first == second
    # The trimmed pass reaches every layer it is meant to exercise.
    assert first["shooting.miss_calls"] > 0 and first["integrator.steps_accepted"] > 0
    assert first["forcefield.acceleration_calls"] > 0 and first["trace.spans"] > 0


def test_uninstall_restores_every_original():
    from symorbit import cli, continuation, orbit, shooting
    from symorbit.forcefield import ForceField

    before = (continuation.miss, orbit.flow, cli.run_solve, shooting.solve, ForceField.acceleration)
    tracer = spans.Tracer()
    tracer.install()
    assert continuation.miss is not before[0] and cli.run_solve is not before[2]
    tracer.uninstall()
    assert (continuation.miss, orbit.flow, cli.run_solve, shooting.solve, ForceField.acceleration) == before
