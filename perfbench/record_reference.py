"""Record the seed-0 references the correctness gate compares against.

    python3 perfbench/record_reference.py

Writes ``reference.json`` beside this file: sigma* and period of every orbit
of the two single-reflection acceptance families, the CLI solve of each half
configuration, and the 41x21 miss-sign matrix of the quarter radial scan. The
quarter radial family needs no record: its sigma* has the closed form
sqrt(1 + lam mu).
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from symorbit import cli, continuation  # noqa: E402
import workloads  # noqa: E402


def main():
    families = {}
    for key, problem, grid in (
        ("half_a05", workloads.half_problem(0.5, 0.1), np.linspace(0.0, 0.04, 9)),
        ("half_a3", workloads.half_problem(3.0, 0.04), np.linspace(0.0, 0.01, 9)),
    ):
        curve = continuation.sweep(problem, grid, tol=workloads.SOLVE_TOL)
        if curve.failure is not None or len(curve.entries) != len(grid):
            raise SystemExit(f"{key}: sweep failed, nothing recorded: {curve.failure}")
        families[key] = {
            "mu": [e.mu for e in curve.entries],
            "sigma_star": [e.sigma_star for e in curve.entries],
            "period": [e.period for e in curve.entries],
        }

    cli_solve = {}
    with tempfile.TemporaryDirectory() as tmp:
        for key in ("half_a05", "half_a3"):
            path = Path(tmp) / f"{key}.json"
            path.write_text(json.dumps(workloads.cli_config(key, 0)), encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["solve", "--config", str(path), "--json"])
            if code != 0:
                raise SystemExit(f"{key}: solve exited {code}, nothing recorded")
            payload = json.loads(out.getvalue())
            cli_solve[key] = {"mu": payload["mu"], "sigma_star": payload["sigma_star"], "period": payload["period"]}

    scan = continuation.zero_set_scan(
        workloads.quarter_radial_problem(), np.linspace(0.9, 1.1, 41), np.linspace(0.0, 0.05, 21)
    )
    signs = ["".join({1: "+", -1: "-", 0: "0"}[int(v)] for v in row) for row in scan.signs]

    reference = {"families": families, "cli_solve": cli_solve, "scan_signs": signs}
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
