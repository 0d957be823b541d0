#!/usr/bin/env python3
"""Sweep the fully symmetric family (inverse-square base + central perturbation)
and print the continuation table; optionally stress the perturbation strength
until the solve fails, which measures the usable parameter range empirically.

Usage: python scripts/run_symmetric_family.py [--stress] [--out DIR]
"""

import argparse
import math
from pathlib import Path

import numpy as np

from symorbit import (
    ForceField,
    Mode,
    PowerLawParams,
    ShootingProblem,
    radial_power_perturbation,
    sweep,
    write_curves_csv,
)


def build_problem(lam: float) -> ShootingProblem:
    field = ForceField(
        base=PowerLawParams(kappa=1.0, alpha=1.0),
        perturbation=radial_power_perturbation(lam=lam, beta=3.0),
    )
    return ShootingProblem(field=field, radius=1.0, mode=Mode.QUARTER)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--stress", action="store_true", help="100x perturbation strength")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    lam = 100.0 if args.stress else 1.0
    problem = build_problem(lam)
    grid = np.arange(0.0, 0.1001, 0.005)
    curve = sweep(problem, grid)

    print(f"lam={lam}: {len(curve.entries)}/{len(grid)} mu values solved")
    print(f"{'mu':>8} {'sigma*':>12} {'sqrt(1+lam*mu)':>16} {'period':>10} {'closure':>10}")
    for e in curve.entries:
        exact = math.sqrt(1.0 + lam * e.mu)
        print(
            f"{e.mu:8.3f} {e.sigma_star:12.9f} {exact:16.9f} "
            f"{e.period:10.6f} {e.diagnostics['closure_position']:10.2e}"
        )
    print(f"empirical usable range: |mu| <= {curve.empirical_delta0}")
    print(f"largest sigma* jump between grid neighbors: {curve.connect_gap:.3e}")
    if curve.failure:
        print(f"first failure: {curve.failure}")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_curves_csv(out / "family.csv", [curve])
        print(f"wrote {out / 'family.csv'}")


if __name__ == "__main__":
    main()
