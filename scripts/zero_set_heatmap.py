#!/usr/bin/env python3
"""Render the miss-function sign grid over (sigma, mu) as ASCII art and CSV.

The band of sign changes is the numerical footprint of the solution set: one
root curve crossing every mu row between the uniformly signed boundaries.

The default sigma band is half the problem's eta wide on each side of 1, the
half-width `shooting.bracket` tries first; a wider band can run past the
launch speeds at which a steep force's miss is defined (alpha = 3 leaves the
annulus at sigma = 0.96).

Usage: python scripts/zero_set_heatmap.py [--alpha F] [--sigma-width W] [--out DIR]
"""

import argparse
from pathlib import Path

import numpy as np

from symorbit import (
    ForceField,
    Mode,
    PowerLawParams,
    ShootingProblem,
    axis_poly_perturbation,
    radial_power_perturbation,
    zero_set_scan,
)


def build_problem(alpha: float) -> ShootingProblem:
    if alpha == 1.0:
        field = ForceField(
            base=PowerLawParams(1.0, 1.0),
            perturbation=radial_power_perturbation(lam=1.0, beta=3.0),
        )
        return ShootingProblem(field=field, radius=1.0, mode=Mode.QUARTER)
    field = ForceField(
        base=PowerLawParams(1.0, alpha),
        perturbation=axis_poly_perturbation(cx=1.0, px=2, cy=1.0, py=3),
    )
    eta = 0.04 if alpha > 1.0 else 0.1
    return ShootingProblem(field=field, radius=1.0, mode=Mode.HALF, eta=eta)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--sigma-width", type=float, default=None, help="default: half the problem's eta")
    parser.add_argument("--mu-max", type=float, default=0.02)
    parser.add_argument("--rows", type=int, default=25)
    parser.add_argument("--cols", type=int, default=13)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    problem = build_problem(args.alpha)
    width = 0.5 * problem.eta if args.sigma_width is None else args.sigma_width
    sigmas = np.linspace(1.0 - width, 1.0 + width, args.rows)
    mus = np.linspace(0.0, args.mu_max, args.cols)
    scan = zero_set_scan(problem, sigmas, mus)

    chars = {-1: "-", 0: ".", 1: "+"}
    print(f"alpha={args.alpha}  rows: sigma in [{sigmas[0]:.3f}, {sigmas[-1]:.3f}]"
          f"  cols: mu in [0, {args.mu_max}]")
    for i in range(len(sigmas) - 1, -1, -1):
        row = "".join(chars[int(v)] for v in scan.signs[i])
        print(f"  sigma={sigmas[i]:.4f}  {row}")
    print(f"rows with a sign change in every mu column: {scan.row_complete}")
    print(f"connected sign-change bands: {scan.component_count()}")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        scan.write_csv(out / "zero_set.csv")
        print(f"wrote {out / 'zero_set.csv'}")


if __name__ == "__main__":
    main()
