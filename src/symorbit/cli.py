"""Command-line front end: solve, sweep, analyze, verify.

All commands read one JSON configuration file, take a few numeric overrides on
the command line, and emit deterministic machine-readable output (JSON and
CSV, floats at 17 significant digits). Exit codes classify failures: 2 for
bracketing, 3 for root-finding convergence, 4 for validation, 5 for leaving
the problem's domain of validity, 1 for configuration problems and command
line usage errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import serialize
from .analysis import (
    apsidal_angle,
    apsidal_limit,
    apsides,
    energy,
    angular_momentum,
    radial_accel_at_launch,
    radial_accel_finite_difference,
    radial_problem_from_launch,
)
from .continuation import sweep as run_sweep, zero_set_scan
from .errors import (
    BoundaryHypothesisFailure,
    BracketFailure,
    DegenerateLimit,
    DomainExit,
    HypothesisViolation,
    NoBoundedMotion,
    NoCrossing,
    NonConvergence,
    SolverError,
    StepFailure,
    SymmetryViolation,
    TangentialCrossing,
    BoundaryCrossing,
)
from .forcefield import (
    ForceField,
    PowerLawParams,
    check_symmetry,
    circular_speed,
    field_from_config,
)
from .integrator import IntegratorConfig, State, flow
from .orbit import extend_half, extend_quarter, validate_orbit
from .shooting import (
    Mode,
    ShootingProblem,
    crossing_time_deviation,
    sign_table,
    solve as run_solve,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BRACKET = 2
EXIT_CONVERGENCE = 3
EXIT_VALIDATION = 4
EXIT_DOMAIN = 5

_EXIT_BY_ERROR = (
    (BracketFailure, EXIT_BRACKET),
    (NonConvergence, EXIT_CONVERGENCE),
    ((SymmetryViolation, HypothesisViolation), EXIT_VALIDATION),
    (
        (
            DomainExit,
            StepFailure,
            NoCrossing,
            TangentialCrossing,
            BoundaryCrossing,
            NoBoundedMotion,
            DegenerateLimit,
            BoundaryHypothesisFailure,
        ),
        EXIT_DOMAIN,
    ),
)


def exit_code_for(exc: SolverError) -> int:
    for types_, code in _EXIT_BY_ERROR:
        if isinstance(exc, types_):
            return code
    return EXIT_VALIDATION


# Every key a configuration is read for, by section; any other key is refused.
# The field's perturbation "params" are family constants and are not listed.
_CONFIG_KEYS = {
    "": (
        "field", "mode", "radius", "eta", "delta", "solve_tol", "t_bar", "integrator",
        "mu", "mu_grid", "scan", "samples", "seed", "symmetry_samples",
    ),
    "field": ("kappa", "alpha", "perturbation", "mu_range", "annulus"),
    "field.perturbation": ("kind", "params", "symmetries"),
    "integrator": ("rel_tol", "abs_tol", "max_step", "first_step"),
    "mu_grid": ("stop", "step", "count", "mirror"),
    "scan": ("sigma_min", "sigma_max", "sigma_count", "mu_max", "mu_count"),
}  # fmt: skip


def _check_keys(raw: dict):
    """Raise ValueError naming the path of the first key that no section reads."""
    for path, known in _CONFIG_KEYS.items():
        section = raw
        for part in path.split(".") if path else ():
            section = section.get(part) if isinstance(section, dict) else None
        if section is None:
            continue
        if not isinstance(section, dict):
            raise ValueError(f"configuration key {path!r} must hold an object")
        for key in section:
            if key not in known:
                name = f"{path}.{key}" if path else key
                raise ValueError(f"unknown configuration key {name!r}")


def _number(section: dict, key: str, path: str, default, valid=lambda v: v > 0, requirement="a positive number") -> float:
    """section[key] (default when absent) as a finite float that passes `valid`."""
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (math.isfinite(value) and valid(value)):
        raise ValueError(f"configuration key {path!r} must be {requirement}, got {value!r}")
    return float(value)


def _positive(section: dict, key: str, path: str) -> float | None:
    """section[key] as a positive finite float; None when absent or null."""
    if section.get(key) is None:
        return None
    return _number(section, key, path, None, requirement="a positive number or null")


def _count(section: dict, key: str, path: str, default: int, minimum: int) -> int:
    """section[key] (default when absent) as an integer of at least `minimum`."""
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"configuration key {path!r} must be an integer >= {minimum}, got {value!r}")
    return value


def _mu_grid_config(raw: dict, mu_range: float) -> dict:
    """The mu_grid section, checked: the grid stays inside the open mu range."""
    grid = raw.get("mu_grid", {})
    mirror = grid.get("mirror", False)
    if not isinstance(mirror, bool):
        raise ValueError(f"configuration key 'mu_grid.mirror' must be true or false, got {mirror!r}")
    # Default sweep range: 64 uniform points over [0, half the mu range].
    stop = _number(
        grid, "stop", "mu_grid.stop", 0.5 * mu_range, lambda v: 0 < v < mu_range, f"a number in (0, {mu_range})"
    )
    return {
        "stop": stop,
        "step": _positive(grid, "step", "mu_grid.step"),
        "count": _count(grid, "count", "mu_grid.count", 64, 1),
        "mirror": mirror,
    }


def _scan_config(raw: dict) -> dict:
    """The scan section, checked. The sigmas are checked against the speed band
    (1 - delta, 1 + delta) only when the scan runs: the default 0.9 and 1.1 lie
    outside a narrow band that a solve-only configuration may declare."""
    scan = raw.get("scan", {})
    sigma_min = _number(scan, "sigma_min", "scan.sigma_min", 0.9)
    sigma_max = _number(
        scan, "sigma_max", "scan.sigma_max", 1.1, lambda v: v > sigma_min, f"a number above sigma_min = {sigma_min}"
    )
    return {
        "sigma_min": sigma_min,
        "sigma_max": sigma_max,
        "sigma_count": _count(scan, "sigma_count", "scan.sigma_count", 41, 2),
        "mu_max": _number(scan, "mu_max", "scan.mu_max", 0.05, lambda v: True, "a finite number"),
        "mu_count": _count(scan, "mu_count", "scan.mu_count", 21, 1),
    }


@dataclass
class RunConfig:
    field: ForceField
    mode: Mode
    radius: float
    eta: float
    delta: float
    solve_tol: float
    t_bar: float | None
    integrator: IntegratorConfig
    mu: float
    mu_grid: dict
    scan: dict
    samples: int
    seed: int
    symmetry_samples: int

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ValueError("configuration must be a JSON object")
        _check_keys(raw)
        field = field_from_config(raw["field"])
        icfg = raw.get("integrator", {})
        integrator = IntegratorConfig(
            rel_tol=_number(icfg, "rel_tol", "integrator.rel_tol", 1e-12),
            abs_tol=_number(icfg, "abs_tol", "integrator.abs_tol", 1e-12),
            max_step=_positive(icfg, "max_step", "integrator.max_step"),
            first_step=_positive(icfg, "first_step", "integrator.first_step"),
        )
        eta = _number(raw, "eta", "eta", 0.1, lambda v: 0 < v < 1, "a number in (0, 1)")
        delta = _number(raw, "delta", "delta", 0.2, lambda v: eta < v < 1, f"a number in (eta = {eta}, 1)")
        a = field.mu_range
        mu = _number(raw, "mu", "mu", 0.0, lambda v: abs(v) < a, f"a number in the field's mu range (-{a}, {a})")
        return cls(
            field=field,
            mode=Mode(raw.get("mode", "quarter")),
            radius=_number(raw, "radius", "radius", 1.0),
            eta=eta,
            delta=delta,
            solve_tol=_number(raw, "solve_tol", "solve_tol", 1e-10, lambda v: v >= 0, "a non-negative number"),
            t_bar=_positive(raw, "t_bar", "t_bar"),
            integrator=integrator,
            mu=mu,
            mu_grid=_mu_grid_config(raw, a),
            scan=_scan_config(raw),
            # validate_orbit's simplicity check needs 256 samples per period.
            samples=_count(raw, "samples", "samples", 1024, 256),
            seed=_count(raw, "seed", "seed", 0, 0),
            symmetry_samples=_count(raw, "symmetry_samples", "symmetry_samples", 64, 1),
        )

    @classmethod
    def load(cls, path) -> "RunConfig":
        import json

        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def problem(self) -> ShootingProblem:
        return ShootingProblem(
            field=self.field,
            radius=self.radius,
            mode=self.mode,
            eta=self.eta,
            delta=self.delta,
            t_bar=self.t_bar,
            integrator=self.integrator,
        )


def _check_mu(mu: float, field: ForceField, name: str):
    if not abs(mu) < field.mu_range:
        raise ValueError(f"{name} = {mu} outside the field's mu range (-{field.mu_range}, {field.mu_range})")


def _emit(payload: dict, as_json: bool, stream=None):
    stream = stream or sys.stdout
    if as_json:
        stream.write(serialize.dumps(payload) + "\n")
    else:
        for key, value in payload.items():
            if key == "samples":
                continue
            stream.write(f"{key}: {value}\n")


def cmd_solve(config: RunConfig, mu: float, out_dir, as_json: bool) -> int:
    check_symmetry(
        config.field, mu, sample_count=config.symmetry_samples, seed=config.seed
    )
    problem = config.problem()
    solution = run_solve(problem, mu, tol=config.solve_tol)
    extend = extend_quarter if config.mode is Mode.QUARTER else extend_half
    orbit = extend(solution.segment, mu=mu, n_samples=config.samples)
    ok, diag = validate_orbit(orbit, config.field, mu, config.integrator)

    payload = orbit.to_dict(include_samples=True)
    payload["sigma_star"] = solution.sigma_star
    payload["tau"] = solution.tau
    payload["miss_residual"] = solution.miss_residual
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        serialize.dump(payload, out / "orbit.json")
        orbit.write_csv(out / "orbit.csv")
    summary = {k: v for k, v in payload.items() if k != "samples"}
    _emit(summary, as_json)
    return EXIT_OK if ok else EXIT_VALIDATION


def _mu_grids(config: RunConfig):
    stop, step = config.mu_grid["stop"], config.mu_grid["step"]
    if step is not None:
        # The last multiple of step not past stop; a stop within rounding of a
        # multiple (0.1 with step 0.005) still ends the grid at stop.
        n = math.floor(stop / step * (1.0 + 1e-12))
        forward = np.minimum(np.linspace(0.0, n * step, n + 1), stop)
    else:
        forward = np.linspace(0.0, stop, config.mu_grid["count"])
    grids = [forward]
    if config.mu_grid["mirror"]:
        grids.append(-forward)
    return grids


def cmd_sweep(config: RunConfig, out_dir, as_json: bool) -> int:
    problem = config.problem()
    grids = _mu_grids(config)
    curves = [run_sweep(problem, g, tol=config.solve_tol) for g in grids]

    scan_cfg = config.scan
    sigmas = np.linspace(scan_cfg["sigma_min"], scan_cfg["sigma_max"], scan_cfg["sigma_count"])
    scan_mus = np.linspace(0.0, scan_cfg["mu_max"], scan_cfg["mu_count"])
    scan = zero_set_scan(problem, sigmas, scan_mus)

    rows = []
    for curve in curves:
        for e in curve.entries:
            rows.append((e.mu, e.sigma_star, e.period, e.closure_residual))
    rows.sort(key=lambda r: r[0])

    directions = ["positive", "negative"]
    summary = {
        "entries": len(rows),
        "scan": {
            "row_complete": scan.row_complete,
            "components": scan.component_count(),
            "boundary_signs": [int(scan.signs[0, 0]), int(scan.signs[-1, 0])],
        },
    }
    for name, curve in zip(directions, curves):
        summary[f"empirical_delta0_{name}"] = curve.empirical_delta0
        summary[f"connect_gap_{name}"] = curve.connect_gap
        summary[f"failure_{name}"] = curve.failure

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        serialize.write_csv(
            out / "sweep.csv", ["mu", "sigma_star", "period", "closure_residual"], rows
        )
        scan_rows = [
            [serialize.fmt(s)] + [int(v) for v in scan.signs[i]] for i, s in enumerate(sigmas)
        ]
        serialize.write_csv(
            out / "zero_set.csv",
            ["sigma"] + [serialize.fmt(m) for m in scan_mus],
            scan_rows,
        )
        serialize.dump(summary, out / "sweep_summary.json")
    _emit(summary, as_json)

    ok = all(c.failure is None for c in curves) and scan.row_complete
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_analyze(config: RunConfig, sigma: float, mu: float, as_json: bool) -> int:
    if mu != 0.0:
        raise ValueError("analyze covers the unperturbed central problem; mu must be 0")
    params = config.field.base
    problem = radial_problem_from_launch(params, config.radius, sigma)
    circular = problem.r_max - problem.r_min < 1e-9
    phi = apsidal_angle(problem)
    try:
        phi_limit = apsidal_limit(params, config.radius)
    except DegenerateLimit:
        phi_limit = None

    apsis_list = []
    if not circular:
        w = circular_speed(params, config.radius) / config.radius
        traj = flow(
            config.field,
            0.0,
            (config.radius, 0.0),
            (0.0, sigma * circular_speed(params, config.radius)),
            2.0 * math.pi / w,
            config.integrator,
        )
        apsis_list = [
            {"kind": ev.kind.value, "t": ev.t, "r": ev.r} for ev in apsides(traj)
        ]

    payload = {
        "E": problem.E,
        "K": problem.K,
        "r_min": problem.r_min,
        "r_max": problem.r_max,
        "Phi": phi,
        "Phi_limit": phi_limit,
        "circular": bool(circular),
        "apsides": apsis_list,
    }
    _emit(payload, as_json)
    return EXIT_OK


def _check_declared_symmetries(config: RunConfig):
    try:
        residuals = check_symmetry(
            config.field,
            0.5 * config.field.mu_range,
            sample_count=config.symmetry_samples,
            seed=config.seed,
        )
        return True, {r.value: v for r, v in residuals.items()}
    except SymmetryViolation as exc:
        return False, {r.value: v for r, v in exc.residuals.items()}


def _check_sign_table(config: RunConfig):
    expected = {(0.0, 1): 1, (0.0, -1): -1, (0.5, 1): 1, (0.5, -1): -1,
                (2.0, 1): -1, (2.0, -1): 1, (3.0, 1): -1, (3.0, -1): 1}
    got = {}
    for alpha, eps_sign in expected:
        pa = PowerLawParams(config.field.base.kappa, alpha)
        got[(alpha, eps_sign)] = sign_table(pa, eps_sign * 0.05, radius=config.radius)
    detail = {f"alpha={a},eps={e:+d}": f"{got[(a, e)]:+d}" for (a, e) in sorted(got)}
    return got == expected, detail


def _check_radial_accel_identity(config: RunConfig):
    worst = 0.0
    for alpha in (0.0, 0.5, 1.0, 2.0):
        pa = PowerLawParams(config.field.base.kappa, alpha)
        for eps in (0.1, -0.1, 0.01, -0.01):
            diff = abs(
                radial_accel_finite_difference(pa, config.radius, eps)
                - radial_accel_at_launch(pa, config.radius, eps)
            )
            worst = max(worst, diff)
    return worst < 1e-5, {"worst_abs_error": worst}


def _check_crossing_continuity(config: RunConfig):
    # Probes stay inside the configured bracket band so steep-force setups
    # are not pushed out of range. A narrow band marks a steep force whose
    # usable mu range is narrow too (alpha = 3 with eta = 0.04 has no crossing
    # near sigma = 1.02 beyond mu ~ 0.024), so mu is capped at eta / 2 as well.
    rng = np.random.default_rng(config.seed)
    problem = config.problem()
    mu_cap = min(0.05, 0.5 * config.field.mu_range, 0.5 * problem.eta)
    ok, probes = True, []
    for _ in range(3):
        sigma = 1.0 + float(rng.uniform(-0.5 * problem.eta, 0.5 * problem.eta))
        mu = float(rng.uniform(0.0, mu_cap))
        devs = crossing_time_deviation(problem, mu, sigma)
        probes.append({"sigma": sigma, "mu": mu, "deviations": devs})
        ok = ok and devs[0] > devs[1] > devs[2]
    return ok, probes


def _check_conservation(config: RunConfig):
    # Energy and angular momentum at mu = 0 over one period, or over whatever
    # span of it stays inside the annulus.
    params = config.field.base
    sigma = 1.05 if params.alpha < 2.0 else 1.01
    v0 = circular_speed(params, config.radius)
    w = v0 / config.radius
    try:
        traj = flow(
            config.field,
            0.0,
            (config.radius, 0.0),
            (0.0, sigma * v0),
            2.0 * math.pi / w,
            config.integrator,
        )
    except DomainExit as exc:
        traj = exc.trajectory
    ts = np.linspace(0.0, traj.t_end, 256)
    states = [State(t=t, position=y[:2], velocity=y[2:]) for t, y in zip(ts, traj.eval_many(ts))]
    h0 = energy(params, states[0])
    k0 = angular_momentum(states[0])
    scale_h = max(abs(h0), 0.5 * v0 * v0)  # |H| may vanish at alpha = 2
    drift_h = max(abs(energy(params, s) - h0) for s in states) / scale_h
    drift_k = max(abs(angular_momentum(s) - k0) for s in states) / abs(k0)
    return drift_h < 1e-9 and drift_k < 1e-9, {
        "energy_drift": drift_h,
        "momentum_drift": drift_k,
        "span": traj.t_end,
    }


_VERIFY_CHECKS = (
    ("symmetry", _check_declared_symmetries),
    ("sign_table", _check_sign_table),
    ("radial_accel_identity", _check_radial_accel_identity),
    ("crossing_continuity", _check_crossing_continuity),
    ("conservation", _check_conservation),
)


def cmd_verify(config: RunConfig, as_json: bool) -> int:
    results = []
    for name, fn in _VERIFY_CHECKS:
        try:
            passed, detail = fn(config)
        except SolverError as exc:
            # An erroring check fails on its own; the rest still run.
            passed, detail = False, {"error": type(exc).__name__, "message": str(exc)}
        results.append({"name": name, "passed": bool(passed), "detail": detail})
    all_ok = all(r["passed"] for r in results)
    payload = {"checks": results, "passed": all_ok}
    if as_json:
        _emit(payload, True)
    else:
        for r in results:
            sys.stdout.write(f"{'PASS' if r['passed'] else 'FAIL'}  {r['name']}\n")
        sys.stdout.write(("all checks passed" if all_ok else "FAILED") + "\n")
    if all_ok:
        return EXIT_OK
    sys.stderr.write(
        "failing checks: " + ", ".join(r["name"] for r in results if not r["passed"]) + "\n"
    )
    return EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symorbit",
        description="Symmetric periodic orbits of perturbed power-law fields by shooting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--json", action="store_true", help="machine-readable stdout")

    p_solve = sub.add_parser("solve", help="solve one mu and validate the orbit")
    common(p_solve)
    p_solve.add_argument("--mu", type=float, default=None)
    p_solve.add_argument("--out", default=None, help="directory for orbit.json/orbit.csv")

    p_sweep = sub.add_parser("sweep", help="mu continuation sweep plus miss-sign scan")
    common(p_sweep)
    p_sweep.add_argument("--out", default=None, help="directory for CSV/JSON outputs")

    p_analyze = sub.add_parser("analyze", help="central-force diagnostics of a launch")
    common(p_analyze)
    p_analyze.add_argument("--sigma", type=float, required=True)
    p_analyze.add_argument("--mu", type=float, default=0.0)

    p_verify = sub.add_parser("verify", help="run the named property-check battery")
    common(p_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed help (code 0) or a usage error (code 2, which
        # here would read as a bracketing failure).
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    for flag in ("mu", "sigma"):
        value = getattr(args, flag, None)
        if value is not None and not math.isfinite(value):
            sys.stderr.write(f"configuration error: --{flag} must be finite, got {value}\n")
            return EXIT_CONFIG
    try:
        config = RunConfig.load(args.config)
    except (OSError, KeyError, ValueError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG

    try:
        if args.command == "solve":
            if args.mu is None:
                return cmd_solve(config, config.mu, args.out, args.json)
            _check_mu(args.mu, config.field, "--mu")
            return cmd_solve(config, args.mu, args.out, args.json)
        if args.command == "sweep":
            return cmd_sweep(config, args.out, args.json)
        if args.command == "analyze":
            return cmd_analyze(config, args.sigma, args.mu, args.json)
        return cmd_verify(config, args.json)
    except SolverError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return exit_code_for(exc)
    except ValueError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
