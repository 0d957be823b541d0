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
import functools
import math
import sys
from dataclasses import dataclass, fields
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
from .continuation import solve_orbit, sweep as run_sweep, write_curves_csv, zero_set_scan
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
    _FAMILIES,
    ForceField,
    PerturbationSpec,
    PowerLawParams,
    Reflection,
    check_symmetry,
    circular_speed,
    potential_derivatives,
    zero_perturbation,
)
from .integrator import State, flow
from .shooting import (
    Mode,
    ShootingProblem,
    crossing_time_deviation,
    sign_table,
    solve as run_solve,  # noqa: F401 -- unused here; perfbench's tracer patches and restores cli.run_solve
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


_REQUIRED = object()  # the default of a key that must be given
_ABSENT = object()  # a key the configuration leaves out


def _finite(value) -> bool:
    """A JSON number (not a bool) that is finite."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


_POSITIVE = (lambda v, c: v > 0, "a positive number")


def _at_least(n: int):
    return lambda v, c: v >= n, f"an integer >= {n}"


def _launchable(r: float, c: dict) -> bool:
    """r lies in the annulus, and U'(r) and U''(r) of the configured power law
    are finite nonzero floats."""
    if not c["field.annulus"][0] <= r <= c["field.annulus"][1]:
        return False
    try:
        u1, u2 = potential_derivatives(PowerLawParams(c["field.kappa"], c["field.alpha"]), r)
    except (OverflowError, ZeroDivisionError):
        return False
    return all(math.isfinite(u) and u != 0.0 for u in (u1, u2))


# Every key a configuration is read for, in reading order: (dotted path,
# default or _REQUIRED, JSON type, check over the value and the values read
# before it by path, the requirement an error names). A float is a finite JSON
# number; a key whose default is null also takes null; an object holds only
# the keys of its rows, and "field.perturbation.params" only the constants of
# its family (forcefield._FAMILIES), each a finite number.
_KEYS = (
    ("field", _REQUIRED, dict, None, "an object"),
    ("field.kappa", _REQUIRED, float, *_POSITIVE),
    ("field.alpha", _REQUIRED, float, lambda v, c: v >= 0, "a non-negative number"),
    ("field.mu_range", 0.5, float, *_POSITIVE),
    ("field.annulus", [0.5, 2.0], list, lambda v, c: len(v) == 2 and all(map(_finite, v)) and 0 < v[0] < v[1],
     "[r_in, r_out] with 0 < r_in < r_out"),
    # Absent or null: the pure power law, declared symmetric about both axes.
    ("field.perturbation", None, dict, None, "an object"),
    ("field.perturbation.kind", "zero", str, lambda v, c: v in _FAMILIES, f"one of {', '.join(map(repr, _FAMILIES))}"),
    ("field.perturbation.params", {}, dict, None, "an object"),
    ("field.perturbation.symmetries", [], list, lambda v, c: all(s in [r.value for r in Reflection] for s in v),
     "a list of 'x_axis' and 'y_axis'"),
    ("mode", "quarter", str, lambda v, c: v in [m.value for m in Mode], "'quarter' or 'half'"),
    # The launch point (radius, 0) must lie in the annulus, as ForceField.contains
    # tests it, where the launch's circular speed and apsidal limit are representable.
    ("radius", 1.0, float, _launchable,
     "a number in field.annulus [r_in, r_out] where U' and U'' are finite and nonzero"),
    ("eta", 0.1, float, lambda v, c: 0 < v < 1, "a number in (0, 1)"),
    ("delta", 0.2, float, lambda v, c: c["eta"] < v < 1, "a number in (eta, 1)"),
    ("solve_tol", 1e-10, float, lambda v, c: v >= 0, "a non-negative number"),
    ("mu", 0.0, float, lambda v, c: abs(v) < c["field.mu_range"], "a number in (-field.mu_range, field.mu_range)"),
    ("mu_grid", {}, dict, None, "an object"),
    # Default sweep range: 64 uniform points over [0, half the mu range].
    ("mu_grid.stop", lambda c: 0.5 * c["field.mu_range"], float, lambda v, c: 0 < v < c["field.mu_range"],
     "a number in (0, field.mu_range)"),
    ("mu_grid.step", None, float, *_POSITIVE),
    ("mu_grid.count", 64, int, *_at_least(1)),
    ("mu_grid.mirror", False, bool, None, "true or false"),
    # sweep checks the sigmas against the speed band (1 - delta, 1 + delta):
    # the defaults lie outside a narrow band that a solve-only configuration
    # may declare.
    ("scan", {}, dict, None, "an object"),
    ("scan.sigma_min", 0.9, float, *_POSITIVE),
    ("scan.sigma_max", 1.1, float, lambda v, c: v > c["scan.sigma_min"], "a number above scan.sigma_min"),
    ("scan.sigma_count", 41, int, *_at_least(2)),
    ("scan.mu_max", 0.05, float, None, "a finite number"),
    ("scan.mu_count", 21, int, *_at_least(1)),
    # validate_orbit's simplicity check needs 256 samples per period.
    ("samples", 1024, int, *_at_least(256)),
    ("seed", 0, int, *_at_least(0)),
    ("symmetry_samples", 64, int, *_at_least(1)),
)  # fmt: skip
_ROW = {row[0]: row for row in _KEYS}
# The keys of the rows directly below each path; "" is the whole configuration.
_BELOW = {path: [p.rpartition(".")[2] for p in _ROW if p.rpartition(".")[0] == path] for path in ("", *_ROW)}
# The row of each family constant; a constant whose default is an integer is
# an exponent (axis_poly px, py).
_CONSTANT = ("", 0.0, float, None, "a finite number")
_EXPONENT = ("", 0, float, lambda v, c: v >= 0 and float(v).is_integer(), "a nonnegative integer")
_PARAMS = "field.perturbation.params"


def _checked(name: str, value, row, values: dict):
    """value, a float when the row's type is float; raises ValueError naming
    `name` unless it has the row's type and passes the row's check."""
    _, default, kind, check, requirement = row
    if value is None and default is None:
        return None
    typed = _finite(value) if kind is float else isinstance(value, kind) and not (kind is int and isinstance(value, bool))
    if not (typed and (check is None or check(value, values))):
        raise ValueError(f"{name} must be {requirement}{' or null' if default is None else ''}, got {value!r}")
    return float(value) if kind is float else value


def _check_keys(section: dict, path: str, known):
    """Raise ValueError naming the path of the first key of the object at
    `path` that is not in `known`."""
    for key in section:
        if key not in known:
            name = f"{path}.{key}" if path else key
            raise ValueError(f"unknown configuration key {name!r}")


def _read(raw) -> dict:
    """Every configuration value by key path, checked row by row in table
    order, with absent keys at their defaults."""
    if not isinstance(raw, dict):
        raise ValueError("configuration must be a JSON object")
    _check_keys(raw, "", _BELOW[""])
    values = {}
    for row in _KEYS:
        path, default, *_, requirement = row
        value = raw
        for part in path.split("."):
            value = value.get(part, _ABSENT) if isinstance(value, dict) else _ABSENT
        if value is _ABSENT:
            if default is _REQUIRED:
                raise ValueError(f"configuration key {path!r} must be given: {requirement}")
            value = default(values) if callable(default) else default
        values[path] = value = _checked(f"configuration key {path!r}", value, row, values)
        if path == _PARAMS:
            defaults = _FAMILIES[values["field.perturbation.kind"]].defaults
            _check_keys(value, path, defaults)
            for name, constant in value.items():
                row = _EXPONENT if isinstance(defaults[name], int) else _CONSTANT
                _checked(f"configuration key '{path}.{name}'", constant, row, values)
        elif isinstance(value, dict):
            _check_keys(value, path, _BELOW[path])
    return values


def _section(values: dict, name: str) -> dict:
    """The values of the keys of section `name`, by key."""
    return {key: values[f"{name}.{key}"] for key in _BELOW[name]}


@dataclass
class RunConfig:
    field: ForceField
    mode: Mode
    radius: float
    eta: float
    delta: float
    solve_tol: float
    mu: float
    mu_grid: dict
    scan: dict
    samples: int
    seed: int
    symmetry_samples: int

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        v = _read(raw)
        if v["field.perturbation"] is None:
            pert = zero_perturbation()
        else:
            pert = PerturbationSpec(v["field.perturbation.kind"], v[_PARAMS], v["field.perturbation.symmetries"])
        field = ForceField(
            base=PowerLawParams(v["field.kappa"], v["field.alpha"]),
            perturbation=pert,
            mu_range=v["field.mu_range"],
            annulus=tuple(map(float, v["field.annulus"])),
        )
        attrs = {f.name: v[f.name] for f in fields(cls)}  # each attribute is a top-level key
        attrs.update(
            field=field,
            mode=Mode(v["mode"]),
            mu_grid=_section(v, "mu_grid"),
            scan=_section(v, "scan"),
        )
        return cls(**attrs)

    @classmethod
    def load(cls, path) -> "RunConfig":
        import json

        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def problem(self) -> ShootingProblem:
        """The shooting problem; ValueError naming the key 'mode' when the mode
        does not fit the field (not checked at load: analyze never reads it)."""
        try:
            return ShootingProblem(
                field=self.field,
                radius=self.radius,
                mode=self.mode,
                eta=self.eta,
                delta=self.delta,
            )
        except ValueError as exc:
            raise ValueError(f"configuration key 'mode' does not fit the field: {exc}") from None


def _emit(payload: dict, as_json: bool, stream=None):
    stream = stream or sys.stdout
    if as_json:
        stream.write(serialize.dumps(payload) + "\n")
    else:
        for key, value in payload.items():
            stream.write(f"{key}: {value}\n")


def cmd_solve(config: RunConfig, mu: float, out_dir, as_json: bool) -> int:
    check_symmetry(
        config.field, mu, sample_count=config.symmetry_samples, seed=config.seed
    )
    solution, orbit, ok, _ = solve_orbit(config.problem(), mu, config.solve_tol, config.samples)

    payload = orbit.to_dict()
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
    scan_cfg = config.scan
    # Before any sweep runs; miss refuses a sigma outside the speed band and a
    # mu outside the field's mu range.
    for key in ("sigma_min", "sigma_max"):
        if not 1.0 - config.delta < scan_cfg[key] < 1.0 + config.delta:
            raise ValueError(f"configuration key 'scan.{key}' must be a number in (1 - delta, 1 + delta), got {scan_cfg[key]!r}")
    if not abs(scan_cfg["mu_max"]) < config.field.mu_range:
        raise ValueError(
            f"configuration key 'scan.mu_max' must be a number in (-field.mu_range, field.mu_range), got {scan_cfg['mu_max']!r}"
        )
    check_symmetry(
        config.field, config.mu_grid["stop"], sample_count=config.symmetry_samples, seed=config.seed
    )
    problem = config.problem()
    curves = [run_sweep(problem, g, tol=config.solve_tol, n_samples=config.samples) for g in _mu_grids(config)]

    sigmas = np.linspace(scan_cfg["sigma_min"], scan_cfg["sigma_max"], scan_cfg["sigma_count"])
    scan_mus = np.linspace(0.0, scan_cfg["mu_max"], scan_cfg["mu_count"])
    scan = zero_set_scan(problem, sigmas, scan_mus)

    directions = ["positive", "negative"]
    summary = {
        "entries": sum(len(c.entries) for c in curves),
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
        write_curves_csv(out / "sweep.csv", curves)
        scan.write_csv(out / "zero_set.csv")
        serialize.dump(summary, out / "sweep_summary.json")
    _emit(summary, as_json)

    ok = all(c.failure is None for c in curves) and scan.row_complete
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_analyze(config: RunConfig, sigma: float, as_json: bool) -> int:
    params = config.field.base
    problem = radial_problem_from_launch(params, config.radius, sigma)
    circular = problem.r_max - problem.r_min < 1e-9
    phi = apsidal_angle(problem)
    # 3U' + rU'' = (2 - alpha) kappa r^-(alpha + 1) is positive: the level set
    # above has already refused every alpha >= 2 as NoBoundedMotion.
    phi_limit = apsidal_limit(params, config.radius)

    apsis_list = []
    if not circular:
        w = circular_speed(params, config.radius) / config.radius
        traj = flow(
            config.field,
            0.0,
            (config.radius, 0.0),
            (0.0, sigma * circular_speed(params, config.radius)),
            2.0 * math.pi / w,
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
        except (SolverError, OverflowError, ZeroDivisionError) as exc:
            # An erroring check fails on its own, also where a probe's force is
            # not representable at the configured radius; the rest still run.
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use; parsing
    leaves it as it was."""
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

    p_verify = sub.add_parser("verify", help="run the named property-check battery")
    common(p_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG

    try:
        if args.command == "solve":
            if args.mu is None:
                return cmd_solve(config, config.mu, args.out, args.json)
            _checked("--mu", args.mu, _ROW["mu"], {"field.mu_range": config.field.mu_range})
            return cmd_solve(config, args.mu, args.out, args.json)
        if args.command == "sweep":
            return cmd_sweep(config, args.out, args.json)
        if args.command == "analyze":
            return cmd_analyze(config, args.sigma, args.json)
        return cmd_verify(config, args.json)
    except SolverError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return exit_code_for(exc)
    except ValueError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
