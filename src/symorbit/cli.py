"""Command-line front end: solve, sweep, analyze, verify.

All commands read one JSON configuration file, take a few numeric overrides on
the command line, and emit deterministic machine-readable output (JSON and
CSV, floats at 17 significant digits). A solver error exits with its class's
`exit_code` (2 bracketing, 3 root-finding convergence, 4 validation, 5 leaving
the problem's domain of validity); an orbit or check that fails validation
exits 4 too, and configuration problems and command line usage errors exit 1.
A configuration is refused at load or in `main` before a command's first force
evaluation; a ValueError from the package's own work after that is a defect
and surfaces with its traceback.
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
    radial_accel_at_launch,
    radial_accel_finite_difference,
    radial_problem_from_launch,
)
from .continuation import solve_orbit, sweep as run_sweep, write_curves_csv, zero_set_scan
from .errors import DomainExit, SolverError, SymmetryViolation
from .forcefield import (
    _FAMILIES,
    ForceField,
    PerturbationSpec,
    PowerLawParams,
    Reflection,
    check_symmetry,
    circular_speed,
    potential,
    potential_derivatives,
    zero_perturbation,
)
from .integrator import _RESOLUTION, flow
from .orbit import _failed_checks
from .shooting import (
    Mode,
    ShootingProblem,
    _window,
    crossing_time_deviation,
    sign_table,
    solve as run_solve,  # noqa: F401 -- unused here; perfbench's tracer patches and restores cli.run_solve
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = SolverError.exit_code  # an orbit or check that fails validation


_REQUIRED = object()  # the default of a key that must be given
_ABSENT = object()  # a key the configuration leaves out


def _finite(value) -> bool:
    """A JSON number (not a bool) that is finite."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


_POSITIVE = (lambda v, c: v > 0, "a positive number")


def _at_least(n: int):
    return lambda v, c: v >= n, f"an integer >= {n}"


def _between(lo: int, hi: int):
    return lambda v, c: lo <= v <= hi, f"an integer in [{lo}, {hi}]"


# Upper bounds of the count keys, each set by the memory of the largest
# array the count sizes (the reasons are at their rows in _KEYS): a larger
# count is refused at load, before any work, not left to numpy's allocation.
_MAX_GRID = 10_000
_MAX_CELLS = 1_000_000


def _launchable(r: float, c: dict) -> bool:
    """r lies in the annulus, U'(r) and U''(r) of the configured power law
    are finite nonzero floats, and the solve window (`shooting._window`) is
    longer than the integrator's time resolution: a flow that short takes no
    step."""
    if not c["field.annulus"][0] <= r <= c["field.annulus"][1]:
        return False
    try:
        u1, u2 = potential_derivatives(PowerLawParams(c["field.kappa"], c["field.alpha"]), r)
    except (OverflowError, ZeroDivisionError):
        return False
    if not all(math.isfinite(u) and u != 0.0 for u in (u1, u2)):
        return False
    return _window(r, math.sqrt(r * u1)) > _RESOLUTION  # v0 = sqrt(r U'(r)), circular_speed's


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
    # tests it, where the launch's circular speed and apsidal limit are
    # representable and the solve window is one that flow can step through.
    ("radius", 1.0, float, _launchable,
     "a number in field.annulus [r_in, r_out] where U' and U'' are finite and nonzero "
     f"and the solve window 0.75 * 2 pi radius / v0 exceeds {_RESOLUTION:g}"),
    ("eta", 0.1, float, lambda v, c: 0 < v < 1, "a number in (0, 1)"),
    ("delta", 0.2, float, lambda v, c: c["eta"] < v < 1, "a number in (eta, 1)"),
    ("solve_tol", 1e-10, float, lambda v, c: v >= 0, "a non-negative number"),
    ("mu", 0.0, float, lambda v, c: abs(v) < c["field.mu_range"], "a number in (-field.mu_range, field.mu_range)"),
    ("mu_grid", {}, dict, None, "an object"),
    # Default sweep range: 64 uniform points over [0, half the mu range]
    # (_mu_grids). At most _MAX_GRID points: each point is a solved, validated
    # orbit whose curve entry (about 2 kB with its diagnostics) the sweep
    # keeps, so 20 MB and a run of about a minute.
    ("mu_grid.stop", lambda c: 0.5 * c["field.mu_range"], float, lambda v, c: 0 < v < c["field.mu_range"],
     "a number in (0, field.mu_range)"),
    ("mu_grid.count", 64, int, *_between(1, _MAX_GRID)),
    ("mu_grid.mirror", False, bool, None, "true or false"),
    # main checks a sweep's sigmas against the speed band (1 - delta, 1 + delta)
    # and its mu_max against the mu range, outside which miss refuses: the
    # defaults lie outside a narrow band that a solve-only configuration may
    # declare. At most _MAX_CELLS cells: the int sign matrix and the per-cell
    # lists of continuation._bands hold about 8 MB each, after one miss per
    # cell (about 0.3 ms each).
    ("scan", {}, dict, None, "an object"),
    ("scan.sigma_min", 0.9, float, *_POSITIVE),
    ("scan.sigma_max", 1.1, float, lambda v, c: v > c["scan.sigma_min"], "a number above scan.sigma_min"),
    ("scan.sigma_count", 41, int, *_between(2, _MAX_CELLS)),
    ("scan.mu_max", 0.05, float, None, "a finite number"),
    ("scan.mu_count", 21, int, lambda v, c: v >= 1 and v * c["scan.sigma_count"] <= _MAX_CELLS,
     f"an integer >= 1 with scan.sigma_count * scan.mu_count <= {_MAX_CELLS}"),
    ("seed", 0, int, *_at_least(0)),
)  # fmt: skip
_ROW = {row[0]: row for row in _KEYS}
# The keys of the rows directly below each path; "" is the whole configuration.
_BELOW = {path: [p.rpartition(".")[2] for p in _ROW if p.rpartition(".")[0] == path] for path in ("", *_ROW)}
# The row of each family constant; a constant whose default is an integer is
# an exponent (axis_poly px, py).
_CONSTANT = ("", 0.0, float, None, "a finite number")
_EXPONENT = ("", 0, float, lambda v, c: v >= 0 and float(v).is_integer(), "a nonnegative integer")
_PARAMS = "field.perturbation.params"
# The row main checks a sweep's scan.sigma_min and scan.sigma_max by.
_IN_SPEED_BAND = ("", 0.0, float, lambda v, c: 1 - c["delta"] < v < 1 + c["delta"], "a number in (1 - delta, 1 + delta)")


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
    seed: int

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
        does not fit the field (not checked at load: analyze never reads it;
        main builds it before solve, sweep and verify do any work)."""
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


def _emit(payload: dict, as_json: bool):
    if as_json:
        sys.stdout.write(serialize.dumps(payload) + "\n")
    else:
        for key, value in payload.items():
            sys.stdout.write(f"{key}: {value}\n")


def cmd_solve(config: RunConfig, problem: ShootingProblem, mu: float, out_dir, as_json: bool) -> int:
    check_symmetry(config.field, mu, seed=config.seed)
    solution, orbit, ok, diag = solve_orbit(problem, mu, config.solve_tol)

    payload = orbit.to_dict(diag)
    payload["sigma_star"] = solution.sigma_star
    payload["tau"] = solution.tau
    payload["miss_residual"] = solution.miss_residual
    if out_dir is not None:
        out = Path(out_dir)
        serialize.dump(payload, out / "orbit.json")
        orbit.write_csv(out / "orbit.csv")
    summary = {k: v for k, v in payload.items() if k != "samples"}
    _emit(summary, as_json)
    if ok:
        return EXIT_OK
    sys.stderr.write(f"solve failed: {_failure('ValidationFailure', mu, diag)}\n")
    return EXIT_VALIDATION


def _failure(error: str, mu: float, diag: dict | None = None) -> str:
    """`error at mu=...`, followed by the failing checks of validation
    diagnostics `diag`, if given."""
    checks = "" if diag is None else f" ({', '.join(_failed_checks(diag))})"
    return f"{error} at mu={mu}{checks}"


def _mu_grids(config: RunConfig):
    forward = np.linspace(0.0, config.mu_grid["stop"], config.mu_grid["count"])
    # 0.0 - forward, not -forward: the negative direction starts at +0.0.
    return [forward, 0.0 - forward] if config.mu_grid["mirror"] else [forward]


def cmd_sweep(config: RunConfig, problem: ShootingProblem, out_dir, as_json: bool) -> int:
    scan_cfg = config.scan
    check_symmetry(config.field, config.mu_grid["stop"], seed=config.seed)
    curves = [run_sweep(problem, g, tol=config.solve_tol) for g in _mu_grids(config)]

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
        write_curves_csv(out / "sweep.csv", curves)
        scan.write_csv(out / "zero_set.csv")
        serialize.dump(summary, out / "sweep_summary.json")
    _emit(summary, as_json)

    failures = [
        f"failure_{name} {_failure(c.failure['error'], c.failure['mu'], c.failure.get('diagnostics'))}"
        for name, c in zip(directions, curves)
        if c.failure is not None
    ]
    if not scan.row_complete:
        failures.append("scan row_complete false")
    if not failures:
        return EXIT_OK
    sys.stderr.write(f"sweep failed: {'; '.join(failures)}\n")
    return EXIT_VALIDATION


def _one_period(config: RunConfig, sigma: float, v0: float):
    """The flow at mu = 0 of the vertical launch from (radius, 0) at speed
    sigma v0, over 2 pi radius / v0: one period of the circular orbit at
    speed v0, the launch's circular speed."""
    return flow(config.field, 0.0, (config.radius, 0.0), (0.0, sigma * v0), 2.0 * math.pi / (v0 / config.radius))


def cmd_analyze(config: RunConfig, sigma: float, as_json: bool) -> int:
    params = config.field.base
    problem = radial_problem_from_launch(params, config.radius, sigma)
    circular = problem.r_max - problem.r_min < 1e-9
    phi = apsidal_angle(problem)
    # 3U' + rU'' = (2 - alpha) kappa r^-(alpha + 1) is positive: the level set
    # above has already refused every alpha >= 2 as NoBoundedMotion.
    phi_limit = apsidal_limit(params, config.radius)

    apsis_list = [] if circular else apsides(_one_period(config, sigma, circular_speed(params, config.radius)))

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


def _check_declared_symmetries(config: RunConfig, problem: ShootingProblem):
    try:
        residuals = check_symmetry(config.field, 0.5 * config.field.mu_range, seed=config.seed)
        return True, {r.value: v for r, v in residuals.items()}
    except SymmetryViolation as exc:
        return False, {r.value: v for r, v in exc.residuals.items()}


def _check_sign_table(config: RunConfig, problem: ShootingProblem):
    expected = {(0.0, 1): 1, (0.0, -1): -1, (0.5, 1): 1, (0.5, -1): -1,
                (2.0, 1): -1, (2.0, -1): 1, (3.0, 1): -1, (3.0, -1): 1}
    got = {}
    for alpha, eps_sign in expected:
        pa = PowerLawParams(config.field.base.kappa, alpha)
        try:
            got[(alpha, eps_sign)] = sign_table(pa, eps_sign * 0.05, radius=config.radius)
        except ValueError as exc:
            # The radius check bounds the solve window at the configured alpha
            # only; a probe's window, 3 circular periods at its own alpha, can
            # still be at or below flow's time resolution, which it refuses.
            return False, {"error": "ValueError", "message": f"alpha={alpha}: {exc}"}
    detail = {f"alpha={a},eps={e:+d}": f"{got[(a, e)]:+d}" for (a, e) in sorted(got)}
    return got == expected, detail


def _check_radial_accel_identity(config: RunConfig, problem: ShootingProblem):
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


def _check_crossing_continuity(config: RunConfig, problem: ShootingProblem):
    # Probes stay inside the configured bracket band so steep-force setups
    # are not pushed out of range. A narrow band marks a steep force whose
    # usable mu range is narrow too (alpha = 3 with eta = 0.04 has no crossing
    # near sigma = 1.02 beyond mu ~ 0.024), so mu is capped at eta / 2 as well.
    half = min(0.5 * problem.eta, problem.delta - 1e-3 - 1e-15)  # every probe sigma + h, rounded, passes _check_sigma
    if half < 0.0:
        return False, {"message": f"speed band 1 +- delta={problem.delta} is narrower than the probe step 1e-3"}
    rng = np.random.default_rng(config.seed)
    mu_cap = min(0.05, 0.5 * config.field.mu_range, 0.5 * problem.eta)
    ok, probes = True, []
    for _ in range(3):
        sigma = 1.0 + float(rng.uniform(-half, half))
        mu = float(rng.uniform(0.0, mu_cap))
        devs = crossing_time_deviation(problem, mu, sigma)
        probes.append({"sigma": sigma, "mu": mu, "deviations": devs})
        ok = ok and devs[0] > devs[1] > devs[2]
    return ok, probes


def _conservation_drifts(params: PowerLawParams, traj, v0: float) -> tuple[float, float]:
    """Largest changes of energy and angular momentum from their launch values
    over 256 times across traj, relative to max(|H|, v0^2 / 2) and |K|.

    The states are read as one (256, 4) array. Each one's energy 0.5 |v|^2 +
    U(r) and angular momentum x vy - y vx are `analysis.energy` and
    `angular_momentum` of its `State` bit for bit: the radius by `np.hypot`
    and v . v by `@`, as those compute them, and the potential on each float
    radius (numpy's vectorised power and log need not round as libm does)."""
    ys = traj.eval_many(np.linspace(0.0, traj.t_end, 256))
    x, y, vx, vy = ys.T
    energies = [0.5 * float(v @ v) + potential(params, r) for v, r in zip(ys[:, 2:], np.hypot(x, y).tolist())]
    momenta = (x * vy - y * vx).tolist()
    h0, k0 = energies[0], momenta[0]
    scale_h = max(abs(h0), 0.5 * v0 * v0)  # |H| may vanish at alpha = 2
    return max(abs(h - h0) for h in energies) / scale_h, max(abs(k - k0) for k in momenta) / abs(k0)


def _check_conservation(config: RunConfig, problem: ShootingProblem):
    # Energy and angular momentum at mu = 0 over one period, or over whatever
    # span of it stays inside the annulus.
    params = config.field.base
    sigma = 1.05 if params.alpha < 2.0 else 1.01
    v0 = circular_speed(params, config.radius)
    try:
        traj = _one_period(config, sigma, v0)
    except DomainExit as exc:
        traj = exc.trajectory
    drift_h, drift_k = _conservation_drifts(params, traj, v0)
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


def cmd_verify(config: RunConfig, problem: ShootingProblem, as_json: bool) -> int:
    results = []
    for name, fn in _VERIFY_CHECKS:
        try:
            passed, detail = fn(config, problem)
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


def _reads_as_finite_float(word: str) -> bool:
    try:
        return math.isfinite(float(word))
    except ValueError:
        return False


def _negative_values_joined(argv: list) -> list:
    """argv with each `--mu X` and `--sigma X` (or an abbreviation, `--sig X`,
    which argparse takes too) whose X starts with "-" and reads as a finite
    float written `--mu=X`. argparse takes a word that starts with "-" for an
    option unless it reads like -5 or -.5, so `--mu -5e-3` would leave --mu
    without its value; `--mu -inf` is left so, a usage error."""
    joined = []
    for word in argv:
        flag = joined[-1] if joined else ""
        value_flag = len(flag) > 2 and ("--mu".startswith(flag) or "--sigma".startswith(flag))
        if value_flag and word.startswith("-") and _reads_as_finite_float(word):
            joined[-1] += "=" + word
        else:
            joined.append(word)
    return joined


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(_negative_values_joined(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse has printed help (code 0) or a usage error (code 2, which
        # here would read as a bracketing failure).
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    # The one refusal point, before any force evaluation: a ValueError a
    # command raises later is a defect, and surfaces with its traceback.
    try:
        for flag in ("mu", "sigma"):
            value = getattr(args, flag, None)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"--{flag} must be finite, got {value}")
        config = RunConfig.load(args.config)
        limits = {"delta": config.delta, "field.mu_range": config.field.mu_range}
        mu = config.mu if getattr(args, "mu", None) is None else _checked("--mu", args.mu, _ROW["mu"], limits)
        if args.command == "sweep":
            for key, row in (("sigma_min", _IN_SPEED_BAND), ("sigma_max", _IN_SPEED_BAND), ("mu_max", _ROW["mu"])):
                _checked(f"configuration key 'scan.{key}'", config.scan[key], row, limits)
        problem = None if args.command == "analyze" else config.problem()  # analyze never reads the mode
        try:  # last, so that a refused configuration leaves no directory behind
            if getattr(args, "out", None) is not None:
                Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"--out {args.out!r} cannot be used as a directory: {exc}") from None
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG

    try:
        if args.command == "solve":
            return cmd_solve(config, problem, mu, args.out, args.json)
        if args.command == "sweep":
            return cmd_sweep(config, problem, args.out, args.json)
        if args.command == "analyze":
            return cmd_analyze(config, args.sigma, args.json)
        return cmd_verify(config, problem, args.json)
    except SolverError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
