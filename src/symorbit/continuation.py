"""Parameter sweeps of the shooting solve and a sign scan of the miss function.

The sweep walks mu away from zero by predictor-corrector continuation
(Allgower & Georg 1990, ch. 2): a polynomial through the last three solutions
predicts sigma*(mu), and two miss probes near the prediction give the
sign-change bracket that `solve_orbit`, the one path from a bracket to a
validated orbit, solves; the first failure truncates the curve and defines the
empirical usable perturbation range. The scan evaluates miss-function signs on
a (sigma, mu) grid: uniform opposite signs on the sigma boundaries plus a sign
change inside every mu row is the checkable footprint of a connected zero set
crossing the whole mu range. Only a sign is needed there, so the scan
evaluates each cell at a loose tolerance first and keeps that sign where it
is certified (`zero_set_scan`).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import serialize
from .errors import BoundaryHypothesisFailure, SolverError
from .integrator import _crossed
from .orbit import extend_half, extend_quarter, validate_orbit
from .section import _clears
from .shooting import Bracket, MissValue, Mode, ShootingProblem, _check_mu, _check_sigma, bracket, miss, solve

# The scan's loose sign evaluations run at _SCAN_TOL, and a loose sign is kept
# when the loose miss clears every threshold by _CERTIFY * _SCAN_TOL, relative
# (`_certified`). DOP853's global error is proportional to its tolerance
# (Hairer, Norsett & Wanner, Solving ODEs I, II.4). Measured on the sign_scan
# grids at seeds 0-9, 41 x 21 grids over sigma = 1 +- eta on the half alpha =
# 0.5 and alpha = 3 families and zero_set_heatmap.py's grids at alpha = 1, 1.5
# and 3, the loose result differs from the default by at most 12.6 _SCAN_TOL v0
# in the miss, 7.6 in the normal speed, 2.3 _SCAN_TOL lengths in the crossing's
# tangent coordinate and 2.5 _SCAN_TOL windows in t*: the margin leaves at
# least 79x over each.
_SCAN_TOL = 1e-8
_CERTIFY = 1e3


@dataclass(frozen=True)
class CurveEntry:
    """A validated orbit of a sweep; its launch is at sigma_star times the circular speed."""
    mu: float
    sigma_star: float
    period: float
    diagnostics: dict  # validate_orbit's; its closure residual is "closure_position"


@dataclass
class ContinuationCurve:
    entries: list[CurveEntry] = dc_field(default_factory=list)
    empirical_delta0: float = 0.0  # largest |mu| that solved and validated
    connect_gap: float = 0.0  # max |sigma*(mu_{i+1}) - sigma*(mu_i)|
    failure: dict | None = None  # first failure, if the grid was truncated


def _check_grid(problem: ShootingProblem, mu_grid) -> np.ndarray:
    grid = np.asarray(mu_grid, dtype=float)
    if not np.all(np.isfinite(grid)):
        raise ValueError(f"mu grid holds a non-finite value: {grid[~np.isfinite(grid)].tolist()}")
    if grid.size == 0 or grid[0] != 0.0:
        raise ValueError("mu grid must start at 0")
    if np.any(np.diff(np.abs(grid)) < 0):
        raise ValueError("mu grid must move monotonically away from 0")
    signs = np.sign(grid[grid != 0.0])
    if signs.size and not (np.all(signs > 0) or np.all(signs < 0)):
        raise ValueError("mu grid must keep one sign; sweep directions separately")
    if np.max(np.abs(grid)) >= problem.field.mu_range:
        raise ValueError("mu grid leaves the field's open mu range")
    return grid


def solve_orbit(problem: ShootingProblem, mu: float, tol: float, prebuilt: Bracket | None = None):
    """(solution, orbit, ok, diagnostics): the solve at mu on `prebuilt` (else
    the cold bracket around sigma = 1), closed by the mode's reflections into
    an orbit and validated."""
    solution = solve(problem, mu, tol=tol, prebuilt=prebuilt)
    # Read from this module's names at each call, so a wrapper bound to them
    # later (perfbench's tracer) is the function called.
    extend = extend_quarter if problem.mode is Mode.QUARTER else extend_half
    orbit = extend(solution.segment, mu=mu)
    ok, diag = validate_orbit(orbit, problem.field, mu)
    return solution, orbit, ok, diag


def _predicted_bracket(problem: ShootingProblem, mu: float, history) -> Bracket | None:
    """Sign-change bracket near the predicted sigma*(mu), or None.

    `history` holds (mu, sigma*, slope) of the cells solved so far, slope being
    the miss secant across the bracket the cell was solved on. The predictor is
    the Lagrange polynomial through the last three (mu, sigma*); on the curved
    alpha = 0.5 branch a secant misses by up to ~7e-4 per grid step, this by
    ten times less, which keeps the corrector's bracket narrow. The corrector
    probes the miss there and once more 1.5 Newton steps further, so the second
    probe lands past the root. Both probes must stay inside the previous
    sigma* +- eta/4, the predictor's trust region: a prediction that leaves it
    is not probed, and the cell brackets cold.
    """
    nodes = history[-3:]
    center = 0.0
    for i, (mu_i, sigma_i, _) in enumerate(nodes):
        weight = 1.0
        for j, (mu_j, _, _) in enumerate(nodes):
            if j != i:
                weight *= (mu - mu_j) / (mu_i - mu_j)
        center += weight * sigma_i
    _, previous, slope = history[-1]
    reach = 0.25 * problem.eta
    if not (abs(center - previous) <= reach and slope != 0.0):
        return None
    try:
        m_center = miss(problem, center, mu)
        probe = center - 1.5 * m_center.value / slope
        if not (abs(probe - previous) <= reach and probe != center):
            return None
        m_probe = miss(problem, probe, mu)
    except (SolverError, ValueError):
        return None
    if not _crossed(m_center.value, m_probe.value):  # m_center is nonzero: probe != center
        return None
    if probe < center:
        return Bracket(m_probe, m_center)
    return Bracket(m_center, m_probe)


def sweep(problem: ShootingProblem, mu_grid, tol: float = 1e-10) -> ContinuationCurve:
    """Solve along a mu grid (starting at 0, one sign, monotone outward).

    Each cell's bracket comes from the predictor-corrector step on the cells
    before it, else (and always in the first cell) from the cold bracket
    around sigma = 1; at mu = 0 the solve's first iterate is the circle,
    which solves the cell with one miss after the two bracket probes. The
    curve truncates at the first solve or validation failure.
    """
    grid = _check_grid(problem, mu_grid)
    curve = ContinuationCurve()

    history = []  # (mu, sigma*, miss slope) per solved cell, distinct mu
    for mu in grid:
        mu = float(mu)
        try:
            br = _predicted_bracket(problem, mu, history) if history else None
            if br is None:
                br = bracket(problem, mu)
            sol, orbit, ok, diag = solve_orbit(problem, mu, tol, prebuilt=br)
        except SolverError as exc:
            curve.failure = {"mu": mu, "error": type(exc).__name__, "message": str(exc)}
            break
        if not ok:
            curve.failure = {"mu": mu, "error": "ValidationFailure", "diagnostics": diag}
            break
        if history and history[-1][0] == mu:
            history.pop()  # a repeated grid value would make the interpolation singular
        # The miss secant across the bracket: the next cell's corrector slope.
        slope = (br.miss_hi.value - br.miss_lo.value) / (br.miss_hi.sigma - br.miss_lo.sigma)
        history.append((mu, sol.sigma_star, slope))
        curve.entries.append(CurveEntry(mu=mu, sigma_star=sol.sigma_star, period=orbit.period, diagnostics=diag))

    entries = curve.entries
    curve.empirical_delta0 = max((abs(e.mu) for e in entries), default=0.0)
    curve.connect_gap = max((abs(b.sigma_star - a.sigma_star) for a, b in zip(entries, entries[1:])), default=0.0)
    return curve


def write_curves_csv(path, curves) -> None:
    """One `mu,sigma_star,period,closure_residual` row per entry, in a stable
    sort on mu: a mu = 0 row shared by two curves appears once per curve."""
    rows = [(e.mu, e.sigma_star, e.period, e.diagnostics["closure_position"]) for c in curves for e in c.entries]
    serialize.write_csv(path, ["mu", "sigma_star", "period", "closure_residual"], sorted(rows, key=lambda r: r[0]))


@dataclass
class ScanResult:
    sigmas: np.ndarray
    mus: np.ndarray
    signs: np.ndarray  # (n_sigma, n_mu) in {-1, 0, +1}; 0 marks a failed evaluation
    change_cells: list  # (i, j): sign change between sigma_i and sigma_{i+1} at mu_j
    components: list  # bands: change cells grouped by the two sign regions they separate (`_bands`)
    row_complete: bool  # every mu column contains at least one sign change

    def component_count(self) -> int:
        return len(self.components)

    def write_csv(self, path) -> None:
        """The sign matrix, a row per sigma and a column per mu (header)."""
        rows = [[serialize.fmt(s)] + [int(v) for v in row] for s, row in zip(self.sigmas, self.signs)]
        serialize.write_csv(path, ["sigma"] + [serialize.fmt(m) for m in self.mus], rows)


def _bands(signs: np.ndarray) -> tuple[list, list]:
    """(change cells, bands) of a sign matrix (n_sigma, n_mu).

    A change cell (i, j) marks a sign change between sigma_i and sigma_i+1 in
    mu column j, both signs nonzero. A band is the set of change cells that
    separate the same two connected regions of one sign each (4-neighbourhood,
    failed cells belonging to none): one zero curve is one band however many
    rows it climbs between two mu columns, and two curves are two bands,
    parallel ones a row apart too, while the region between them stays
    connected.
    """
    n, m = signs.shape
    grid = signs.tolist()
    region = [[-1] * m for _ in range(n)]
    count = 0
    for i0 in range(n):
        for j0 in range(m):
            if grid[i0][j0] == 0 or region[i0][j0] >= 0:
                continue
            region[i0][j0], stack = count, [(i0, j0)]
            while stack:
                i, j = stack.pop()
                for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                    if 0 <= a < n and 0 <= b < m and region[a][b] < 0 and grid[a][b] == grid[i][j]:
                        region[a][b] = count
                        stack.append((a, b))
            count += 1
    change_cells = [
        (i, j)
        for j in range(m)
        for i in range(n - 1)
        if grid[i][j] != 0 and grid[i + 1][j] != 0 and grid[i][j] != grid[i + 1][j]
    ]
    bands = {}
    for i, j in change_cells:
        bands.setdefault(frozenset((region[i][j], region[i + 1][j])), []).append((i, j))
    return change_cells, [sorted(cells) for cells in bands.values()]


def _loose_problem(problem: ShootingProblem) -> ShootingProblem | None:
    """`problem` in an annulus narrowed by _CERTIFY * _SCAN_TOL, relative, at
    both ends, for the scan's loose flows: the flow's own exit test, turning
    points included, keeps them clear of the true annulus. None when the
    annulus is too thin to narrow."""
    rel = _CERTIFY * _SCAN_TOL
    r_in, r_out = problem.field.annulus
    annulus = (r_in * (1.0 + rel), r_out * (1.0 - rel))
    if not annulus[0] < annulus[1]:
        return None
    return replace(problem, field=replace(problem.field, annulus=annulus))


def _certified(problem: ShootingProblem, loose: MissValue) -> bool:
    """Whether the loose miss's sign is certified, by the rule that
    `zero_set_scan` states; `section._clears` checks the section's part."""
    rel = _CERTIFY * _SCAN_TOL
    v0 = problem.circular_velocity
    return (
        abs(loose.value) >= rel * v0
        and loose.t_star <= (1.0 - rel) * problem.window
        and _clears(problem.section, loose.trajectory, loose.t_star, rel, rel * v0)
    )


def zero_set_scan(
    problem: ShootingProblem,
    sigma_grid,
    mu_grid,
) -> ScanResult:
    """Sign matrix of the miss function over a (sigma, mu) grid.

    Every mu must lie in the field's open mu range and every sigma in the
    speed band, checked before the first miss (miss's ValueError). Each cell
    is first evaluated at the loose tolerance _SCAN_TOL, in the annulus
    narrowed by _CERTIFY * _SCAN_TOL at both ends (`_loose_problem`), and
    that sign is kept when it is certified (`_certified`): |miss| and the
    crossing's normal speed over the transversality floor exceed that margin
    times the circular speed, and the crossing clears the segment's endpoint
    bands, the section line before it and the window's end by the margin
    times the segment's length or the window. Every other cell, a loose
    SolverError included, is recomputed by a miss at the default tolerance,
    so the matrix is the one of that miss per cell, whose SolverError leaves
    its cell at sign 0. Both go through this module's `miss`. The bracketing
    hypothesis across the whole mu range: each sigma boundary row holds one
    nonzero sign, and the two signs differ. Otherwise BoundaryHypothesisFailure
    names both rows and, where a boundary cell failed, the first such cell
    and its error, which it chains as `__cause__`. Sign-change cells between
    adjacent sigma values trace the zero set.
    """
    sigmas = np.asarray(sigma_grid, dtype=float)
    mus = np.asarray(mu_grid, dtype=float)
    if sigmas.size < 2 or mus.size < 1:
        raise ValueError("need at least 2 sigma values and 1 mu value")
    for m in mus:
        _check_mu(problem, float(m))
    for s in sigmas:
        _check_sigma(problem, float(s))

    loose = _loose_problem(problem)
    signs = np.zeros((sigmas.size, mus.size), dtype=int)
    cause, where = None, ""  # the first failed boundary cell's error, and the cell
    for i, s in enumerate(sigmas.tolist()):
        for j, m in enumerate(mus.tolist()):
            try:
                try:
                    value = None if loose is None else miss(loose, s, m, _SCAN_TOL)
                except SolverError:
                    value = None
                if value is None or not _certified(problem, value):
                    value = miss(problem, s, m)
                v = value.value
                signs[i, j] = 1 if v > 0 else (-1 if v < 0 else 0)
            except SolverError as exc:
                if cause is None and i in (0, sigmas.size - 1):
                    cause, where = exc, f"; first failed cell sigma={s}, mu={m}: {type(exc).__name__}: {exc}"

    lo, hi = signs[0].tolist(), signs[-1].tolist()
    if not (len(set(lo)) == len(set(hi)) == 1 and lo[0] * hi[0] == -1):
        raise BoundaryHypothesisFailure(
            "sigma boundary rows need one nonzero sign each, the two opposite: "
            f"sigma={sigmas[0]} row {lo}, sigma={sigmas[-1]} row {hi}{where}"
        ) from cause

    change_cells, components = _bands(signs)
    row_complete = all(any(c[1] == j for c in change_cells) for j in range(mus.size))

    return ScanResult(
        sigmas=sigmas,
        mus=mus,
        signs=signs,
        change_cells=change_cells,
        components=components,
        row_complete=row_complete,
    )
