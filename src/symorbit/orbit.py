"""Reflection extension of solved segments into closed orbits, plus validation.

A half segment (x-axis to x-axis, both ends orthogonal) extends to a period-2tau
orbit by reflecting across the x-axis with time reversal. A quarter segment
(x-axis to y-axis, orthogonal at both ends) extends to a period-4tau orbit using
both axis reflections. Each `shooting.Mode` member names the reflections each
branch of a period applies and the end conditions under which the branches
join. Each reflection reverses time, so a branch's segment time map a*tau +
c*s and its state sign vector follow from its reflections (`_branch`). An
orbit evaluates any batch of times with one `Trajectory.eval_many` call on the
mapped times, multiplied by the gathered sign vectors. Each per-orbit
quantity is computed once: the segment's two ends by one `eval_many` call,
the start state as the first sample (`states[0]`), and the polyline that
the simplicity and winding checks read, on first use.

The assembled orbit is checked independently of that construction. One
re-integration of the period from the orbit start gives closure (the state
after one period against the start) and symmetry (for each declared
reflection, the time-reversal residual of the re-integrated positions at the
sample times, which evaluates positions only); simplicity is checked by
orientation tests, and on-segment tests where both orientations vanish, on
the segment pairs whose bounding boxes overlap, found by one sort on their
x-extents, which returns exactly what an all-pairs sweep returns; origin
enclosure by winding number; and the two-point x-axis crossing property by the
integrator's sign-change rule (`_sign_changes`) over the samples, a crossing
between samples refined by the package's one bisection loop
(`integrator._bisect`) on the orbit interpolant.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import serialize
from .errors import HypothesisViolation, PointOnCurve
from .forcefield import ForceField, Reflection
from .integrator import Trajectory, _bisect, _crossed, _sign_changes, flow
from .shooting import Mode

_ENDPOINT_RTOL = 1e-8  # on-axis / orthogonality tolerance relative to segment scale
_SAMPLES = 1024  # sample intervals per period of every orbit
# validate_orbit's acceptance tolerances: closure position and velocity
# mismatch, symmetry residual, x-axis crossings' distance from +-x0.
_CLOSURE_POS_TOL, _CLOSURE_VEL_TOL, _SYMMETRY_TOL, _CROSSING_TOL = 1e-6, 1e-5, 1e-7, 1e-6


# Per reflection S, c / T, where S q(t) = q(c - t) on an orbit q of period T
# that S reverses.
_REVERSAL = {Reflection.X_AXIS: 0.0, Reflection.Y_AXIS: 0.5}


def _branch(k: int, reflections) -> tuple:
    """(a, c, signs) of branch k: on s in [k tau, (k+1) tau] the orbit is the
    segment at time a*tau + c*s with `reflections` applied, its state (x, y,
    vx, vy) times `signs`. Each reflection reverses time, mapping a state by
    its position signs (sx, sy) and velocity signs (-sx, -sy) (Devaney, Trans.
    AMS 218, 1976); a branch composes them, and starts where the previous one
    ended: at the segment's start (a = -k) forwards, its end (a = k + 1)
    backwards."""
    sx = sy = c = 1.0
    for r in reflections:
        sx, sy, c = sx * r.signs[0], sy * r.signs[1], -c
    return (float(-k) if c > 0 else float(k + 1)), c, (sx, sy, c * sx, c * sy)


class PeriodicOrbit:
    """Closed orbit assembled from a solved segment by a reflection table.

    `states` holds `_SAMPLES` + 1 uniformly spaced states over one period,
    first and last coinciding up to construction round-off; `_eval` evaluates
    the underlying piecewise-reflected interpolant at any times. The sample
    rows (t, x, y, vx, vy) and their 17-digit text are built once, when
    `to_dict` or `write_csv` first needs them, so orbit.json and orbit.csv
    carry the same text per value. The orbit holds no validation result:
    `to_dict` is given `validate_orbit`'s diagnostics.
    """

    def __init__(self, segment: Trajectory, mode: Mode, mu):
        tau = segment.t_end
        a, c, signs = zip(*(_branch(k, reflections) for k, reflections in enumerate(mode.branches)))
        self.period = float(len(a) * tau)
        self.segment = segment
        # Branch k covers s in (k tau, (k+1) tau]; branch 0 also takes s = 0.
        self._edges = np.array([k * tau for k in range(1, len(a))])
        self._offsets, self._slopes, self._signs = np.array(a) * tau, np.array(c), np.array(signs)
        self.symmetry = mode.reflections
        self.mu = float(mu)
        self.times = np.linspace(0.0, self.period, _SAMPLES + 1)
        self.states = self._eval(self.times)

    def _eval(self, ts) -> np.ndarray:
        """States at the times ts (any reals), shape (len(ts), 4)."""
        s = np.asarray(ts, dtype=float) % self.period
        k = np.searchsorted(self._edges, s)
        return self.segment.eval_many(self._offsets[k] + self._slopes[k] * s) * self._signs[k]

    @property
    def positions(self) -> np.ndarray:
        return self.states[:, :2]

    @property
    def velocities(self) -> np.ndarray:
        return self.states[:, 2:]

    @functools.cached_property
    def _polyline(self) -> np.ndarray:
        """The sample positions as a closed polyline (`_polyline`), formed once
        for the simplicity and winding checks."""
        return _closed_polyline(self.positions)

    @functools.cached_property
    def _samples(self) -> serialize.FloatRows:
        """(t, x, y, vx, vy) per sample time with their CSV lines, built on
        first use and shared by `to_dict` and `write_csv`."""
        return serialize.FloatRows(np.column_stack([self.times, self.states]))

    def to_dict(self, diagnostics: dict) -> dict:
        return {
            "mu": self.mu,
            "v_mu": self.states[0, 2:].tolist(),  # the launch velocity
            "period": self.period,
            "symmetry": "x_and_y_axes" if Reflection.Y_AXIS in self.symmetry else "x_axis",
            "diagnostics": diagnostics,
            "samples": self._samples,
        }

    def write_csv(self, path):
        serialize.write_csv(path, ["t", "x", "y", "vx", "vy"], self._samples)


def _extend(segment: Trajectory, mode: Mode, mu: float) -> PeriodicOrbit:
    """Check the segment's end conditions for `mode`, then build the orbit."""
    ends = segment.eval_many([0.0, segment.t_end])
    r_scale = max(np.max(np.abs(ends[:, :2])), 1e-30)
    v_scale = max(np.max(np.abs(ends[:, 2:])), 1e-30)
    scale = (r_scale, r_scale, v_scale, v_scale)
    bad = {
        name: float(ends[end][i])  # plain floats: numpy 2 would print np.float64(...)
        for name, end, i in mode.vanishing
        if abs(ends[end][i]) > _ENDPOINT_RTOL * scale[i]
    }
    if bad:
        raise HypothesisViolation(
            f"{mode.value}-extension endpoint conditions violated: {bad} "
            f"(tolerance {_ENDPOINT_RTOL:g} of scale)"
        )
    return PeriodicOrbit(segment, mode, mu)


def extend_half(segment: Trajectory, mu: float = 0.0) -> PeriodicOrbit:
    """Close a segment with both endpoints on the x-axis and vertical velocities.

    The second half is the x-axis mirror image traversed backwards; the result
    has period 2*tau and an x-axis-symmetric trace.
    """
    return _extend(segment, Mode.HALF, mu)


def extend_quarter(segment: Trajectory, mu: float = 0.0) -> PeriodicOrbit:
    """Close a segment running from the x-axis (vertical velocity) to the
    y-axis (horizontal velocity) using both axis reflections; period 4*tau.
    """
    return _extend(segment, Mode.QUARTER, mu)


def verify_closure(
    orbit: PeriodicOrbit,
    field: ForceField,
    mu: float,
) -> tuple[float, float, dict]:
    """Re-integrate one full period from the orbit start, at the integrator's
    fixed tolerances and independently of the reflection construction, and
    read closure and symmetry off that one trajectory q.

    q is the flow over the whole period from the orbit's own start. Its steps
    before tau are the solve's, bit for bit, so `flow` continues the orbit's
    segment past tau (`prefix`) instead of computing them again; a segment it
    cannot continue (another field or mu, a start that differs in a bit, a
    truncation that dropped a step) is integrated from the start.

    Returns the position and velocity mismatches between q(0) and q(T), and
    per declared reflection S the time-reversal residual max_k |S q(t_k) -
    q(c - t_k)| over the orbit's sample times t_k, on positions, with the
    mirrored time taken modulo the period T. A reversible periodic orbit
    satisfies S q(t) = q(c - t) (Devaney, Trans. AMS 218, 1976; Lamb and
    Roberts, Physica D 112, 1998); c is 0 for the x-axis mirror, which fixes
    the launch point, and T/2 for the y-axis mirror, which fixes the y-axis
    crossing at T/4. The mirrored times are evaluated on q directly, so any
    sample count works.
    """
    s0 = orbit.states[0]
    traj = flow(field, mu, s0[:2], s0[2:], orbit.period, prefix=orbit.segment)
    s1 = traj.final_state()
    ts, period = orbit.times, orbit.period
    refls = sorted(orbit.symmetry, key=lambda r: r.value)
    mirrored = [(_REVERSAL[r] * period - ts) % period for r in refls]
    pos = traj.eval_many(np.concatenate([ts, *mirrored]), width=2).reshape(-1, len(ts), 2)
    residuals = {}
    for r, at_mirrored in zip(refls, pos[1:]):
        residuals[r] = float(np.max(np.linalg.norm(pos[0] * np.array(r.signs) - at_mirrored, axis=1)))
    return (
        float(np.linalg.norm(s1.position - s0[:2])),
        float(np.linalg.norm(s1.velocity - s0[2:])),
        residuals,
    )


def _polyline(orbit_or_points) -> np.ndarray:
    if isinstance(orbit_or_points, PeriodicOrbit):
        return orbit_or_points._polyline
    return _closed_polyline(np.asarray(orbit_or_points, dtype=float))


def _closed_polyline(pts: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(pts)):  # before the closing-point test, whose atol they would make inf or NaN
        raise ValueError("polyline points must be finite")
    # Drop a closing point within 1e-9 of the largest |coordinate| of the
    # first; segments wrap around implicitly. On finite points this is
    # np.allclose with rtol 0; a gap that overflows to inf is no duplicate.
    with np.errstate(over="ignore"):
        gap = np.max(np.abs(pts[0] - pts[-1]))
    if gap <= 1e-9 * np.max(np.abs(pts)):
        pts = pts[:-1]
    return pts


def _ranges(first: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenation over k of the positions first[k] .. first[k] + count[k] - 1,
    each with its owner k."""
    owner = np.repeat(np.arange(len(count)), count)
    shift = np.repeat(np.cumsum(count) - count - first, count)
    return owner, np.arange(len(owner)) - shift


def _overlapping_pairs(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j, in lexicographic order, of the segments
    starts[k] -> ends[k] whose closed bounding boxes overlap.

    Sort and sweep on the x-extents (Shamos and Hoey, FOCS 1976; Cohen et al.,
    I-COLLIDE, 1995): in order of left x, the segments whose boxes overlap
    segment k in x and come after it are those whose left x is at most k's
    right x, one `searchsorted` each; of those pairs, the ones whose y-extents
    overlap too are kept. The cost is O(n log n) plus the number of pairs that
    overlap in x, so segments that all span one x range make it quadratic.
    """
    lo = np.minimum(starts, ends)
    hi = np.maximum(starts, ends)
    n = len(starts)
    (lo_x, lo_y), (hi_x, hi_y) = lo.T, hi.T  # 1-D columns: indexed by one array each
    order = np.argsort(lo_x)
    at = np.arange(n)
    stop = np.searchsorted(lo_x[order], hi_x[order], "right")
    first, later = _ranges(at + 1, stop - at - 1)
    a, b = order[first], order[later]
    keep = (lo_y[a] <= hi_y[b]) & (lo_y[b] <= hi_y[a])
    a, b = a[keep], b[keep]
    code = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    return code // n, code % n


def is_simple_closed(orbit_or_points, min_points: int = 256):
    """(True, None) when no two non-adjacent polyline segments meet, else
    (False, meeting point) of the lexicographically first such pair.

    Consecutive exactly repeated samples are collapsed first, so no segment
    has zero length. Two segments meet when each has its end points on
    opposite sides of the other's line, or on it: a zero orientation counts
    when the other test is strict, so a crossing or touch through a sample
    point is found. When both tests give zero (collinear segments, or an end
    point on the other segment's line) they meet only if an end point of one
    lies on the other (the on-segment test of Cormen et al., Introduction to
    Algorithms, 33.1); the meeting point reported is that end point. Meeting
    segments have overlapping closed bounding boxes, so only the pairs that
    `_overlapping_pairs` returns are tested. The points are first scaled by
    a power of two into [-1, 1]: that changes no orientation sign and, scaled
    back, no meeting point, and no difference or product of the tests can
    overflow.
    """
    pts = _polyline(orbit_or_points)
    if len(pts) < min_points:
        raise ValueError(f"need at least {min_points} sample points, got {len(pts)}")
    x, y = pts.T
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    if not keep.all():
        pts = pts[keep]
    if len(pts) > 1 and np.array_equal(pts[-1], pts[0]):
        pts = pts[:-1]
    n = len(pts)
    _, scale = np.frexp(np.max(np.abs(pts)))  # 2**scale bounds every |coordinate|
    pts = np.ldexp(pts, -scale)
    nxt = np.roll(pts, -1, axis=0)
    d = nxt - pts  # segment direction vectors
    i, j = _overlapping_pairs(pts, nxt)
    keep = (j >= i + 2) & ((i > 0) | (j < n - 1))  # not adjacent, not the wrap pair (0, n-1)
    i, j = i[keep], j[keep]

    def cross(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

    a, b, da = pts[i], nxt[i], d[i]
    c, e, dc = pts[j], nxt[j], d[j]
    d1 = cross(dc, a - c)
    d2 = cross(dc, b - c)
    d3 = cross(da, c - a)
    d4 = cross(da, e - a)
    p12, p34 = d1 * d2, d3 * d4
    hit = ((p12 < 0) & (p34 <= 0)) | ((p12 <= 0) & (p34 < 0))
    # Both products 0: an end point q lies on the line of the other segment
    # (s0, s1) and meets it when it lies in that segment's bounding box too.
    # Most orbits have no such pair, and then nothing is tested.
    both = np.flatnonzero((p12 == 0) & (p34 == 0))
    ends = ((d1, c, e, a), (d2, c, e, b), (d3, a, b, c), (d4, a, b, e))
    if len(both):
        on = np.zeros((4, len(both)), dtype=bool)
        for m, (o, s0, s1, q) in enumerate(ends):
            s0, s1, q = s0[both], s1[both], q[both]
            in_box = np.all((np.minimum(s0, s1) <= q) & (q <= np.maximum(s0, s1)), axis=1)
            on[m] = (o[both] == 0) & in_box
        hit[both] = np.any(on, axis=0)
    hits = np.flatnonzero(hit)
    if len(hits) == 0:
        return True, None
    k = hits[0]
    if p12[k] != 0 or p34[k] != 0:
        # Line-line intersection point. d3 == d4 would need both of c, e on
        # the line of a, b, and then p12 == 0 too.
        t = d3[k] / (d3[k] - d4[k])
        return False, np.ldexp(c[k] + t * dc[k], scale)
    first = int(np.argmax(on[:, np.searchsorted(both, k)]))
    return False, np.ldexp(ends[first][3][k], scale)


def winding_number(orbit_or_points) -> int:
    """Signed number of turns around the origin; PointOnCurve within 1e-9 of the largest |coordinate|."""
    pts = _polyline(orbit_or_points)
    if np.min(np.hypot(pts[:, 0], pts[:, 1])) <= 1e-9 * np.max(np.abs(pts)):
        raise PointOnCurve("a sample lies within 1e-9 of the largest |coordinate| of (0.0, 0.0)")
    ang = np.arctan2(pts[:, 1], pts[:, 0])
    d = np.diff(np.concatenate([ang, ang[:1]]))
    d -= 2.0 * math.pi * np.round(d / (2.0 * math.pi))
    return int(round(float(np.sum(d)) / (2.0 * math.pi)))


def axis_crossings(orbit: PeriodicOrbit) -> list[dict]:
    """Transversal crossings of the x-axis over one period, in time order,
    each as the row {"t", "x", "y", "normal_speed"} (normal speed: vy) that
    `validate_orbit` reports.

    Samples within a zero band of the axis are taken as on it, and the
    package's sign-change rule (`integrator._sign_changes`) runs over the
    samples: an interval that ends on the axis is a crossing at that sample
    (the launch point, for one), any other sign change is refined by
    `_bisect` on the orbit interpolant.
    """
    r_scale = float(np.max(np.abs(orbit.positions)))
    v_scale = float(np.max(np.abs(orbit.velocities)))
    z_tol = 1e-9 * r_scale
    floor = 1e-6 * v_scale

    # Samples in the zero band are on the axis; the samples wrap once around
    # the period, so the launch point is reached at the end of the last interval.
    times, n = orbit.times, len(orbit.times) - 1
    vals = orbit.states[:-1, 1]
    vals = np.where(np.abs(vals) < z_tol, 0.0, vals)
    vals = np.append(vals, vals[0])
    # A pair of samples of one strict sign holds no sign change; the rule
    # decides every other pair, NaN pairs included.
    one_sign = ((vals[:-1] > 0.0) & (vals[1:] > 0.0)) | ((vals[:-1] < 0.0) & (vals[1:] < 0.0))
    pairs, vals = np.flatnonzero(~one_sign).tolist(), vals.tolist()
    changes = [c for k in pairs for c in _sign_changes([(k, vals[k]), (k + 1, vals[k + 1])])]
    crossings = []
    for k, j, fa in changes:
        if vals[j] == 0.0:
            t, state = float(times[j % n]), orbit.states[j % n]
        else:
            a, b = _bisect(lambda m: _crossed(fa, orbit._eval([m])[0, 1]), float(times[k]), float(times[j]))
            t = 0.5 * (a + b)
            state = orbit._eval([t])[0]
        x, y, _, vy = state.tolist()
        if abs(vy) >= floor:
            crossings.append({"t": t, "x": x, "y": y, "normal_speed": vy})
    crossings.sort(key=lambda c: c["t"])
    return crossings


def _failed_checks(diag: dict) -> list[str]:
    """The keys of validate_orbit's diagnostics `diag` whose check fails."""
    passed = {
        "closure_position": diag["closure_position"] < _CLOSURE_POS_TOL,
        "closure_velocity": diag["closure_velocity"] < _CLOSURE_VEL_TOL,
        "simple_closed": diag["simple_closed"],
        "winding_number": abs(diag["winding_number"]) == 1,
        "symmetry_residuals": all(v < _SYMMETRY_TOL for v in diag["symmetry_residuals"].values()),
        "crossings_ok": diag["crossings_ok"],
    }
    return [name for name, ok in passed.items() if not ok]


def validate_orbit(
    orbit: PeriodicOrbit,
    field: ForceField,
    mu: float,
) -> tuple[bool, dict]:
    """Full acceptance battery for a constructed orbit.

    Closure and the time-reversal residual of each declared reflection, both
    read off one re-integration of the period (`verify_closure`; the bounds
    below hold at the integrator's fixed 1e-12 tolerances),
    simple-closedness, winding +-1 around the origin, and exactly two
    transversal x-axis crossings (at +-x0 when both symmetries hold, at x0 and
    a negative abscissa otherwise).

    The x-axis time-reversal residual includes the position closure: its term
    at t_k = T compares S_x q(T) with q(0), which S_x fixes (the launch lies on
    the x-axis), so it is at least `closure_position`. Its bound _SYMMETRY_TOL
    = 1e-7 therefore also bounds position closure, tighter than
    _CLOSURE_POS_TOL = 1e-6; in a field symmetric about the x-axis it measures
    non-closure only.

    Returns (ok, diagnostics); the orbit is left as it was given.
    """
    pos_res, vel_res, sym = verify_closure(orbit, field, mu)
    simple, xing_pt = is_simple_closed(orbit)
    wind = winding_number(orbit)
    crossings = axis_crossings(orbit)

    x0 = float(orbit.states[0, 0])
    crossing_ok = len(crossings) == 2
    if crossing_ok:
        xs = sorted(c["x"] for c in crossings)
        if Reflection.Y_AXIS in orbit.symmetry:
            crossing_ok = abs(xs[0] + x0) < _CROSSING_TOL and abs(xs[1] - x0) < _CROSSING_TOL
        else:
            crossing_ok = xs[0] < 0.0 and abs(xs[1] - x0) < _CROSSING_TOL

    diag = {
        "closure_position": pos_res,
        "closure_velocity": vel_res,
        "simple_closed": bool(simple),
        "self_intersection": None if xing_pt is None else [float(xing_pt[0]), float(xing_pt[1])],
        "winding_number": wind,
        "symmetry_residuals": {r.value: v for r, v in sym.items()},
        "x_axis_crossings": crossings,
        "crossings_ok": bool(crossing_ok),
    }
    ok = not _failed_checks(diag)
    diag["valid"] = ok
    return ok, diag
