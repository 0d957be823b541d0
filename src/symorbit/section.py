"""First transversal crossing of a trajectory with a closed section segment.

A section is a finite closed segment; a crossing counts only if the refined
point is strictly interior to the segment and the transverse velocity
component clears a floor. On each step of the dense output the
segment-normal coordinate is a quartic in the step fraction, and one
per-step scanner (`_SectionScan`) searches it:

- a step whose constant coefficient outweighs the sum of the others' moduli
  has no root and is passed over;
- otherwise candidate times are the sign changes on the step's nodes plus a
  few interior points (Horner's rule), a grid value of exactly zero counting
  as the end of a sign change; when the grid shows none, the quartic's
  extrema (roots of its derivative cubic) join the grid, so two crossings
  inside one grid interval are not lost;
- each candidate is refined on the same quartic by the package's one
  bisection primitive (`integrator._bisect`) down to a fixed fraction of the
  window, then classified; the extrema are bisected by it too.

`first_transversal_crossing` runs the scanner over the steps of a finished
trajectory. `crossing_time` hands it to `flow` as the stop callback, so each
integration ends at the step that holds the first crossing (terminal event
location) instead of running to the end of its window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryCrossing, DomainExit, NoCrossing, TangentialCrossing
from .forcefield import ForceField
from .integrator import IntegratorConfig, State, Trajectory, _bisect, _step_eval, flow

# Section segments span [0.25 R, 4 R] along their axis so every desk-scale
# crossing is comfortably interior and interiority stays checkable.
_INNER_MARGIN = 0.25
_OUTER_MARGIN = 4.0


@dataclass(frozen=True)
class SectionSpec:
    """Closed segment from `start` to `end` with a transversality floor."""

    start: tuple[float, float]
    end: tuple[float, float]
    transversality_floor: float = 1e-6
    boundary_tol: float | None = None  # None: 1e-6 * length
    kind: str = "segment"

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("section segment must have positive length")

    @property
    def length(self) -> float:
        return math.hypot(self.end[0] - self.start[0], self.end[1] - self.start[1])

    @property
    def tangent(self) -> np.ndarray:
        d = np.array([self.end[0] - self.start[0], self.end[1] - self.start[1]])
        return d / self.length

    @property
    def normal(self) -> np.ndarray:
        u = self.tangent
        return np.array([-u[1], u[0]])

    def normal_coord(self, p) -> float:
        return float(self.normal @ (np.asarray(p) - np.asarray(self.start)))

    def tangent_coord(self, p) -> float:
        return float(self.tangent @ (np.asarray(p) - np.asarray(self.start)))

    @classmethod
    def positive_y_axis(cls, radius: float, transversality_floor: float = 1e-6):
        return cls(
            start=(0.0, _INNER_MARGIN * radius),
            end=(0.0, _OUTER_MARGIN * radius),
            transversality_floor=transversality_floor,
            kind="positive_y_axis",
        )

    @classmethod
    def negative_x_axis(cls, radius: float, transversality_floor: float = 1e-6):
        return cls(
            start=(-_OUTER_MARGIN * radius, 0.0),
            end=(-_INNER_MARGIN * radius, 0.0),
            transversality_floor=transversality_floor,
            kind="negative_x_axis",
        )


@dataclass(frozen=True)
class CrossingEvent:
    t_star: float
    state: State
    normal_speed: float  # signed velocity component transverse to the segment
    tangent_speed: float  # signed velocity component along the segment


class _SectionScan:
    """Search of the window [t_lo, t_hi] for the first transversal crossing, one step at a time.

    Called with the dense record (t_left, h, y_left, Q) of consecutive steps,
    the first one holding t_lo, and each step's end state (x, y, vx, vy),
    which a step reaching t_hi does not need; returns True once the window is
    covered or a crossing found, which is then in `event`. Raises
    BoundaryCrossing or TangentialCrossing like `first_transversal_crossing`.
    """

    def __init__(self, section: SectionSpec, t_lo: float, t_hi: float, time_tol: float, subsamples: int = 4):
        self.section = section
        (self._n0, self._n1), (self._s0, self._s1) = section.normal.tolist(), section.start
        self._bt = section.boundary_tol if section.boundary_tol is not None else 1e-6 * section.length
        self.t_lo, self.t_hi, self.time_tol = t_lo, t_hi, time_tol
        self._subsamples = subsamples
        self._g = None  # normal coordinate at the left end of the next step
        self.event: CrossingEvent | None = None

    def __call__(self, step, y_right) -> bool:
        t_left, h, y_left, q = step
        n0, n1, s0, s1 = self._n0, self._n1, self._s0, self._s1
        t_lo, t_hi = self.t_lo, self.t_hi

        # g(theta) = c0 + c1 theta + ... + c4 theta^4 on this step; after the
        # first step, c0 is the previous step's right-node value.
        first = self._g is None
        c0 = n0 * (float(y_left[0]) - s0) + n1 * (float(y_left[1]) - s1) if first else self._g
        (qx1, qx2, qx3, qx4), (qy1, qy2, qy3, qy4) = q[:2].tolist()
        c1 = h * (n0 * qx1 + n1 * qy1)
        c2 = h * (n0 * qx2 + n1 * qy2)
        c3 = h * (n0 * qx3 + n1 * qy3)
        c4 = h * (n0 * qx4 + n1 * qy4)
        c = (c0, c1, c2, c3, c4)

        if first:
            t_a, g_a = t_lo, _quartic(c, (t_lo - t_left) / h)
        else:
            t_a, g_a = t_left, c0
        t_b = t_left + h
        last = not t_b < t_hi
        if last:
            t_b, g_b = t_hi, _quartic(c, (t_hi - t_left) / h)
        else:
            # Bit for bit the next step's c0, as Trajectory._eval takes a node
            # from the later step.
            g_b = n0 * (y_right[0] - s0) + n1 * (y_right[1] - s1)
        self._g = g_b

        if g_a * g_b > 0.0 and abs(c0) > abs(c1) + abs(c2) + abs(c3) + abs(c4):
            # No root of the quartic on [0, 1]; the end-sign test keeps a node
            # value that rounding put on the other side.
            return last

        grid = [(t_a, g_a)]
        for k in range(1, self._subsamples):
            t = t_left + h * k / self._subsamples
            if t_lo < t < t_hi:
                grid.append((t, _quartic(c, (t - t_left) / h)))
        grid.append((t_b, g_b))
        changes = _sign_changes(grid)
        if not changes:
            # Two crossings between grid points leave no sign change on the
            # grid; the quartic's extrema between them do.
            extrema = [
                (t_left + th * h, _quartic(c, th))
                for th in _quartic_extrema(c, (t_a - t_left) / h, (t_b - t_left) / h)
            ]
            changes = _sign_changes(sorted(grid + extrema))
        for a, b, ga in changes:
            event = self._refine(step, c, a, b, ga)
            if event is not None:
                self.event = event
                return True
        return last

    def _refine(self, step, coeffs, a, b, ga) -> CrossingEvent | None:
        """Bisect the sign change on [a, b] and classify the crossing; None
        when it misses the segment (the supporting line was crossed)."""
        left, width = step[0], step[1]
        a, b = _bisect(lambda m: ga * _quartic(coeffs, (m - left) / width) <= 0.0, a, b, self.time_tol)
        t_star = 0.5 * (a + b)
        section, bt = self.section, self._bt
        y = _step_eval(step, t_star)
        tau = section.tangent_coord(y[:2])
        if -bt < tau < bt or section.length - bt < tau < section.length + bt:
            raise BoundaryCrossing(
                f"crossing at t={t_star:.6g} within {bt:g} of a segment endpoint",
                t_star=t_star,
                point=y[:2],
            )
        if not 0.0 <= tau <= section.length:
            return None
        n_speed = float(section.normal @ y[2:])
        if abs(n_speed) < section.transversality_floor:
            raise TangentialCrossing(
                f"normal speed {n_speed:.3g} below floor "
                f"{section.transversality_floor:g} at t={t_star:.6g}",
                t_star=t_star,
                normal_speed=n_speed,
            )
        return CrossingEvent(
            t_star=t_star,
            state=State(t=t_star, position=y[:2], velocity=y[2:]),
            normal_speed=n_speed,
            tangent_speed=float(section.tangent @ y[2:]),
        )


def _quartic(c, th: float) -> float:
    """c[0] + c[1] th + ... + c[4] th^4 by Horner's rule."""
    return c[0] + th * (c[1] + th * (c[2] + th * (c[3] + th * c[4])))


def _sign_changes(points) -> list:
    """(a, b, g(a)) for each consecutive pair of (t, g) points where g changes
    sign; a zero counts at the end of the interval it is reached on."""
    return [
        (a, b, ga)
        for (a, ga), (b, gb) in zip(points, points[1:])
        if ga * gb < 0.0 or (gb == 0.0 and ga != 0.0)
    ]


def _quartic_extrema(c, lo: float, hi: float) -> list:
    """Fractions in (lo, hi] where the quartic `c` has a local extremum: the
    roots of its derivative cubic, each bracketed on an interval where the
    cubic is monotone (split at the roots of the cubic's derivative)."""
    _, c1, c2, c3, c4 = c

    def slope(t):
        return c1 + t * (2.0 * c2 + t * (3.0 * c3 + t * 4.0 * c4))

    qa, qb, qc = 12.0 * c4, 6.0 * c3, 2.0 * c2  # the cubic's derivative
    roots = []
    if qa != 0.0:
        disc = qb * qb - 4.0 * qa * qc
        if disc >= 0.0:
            r = math.sqrt(disc)
            roots = [(-qb - r) / (2.0 * qa), (-qb + r) / (2.0 * qa)]
    elif qb != 0.0:
        roots = [-qc / qb]
    cuts = [lo, *sorted(r for r in roots if lo < r < hi), hi]

    out = []
    for a, b in zip(cuts, cuts[1:]):
        da, db = slope(a), slope(b)
        if db == 0.0:
            out.append(b)
        elif da * db < 0.0:
            a, b = _bisect(lambda m: da * slope(m) <= 0.0, a, b)
            out.append(0.5 * (a + b))
    return out


def first_transversal_crossing(
    traj: Trajectory,
    section: SectionSpec,
    window: tuple[float, float] | None = None,
    subsamples: int = 4,
) -> CrossingEvent:
    """Smallest t in the window where the trajectory crosses the segment.

    Sign changes of the normal coordinate whose refined point misses the
    segment are skipped (the trajectory crossed the supporting line, not the
    section); a hit within boundary_tol of an endpoint raises BoundaryCrossing
    and a transverse speed below the floor raises TangentialCrossing.
    """
    t_lo, t_hi = (0.0, traj.t_end) if window is None else window
    t_hi = min(t_hi, traj.t_end)
    if t_hi <= t_lo:
        raise NoCrossing(f"empty window [{t_lo}, {t_hi}]")
    scan = _SectionScan(section, t_lo, t_hi, 1e-12 * max(t_hi, 1.0), subsamples)
    dense = traj._dense
    # The step that Trajectory._eval picks for t_lo: a node belongs to the later step.
    first = min(max(int(np.searchsorted(traj.ts, t_lo, side="right")) - 1, 0), len(dense) - 1)
    for i in range(first, len(dense)):
        if scan(dense[i], traj.ys[i + 1].tolist()):
            break
    if scan.event is None:
        raise NoCrossing(f"no transversal crossing of {section.kind} in [{t_lo:.6g}, {t_hi:.6g}]")
    return scan.event


def crossing_time(
    field: ForceField,
    mu: float,
    x0,
    v,
    section: SectionSpec,
    t_bar: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    t_hint: float | None = None,
) -> tuple[float, CrossingEvent, Trajectory]:
    """Crossing time t(v, mu) of the flow from (x0, v) with the section.

    Integrates from 0 towards t_bar with the section scan as the flow's stop
    callback and returns (t*, event, trajectory); the trajectory ends with the
    step that holds t*. The result is the one `first_transversal_crossing`
    gives on the flow over the whole window, with the bisection tolerance
    taken from the window's nominal end. If the orbit leaves the annulus
    first, the exit step is scanned up to the exit; DomainExit propagates
    only when no crossing happened before it.

    t_hint is an expected crossing time: integration then first covers a
    prefix window of 1.6 t_hint and only repeats over [0, t_bar] when nothing
    crossed, which cannot change which crossing is first.
    """
    windows = []
    if t_hint is not None and 1.6 * t_hint < t_bar:
        windows.append(1.6 * t_hint)
    windows.append(t_bar)

    for t_stop in windows:
        scan = _SectionScan(section, 0.0, t_stop, 1e-12 * max(t_stop, 1.0))
        exit_exc = None
        try:
            traj = flow(field, mu, x0, v, t_stop, cfg, stop=scan)
        except DomainExit as exc:
            if exc.trajectory is None:
                raise
            traj, exit_exc = exc.trajectory, exc
        if exit_exc is not None:
            # The flow offers the scan no step that leaves the annulus.
            scan.t_hi = traj.t_end
            scan(traj._dense[-1], None)
        if scan.event is not None:
            return scan.event.t_star, scan.event, traj
        if exit_exc is not None:
            raise exit_exc
    raise NoCrossing(f"no transversal crossing of {section.kind} in [0, {t_bar:.6g}]")
