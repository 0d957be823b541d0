"""First transversal crossing of a trajectory with a closed section segment.

A section is a finite closed segment; a crossing counts only if the refined
point is strictly interior to the segment and the transverse velocity
component clears a floor. On each step of the dense output the
segment-normal coordinate is a quartic in the step fraction, so its five
coefficients are computed once per step. Candidate times are its sign changes
on a grid of step nodes plus a few interior points per step (evaluated by
Horner's rule), refined by bisection on the same quartic down to a fixed
fraction of the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryCrossing, DomainExit, NoCrossing, TangentialCrossing
from .forcefield import ForceField
from .integrator import IntegratorConfig, State, Trajectory, flow

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
    bt = section.boundary_tol if section.boundary_tol is not None else 1e-6 * section.length
    time_tol = 1e-12 * max(t_hi, 1.0)

    # Steps from the one holding t_lo to the one holding t_hi; a time t is
    # evaluated on the step Trajectory._eval picks for it, so a grid point on a
    # node uses the later step at theta = 0.
    dense = traj._dense
    n = len(dense)
    first, last = (
        min(max(int(i) - 1, 0), n - 1)
        for i in np.searchsorted(traj.ts, (t_lo, t_hi), side="right")
    )
    block = dense[first : last + 1]
    t_left = np.array([d[0] for d in block])
    h = np.array([d[1] for d in block])
    y_left = np.array([d[2] for d in block])
    q = np.array([d[3] for d in block])

    # g(theta) = c0 + c1 theta + ... + c4 theta^4 on each step.
    (n0, n1), (s0, s1) = section.normal.tolist(), section.start
    c0 = n0 * (y_left[:, 0] - s0) + n1 * (y_left[:, 1] - s1)
    c = h[:, None] * (n0 * q[:, 0, :] + n1 * q[:, 1, :])

    # Scan grid: step nodes plus a few interior points per step.
    k = np.arange(1, subsamples + 1)
    interior = (t_left[:, None] + h[:, None] * k / subsamples).ravel()
    interior = interior[(t_lo < interior) & (interior < t_hi)]
    # Already sorted; a repeated point only adds an empty interval, which
    # cannot show a sign change.
    grid = np.concatenate(([t_lo], interior, [t_hi]))
    step = np.clip(np.searchsorted(traj.ts, grid, side="right") - 1, 0, n - 1) - first
    theta = (grid - t_left[step]) / h[step]
    c1, c2, c3, c4 = c[step].T
    g = c0[step] + theta * (c1 + theta * (c2 + theta * (c3 + theta * c4)))

    for j in np.flatnonzero(g[:-1] * g[1:] < 0.0):
        # Both ends lie on one step (every interior node is a grid point), and
        # the midpoints fall strictly inside it.
        i = step[j]
        left, width = float(t_left[i]), float(h[i])
        b0, b1, b2, b3, b4 = float(c0[i]), *c[i].tolist()
        a, b, ga = float(grid[j]), float(grid[j + 1]), float(g[j])
        while b - a > time_tol:
            m = 0.5 * (a + b)
            th = (m - left) / width
            gm = b0 + th * (b1 + th * (b2 + th * (b3 + th * b4)))
            if ga * gm <= 0.0:
                b = m
            else:
                a, ga = m, gm
        t_star = 0.5 * (a + b)
        y = traj._eval(t_star)
        tau = section.tangent_coord(y[:2])
        if -bt < tau < bt or section.length - bt < tau < section.length + bt:
            raise BoundaryCrossing(
                f"crossing at t={t_star:.6g} within {bt:g} of a segment endpoint",
                t_star=t_star,
                point=y[:2],
            )
        if 0.0 <= tau <= section.length:
            n_speed = float(section.normal @ y[2:])
            if abs(n_speed) < section.transversality_floor:
                raise TangentialCrossing(
                    f"normal speed {n_speed:.3g} below floor "
                    f"{section.transversality_floor:g} at t={t_star:.6g}",
                    t_star=t_star,
                    normal_speed=n_speed,
                )
            state = State(t=t_star, position=y[:2], velocity=y[2:])
            return CrossingEvent(
                t_star=t_star,
                state=state,
                normal_speed=n_speed,
                tangent_speed=float(section.tangent @ y[2:]),
            )
        # Crossed the supporting line outside the segment: keep scanning.

    raise NoCrossing(f"no transversal crossing of {section.kind} in [{t_lo:.6g}, {t_hi:.6g}]")


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

    Integrates over [0, t_bar] and returns (t*, event, trajectory). If the
    orbit leaves the annulus before t_bar, the partial trajectory is still
    scanned; DomainExit propagates only when no crossing happened before exit.

    t_hint is an expected crossing time: integration then first covers a
    prefix window around it and only extends to t_bar when nothing crossed,
    which cannot change which crossing is first.
    """
    windows = []
    if t_hint is not None and 1.6 * t_hint < t_bar:
        windows.append(1.6 * t_hint)
    windows.append(t_bar)

    for t_stop in windows:
        exit_exc = None
        try:
            traj = flow(field, mu, x0, v, t_stop, cfg)
        except DomainExit as exc:
            if exc.trajectory is None:
                raise
            traj, exit_exc = exc.trajectory, exc
        try:
            event = first_transversal_crossing(traj, section, window=(0.0, traj.t_end))
            return event.t_star, event, traj
        except NoCrossing:
            if exit_exc is not None:
                raise exit_exc
    raise NoCrossing(f"no transversal crossing of {section.kind} in [0, {t_bar:.6g}]")
