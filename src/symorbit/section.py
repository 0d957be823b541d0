"""First transversal crossing of a flow with a closed section segment.

A section is a finite closed segment; a crossing counts only if the refined
point is strictly interior to the segment and the transverse velocity
component clears a floor. On each step of the dense output the
segment-normal coordinate is a polynomial in the step fraction, of the
interpolant's degree, and one per-step scanner (`_SectionScan`) searches it.
The polynomial belongs to the integrator: its coefficients and the sum of
their moduli come from one call of `integrator._normal_terms` per step and its
values from `integrator._horner`, so this module knows neither the stages nor
the degree. The scanner:

- passes over a step whose constant coefficient outweighs that sum, which
  has no root;
- otherwise takes as candidates the sign changes, by the integrator's rule
  (`integrator._sign_changes`: a value of exactly zero counts as the end of
  a sign change), over the window's ends on the step and the polynomial's
  extrema between them; it is monotone between those points, so no crossing
  is lost however close the crossings lie. The extrema are the sign changes
  of its derivative, found by `_roots`, which passes over a polynomial by
  the same coefficient bound, cuts at the roots of the derivative's own
  derivative, recursively down to degree 1, and bisects each monotone piece;
- refines each candidate on the same polynomial by the package's one
  bisection primitive (`integrator._bisect`) down to 1e-12 max(t_hi, 1) for
  the window [0, t_hi], then classifies it; only then is the step's state at
  the crossing built.

A `SectionSpec` computes its frame once, on floats: its length and unit
tangent (ux, uy), the unit normal being (-uy, ux). The scanner reads the
normal coordinate, and at a crossing the tangent coordinate and the normal
and tangent speeds (`tangent_coord`, `speeds`), from those floats. On the
package's axis-aligned sections one of the two products in each is a signed
zero, so they equal the numpy dot products of the same vectors bit for bit.

`crossing_time` hands the scanner to `flow` as the stop callback, so each
integration ends at the step that holds the first crossing (terminal event
location) instead of running to the end of its window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import BoundaryCrossing, DomainExit, NoCrossing, TangentialCrossing
from .forcefield import ForceField
from .integrator import State, Trajectory, flow
from .integrator import _bisect, _coefficient_bound, _crossed, _horner, _normal_terms, _sign_changes, _step_eval

# Section segments span [0.25 R, 4 R] along their axis so every desk-scale
# crossing is comfortably interior and interiority stays checkable.
_INNER_MARGIN = 0.25
_OUTER_MARGIN = 4.0


@dataclass(frozen=True)
class SectionSpec:
    """Closed segment from `start` to `end` with a transversality floor.

    A crossing within 1e-6 segment lengths of an endpoint counts as a
    boundary crossing. `length` and `unit`, the unit tangent (ux, uy), are
    computed once from the ends, as floats; the unit normal is (-uy, ux).
    """

    start: tuple[float, float]
    end: tuple[float, float]
    transversality_floor: float = 1e-6
    kind: str = "segment"
    length: float = field(init=False, repr=False, compare=False)
    unit: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.start, *self.end))):
            raise ValueError(f"section ends must be finite, got {self.start} and {self.end}")
        if not 0 <= self.transversality_floor < math.inf:
            raise ValueError(f"transversality floor must be a finite number >= 0, got {self.transversality_floor}")
        dx, dy = self.end[0] - self.start[0], self.end[1] - self.start[1]
        length = math.hypot(dx, dy)
        if not 0 < length < math.inf:
            raise ValueError(f"section segment must have a finite positive length, got {length}")
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "unit", (float(dx / length), float(dy / length)))

    def tangent_coord(self, p) -> float:
        ux, uy = self.unit
        return float(ux * (p[0] - self.start[0]) + uy * (p[1] - self.start[1]))

    def speeds(self, vx: float, vy: float) -> tuple[float, float]:
        """(normal, tangent) components of the velocity (vx, vy); each sum
        starts from +0.0, as numpy's dot product starts, so an exact zero has
        its sign."""
        ux, uy = self.unit
        return 0.0 + -uy * vx + ux * vy, 0.0 + ux * vx + uy * vy

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
    """Search of the window [0, t_hi] for the first transversal crossing, one step at a time.

    Called with the record (t_left, h, y_left, stages) of consecutive steps
    from the launch at t = 0, and each step's end state (x, y, vx, vy), which
    a step reaching t_hi does not need; returns True once the window is
    covered or a crossing found, which is then in `event`. It keeps no value
    between steps: `flow` passes a step's end state as the next one's y_left.
    Raises BoundaryCrossing or TangentialCrossing when the first crossing is one.
    Crossing times are bisected to 1e-12 max(t_hi, 1), taken from the t_hi
    given here: lowering `t_hi` later shortens the window, not the tolerance.
    """

    def __init__(self, section: SectionSpec, t_hi: float):
        self.section = section
        ux, uy = section.unit
        (self._n0, self._n1), (self._s0, self._s1) = (-uy, ux), section.start
        self._bt = 1e-6 * section.length
        self.t_hi, self.time_tol = t_hi, 1e-12 * max(t_hi, 1.0)
        self.event: CrossingEvent | None = None

    def __call__(self, step, y_right) -> bool:
        t_left, h, y_left, _ = step
        n0, n1, s0, s1 = self._n0, self._n1, self._s0, self._s1
        t_hi = self.t_hi

        # g(theta) = c0 + c1 theta + ... on this step.
        c0 = n0 * (y_left[0] - s0) + n1 * (y_left[1] - s1)
        coefficients, bound = _normal_terms(step, n0, n1)
        c = (c0, *coefficients)

        t_b = t_left + h
        last = not t_b < t_hi
        if last:
            t_b, g_b = t_hi, _horner(c, (t_hi - t_left) / h)
        else:
            # Bit for bit the next step's c0, as Trajectory._eval takes a node
            # from the later step.
            g_b = n0 * (y_right[0] - s0) + n1 * (y_right[1] - s1)

        if c0 * g_b > 0.0 and abs(c0) > bound:
            # No root of g on [0, 1]; the end-sign test keeps a node value
            # that rounding put on the other side.
            return last

        # g is monotone between its extrema (the roots of g'), so every
        # crossing is a sign change over the window ends and the extrema.
        extrema = _roots(_derivative(c), 0.0, (t_b - t_left) / h)
        points = [(t_left, c0), *((t_left + th * h, _horner(c, th)) for th in extrema), (t_b, g_b)]
        for a, b, ga in _sign_changes(points):
            event = self._refine(step, c, a, b, ga)
            if event is not None:
                self.event = event
                return True
        return last

    def _refine(self, step, coeffs, a, b, ga) -> CrossingEvent | None:
        """Bisect the sign change on [a, b] and classify the crossing; None
        when it misses the segment (the supporting line was crossed)."""
        left, width = step[0], step[1]
        a, b = _bisect(lambda m: _crossed(ga, _horner(coeffs, (m - left) / width)), a, b, self.time_tol)
        t_star = 0.5 * (a + b)
        section, bt, length = self.section, self._bt, self.section.length
        y = _step_eval(step, t_star)
        px, py, vx, vy = y.tolist()
        tau = section.tangent_coord((px, py))
        if -bt < tau < bt or length - bt < tau < length + bt:
            raise BoundaryCrossing(f"crossing at t={t_star:.6g} within {bt:g} of a segment endpoint")
        if not 0.0 <= tau <= length:
            return None
        n_speed, tangent_speed = section.speeds(vx, vy)
        if abs(n_speed) < section.transversality_floor:
            raise TangentialCrossing(
                f"normal speed {n_speed:.3g} below floor "
                f"{section.transversality_floor:g} at t={t_star:.6g}"
            )
        return CrossingEvent(
            t_star=t_star,
            state=State(t=t_star, position=y[:2], velocity=y[2:]),
            normal_speed=n_speed,
            tangent_speed=tangent_speed,
        )


def _derivative(c) -> list:
    return [j * cj for j, cj in enumerate(c)][1:]


def _roots(c, lo: float, hi: float) -> list:
    """The points of (lo, hi] where the polynomial with coefficients c
    (constant first) changes sign, by the rule of `_sign_changes`, in order;
    0 <= lo <= hi <= 1.

    There are none when the constant coefficient outweighs the sum of the
    others' moduli, which rules out a root on [0, 1]. Otherwise [lo, hi] is
    cut at the roots of the derivative, found by the same search one degree
    lower (down to degree 1, which is monotone), so the polynomial is
    monotone between cuts and each cut interval whose ends change sign holds
    one root. It is bisected to adjacent floats, and the later one, the first
    point found past the sign change, is returned.
    """
    if abs(c[0]) > _coefficient_bound(c):
        return []
    cuts = [lo, *(_roots(_derivative(c), lo, hi) if len(c) > 2 else ()), hi]
    return [
        _bisect(lambda m: _crossed(ga, _horner(c, m)), a, b)[1]
        for a, b, ga in _sign_changes([(x, _horner(c, x)) for x in cuts])
    ]


def crossing_time(
    field: ForceField,
    mu: float,
    x0,
    v,
    section: SectionSpec,
    window: float,
) -> tuple[float, CrossingEvent, Trajectory]:
    """Crossing time t(v, mu) of the flow from (x0, v) with the section.

    Integrates from 0 towards `window`, at the integrator's fixed tolerances,
    with the section scan of [0, window] as the flow's stop callback and
    returns (t*, event, trajectory); the trajectory ends with the step that
    holds t*. The result is the one the scan gives on the flow over the whole
    window. If the orbit leaves the annulus first, the last step of the
    DomainExit's trajectory, which ends at the exit, is scanned up to the
    exit, with the bisection tolerance still taken from the window's nominal
    end; DomainExit propagates only when no crossing happened before it.
    """
    scan = _SectionScan(section, window)
    try:
        traj = flow(field, mu, x0, v, window, stop=scan)
    except DomainExit as exc:
        if exc.trajectory is None:
            raise
        traj = exc.trajectory
        # The flow offers the scan no step that leaves the annulus.
        scan.t_hi = traj.t_end
        scan(traj._dense[-1], None)
        if scan.event is None:
            raise
    if scan.event is not None:
        return scan.event.t_star, scan.event, traj
    raise NoCrossing(f"no transversal crossing of {section.kind} in [0, {window:.6g}]")
