"""Launch-speed shooting for orthogonal section crossings.

A vertical launch from (R, 0) at sigma times the circular speed defines a
one-parameter family. The miss function is the velocity component along the
section at the first transversal crossing: vertical component on the positive
y-axis in quarter mode, horizontal component on the negative x-axis in half
mode. Its zero is an orthogonal crossing, found by sign bracketing around
sigma = 1 and a safeguarded solve on the bracket: the circle sigma = 1 first
at mu = 0, then inverse quadratic interpolation (Brent 1973) where it stays
inside the bracket, else Illinois regula falsi, with a midpoint fallback. The
bracket orientation flips with the force exponent in half mode, matching the
four-cell sign pattern reproduced by sign_table.

Each `Mode` member carries its facts: its section, its alpha rule, and the
reflections that close its segment into a periodic orbit (`orbit`), which the
field must have.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BoundaryCrossing,
    BracketFailure,
    DomainExit,
    NoCrossing,
    NonConvergence,
    TangentialCrossing,
)
from .forcefield import ForceField, PowerLawParams, Reflection, circular_speed
from .integrator import Trajectory, _crossed
from .section import SectionSpec, crossing_time


class Mode(enum.Enum):
    """A shooting mode, by name, with its facts: its `section` builder;
    `unit_alpha`, whether it needs alpha == 1 or alpha != 1; the reflections
    that branch k of the period, [k tau, (k+1) tau], applies to the segment
    (`branches`, read by `orbit._branch`), and all of them (`reflections`),
    which a field must have; the `vanishing` end conditions (name, end,
    component) under which the branches join: that state component is 0 at
    the segment start (end 0) or end (end 1).

    The second half of a half orbit is the x-axis mirror image of the segment.
    A quarter orbit continues with the y-axis mirror (the unique C1
    continuation at tau), then both mirrors, then the x-axis mirror.
    """

    QUARTER = (
        "quarter",  # orthogonal hit of the positive y-axis
        SectionSpec.positive_y_axis,
        True,
        ((), (Reflection.Y_AXIS,), (Reflection.X_AXIS, Reflection.Y_AXIS), (Reflection.X_AXIS,)),
        (("y(0)", 0, 1), ("vx(0)", 0, 2), ("x(tau)", 1, 0), ("vy(tau)", 1, 3)),
    )
    HALF = (
        "half",  # orthogonal hit of the negative x-axis
        SectionSpec.negative_x_axis,
        False,
        ((), (Reflection.X_AXIS,)),
        (("y(0)", 0, 1), ("y(tau)", 1, 1), ("vx(0)", 0, 2), ("vx(tau)", 1, 2)),
    )

    def __new__(cls, value, section, unit_alpha, branches, vanishing):
        member = object.__new__(cls)
        member._value_, member.section, member.unit_alpha = value, section, unit_alpha
        member.branches, member.vanishing = branches, vanishing
        member.reflections = frozenset(r for branch in branches for r in branch)
        return member


def _window(radius: float, v0: float) -> float:
    """The solve window: 0.75 of the circular period 2 pi radius / v0 at the
    circular speed v0."""
    return 0.75 * (2.0 * math.pi / (v0 / radius))


@dataclass(frozen=True)
class ShootingProblem:
    """Field, launch circle radius, and solve geometry for one shooting setup.

    The circular speed, the integration window and the section are computed
    once per problem, on first use, not once per miss.
    """

    field: ForceField
    radius: float
    mode: Mode
    eta: float = 0.1  # launch-speed bracket half-width around sigma = 1
    delta: float = 0.2  # admissible speed band half-width; eta < delta

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ValueError(f"launch radius must be a finite positive number, got {self.radius}")
        if not 0 < self.eta < self.delta < 1:
            raise ValueError("need 0 < eta < delta < 1")
        if (self.field.base.alpha == 1.0) != self.mode.unit_alpha:
            raise ValueError(f"{self.mode.value} mode requires alpha {'==' if self.mode.unit_alpha else '!='} 1")
        required = self.mode.reflections
        if not required <= self.field.symmetries:
            (one, *more) = (r.value.replace("_", "-") for r in required)
            what = "both reflection symmetries" if more else f"the {one} reflection symmetry"
            raise ValueError(f"{self.mode.value} mode requires {what}")

    @property
    def launch_point(self) -> np.ndarray:
        return np.array([self.radius, 0.0])

    @cached_property
    def circular_velocity(self) -> float:
        return circular_speed(self.field.base, self.radius)

    @cached_property
    def window(self) -> float:
        return _window(self.radius, self.circular_velocity)

    @cached_property
    def section(self) -> SectionSpec:
        return self.mode.section(self.radius, transversality_floor=1e-6 * self.circular_velocity)

    def launch_velocity(self, sigma: float) -> np.ndarray:
        return np.array([0.0, sigma * self.circular_velocity])


@dataclass(frozen=True)
class MissValue:
    """The miss at launch multiplier `sigma`: the section-aligned velocity
    component `value` at the crossing time `t_star`, and the trajectory that
    ends with the crossing's step."""
    sigma: float
    value: float
    t_star: float
    trajectory: Trajectory


@dataclass(frozen=True)
class ShootingSolution:
    """A solved launch, at sigma_star times the circular speed, and its segment."""
    sigma_star: float
    tau: float  # crossing time of the orthogonal hit
    segment: Trajectory  # trajectory restricted to [0, tau]
    miss_residual: float


def _check_mu(problem: ShootingProblem, mu: float) -> None:
    """ValueError naming mu unless it lies in the field's open range (-a, a)."""
    a = problem.field.mu_range
    if not -a < mu < a:  # false for NaN too
        raise ValueError(f"mu={mu} outside the field's open mu range (-{a}, {a})")


def _check_sigma(problem: ShootingProblem, sigma: float) -> None:
    """ValueError naming sigma unless it lies in the speed band (1 - delta, 1 + delta)."""
    if not (1.0 - problem.delta) < sigma < (1.0 + problem.delta):  # false for NaN too
        raise ValueError(f"sigma={sigma} outside (1-delta, 1+delta)")


def miss(problem: ShootingProblem, sigma: float, mu: float, tol: float | None = None) -> MissValue:
    """Miss value for launch speed multiplier sigma at parameter mu, which must
    lie in the field's open mu range; `tol` is `flow`'s, which only the
    zero-set scan's loose evaluations pass."""
    _check_mu(problem, mu)
    _check_sigma(problem, sigma)
    t_star, tangent_speed, traj = crossing_time(
        problem.field,
        mu,
        problem.launch_point,
        problem.launch_velocity(sigma),
        problem.section,
        problem.window,
        tol,
    )
    return MissValue(sigma=sigma, value=tangent_speed, t_star=t_star, trajectory=traj)


@dataclass(frozen=True)
class Bracket:
    """The misses at the two ends of a sign-change bracket, lower sigma first."""
    miss_lo: MissValue
    miss_hi: MissValue


def bracket(problem: ShootingProblem, mu: float) -> Bracket:
    """Two launch multipliers around sigma = 1 with opposite miss signs.

    Tries half-width eta/2 first, then eta (the problem's). Failure at the
    full width is the operational definition of mu exceeding the usable
    perturbation range, so every evaluation error but StepFailure (the
    integrator's fault) moves on to the next width; the last such error is
    the BracketFailure's `__cause__` and ends its message.
    A mu outside the field's mu range is no such failure: its ValueError
    passes through.
    """
    _check_mu(problem, mu)
    last_cause = None
    for w in (0.5 * problem.eta, problem.eta):
        lo, hi = 1.0 - w, 1.0 + w
        try:
            m_lo = miss(problem, lo, mu)
            m_hi = miss(problem, hi, mu)
        except (NoCrossing, TangentialCrossing, BoundaryCrossing, DomainExit, ValueError) as exc:
            last_cause = exc
            continue
        # An exact zero at either probe point (_crossed counts one at m_hi) is
        # still a usable bracket edge.
        if m_lo.value == 0.0 or _crossed(m_lo.value, m_hi.value):
            return Bracket(m_lo, m_hi)
        last_cause = None
    detail = f" (last evaluation error: {last_cause})" if last_cause else ""
    raise BracketFailure(
        f"no miss sign change around sigma=1.0 within half-width {problem.eta} "
        f"at mu={mu}{detail}"
    ) from last_cause


_MAX_ITER = 200  # root-finding steps before NonConvergence


def _inverse_quadratic(points) -> float:
    """Where the quadratic in the miss through three (sigma, miss) points
    puts the root (Brent 1973, ch. 4); NaN unless the misses are distinct."""
    (x0, y0), (x1, y1), (x2, y2) = points
    if y0 == y1 or y0 == y2 or y1 == y2:
        return math.nan
    return (
        x0 * y1 * y2 / ((y0 - y1) * (y0 - y2))
        + x1 * y0 * y2 / ((y1 - y0) * (y1 - y2))
        + x2 * y0 * y1 / ((y2 - y0) * (y2 - y1))
    )


def solve(
    problem: ShootingProblem,
    mu: float,
    tol: float = 1e-10,
    prebuilt: Bracket | None = None,
) -> ShootingSolution:
    """Find an orthogonal crossing velocity on a sign-change bracket.

    At mu = 0 the field is the central power law, whose circle meets every
    section orthogonally, so when the bracket holds sigma = 1 that is the
    first iterate. Each later iterate is the inverse quadratic interpolation
    through the last three true misses (Brent 1973, ch. 4) when it lies
    strictly inside the bracket, else the Illinois false-position step: the
    stored miss of an end kept twice in a row is halved (Dowell & Jarratt
    1971). Every iterate lies strictly inside the bracket. One that would
    leave it, or any iterate once the bracket has gone three iterations
    without halving, is replaced by the midpoint, so the bracket halves at
    least every four iterations. Not after two: on a smooth miss the step that
    moves the kept end is often the third (two steps on one side, then the
    halved-miss step across).

    Returns the launch velocity, the crossing time tau, and the generating
    trajectory segment over [0, tau]. `tol` must be a finite number >= 0; at
    0 no miss meets it, and the solve ends in NonConvergence, which names the
    best sigma, its |miss| and the final bracket.
    """
    if not 0 <= tol < math.inf:  # NaN and inf would pass every |miss| test below
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    br = prebuilt if prebuilt is not None else bracket(problem, mu)
    a, b = br.miss_lo.sigma, br.miss_hi.sigma
    f_a, f_b = br.miss_lo.value, br.miss_hi.value
    best = br.miss_lo if abs(f_a) <= abs(f_b) else br.miss_hi

    if abs(best.value) >= tol:
        kept = 0  # +1 / -1 while the lower / upper end stayed put
        width_ref, stalled = b - a, 0
        last = [(a, f_a), (b, f_b)]  # the latest true (sigma, miss) pairs, at most three
        steps = 0
        for steps in range(1, _MAX_ITER + 1):
            if steps == 1 and mu == 0.0 and a < 1.0 < b:
                x = 1.0
            else:
                x = _inverse_quadratic(last) if len(last) == 3 else math.nan
                if not a < x < b:  # false for NaN too
                    x = (a * f_b - b * f_a) / (f_b - f_a)
            if stalled >= 3 or not a < x < b:
                x = 0.5 * (a + b)
            m = miss(problem, x, mu)
            last = last[-2:] + [(x, m.value)]
            if abs(m.value) < abs(best.value):
                best = m
            if abs(m.value) < tol:
                break
            if (m.value < 0.0) == (f_a < 0.0):
                a, f_a = x, m.value
                if kept == -1:
                    f_b *= 0.5
                kept = -1
            else:
                b, f_b = x, m.value
                if kept == 1:
                    f_a *= 0.5
                kept = 1
            if b - a <= 0.5 * width_ref:
                width_ref, stalled = b - a, 0
            else:
                stalled += 1
            if b - a < 1e-15:
                break
        if abs(best.value) >= tol:
            raise NonConvergence(
                f"|miss|={abs(best.value):.3g} at sigma={best.sigma!r} still above tol={tol} after "
                f"{steps} root-finding steps at mu={mu}; final bracket [{a!r}, {b!r}]"
            )

    return ShootingSolution(
        sigma_star=best.sigma,
        tau=best.t_star,
        segment=best.trajectory.truncated(best.t_star),
        miss_residual=best.value,
    )


# Geometry for the sign-pattern probe: the unperturbed power law is defined on
# the whole punctured plane, and for alpha >= 2 the angle-pi crossing can sit
# far from the launch circle, so the probe uses a wide annulus and section.
_SIGN_TABLE_ANNULUS = (0.05, 20.0)
_SIGN_TABLE_SECTION_SPAN = (0.1, 8.0)


def sign_table(
    params: PowerLawParams,
    epsilon: float = 0.05,
    radius: float = 1.0,
) -> int:
    """Sign of the horizontal velocity at the first negative-x-axis crossing.

    Pure power law (mu = 0), launch speed (1 + epsilon) times circular.
    Requires alpha != 1: there the crossing is orthogonal for every epsilon
    and the sign degenerates.
    """
    if params.alpha == 1.0:
        raise ValueError("sign pattern undefined at alpha == 1")
    if not (math.isfinite(epsilon) and epsilon != 0.0):
        raise ValueError(f"epsilon must be a finite nonzero number, got {epsilon}")
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be a finite positive number, got {radius}")
    field = ForceField(
        base=params,
        mu_range=1.0,
        annulus=(_SIGN_TABLE_ANNULUS[0] * radius, _SIGN_TABLE_ANNULUS[1] * radius),
    )
    v0 = circular_speed(params, radius)
    w = v0 / radius
    section = SectionSpec(
        start=(-_SIGN_TABLE_SECTION_SPAN[1] * radius, 0.0),
        end=(-_SIGN_TABLE_SECTION_SPAN[0] * radius, 0.0),
        transversality_floor=1e-6 * v0,
        kind="negative_x_axis",
    )
    _, tangent_speed, _ = crossing_time(
        field,
        0.0,
        np.array([radius, 0.0]),
        np.array([0.0, (1.0 + epsilon) * v0]),
        section,
        3.0 * (2.0 * math.pi / w),
    )
    return 1 if tangent_speed > 0 else -1


def crossing_time_deviation(
    problem: ShootingProblem,
    mu: float,
    sigma: float,
) -> list[float]:
    """|t(sigma + h, mu) - t(sigma, mu)| for h = 1e-3, 1e-4, 1e-5: a continuity probe."""
    t0 = miss(problem, sigma, mu).t_star
    return [abs(miss(problem, sigma + h, mu).t_star - t0) for h in (1e-3, 1e-4, 1e-5)]
