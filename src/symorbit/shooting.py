"""Launch-speed shooting for orthogonal section crossings.

A vertical launch from (R, 0) at sigma times the circular speed defines a
one-parameter family. The miss function is the velocity component along the
section at the first transversal crossing: vertical component on the positive
y-axis in quarter mode, horizontal component on the negative x-axis in half
mode. Its zero is an orthogonal crossing, found by sign bracketing around
sigma = 1 and safeguarded Illinois regula falsi on the bracket; the bracket
orientation flips with the force exponent in half mode, matching the four-cell
sign pattern reproduced by sign_table.
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
from .section import CrossingEvent, SectionSpec, crossing_time


class Mode(enum.Enum):
    QUARTER = "quarter"  # orthogonal hit of the positive y-axis, needs both symmetries
    HALF = "half"  # orthogonal hit of the negative x-axis, needs x-axis symmetry


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
        alpha = self.field.base.alpha
        syms = self.field.symmetries
        if self.mode is Mode.QUARTER:
            if alpha != 1.0:
                raise ValueError("quarter mode requires alpha == 1")
            if not {Reflection.X_AXIS, Reflection.Y_AXIS} <= syms:
                raise ValueError("quarter mode requires both reflection symmetries")
        else:
            if alpha == 1.0:
                raise ValueError("half mode requires alpha != 1")
            if Reflection.X_AXIS not in syms:
                raise ValueError("half mode requires the x-axis reflection symmetry")

    @property
    def launch_point(self) -> np.ndarray:
        return np.array([self.radius, 0.0])

    @cached_property
    def circular_velocity(self) -> float:
        return circular_speed(self.field.base, self.radius)

    @property
    def angular_speed(self) -> float:
        return self.circular_velocity / self.radius

    @cached_property
    def window(self) -> float:
        return 0.75 * (2.0 * math.pi / self.angular_speed)

    @cached_property
    def section(self) -> SectionSpec:
        floor = 1e-6 * self.circular_velocity
        if self.mode is Mode.QUARTER:
            return SectionSpec.positive_y_axis(self.radius, transversality_floor=floor)
        return SectionSpec.negative_x_axis(self.radius, transversality_floor=floor)

    def launch_velocity(self, sigma: float) -> np.ndarray:
        return np.array([0.0, sigma * self.circular_velocity])


@dataclass(frozen=True)
class MissValue:
    sigma: float
    value: float  # section-aligned velocity component at the crossing
    crossing: CrossingEvent
    trajectory: Trajectory


@dataclass(frozen=True)
class ShootingSolution:
    sigma_star: float
    v_mu: np.ndarray  # vertical launch velocity (0, sigma* v0)
    tau: float  # crossing time of the orthogonal hit
    segment: Trajectory  # trajectory restricted to [0, tau]
    miss_residual: float
    crossing: CrossingEvent


def miss(problem: ShootingProblem, sigma: float, mu: float) -> MissValue:
    """Miss value for launch speed multiplier sigma at parameter mu."""
    if not (1.0 - problem.delta) < sigma < (1.0 + problem.delta):
        raise ValueError(f"sigma={sigma} outside (1-delta, 1+delta)")
    t_star, event, traj = crossing_time(
        problem.field,
        mu,
        problem.launch_point,
        problem.launch_velocity(sigma),
        problem.section,
        problem.window,
    )
    return MissValue(sigma=sigma, value=event.tangent_speed, crossing=event, trajectory=traj)


@dataclass(frozen=True)
class Bracket:
    sigma_lo: float
    sigma_hi: float
    miss_lo: MissValue
    miss_hi: MissValue


def bracket(problem: ShootingProblem, mu: float) -> Bracket:
    """Two launch multipliers around sigma = 1 with opposite miss signs.

    Tries half-width eta/2 first, then eta (the problem's). Failure at the
    full width is the operational definition of mu exceeding the usable
    perturbation range, so every evaluation error but StepFailure (the
    integrator's fault) moves on to the next width, the last one the `cause`.
    """
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
            return Bracket(lo, hi, m_lo, m_hi)
        last_cause = None
    detail = f" (last evaluation error: {last_cause})" if last_cause else ""
    raise BracketFailure(
        f"no miss sign change around sigma=1.0 within half-width {problem.eta} "
        f"at mu={mu}{detail}",
        cause=last_cause,
    )


_MAX_ITER = 200  # root-finding steps before NonConvergence


def solve(
    problem: ShootingProblem,
    mu: float,
    tol: float = 1e-10,
    prebuilt: Bracket | None = None,
) -> ShootingSolution:
    """Find an orthogonal crossing velocity by Illinois regula falsi.

    False-position steps on the sign-change bracket, with the stored miss of
    an end kept twice in a row halved (Dowell & Jarratt 1971), converge
    superlinearly on the smooth miss function. Every iterate lies strictly
    inside the bracket. A step that would leave it, or any step once the
    bracket has gone three iterations without halving, is replaced by the
    midpoint, so the bracket halves at least every four iterations. Not
    after two: on a smooth miss the step that moves the kept end is often
    the third (two steps on one side, then the halved-miss step across).

    Returns the launch velocity, the crossing time tau, and the generating
    trajectory segment over [0, tau]. `tol` must be a finite number >= 0; at
    0 no miss meets it, and the solve ends in NonConvergence.
    """
    if not 0 <= tol < math.inf:  # NaN and inf would pass every |miss| test below
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    br = prebuilt if prebuilt is not None else bracket(problem, mu)
    a, b = br.sigma_lo, br.sigma_hi
    f_a, f_b = br.miss_lo.value, br.miss_hi.value
    best = br.miss_lo if abs(f_a) <= abs(f_b) else br.miss_hi

    if abs(best.value) >= tol:
        kept = 0  # +1 / -1 while the lower / upper end stayed put
        width_ref, stalled = b - a, 0
        steps = 0
        for steps in range(1, _MAX_ITER + 1):
            x = (a * f_b - b * f_a) / (f_b - f_a)
            if stalled >= 3 or not a < x < b:
                x = 0.5 * (a + b)
            m = miss(problem, x, mu)
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
                f"|miss|={abs(best.value):.3g} still above tol={tol} after "
                f"{steps} root-finding steps at mu={mu}"
            )

    tau = best.crossing.t_star
    return ShootingSolution(
        sigma_star=best.sigma,
        v_mu=problem.launch_velocity(best.sigma),
        tau=tau,
        segment=best.trajectory.truncated(tau),
        miss_residual=best.value,
        crossing=best.crossing,
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
    if epsilon == 0.0:
        raise ValueError("epsilon must be nonzero")
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
    _, event, _ = crossing_time(
        field,
        0.0,
        np.array([radius, 0.0]),
        np.array([0.0, (1.0 + epsilon) * v0]),
        section,
        3.0 * (2.0 * math.pi / w),
    )
    return 1 if event.tangent_speed > 0 else -1


def crossing_time_deviation(
    problem: ShootingProblem,
    mu: float,
    sigma: float,
) -> list[float]:
    """|t(sigma + h, mu) - t(sigma, mu)| for h = 1e-3, 1e-4, 1e-5: a continuity probe."""
    t0 = miss(problem, sigma, mu).crossing.t_star
    return [abs(miss(problem, sigma + h, mu).crossing.t_star - t0) for h in (1e-3, 1e-4, 1e-5)]
