"""Central-force diagnostics at mu = 0: conserved quantities, apsides, and the
apsidal angle.

The radial motion of the unperturbed problem is governed by the effective
potential K^2/(2 r^2) + U(r); turning radii bracket the circular radius, and
the polar-angle advance between consecutive apsides is a quadrature with
inverse-square-root endpoint singularities removed by a sin^2 substitution.
Near the circular solution the advance approaches a closed-form limit.

Both searches go through the package's one bisection primitive
(`integrator._bisect`): a turning radius is bracketed by one expansion loop
(`_turning_radius`), bisected and Newton-polished; an apsis is a sign change
of the radial speed, sampled along the dense output with one `eval_many`
call and bisected on the interpolant.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLimit, NoBoundedMotion
from .forcefield import (
    PowerLawParams,
    circular_speed,
    potential,
    potential_derivatives,
)
from .integrator import State, Trajectory, _bisect

_GAUSS_NODES = 128
_SUBSAMPLES = 4  # radial-speed samples per step in apsides


class ApsisKind(enum.Enum):
    PERICENTER = "pericenter"
    APOCENTER = "apocenter"


@dataclass(frozen=True)
class ApsisEvent:
    kind: ApsisKind
    t: float
    r: float


@dataclass(frozen=True)
class RadialProblem:
    """Energy/angular-momentum level set of the radial motion."""

    params: PowerLawParams
    E: float
    K: float
    r_min: float
    r_max: float


def angular_momentum(state: State) -> float:
    x, y = state.position
    vx, vy = state.velocity
    return float(x * vy - y * vx)


def energy(params: PowerLawParams, state: State) -> float:
    r = float(np.hypot(*state.position))
    if r <= 0:
        raise ValueError("energy requires a nonzero position")
    v2 = float(state.velocity @ state.velocity)
    return 0.5 * v2 + potential(params, r)


def effective_potential(params: PowerLawParams, K: float, r: float) -> float:
    if r <= 0:
        raise ValueError("effective_potential requires r > 0")
    return K * K / (2.0 * r * r) + potential(params, r)


def _circular_radius(params: PowerLawParams, K: float) -> float:
    # Stationary point of the effective potential: K^2 = kappa * r^(2 - alpha).
    return (K * K / params.kappa) ** (1.0 / (2.0 - params.alpha))


def turning_radii(
    params: PowerLawParams, E: float, K: float, rel_tol: float = 1e-12
) -> tuple[float, float]:
    """Roots of E = U_eff(r) bracketing the circular radius.

    Requires a bounded radial oscillation: alpha < 2 (interior minimum of the
    effective potential) and E between that minimum and the large-r barrier.
    A circular level set returns a double root.
    """
    if K == 0.0:
        raise NoBoundedMotion("zero angular momentum admits no radial oscillation")
    if params.alpha >= 2.0:
        raise NoBoundedMotion(
            f"alpha={params.alpha}: the effective potential has no interior minimum"
        )
    r_c = _circular_radius(params, abs(K))
    e_min = effective_potential(params, K, r_c)
    scale = abs(E) + abs(e_min) + 1e-30
    if E < e_min - 1e-13 * scale:
        raise NoBoundedMotion(f"E={E} below the effective-potential minimum {e_min}")
    if E - e_min < 1e-13 * scale:
        return r_c, r_c
    if params.alpha > 0.0 and E >= 0.0:
        raise NoBoundedMotion(f"E={E} >= 0 is unbounded for alpha={params.alpha}")

    def g(r):
        return effective_potential(params, K, r) - E

    # Inner root: centrifugal barrier dominates as r -> 0 when alpha < 2.
    r_min = _turning_radius(params, K, g, r_c, r_c, 0.5, rel_tol)
    r_max = _turning_radius(params, K, g, r_c, r_c, 2.0, rel_tol)
    return r_min, r_max


def _turning_radius(params, K, g, inside, start, factor, rel_tol):
    """Root of g between `inside`, where g < 0, and the first radius of start,
    start * factor, start * factor^2, ... where g >= 0 (factor 0.5 searches
    inwards, 2 outwards).

    `_bisect` halves the bracket to a width of rel_tol times the radius: its
    upper end bounds the radius on a first pass, the lower end that pass
    leaves on a second. A few Newton steps on g' = -K^2 / r^3 + U'(r) then
    push the root to full double precision, which the endpoint-singular
    quadrature needs.
    """
    out = start
    while g(out) < 0.0:
        out *= factor
        if not 1e-300 <= out <= 1e300:
            raise NoBoundedMotion(f"no {'inner' if factor < 1.0 else 'outer'} turning radius found")
    a, b = (out, inside) if factor < 1.0 else (inside, out)
    ga = g(a)

    def pred(m):
        return ga * g(m) <= 0.0

    a, b = _bisect(pred, a, b, rel_tol * b)
    a, b = _bisect(pred, a, b, rel_tol * a)
    r = 0.5 * (a + b)
    for _ in range(3):
        d = -K * K / r**3 + potential_derivatives(params, r)[0]
        if d == 0.0:
            break
        step = g(r) / d
        if not math.isfinite(step) or abs(step) > 0.1 * r:
            break
        r -= step
    return r


def _ueff_increment(params: PowerLawParams, K: float, a: float, r):
    """U_eff(a) - U_eff(r), evaluated without forming the near-equal potentials.

    Cancellation-free in (r - a), which keeps nearly-circular level sets at
    full precision where the direct difference is pure round-off.
    """
    dr = r - a
    ell = np.log1p(dr / a)
    if params.alpha == 0.0:
        du = -params.kappa * ell
    else:
        gamma = params.kappa / params.alpha
        du = gamma * a**-params.alpha * np.expm1(-params.alpha * ell)
    dk = 0.5 * K * K * dr * (r + a) / (a * a * r * r)
    return dk + du


def radial_problem_from_launch(
    params: PowerLawParams, radius: float, sigma: float
) -> RadialProblem:
    """Level set of a vertical launch from (radius, 0) at sigma times circular speed.

    The launch point is itself a radial turning point (pericenter for sigma > 1,
    apocenter for sigma < 1), so that radius is taken exactly and only the
    opposite turning radius is solved for, via the increment form of the
    effective potential.
    """
    if params.alpha >= 2.0:
        raise NoBoundedMotion(
            f"alpha={params.alpha}: the effective potential has no interior minimum"
        )
    v = sigma * circular_speed(params, radius)
    E = 0.5 * v * v + potential(params, radius)
    K = radius * v
    a = radius
    if sigma == 1.0:
        return RadialProblem(params=params, E=E, K=K, r_min=a, r_max=a)
    if params.alpha > 0.0 and E >= 0.0:
        raise NoBoundedMotion(f"E={E} >= 0 is unbounded for alpha={params.alpha}")

    def g(r):
        return -_ueff_increment(params, K, a, r)  # U_eff(r) - U_eff(a)

    r_c = _circular_radius(params, abs(K))
    if sigma > 1.0:
        inside = max(r_c, a * (1.0 + 1e-12))
        other = _turning_radius(params, K, g, inside, max(2.0 * r_c, 2.0 * a), 2.0, 1e-12)
        return RadialProblem(params=params, E=E, K=K, r_min=a, r_max=other)
    inside = min(r_c, a * (1.0 - 1e-12))
    other = _turning_radius(params, K, g, inside, min(0.5 * r_c, 0.5 * a), 0.5, 1e-12)
    return RadialProblem(params=params, E=E, K=K, r_min=other, r_max=a)


def radial_speed(state: State) -> float:
    """dr/dt as the radial projection of the velocity (accurate near apsides)."""
    r = float(np.hypot(*state.position))
    return float(state.position @ state.velocity) / r


def apsides(traj: Trajectory) -> list[ApsisEvent]:
    """Radial turning points along a trajectory, alternating in kind.

    A launch point with vanishing radial speed is itself classified by the
    sign of the subsequent radial motion. Circular trajectories (radial speed
    at noise level throughout) yield an empty list.
    """
    ts = [0.0]
    for t_left, h, _, _ in traj._dense:
        for k in range(1, _SUBSAMPLES + 1):
            ts.append(t_left + h * k / _SUBSAMPLES)
    ts = np.array(ts)
    ys = traj.eval_many(ts)
    vals = (ys[:, 0] * ys[:, 2] + ys[:, 1] * ys[:, 3]) / np.hypot(ys[:, 0], ys[:, 1])

    def rdot(t):
        y = traj._eval(t)
        return (y[0] * y[2] + y[1] * y[3]) / math.hypot(y[0], y[1])

    speeds = np.linalg.norm(traj.ys[:, 2:], axis=1)
    v_scale = float(np.max(speeds))
    if float(np.max(np.abs(vals))) < 1e-9 * v_scale:
        return []  # circular to working precision

    def radius(t):
        y = traj._eval(t)
        return math.hypot(y[0], y[1])

    events = []
    z_tol = 1e-9 * v_scale
    if abs(vals[0]) < z_tol:
        # Endpoint apsis: classify by comparing nearby radii.
        h = ts[1] - ts[0]
        kind = ApsisKind.PERICENTER if radius(ts[0] + h) > radius(ts[0]) else ApsisKind.APOCENTER
        events.append(ApsisEvent(kind=kind, t=0.0, r=radius(0.0)))

    for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
        fa = float(vals[i])
        lo, hi = _bisect(lambda m: fa * rdot(m) <= 0.0, float(ts[i]), float(ts[i + 1]))
        t_star = 0.5 * (lo + hi)
        kind = ApsisKind.PERICENTER if fa < 0.0 else ApsisKind.APOCENTER
        events.append(ApsisEvent(kind=kind, t=t_star, r=radius(t_star)))
    return events


def apsidal_angle(problem: RadialProblem, n_nodes: int = _GAUSS_NODES) -> float:
    """Polar-angle advance between consecutive turning radii.

    Gauss-Legendre quadrature after r = r_min + (r_max - r_min) sin^2(theta),
    which absorbs both endpoint singularities. Degenerate (circular) level
    sets fall back to the closed-form limit.
    """
    params, E, K = problem.params, problem.E, abs(problem.K)
    r_min, r_max = problem.r_min, problem.r_max
    span = r_max - r_min
    if span < 1e-9:
        return apsidal_limit(params, 0.5 * (r_min + r_max))

    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    theta = 0.25 * math.pi * (nodes + 1.0)
    w = 0.25 * math.pi * weights
    s, c = np.sin(theta), np.cos(theta)
    dr = span * s * s  # r - r_min, never formed by subtraction
    r = r_min + dr
    # E - U_eff(r) = U_eff(r_min) - U_eff(r) since r_min is a root; the
    # increment form avoids the round-off that dominates near-circular sets.
    f2 = np.maximum(2.0 * _ueff_increment(params, K, r_min, r), 1e-300)
    integrand = (K / (r * r)) * (2.0 * span * s * c) / np.sqrt(f2)
    return float(np.sum(w * integrand))


def apsidal_limit(params: PowerLawParams, r0: float) -> float:
    """Closed-form limit of the apsidal angle as the orbit tends to circular."""
    u1, u2 = potential_derivatives(params, r0)
    denom = 3.0 * u1 + r0 * u2
    if denom <= 0.0:
        raise DegenerateLimit(
            f"3U' + rU'' = {denom} <= 0 at r={r0}: no near-circular oscillation"
        )
    return math.pi * math.sqrt(u1 / denom)


def radial_accel_at_launch(params: PowerLawParams, a: float, epsilon: float) -> float:
    """Second time derivative of the radius at a vertical launch from radius a
    with speed (1 + epsilon) times circular: epsilon (2 + epsilon) U'(a)."""
    u1, _ = potential_derivatives(params, a)
    return epsilon * (2.0 + epsilon) * u1


def radial_accel_finite_difference(
    params: PowerLawParams,
    a: float,
    epsilon: float,
    h: float = 1e-3,
    cfg=None,
) -> float:
    """Numerical r''(0) from a short integration: 2 (r(h) - r(0)) / h^2.

    The launch is a radial turning point and the radius is even in time there,
    so the one-sided difference is second-order accurate.
    """
    from .forcefield import ForceField
    from .integrator import IntegratorConfig, flow

    cfg = cfg if cfg is not None else IntegratorConfig(max_step=h / 8.0)
    field = ForceField(base=params, mu_range=1.0, annulus=(0.1 * a, 10.0 * a))
    v = (1.0 + epsilon) * circular_speed(params, a)
    traj = flow(field, 0.0, (a, 0.0), (0.0, v), h, cfg)
    y = traj._eval(h)
    return 2.0 * (math.hypot(y[0], y[1]) - a) / (h * h)
