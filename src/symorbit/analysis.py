"""Central-force diagnostics at mu = 0: conserved quantities, apsides, and the
apsidal angle.

The radial motion of the unperturbed problem is governed by the effective
potential K^2/(2 r^2) + U(r); turning radii bracket the circular radius, and
the polar-angle advance between consecutive apsides is a quadrature with
inverse-square-root endpoint singularities removed by a sin^2 substitution.
Near the circular solution the advance approaches a closed-form limit.

A turning radius is bracketed by one expansion loop (`_turning_radius`) and
bisected to adjacent floats by the package's one bisection loop
(`integrator._bisect`). An apsis is a sign change of the radial speed at the
step nodes, found by the integrator's sign-change rule (`_sign_changes`) and
refined on its step's interpolant (`Trajectory.refine_in_step`); no step is
sampled that holds no apsis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoBoundedMotion
from .forcefield import (
    ForceField,
    PowerLawParams,
    circular_speed,
    potential,
    potential_derivatives,
)
from .integrator import State, Trajectory, _bisect, _crossed, _sign_changes, flow

_GAUSS_NODES = 128


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


def _circular_radius(params: PowerLawParams, K: float) -> float:
    # Stationary point of the effective potential: K^2 = kappa * r^(2 - alpha).
    return (K * K / params.kappa) ** (1.0 / (2.0 - params.alpha))


def _turning_radius(g, inside, start, factor):
    """Root of g between `inside`, where g < 0, and the first radius of start,
    start * factor, start * factor^2, ... where g >= 0 (factor 0.5 searches
    inwards, 2 outwards; NoBoundedMotion past [1e-300, 1e300]); that radius
    itself when g is exactly 0 there.

    `_bisect` halves the bracket to adjacent floats, deciding by the package's
    sign-change rule (`_crossed`); the end past the sign change is the root,
    as in `section._roots`.
    """
    out = start
    while True:
        if not 1e-300 <= out <= 1e300:
            raise NoBoundedMotion(f"no {'inner' if factor < 1.0 else 'outer'} turning radius found")
        g_out = g(out)
        if g_out >= 0.0:
            break
        out *= factor
    if g_out == 0.0:
        return out
    a, b = (out, inside) if factor < 1.0 else (inside, out)
    ga = g(a)
    return _bisect(lambda m: _crossed(ga, g(m)), a, b)[1]


def _ueff_increment(params: PowerLawParams, K: float, a: float, r):
    """U_eff(a) - U_eff(r), evaluated without forming the near-equal potentials.

    Cancellation-free in (r - a), which keeps nearly-circular level sets at
    full precision where the direct difference is pure round-off; from ratios
    far inside a, where r - a loses r's digits, or where a * a * r * r underflows.
    """
    dr = r - a
    den = a * a * r * r
    if np.all(dr >= -0.5 * a) and np.all(den > 0.0):
        ell = np.log1p(dr / a)
        dk = 0.5 * K * K * dr * (r + a) / den
    else:
        ell = np.log(r / a)
        dk = 0.5 * (K / a) * (K / r) * (dr / r) * ((r + a) / a)
    if params.alpha == 0.0:
        du = -params.kappa * ell
    else:
        gamma = params.kappa / params.alpha
        du = gamma * a**-params.alpha * np.expm1(-params.alpha * ell)
    return dk + du


def radial_problem_from_launch(
    params: PowerLawParams, radius: float, sigma: float
) -> RadialProblem:
    """Level set of a vertical launch from (radius, 0) at sigma times circular speed.

    The launch point is itself a radial turning point (pericenter for
    |sigma| > 1, apocenter for |sigma| < 1), so that radius is taken exactly
    and only the opposite turning radius is solved for, via the increment form
    of the effective potential. A negative sigma launches retrograde: the
    level set is the mirror image of |sigma|'s, with K of the launch's sign.
    """
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be a finite positive number, got {radius}")
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be a finite number, got {sigma}")
    if params.alpha >= 2.0:
        raise NoBoundedMotion(
            f"alpha={params.alpha}: the effective potential has no interior minimum"
        )
    v = sigma * circular_speed(params, radius)
    E = 0.5 * v * v + potential(params, radius)
    K = radius * v
    a = radius
    speed = abs(sigma)
    if speed == 1.0:
        return RadialProblem(params=params, E=E, K=K, r_min=a, r_max=a)
    if params.alpha > 0.0 and E >= 0.0:
        raise NoBoundedMotion(f"E={E} >= 0 is unbounded for alpha={params.alpha}")

    def g(r):
        return -_ueff_increment(params, K, a, r)  # U_eff(r) - U_eff(a)

    r_c = _circular_radius(params, abs(K))
    if speed > 1.0:
        inside = max(r_c, a * (1.0 + 1e-12))
        other = _turning_radius(g, inside, max(2.0 * r_c, 2.0 * a), 2.0)
        return RadialProblem(params=params, E=E, K=K, r_min=a, r_max=other)
    inside = min(r_c, a * (1.0 - 1e-12))
    other = _turning_radius(g, inside, min(0.5 * r_c, 0.5 * a), 0.5)
    return RadialProblem(params=params, E=E, K=K, r_min=other, r_max=a)


def apsides(traj: Trajectory) -> list[dict]:
    """Radial turning points along a trajectory, alternating in kind, each as
    the row {"kind", "t", "r"} that `analyze` prints, with kind "pericenter"
    or "apocenter".

    The radial speed is read at the step nodes; each of its sign changes is
    refined on its step's interpolant. A launch point with vanishing radial
    speed is itself an apsis, classified by the radius at the next node.
    Circular trajectories (radial speed at noise level at every node) yield
    an empty list.
    """
    ys = traj.ys
    radii = np.hypot(ys[:, 0], ys[:, 1])
    vals = (ys[:, 0] * ys[:, 2] + ys[:, 1] * ys[:, 3]) / radii
    v_scale = float(np.max(np.linalg.norm(ys[:, 2:], axis=1)))
    if float(np.max(np.abs(vals))) < 1e-9 * v_scale:
        return []  # circular to working precision

    events = []
    if abs(vals[0]) < 1e-9 * v_scale:
        kind = "pericenter" if radii[1] > radii[0] else "apocenter"
        events.append({"kind": kind, "t": 0.0, "r": math.hypot(ys[0, 0], ys[0, 1])})
    for i, _, ga in _sign_changes(list(enumerate(vals.tolist()))):
        t, y = traj.refine_in_step(i, lambda s: _crossed(ga, s[0] * s[2] + s[1] * s[3]))
        events.append({"kind": "pericenter" if ga < 0.0 else "apocenter", "t": t, "r": math.hypot(y[0], y[1])})
    return events


@functools.cache
def _gauss_rule():
    """Weights and (sin, cos) of the nodes of the _GAUSS_NODES-point
    Gauss-Legendre rule mapped to theta in (0, pi/2), read-only.

    Built on the first call and kept for the process: `leggauss` is an
    eigenvalue problem that costs more than the quadrature itself.
    """
    nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    theta = 0.25 * math.pi * (nodes + 1.0)
    rule = (0.25 * math.pi * weights, np.sin(theta), np.cos(theta))
    for a in rule:
        a.setflags(write=False)
    return rule


def apsidal_angle(problem: RadialProblem) -> float:
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

    w, s, c = _gauss_rule()
    dr = span * s * s  # r - r_min, never formed by subtraction
    r = r_min + dr
    # E - U_eff(r) = U_eff(r_min) - U_eff(r) since r_min is a root; the
    # increment form avoids the round-off that dominates near-circular sets.
    f2 = np.maximum(2.0 * _ueff_increment(params, K, r_min, r), 1e-300)
    integrand = (K / (r * r)) * (2.0 * span * s * c) / np.sqrt(f2)
    return float(np.sum(w * integrand))


def apsidal_limit(params: PowerLawParams, r0: float) -> float:
    """Closed-form limit of the apsidal angle as the orbit tends to circular.

    NoBoundedMotion where 3U' + rU'' <= 0, which leaves no near-circular
    oscillation: for the power law, (2 - alpha) kappa r^-(alpha + 1) <= 0, the
    alpha >= 2 that `radial_problem_from_launch` refuses too.
    """
    if not 0 < r0 < math.inf:
        raise ValueError(f"r0 must be a finite positive number, got {r0}")
    u1, u2 = potential_derivatives(params, r0)
    denom = 3.0 * u1 + r0 * u2
    if denom <= 0.0:
        raise NoBoundedMotion(
            f"3U' + rU'' = {denom} <= 0 at r={r0}: no near-circular oscillation"
        )
    return math.pi * math.sqrt(u1 / denom)


def radial_accel_at_launch(params: PowerLawParams, a: float, epsilon: float) -> float:
    """Second time derivative of the radius at a vertical launch from radius a
    with speed (1 + epsilon) times circular: epsilon (2 + epsilon) U'(a)."""
    u1, _ = potential_derivatives(params, a)
    return epsilon * (2.0 + epsilon) * u1


def radial_accel_finite_difference(params: PowerLawParams, a: float, epsilon: float) -> float:
    """Numerical r''(0) from a short integration: 2 (r(h) - r(0)) / h^2, h = 1e-3.

    The launch is a radial turning point and the radius is even in time there,
    so the one-sided difference is second-order accurate.
    """
    if not 0 < a < math.inf:
        raise ValueError(f"a must be a finite positive number, got {a}")
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be a finite number, got {epsilon}")
    h = 1e-3
    field = ForceField(base=params, mu_range=1.0, annulus=(0.1 * a, 10.0 * a))
    v = (1.0 + epsilon) * circular_speed(params, a)
    traj = flow(field, 0.0, (a, 0.0), (0.0, v), h)
    y = traj.final_state().position
    return 2.0 * (math.hypot(y[0], y[1]) - a) / (h * h)
