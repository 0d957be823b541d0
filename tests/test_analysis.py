import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symorbit import (
    ForceField,
    NoBoundedMotion,
    PowerLawParams,
    State,
    angular_momentum,
    apsidal_angle,
    apsidal_limit,
    apsides,
    circular_speed,
    energy,
    flow,
    potential,
    potential_derivatives,
    radial_accel_at_launch,
    radial_problem_from_launch,
)
from symorbit import analysis
from symorbit.analysis import _circular_radius, _turning_radius, _ueff_increment, radial_accel_finite_difference
from symorbit.integrator import _bisect

from oracles import apsidal_limit_power_law, kepler_apsis_radii, kepler_period, semi_major_axis


def mkstate(px, py, vx, vy):
    return State(t=0.0, position=np.array([px, py]), velocity=np.array([vx, vy]))


class TestConservedQuantities:
    def test_circle_state(self, kepler_params):
        st_ = mkstate(1.0, 0.0, 0.0, 1.0)
        assert angular_momentum(st_) == 1.0
        assert energy(kepler_params, st_) == pytest.approx(-0.5)

    def test_reflection_flips_momentum_keeps_energy(self, kepler_params):
        st_up = mkstate(1.0, 0.0, 0.0, 1.0)
        st_dn = mkstate(1.0, 0.0, 0.0, -1.0)
        assert angular_momentum(st_dn) == -angular_momentum(st_up)
        assert energy(kepler_params, st_dn) == energy(kepler_params, st_up)

    def test_energy_at_the_origin_refused(self, kepler_params):
        with pytest.raises(ValueError, match="^energy requires a nonzero position$"):
            energy(kepler_params, mkstate(0.0, 0.0, 1.0, 0.0))

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.3, 3.0),
        st.floats(0.0, 2 * math.pi),
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
    )
    def test_momentum_is_cross_product(self, r, ang, vx, vy):
        s = mkstate(r * math.cos(ang), r * math.sin(ang), vx, vy)
        expected = s.position[0] * vy - s.position[1] * vx
        assert angular_momentum(s) == pytest.approx(expected, rel=1e-12, abs=1e-300)


def effective_potential(params, K, r):
    """K^2 / (2 r^2) + U(r), the potential of the radial motion at angular
    momentum K."""
    if r <= 0:
        raise ValueError("effective_potential requires r > 0")
    return K * K / (2.0 * r * r) + potential(params, r)


class TestEffectivePotential:
    def test_value(self, kepler_params):
        assert effective_potential(kepler_params, 1.0, 1.0) == pytest.approx(-0.5)

    def test_zero_momentum_reduces_to_potential(self, kepler_params):
        assert effective_potential(kepler_params, 0.0, 1.7) == potential(
            kepler_params, 1.7
        )

    def test_minimum_at_circular_radius(self, kepler_params):
        # Calculus oracle: d/dr (1/2r^2 - 1/r) vanishes at r = 1 for K = 1.
        vals = [effective_potential(kepler_params, 1.0, r) for r in (0.99, 1.0, 1.01)]
        assert vals[1] < vals[0] and vals[1] < vals[2]


def turning_radii(params, E, K):
    """Roots of E = U_eff(r) bracketing the circular radius, for any (E, K):
    the generic counterpart of radial_problem_from_launch, which takes the
    launch radius as one root. Raises NoBoundedMotion without a bounded
    radial oscillation; a circular level set gives a double root."""
    if K == 0.0:
        raise NoBoundedMotion("zero angular momentum admits no radial oscillation")
    if params.alpha >= 2.0:
        raise NoBoundedMotion(f"alpha={params.alpha}: the effective potential has no interior minimum")
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

    r_min = _turning_radius(g, r_c, r_c, 0.5)
    r_max = _turning_radius(g, r_c, r_c, 2.0)
    return r_min, r_max


class TestTurningRadii:
    def test_circular_double_root(self, kepler_params):
        v = circular_speed(kepler_params, 1.0)
        E = 0.5 * v * v + (-1.0)
        r_min, r_max = turning_radii(kepler_params, E, 1.0 * v)
        assert r_min == pytest.approx(r_max)
        assert r_min == pytest.approx(1.0, rel=1e-10)

    def test_kepler_ellipse_conic_oracle(self, kepler_params):
        lo, hi = kepler_apsis_radii(1.0, 1.1)
        problem = radial_problem_from_launch(kepler_params, 1.0, 1.1)
        assert problem.r_min == pytest.approx(lo, rel=1e-10)
        assert problem.r_max == pytest.approx(hi, rel=1e-10)
        # generic solver agrees with the launch-anchored construction
        r_min, r_max = turning_radii(kepler_params, problem.E, problem.K)
        assert r_min == pytest.approx(lo, rel=1e-9)
        assert r_max == pytest.approx(hi, rel=1e-9)

    def test_slow_launch_swaps_roles(self, kepler_params):
        lo, hi = kepler_apsis_radii(1.0, 0.9)
        problem = radial_problem_from_launch(kepler_params, 1.0, 0.9)
        assert problem.r_max == pytest.approx(1.0)
        assert problem.r_min == pytest.approx(lo, rel=1e-10)

    def test_steep_force_unbounded(self):
        params = PowerLawParams(1.0, 3.0)
        with pytest.raises(NoBoundedMotion):
            radial_problem_from_launch(params, 1.0, 1.02)
        v = 1.02 * circular_speed(params, 1.0)
        E = 0.5 * v * v + (-1.0 / 3.0)
        with pytest.raises(NoBoundedMotion):
            turning_radii(params, E, v)

    def test_nonnegative_energy_unbounded(self):
        params = PowerLawParams(1.0, 0.5)
        with pytest.raises(NoBoundedMotion):
            turning_radii(params, 0.1, 1.0)

    def test_zero_momentum_rejected(self, kepler_params):
        with pytest.raises(NoBoundedMotion):
            turning_radii(kepler_params, -0.5, 0.0)

    @pytest.mark.parametrize("scale", [1.0, 1e-200])
    def test_tiny_values_keep_their_sign(self, scale):
        # At scale 1e-200 the product of two values of g underflows to 0,
        # which a product test reads as a sign change anywhere; the package's
        # sign-change rule compares signs.
        outward = _turning_radius(lambda r: scale * (r - 1.3), 1.0, 1.0, 2.0)
        inward = _turning_radius(lambda r: scale * (0.7 - r), 1.0, 1.0, 0.5)
        assert outward == pytest.approx(1.3, rel=1e-10)
        assert inward == pytest.approx(0.7, rel=1e-10)

    def test_exact_zero_at_the_expanded_end_is_the_root(self):
        assert _turning_radius(lambda r: r - 2.0, 1.0, 1.0, 2.0) == 2.0
        assert _turning_radius(lambda r: 0.5 - r, 1.0, 1.0, 0.5) == 0.5

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_no_sign_change_is_no_root(self, factor):
        # g never crosses: no end of the bracket is returned as a root. The
        # first expanded radius already has g >= 0, and so has the inside one.
        seen = []
        assert _turning_radius(lambda r: seen.append(r) or 1.0, 1.0, factor, factor) is None
        assert seen[0] == factor and 1.0 in seen


class TestNearCircularLaunch:
    """Within 1e-12 of circular the other turning radius lies nearer the
    launch radius than the search's first inside point: the level set stays
    within 1e-12 of the circle and Phi at its limit, never r_max = 2a."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5])
    @pytest.mark.parametrize("offset", [1e-13, 1e-14, 2.0**-52, -1e-13, -1e-14, -(2.0**-52)])
    def test_turning_radii_and_phi(self, alpha, offset):
        params = PowerLawParams(1.0, alpha)
        problem = radial_problem_from_launch(params, 1.0, 1.0 + offset)
        assert problem.r_min <= 1.0 <= problem.r_max
        assert (problem.r_min if offset < 0.0 else problem.r_max) != 1.0
        assert abs(problem.r_min - 1.0) <= 1e-12 and abs(problem.r_max - 1.0) <= 1e-12
        phi = apsidal_angle(problem)
        assert math.isfinite(phi) and abs(phi - apsidal_limit(params, 1.0)) <= 1e-9


# The turning radius other than r = 1 of a launch from (1, 0) at sigma times
# circular speed in the unit power law, U(r) = -1 / (alpha r^alpha) (log r at
# alpha = 0): the root of K^2 / (2 r^2) + U(r) = K^2 / 2 + U(1), K = sigma,
# for the float sigma. Bisected in 100-digit mpmath arithmetic, agreeing with
# a 60-digit run to 50 digits, and written to 36.
_LAUNCH_RADII = {
    (0.0, 0.5): "0.310885223518496985035385755280299919",
    (0.0, 0.9): "0.815619228903451841149774723615920994",
    (0.0, 0.999): "0.998001665556225571240458160497212093",
    (0.0, 1.001): "1.00200166777844828077334114932891011",
    (0.0, 1.1): "1.21784852800671963268354994350643328",
    (0.5, 0.5): "0.236232732069443536518794898889731366",
    (0.5, 0.9): "0.766261527909235908437592959851744727",
    (0.5, 0.999): "0.997337032433566386306850161505822238",
    (0.5, 1.001): "1.00267037498501952302469346998076228",
    (0.5, 1.1): "1.30894568947692748487378811536449730",
    (1.5, 0.5): "0.0355421993288948354411458605813232226",
    (1.5, 0.9): "0.495341627573402183110144814781048920",
    (1.5, 0.999): "0.992046394525723145477618526061550754",
    (1.5, 1.001): "1.00804694210136253317161434525931586",
    (1.5, 1.1): "2.96975141477231826347597815358596763",
}


class TestTurningRadiiMatchHighPrecision:
    @pytest.mark.parametrize("alpha, sigma", sorted(_LAUNCH_RADII))
    def test_within_16_ulp(self, alpha, sigma):
        problem = radial_problem_from_launch(PowerLawParams(1.0, alpha), 1.0, sigma)
        assert type(problem.r_min) is float and type(problem.r_max) is float
        solved, launch = (problem.r_max, problem.r_min) if sigma > 1.0 else (problem.r_min, problem.r_max)
        assert launch == 1.0
        want = Fraction(_LAUNCH_RADII[alpha, sigma])
        assert abs(Fraction(solved) - want) <= 16 * Fraction(math.ulp(float(want)))


class TestSlowLaunch:
    """A launch slow enough that the inner turning radius nears the origin:
    the level set is resolved or refused, never a crash or a warning."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5])
    @pytest.mark.parametrize("sigma", [0.0, 1e-200, 1e-100, 1e-12])
    def test_resolved_or_no_bounded_motion(self, alpha, sigma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                problem = radial_problem_from_launch(PowerLawParams(1.0, alpha), 1.0, sigma)
            except NoBoundedMotion:
                assert sigma in (0.0, 1e-200) or (alpha, sigma) == (1.5, 1e-100)
                return
        assert 0.0 < problem.r_min <= 1.0 == problem.r_max

    @pytest.mark.parametrize("sigma", [1e-100, 1e-12, 1e-4])
    def test_kepler_inner_radius_is_the_conic_one(self, kepler_params, sigma):
        # Pericenter of a launch from the apocenter R = 1: sigma^2 / (2 - sigma^2).
        r_min = radial_problem_from_launch(kepler_params, 1.0, sigma).r_min
        assert r_min == pytest.approx(sigma * sigma / (2.0 - sigma * sigma), rel=1e-12)

    def test_radial_launch_has_no_inner_turning_radius(self, kepler_params):
        with pytest.raises(NoBoundedMotion, match="no inner turning radius"):
            radial_problem_from_launch(kepler_params, 1.0, 0.0)


class TestRetrogradeLaunch:
    """A launch at -sigma is the mirror image of one at sigma: the same level
    set with K negated, the same apsidal angle and the same apsides."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("sigma", [0.95, 1.0, 1.05])
    def test_mirror_of_the_prograde_launch(self, alpha, sigma):
        params = PowerLawParams(1.0, alpha)
        pro = radial_problem_from_launch(params, 1.0, sigma)
        retro = radial_problem_from_launch(params, 1.0, -sigma)
        assert (retro.E, retro.r_min, retro.r_max) == (pro.E, pro.r_min, pro.r_max)
        assert retro.K == -pro.K
        assert apsidal_angle(retro) == apsidal_angle(pro)
        # analyze's circular flag and apsis count
        assert (retro.r_max - retro.r_min < 1e-9) == (pro.r_max - pro.r_min < 1e-9) == (sigma == 1.0)
        assert len(apsides(_analyze_launch(alpha, -sigma))) == len(apsides(_analyze_launch(alpha, sigma)))


class TestApsides:
    def test_circle_is_empty(self, kepler_field):
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), 2 * math.pi)
        assert apsides(traj) == []

    def test_kepler_ellipse_alternation(self, kepler_field):
        lo, hi = kepler_apsis_radii(1.0, 1.1)
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.1), 14.0)
        events = apsides(traj)
        assert len(events) >= 3
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "pericenter"  # fast launch starts at the low point
        assert all(a != b for a, b in zip(kinds, kinds[1:]))
        for e in events:
            target = lo if e["kind"] == "pericenter" else hi
            assert e["r"] == pytest.approx(target, abs=1e-8)

    def test_slow_launch_starts_at_apocenter(self, kepler_field):
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 0.95), 10.0)
        events = apsides(traj)
        assert events[0]["kind"] == "apocenter"
        assert events[0]["t"] == 0.0

    @pytest.mark.parametrize("sigma", [0.8, 1.3, 1.38])
    def test_no_apsis_lost_to_long_steps(self, kepler_params, sigma):
        # Vertical Kepler launches integrated over 1.9 radial periods T with
        # the default, uncapped steps: every apsis, at t = k T / 2 for
        # k = 0..3, alternating in kind. The span stops short of 2 T, where
        # an apsis at the span's end would be sign-ambiguous.
        period = kepler_period(semi_major_axis(1.0, sigma, 1.0), 1.0)
        field_ = __import__("symorbit").ForceField(base=kepler_params, annulus=(0.05, 50.0))
        events = apsides(flow(field_, 0.0, (1.0, 0.0), (0.0, sigma), 1.9 * period))
        first, second = ("pericenter", "apocenter")[:: 1 if sigma > 1.0 else -1]
        assert [e["kind"] for e in events] == [first, second, first, second]
        for k, e in enumerate(events):
            assert abs(e["t"] - 0.5 * k * period) <= 1e-9 * period
        lo, hi = kepler_apsis_radii(1.0, sigma)
        for e in events:
            assert e["r"] == pytest.approx(lo if e["kind"] == "pericenter" else hi, rel=1e-9)

    def test_soft_force_launch_pericenter(self):
        # epsilon > 0 launch point is a radius minimum.
        params = PowerLawParams(1.0, 0.5)
        field_ = __import__("symorbit").ForceField(base=params)
        traj = flow(field_, 0.0, (1.0, 0.0), (0.0, 1.05 * circular_speed(params, 1.0)), 8.0)
        events = apsides(traj)
        assert events[0]["kind"] == "pericenter"


def sampled_apsides(traj):
    """Reference for apsides: (kind, t, r) from the radial speed sampled at
    four points per step, sign changes found by products and each bisected in
    t through Trajectory.eval_many; an endpoint apsis is classified by the
    radius at the first sample."""
    t_left = np.array([step[0] for step in traj._dense])
    h = np.array([step[1] for step in traj._dense])
    ts = np.concatenate([[0.0], (t_left[:, None] + h[:, None] * np.arange(1, 5) / 4).ravel()])
    ys = traj.eval_many(ts)
    vals = (ys[:, 0] * ys[:, 2] + ys[:, 1] * ys[:, 3]) / np.hypot(ys[:, 0], ys[:, 1])

    def rdot(t):
        y = traj.eval_many([t])[0]
        return (y[0] * y[2] + y[1] * y[3]) / math.hypot(y[0], y[1])

    def radius(t):
        return math.hypot(*traj.eval_many([t], width=2)[0])

    v_scale = float(np.max(np.linalg.norm(traj.ys[:, 2:], axis=1)))
    if float(np.max(np.abs(vals))) < 1e-9 * v_scale:
        return []
    events = []
    if abs(vals[0]) < 1e-9 * v_scale:
        kind = "pericenter" if radius(ts[1]) > radius(0.0) else "apocenter"
        events.append((kind, 0.0, radius(0.0)))
    for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
        fa = float(vals[i])
        lo, hi = _bisect(lambda m: fa * rdot(m) <= 0.0, float(ts[i]), float(ts[i + 1]))
        t = 0.5 * (lo + hi)
        events.append(("pericenter" if fa < 0.0 else "apocenter", t, radius(t)))
    return events


def _analyze_launch(alpha, sigma):
    """The trajectory `analyze` integrates: one circular period from (1, 0)."""
    params = PowerLawParams(1.0, alpha)
    v = circular_speed(params, 1.0)
    return flow(ForceField(base=params), 0.0, (1.0, 0.0), (0.0, sigma * v), 2.0 * math.pi / v)


class TestApsidesMatchSampledSearch:
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @pytest.mark.parametrize("sigma", [0.95, 1.05, 1.1])
    def test_analyze_launches(self, alpha, sigma):
        traj = _analyze_launch(alpha, sigma)
        got = [(e["kind"], e["t"], e["r"]) for e in apsides(traj)]
        want = sampled_apsides(traj)
        assert [e[0] for e in got] == [e[0] for e in want] and len(got) >= 2
        for (_, t, r), (_, t_ref, r_ref) in zip(got, want):
            assert abs(t - t_ref) <= 4 * np.spacing(t_ref)
            assert abs(r - r_ref) <= 4 * np.spacing(r_ref)

    def test_builds_one_record_per_apsis_inside_the_span(self, monkeypatch):
        # The nodes locate every apsis; only the steps that hold one are
        # sampled, each once, and nothing stacks the steps.
        from symorbit import integrator

        built = []
        q_matrix = integrator._q_matrix
        monkeypatch.setattr(integrator, "_q_matrix", lambda stages: built.append(stages) or q_matrix(stages))
        traj = _analyze_launch(1.0, 1.1)
        events = apsides(traj)
        inside = [e for e in events if e["t"] != 0.0]
        assert len(inside) >= 1 and len(built) == len(inside)
        assert traj._stacked is None


def apsidal_angle_rebuilding_the_rule(problem):
    """apsidal_angle as it reads with the Gauss-Legendre rule built in the call."""
    nodes, weights = np.polynomial.legendre.leggauss(128)
    theta = 0.25 * math.pi * (nodes + 1.0)
    w = 0.25 * math.pi * weights
    s, c = np.sin(theta), np.cos(theta)
    K, span = abs(problem.K), problem.r_max - problem.r_min
    r = problem.r_min + span * s * s
    f2 = np.maximum(2.0 * _ueff_increment(problem.params, K, problem.r_min, r), 1e-300)
    integrand = (K / (r * r)) * (2.0 * span * s * c) / np.sqrt(f2)
    return float(np.sum(w * integrand))


class TestGaussRule:
    def test_built_once_and_bit_identical(self, monkeypatch):
        problems = [
            radial_problem_from_launch(PowerLawParams(1.0, 0.5), 1.0, 0.9),
            radial_problem_from_launch(PowerLawParams(1.3, 1.5), 1.2, 1.07),
        ]
        want = [apsidal_angle_rebuilding_the_rule(p) for p in problems]
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def counted(n):
            calls.append(n)
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        analysis._gauss_rule.cache_clear()
        assert [apsidal_angle(p) for p in problems] == want
        assert calls == [128]

    def test_rule_is_read_only(self):
        for a in analysis._gauss_rule():
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestApsidalAngle:
    def test_kepler_is_pi(self, kepler_params):
        for sigma in (1.05, 1.1, 1.2, 0.9):
            problem = radial_problem_from_launch(kepler_params, 1.0, sigma)
            assert apsidal_angle(problem) == pytest.approx(math.pi, abs=1e-8)

    def test_matches_scipy_quadrature(self, kepler_params):
        # Independent oracle: adaptive quadrature of the raw integrand with
        # endpoint weights handled by points splitting.
        quad = pytest.importorskip("scipy.integrate").quad
        problem = radial_problem_from_launch(PowerLawParams(1.3, 0.5), 1.2, 1.07)
        K, E, params = abs(problem.K), problem.E, problem.params

        def integrand(r):
            f2 = 2.0 * (E - effective_potential(params, K, r))
            return (K / r**2) / math.sqrt(max(f2, 1e-300))

        ref, err = quad(
            integrand,
            problem.r_min,
            problem.r_max,
            points=[problem.r_min, problem.r_max],
            limit=200,
        )
        assert apsidal_angle(problem) == pytest.approx(ref, abs=max(1e-7, 10 * err))

    def test_matches_trajectory_angle(self, kepler_params):
        # Dual route: polar angle swept between consecutive apsides of an
        # actual integrated orbit equals the quadrature value.
        params = PowerLawParams(1.0, 0.5)
        field_ = __import__("symorbit").ForceField(base=params)
        sigma = 1.04
        traj = flow(field_, 0.0, (1.0, 0.0), (0.0, sigma * circular_speed(params, 1.0)), 12.0)
        events = apsides(traj)
        assert len(events) >= 3
        problem = radial_problem_from_launch(params, 1.0, sigma)
        phi = apsidal_angle(problem)
        angles = []
        for e in events:
            s = traj.interpolate(e["t"])
            angles.append(math.atan2(s.position[1], s.position[0]))
        unwrapped = np.unwrap(angles)
        advances = np.abs(np.diff(unwrapped))
        assert np.allclose(advances, phi, atol=1e-6)
        # equal advance between every consecutive apsis pair
        assert np.max(advances) - np.min(advances) < 1e-6

    def test_circular_degenerate_returns_limit(self, kepler_params):
        problem = radial_problem_from_launch(kepler_params, 1.0, 1.0)
        assert apsidal_angle(problem) == apsidal_limit(kepler_params, 1.0)

    def test_near_circular_limit_values(self):
        for alpha in (0.0, 0.5, 1.5):
            params = PowerLawParams(1.0, alpha)
            problem = radial_problem_from_launch(params, 1.0, 1.001)
            assert apsidal_angle(problem) == pytest.approx(
                apsidal_limit_power_law(alpha), abs=1e-3
            )

    def test_convergence_to_limit(self):
        # Error decreasing through eps = 1e-2, 1e-3, 1e-4 and below 10*eps.
        for alpha in (0.0, 0.5, 1.5):
            params = PowerLawParams(1.0, alpha)
            lim = apsidal_limit(params, 1.0)
            errs = []
            for eps in (1e-2, 1e-3, 1e-4):
                problem = radial_problem_from_launch(params, 1.0, 1.0 + eps)
                errs.append(abs(apsidal_angle(problem) - lim))
            assert errs[0] > errs[1] > errs[2]
            assert all(e < 10 * eps for e, eps in zip(errs, (1e-2, 1e-3, 1e-4)))


class TestApsidalLimit:
    def test_values(self):
        assert apsidal_limit(PowerLawParams(1.0, 1.0), 1.0) == pytest.approx(math.pi)
        assert apsidal_limit(PowerLawParams(1.0, 0.0), 1.0) == pytest.approx(
            math.pi / math.sqrt(2)
        )

    def test_degenerate_at_alpha_two(self):
        # 3U' + rU'' = (2 - alpha) kappa r^-(alpha + 1) <= 0: no near-circular
        # oscillation, refused by the class radial_problem_from_launch raises.
        for alpha in (2.0, 2.7):
            with pytest.raises(NoBoundedMotion, match=r"^3U' \+ rU'' = .* <= 0 at r=1.0: no near-circular oscillation$"):
                apsidal_limit(PowerLawParams(1.0, alpha), 1.0)
            with pytest.raises(NoBoundedMotion):
                radial_problem_from_launch(PowerLawParams(1.0, alpha), 1.0, 1.05)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.1, 10.0), st.floats(0.0, 1.99), st.floats(0.1, 10.0))
    def test_closed_form_simplification(self, kappa, alpha, r0):
        # pi sqrt(U'/(3U' + r U'')) collapses to pi/sqrt(2 - alpha) for the
        # power-law family, independent of kappa and r0.
        got = apsidal_limit(PowerLawParams(kappa, alpha), r0)
        assert got == pytest.approx(apsidal_limit_power_law(alpha), rel=1e-12)


class TestNonFiniteLaunch:
    """Each entry point refuses a non-finite launch input with a ValueError
    naming the argument, before any turning radius or step is sought."""

    @pytest.mark.parametrize(
        "radius, sigma, name",
        [(1.0, math.nan, "sigma"), (1.0, math.inf, "sigma"), (math.nan, 1.05, "radius"), (math.inf, 1.05, "radius")],
    )
    def test_radial_problem_from_launch(self, radius, sigma, name):
        with pytest.raises(ValueError, match=f"^{name} must be a finite"):
            radial_problem_from_launch(PowerLawParams(1.0, 0.5), radius, sigma)

    @pytest.mark.parametrize(
        "a, epsilon, name", [(1.0, math.nan, "epsilon"), (1.0, -math.inf, "epsilon"), (math.nan, 0.1, "a")]
    )
    def test_radial_accel_finite_difference(self, a, epsilon, name):
        with pytest.raises(ValueError, match=f"^{name} must be a finite"):
            radial_accel_finite_difference(PowerLawParams(1.0, 0.5), a, epsilon)

    @pytest.mark.parametrize("r0", [math.nan, math.inf, 0.0])
    def test_apsidal_limit(self, r0):
        with pytest.raises(ValueError, match="^r0 must be a finite positive number"):
            apsidal_limit(PowerLawParams(1.0, 0.5), r0)


class TestLaunchRadialAcceleration:
    def test_zero_at_circular(self, kepler_params):
        assert radial_accel_at_launch(kepler_params, 1.0, 0.0) == 0.0

    def test_formula_value(self, kepler_params):
        assert radial_accel_at_launch(kepler_params, 1.0, 0.1) == pytest.approx(0.21)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("eps", [0.1, -0.1, 0.01, -0.01])
    def test_finite_difference_match(self, alpha, eps):
        params = PowerLawParams(1.0, alpha)
        fd = radial_accel_finite_difference(params, 1.0, eps)
        assert abs(fd - radial_accel_at_launch(params, 1.0, eps)) < 1e-5

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.05, 3.0), st.sampled_from([0.15, 0.03, -0.03, -0.15]))
    def test_sign_matches_epsilon(self, alpha, eps):
        params = PowerLawParams(1.0, alpha)
        val = radial_accel_at_launch(params, 1.0, eps)
        assert math.copysign(1.0, val) == math.copysign(1.0, eps)

    def test_scales_with_potential_slope(self):
        # eps(2+eps)U'(a) with U'(a) = kappa a^-(alpha+1)
        params = PowerLawParams(2.0, 0.5)
        u1, _ = potential_derivatives(params, 1.5)
        assert radial_accel_at_launch(params, 1.5, 0.05) == pytest.approx(
            0.05 * 2.05 * u1
        )


class TestAngularMonotonicity:
    def test_orbit_keeps_circling(self, kepler_field):
        # Between apsides the polar angle keeps advancing: total angle over
        # several radial periods exceeds the per-apsis advance times the count.
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.1), 25.0)
        ts = np.linspace(0.0, 25.0, 2000)
        ang = np.unwrap(
            [math.atan2(*traj.interpolate(t).position[::-1]) for t in ts]
        )
        dphi = np.diff(ang)
        assert np.all(dphi > 0)
        events = apsides(traj)
        assert ang[-1] - ang[0] > (len(events) - 1) * math.pi * 0.9
