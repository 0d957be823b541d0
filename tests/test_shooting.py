import dataclasses
import math
import re

import numpy as np
import pytest

from symorbit import (
    BoundaryCrossing,
    Bracket,
    BracketFailure,
    ForceField,
    Mode,
    NonConvergence,
    PowerLawParams,
    Reflection,
    ShootingProblem,
    axis_poly_perturbation,
    bracket,
    circular_speed,
    crossing_time,
    crossing_time_deviation,
    miss,
    sign_table,
    solve,
)
from symorbit import shooting
from symorbit.section import SectionSpec
from symorbit.shooting import MissValue

from oracles import perturbed_radial_sigma


class TestProblemValidation:
    def test_quarter_requires_alpha_one(self, half_field_a05):
        with pytest.raises(ValueError):
            ShootingProblem(field=half_field_a05, radius=1.0, mode=Mode.QUARTER)

    def test_half_rejects_alpha_one(self, kepler_field):
        with pytest.raises(ValueError):
            ShootingProblem(field=kepler_field, radius=1.0, mode=Mode.HALF)

    def test_quarter_requires_both_symmetries(self, x_only_perturbation):
        f = ForceField(base=PowerLawParams(1.0, 1.0), perturbation=x_only_perturbation)
        with pytest.raises(ValueError, match="^quarter mode requires both reflection symmetries$"):
            ShootingProblem(field=f, radius=1.0, mode=Mode.QUARTER)

    def test_half_requires_x_axis_symmetry(self):
        # An even power of y breaks the x-axis reflection; the odd power of x
        # keeps the y-axis one, which half mode does not use.
        f = ForceField(base=PowerLawParams(1.0, 0.5), perturbation=axis_poly_perturbation(cx=1.0, px=3, cy=1.0, py=2))
        assert f.symmetries == {Reflection.Y_AXIS}
        with pytest.raises(ValueError, match="^half mode requires the x-axis reflection symmetry$"):
            ShootingProblem(field=f, radius=1.0, mode=Mode.HALF)

    @pytest.mark.parametrize(
        "mode, alpha, message",
        [(Mode.QUARTER, 0.5, "quarter mode requires alpha == 1"), (Mode.HALF, 1.0, "half mode requires alpha != 1")],
    )
    def test_alpha_rule_messages(self, mode, alpha, message):
        f = ForceField(base=PowerLawParams(1.0, alpha))
        with pytest.raises(ValueError, match=f"^{message}$"):
            ShootingProblem(field=f, radius=1.0, mode=mode)

    def test_required_reflections_are_the_branches(self):
        assert Mode.HALF.reflections == {Reflection.X_AXIS}
        assert Mode.QUARTER.reflections == {Reflection.X_AXIS, Reflection.Y_AXIS}

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_non_finite_radius_rejected(self, kepler_field, radius):
        # Refused here, not left to end each miss in a DomainExit at the launch.
        with pytest.raises(ValueError, match="launch radius must be a finite positive number"):
            ShootingProblem(field=kepler_field, radius=radius, mode=Mode.QUARTER)

    def test_eta_below_delta(self, kepler_field):
        with pytest.raises(ValueError):
            ShootingProblem(
                field=kepler_field, radius=1.0, mode=Mode.QUARTER, eta=0.3, delta=0.2
            )


class TestModeMembers:
    """Each `Mode` member carries its section builder, its alpha rule, its
    branches and its end conditions."""

    def test_values_and_order(self):
        assert list(Mode) == [Mode.QUARTER, Mode.HALF]
        assert Mode("quarter") is Mode.QUARTER and Mode("half") is Mode.HALF

    def test_sections(self):
        assert Mode.QUARTER.section == SectionSpec.positive_y_axis
        assert Mode.HALF.section == SectionSpec.negative_x_axis
        assert Mode.HALF.section(1.5).kind == "negative_x_axis"

    def test_alpha_rules(self):
        assert Mode.QUARTER.unit_alpha is True and Mode.HALF.unit_alpha is False

    def test_branches_and_end_conditions(self):
        x, y = Reflection.X_AXIS, Reflection.Y_AXIS
        assert Mode.HALF.branches == ((), (x,))
        assert Mode.QUARTER.branches == ((), (y,), (x, y), (x,))
        assert Mode.HALF.vanishing == (("y(0)", 0, 1), ("y(tau)", 1, 1), ("vx(0)", 0, 2), ("vx(tau)", 1, 2))
        assert Mode.QUARTER.vanishing == (("y(0)", 0, 1), ("vx(0)", 0, 2), ("x(tau)", 1, 0), ("vy(tau)", 1, 3))

    def test_problem_section_is_the_members(self, half_problem_a05, quarter_problem):
        for p in (half_problem_a05, quarter_problem):
            assert p.section == p.mode.section(p.radius, transversality_floor=1e-6 * p.circular_velocity)

    def test_no_side_table(self):
        assert not hasattr(shooting, "_MODES") and not hasattr(shooting, "_ModeSpec")


class TestProblemGeometry:
    def test_computed_once_per_problem(self, half_problem_a05):
        p = dataclasses.replace(half_problem_a05)
        assert p.section is p.section
        assert p.window == 0.75 * 2.0 * math.pi / circular_speed(p.field.base, 1.0)

    def test_a_replaced_problem_gets_its_own(self, half_problem_a05):
        p = dataclasses.replace(half_problem_a05)
        section, v0 = p.section, p.circular_velocity
        moved = dataclasses.replace(p, radius=1.5)
        assert moved.circular_velocity == circular_speed(p.field.base, 1.5) != v0
        assert moved.section.start == (-6.0, 0.0) and moved.section != section
        assert moved.section.transversality_floor == 1e-6 * moved.circular_velocity


class TestMissSigns:
    def test_quarter_circle_zero(self, quarter_problem):
        m = miss(quarter_problem, 1.0, 0.0)
        assert abs(m.value) < 1e-10

    def test_quarter_fast_launch_positive(self, quarter_problem):
        # Above circular speed the launch is a pericenter, the radius is still
        # growing at the quarter crossing, and the vertical component is the
        # outward radial one: positive.
        assert miss(quarter_problem, 1.05, 0.0).value > 0

    def test_quarter_slow_launch_negative(self, quarter_problem):
        assert miss(quarter_problem, 0.95, 0.0).value < 0

    def test_half_circle_zero(self, half_problem_a05):
        assert abs(miss(half_problem_a05, 1.0, 0.0).value) < 1e-10

    def test_half_sign_pattern_low_alpha(self, half_problem_a05):
        assert miss(half_problem_a05, 1.05, 0.0).value > 0
        assert miss(half_problem_a05, 0.95, 0.0).value < 0

    def test_half_sign_pattern_high_alpha(self, half_problem_a3):
        assert miss(half_problem_a3, 1.02, 0.0).value < 0
        assert miss(half_problem_a3, 0.98, 0.0).value > 0

    @pytest.mark.parametrize(
        "problem_fixture, sigma, mu",
        [("quarter_problem_radial", 1.02, 0.05), ("half_problem_a05", 0.97, 0.02), ("half_problem_a3", 0.98, 0.005)],
    )
    def test_states_the_crossing_of_crossing_time(self, request, problem_fixture, sigma, mu):
        p = request.getfixturevalue(problem_fixture)
        m = miss(p, sigma, mu)
        t_star, tangent_speed, traj = crossing_time(p.field, mu, p.launch_point, p.launch_velocity(sigma), p.section, p.window)
        assert (m.t_star, m.value) == (t_star, tangent_speed)
        assert np.array_equal(m.trajectory.ts, traj.ts)

    def test_launch_is_vertical(self, quarter_problem):
        v = quarter_problem.launch_velocity(1.03)
        assert v[0] == 0.0 and v[1] == pytest.approx(1.03)

    def test_sigma_outside_band_rejected(self, quarter_problem):
        with pytest.raises(ValueError):
            miss(quarter_problem, 1.5, 0.0)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf, 0.5, -0.5, 0.6])
    def test_mu_outside_the_field_range_is_named(self, quarter_problem, mu):
        # mu_range 0.5: the open interval (-0.5, 0.5). A NaN used to end in a
        # step-size underflow and 0.6 in a miss value.
        with pytest.raises(ValueError, match=rf"mu={mu} outside the field's open mu range \(-0.5, 0.5\)"):
            miss(quarter_problem, 1.0, mu)


class TestBracket:
    def test_kepler_default(self, quarter_problem):
        br = bracket(quarter_problem, 0.0)
        assert (br.miss_lo.sigma, br.miss_hi.sigma) == (0.95, 1.05)
        assert br.miss_lo.value < 0 < br.miss_hi.value

    def test_high_alpha_orientation_flipped(self, half_problem_a3):
        br = bracket(half_problem_a3, 0.0)
        assert br.miss_lo.value > 0 > br.miss_hi.value

    def test_failure_outside_usable_range(self, quarter_problem_radial):
        # mu = 0.45 shifts the root to sqrt(1.45) ~ 1.204, beyond sigma = 1 + eta.
        with pytest.raises(BracketFailure):
            bracket(quarter_problem_radial, 0.45)

    def test_tiny_opposite_misses_bracket(self, quarter_problem, monkeypatch):
        # Their product underflows to zero; the sign rule still sees the change.
        carrier = shooting.miss(quarter_problem, 1.0, 0.0)

        def tiny(problem, sigma, mu):
            return MissValue(sigma, math.copysign(1e-200, sigma - 1.0), carrier.t_star, carrier.trajectory)

        monkeypatch.setattr(shooting, "miss", tiny)
        br = bracket(quarter_problem, 0.0)
        assert (br.miss_lo.sigma, br.miss_hi.sigma) == (0.95, 1.05)
        assert (br.miss_lo.value, br.miss_hi.value) == (-1e-200, 1e-200)

    def test_boundary_crossing_moves_on_to_the_next_width(self, quarter_problem, monkeypatch):
        # The probes at half-width eta/2 cross the section at its end; those at eta bracket.
        real_miss, half = shooting.miss, 0.5 * quarter_problem.eta

        def miss(problem, sigma, mu):
            if sigma in (1.0 - half, 1.0 + half):
                raise BoundaryCrossing("forced")
            return real_miss(problem, sigma, mu)

        monkeypatch.setattr(shooting, "miss", miss)
        br = bracket(quarter_problem, 0.0)
        assert (br.miss_lo.sigma, br.miss_hi.sigma) == (1.0 - quarter_problem.eta, 1.0 + quarter_problem.eta)

    def test_boundary_crossing_is_the_bracket_failure_cause(self, quarter_problem, monkeypatch):
        # No sign change at half-width eta/2, a boundary crossing at eta: the
        # last width's evaluation error is the chained cause, and the message
        # names it.
        carrier = shooting.miss(quarter_problem, 1.0, 0.0)

        def miss(problem, sigma, mu):
            if sigma == 1.0 - problem.eta:
                raise BoundaryCrossing("forced")
            return MissValue(sigma, 1.0, carrier.t_star, carrier.trajectory)

        monkeypatch.setattr(shooting, "miss", miss)
        with pytest.raises(BracketFailure) as info:
            bracket(quarter_problem, 0.0)
        assert isinstance(info.value.__cause__, BoundaryCrossing)
        assert str(info.value).endswith(" at mu=0.0 (last evaluation error: forced)")


def bisection_sigma(problem, mu, tol=1e-10, max_iter=200):
    """sigma* of the bisection solve that Illinois regula falsi replaced."""
    br = bracket(problem, mu)
    lo, hi = br.miss_lo.sigma, br.miss_hi.sigma
    f_lo = br.miss_lo.value
    best = br.miss_lo if abs(br.miss_lo.value) <= abs(br.miss_hi.value) else br.miss_hi
    if abs(best.value) >= tol:
        for _ in range(max_iter):
            mid = 0.5 * (lo + hi)
            m_mid = shooting.miss(problem, mid, mu)
            if abs(m_mid.value) < abs(best.value):
                best = m_mid
            if abs(m_mid.value) < tol:
                break
            if f_lo * m_mid.value < 0.0:
                hi = mid
            else:
                lo, f_lo = mid, m_mid.value
            if hi - lo < 1e-15:
                break
        assert abs(best.value) < tol
    return best.sigma


@pytest.fixture()
def miss_sigmas(monkeypatch):
    """Every sigma handed to shooting.miss, in call order."""
    sigmas = []
    real = shooting.miss

    def counting(problem, sigma, mu):
        sigmas.append(sigma)
        return real(problem, sigma, mu)

    monkeypatch.setattr(shooting, "miss", counting)
    return sigmas


class TestSolve:
    @pytest.mark.parametrize("mu", [math.nan, 0.6])
    def test_mu_outside_the_field_range_is_named(self, quarter_problem, mu):
        # bracket lets the ValueError through: it is no BracketFailure.
        with pytest.raises(ValueError, match=rf"mu={mu} outside the field's open mu range"):
            solve(quarter_problem, mu)
        with pytest.raises(ValueError, match=rf"mu={mu} outside the field's open mu range"):
            bracket(quarter_problem, mu)
        br = bracket(quarter_problem, 0.0)
        with pytest.raises(ValueError, match=rf"mu={mu} outside the field's open mu range"):
            solve(quarter_problem, mu, prebuilt=br)

    def test_kepler_circular_root(self, quarter_problem):
        sol = solve(quarter_problem, 0.0, tol=1e-10)
        assert abs(sol.sigma_star - 1.0) < 1e-9
        assert sol.tau == pytest.approx(math.pi / 2, abs=1e-8)
        assert abs(sol.miss_residual) < 1e-10
        assert sol.segment.ys[0][2] == 0.0  # a vertical launch

    def test_radial_perturbation_matches_central_orbit(self, quarter_problem_radial):
        # The perturbed field stays central, so the orthogonal-crossing speed
        # is the circular speed of the combined field: sigma* = sqrt(1 + mu).
        for mu in (0.02, 0.05):
            sol = solve(quarter_problem_radial, mu, tol=1e-10)
            assert sol.sigma_star == pytest.approx(
                perturbed_radial_sigma(mu, 1.0, 3.0, 1.0, 1.0, 1.0), abs=1e-9
            )
            assert abs(sol.miss_residual) < 1e-10

    def test_half_mode_solve(self, half_problem_a05):
        sol = solve(half_problem_a05, 0.02, tol=1e-10)
        assert abs(sol.miss_residual) < 1e-10
        assert abs(sol.sigma_star - 1.0) < half_problem_a05.eta
        # segment runs from the launch to the orthogonal crossing
        assert sol.segment.t_end == pytest.approx(sol.tau)
        end = sol.segment.final_state()
        assert end.position[0] < 0
        assert abs(end.position[1]) < 1e-8
        assert abs(end.velocity[0]) < 1e-8

    def test_orthogonal_crossing_means_radial_turning(self, quarter_problem_radial):
        # Velocity perpendicular to the axis at the crossing is the same
        # statement as a vanishing radial speed there.
        sol = solve(quarter_problem_radial, 0.03, tol=1e-10)
        s = sol.segment.final_state()  # the state at the crossing
        r = float(np.hypot(*s.position))
        radial_speed = float(s.position @ s.velocity) / r
        assert abs(radial_speed) < 1e-9

    def test_eta_closeness(self, quarter_problem_radial):
        for mu in (0.0, 0.04, 0.08):
            sol = solve(quarter_problem_radial, mu)
            assert abs(sol.sigma_star - 1.0) < quarter_problem_radial.eta

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tol_refused(self, quarter_problem_radial, tol):
        # Every |miss| >= tol test is false for both, so the bracket edge
        # sigma = 1.05 would come back as sigma* (the root is sqrt(1.01)).
        with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
            solve(quarter_problem_radial, 0.01, tol=tol)

    def test_nonconvergence_on_iteration_cap(self, quarter_problem, monkeypatch):
        monkeypatch.setattr(shooting, "_MAX_ITER", 5)
        with pytest.raises(NonConvergence, match="after 5 root-finding steps"):
            solve(quarter_problem, 0.0, tol=0.0)

    def test_nonconvergence_reports_steps_taken(self, quarter_problem, miss_sigmas):
        # tol = 0 is never met; the bracket collapses below 1e-15 long before
        # the iteration cap, and the message counts the steps actually taken.
        with pytest.raises(NonConvergence) as info:
            solve(quarter_problem, 0.0, tol=0.0)
        steps = len(miss_sigmas) - 2  # minus the two bracket probes
        assert steps < shooting._MAX_ITER
        assert f"after {steps} root-finding steps" in str(info.value)

    def test_nonconvergence_names_the_best_sigma_and_the_bracket(self, quarter_problem_radial, miss_sigmas):
        with pytest.raises(NonConvergence) as info:
            solve(quarter_problem_radial, 0.01, tol=0.0)
        found = re.fullmatch(
            r"\|miss\|=(\S+) at sigma=(\S+) still above tol=0.0 after \d+ root-finding steps "
            r"at mu=0.01; final bracket \[(\S+), (\S+)\]",
            str(info.value),
        )
        sigma, lo, hi = map(float, found.groups()[1:])
        iterates = miss_sigmas[2:]
        assert sigma in iterates
        assert f"{abs(shooting.miss(quarter_problem_radial, sigma, 0.01).value):.3g}" == found[1]
        assert lo in iterates and hi in iterates and 0 < hi - lo < 1e-15  # the collapsed bracket

    def test_bisection_keeps_bracket_signs(self, quarter_problem_radial):
        # The returned root must sit inside the initial bracket.
        br = bracket(quarter_problem_radial, 0.05)
        sol = solve(quarter_problem_radial, 0.05, prebuilt=br)
        assert br.miss_lo.sigma <= sol.sigma_star <= br.miss_hi.sigma


class TestRootFinder:
    # The acceptance solves: bisection needed 31 / 27 / 32 misses, bracket
    # probes included, and Illinois regula falsi 7 / 7 / 9; with
    # inverse-quadratic steps 5 / 7 / 7.
    MISSES = {"quarter_problem_radial": 5, "half_problem_a05": 7, "half_problem_a3": 7}

    @pytest.mark.parametrize(
        "problem_name,mu",
        [("quarter_problem_radial", 0.05), ("half_problem_a05", 0.02), ("half_problem_a3", 0.005)],
    )
    def test_few_miss_evaluations(self, request, miss_sigmas, problem_name, mu):
        sol = solve(request.getfixturevalue(problem_name), mu, tol=1e-10)
        assert abs(sol.miss_residual) < 1e-10
        assert len(miss_sigmas) <= self.MISSES[problem_name]
        assert 1.0 not in miss_sigmas  # the circle is an iterate at mu = 0 only

    @pytest.mark.parametrize("problem_name", ["quarter_problem_radial", "half_problem_a05", "half_problem_a3"])
    def test_circle_solves_mu_zero(self, request, miss_sigmas, problem_name):
        # The two bracket probes, then the circle: an orthogonal crossing of
        # the central power law in both modes.
        problem = request.getfixturevalue(problem_name)
        sol = solve(problem, 0.0, tol=1e-10)
        assert sol.sigma_star == 1.0 and abs(sol.miss_residual) < 1e-10
        assert miss_sigmas == [1.0 - 0.5 * problem.eta, 1.0 + 0.5 * problem.eta, 1.0]

    @pytest.mark.parametrize(
        "problem_name,mus",
        [("half_problem_a05", (0.0, 0.02, 0.04)), ("half_problem_a3", (0.0, 0.005, 0.01))],
    )
    def test_matches_bisection(self, request, problem_name, mus):
        problem = request.getfixturevalue(problem_name)
        for mu in mus:
            sol = solve(problem, mu, tol=1e-10)
            assert abs(sol.sigma_star - bisection_sigma(problem, mu)) < 100 * 1e-10

    def test_exact_zero_at_bracket_end_accepted(self, quarter_problem, miss_sigmas):
        m_lo = shooting.miss(quarter_problem, 0.95, 0.0)
        m_hi = shooting.miss(quarter_problem, 1.05, 0.0)
        zero = MissValue(0.95, 0.0, m_lo.t_star, m_lo.trajectory)
        miss_sigmas.clear()
        sol = solve(quarter_problem, 0.0, prebuilt=Bracket(zero, m_hi))
        assert sol.sigma_star == 0.95 and sol.miss_residual == 0.0
        assert miss_sigmas == []

    ROOT = 0.97 + 1e-3 / 3
    SHAPES = {
        # Steep on one side: the false-position step creeps in from the flat end.
        "exponential": lambda d: math.expm1(200.0 * d),
        # Flat at the root: |miss| < tol already holds on a wide band.
        "seventh_power": lambda d: 1e6 * d**7,
        # Slopes differing by 1e6 on the two sides of the root.
        "kink": lambda d: d if d < 0.0 else 1e6 * d,
    }

    def synthetic_solve(self, problem, monkeypatch, f, mu, lo=0.95, hi=1.05):
        """(solution, iterates) of the solve on the miss f(sigma - ROOT) and
        the bracket [lo, hi], at mu."""
        carrier = shooting.miss(problem, 1.0, 0.0)  # a real crossing to return
        sigmas = []

        def synthetic(problem, sigma, mu):
            sigmas.append(sigma)
            return MissValue(sigma, f(sigma - self.ROOT), carrier.t_star, carrier.trajectory)

        monkeypatch.setattr(shooting, "miss", synthetic)
        br = Bracket(synthetic(None, lo, mu), synthetic(None, hi, mu))
        sigmas.clear()
        return solve(problem, mu, tol=1e-10, prebuilt=br), sigmas

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_safeguard_on_synthetic_miss(self, quarter_problem, monkeypatch, shape):
        f = self.SHAPES[shape]
        lo, hi = 0.95, 1.05
        sol, sigmas = self.synthetic_solve(quarter_problem, monkeypatch, f, 0.0, lo, hi)
        assert abs(sol.miss_residual) < 1e-10
        assert lo < sol.sigma_star < hi

        # Replay the iterates: each lies strictly inside the bracket spanned by
        # the latest iterates of each sign, and the bracket halves at least
        # every four iterations. The first is the circle (mu = 0); each later
        # one the inverse-quadratic point of the last three misses if that lies
        # inside the bracket, else the Illinois false-position point, or else
        # the midpoint.
        a, f_a, b, f_b, kept = lo, f(lo - self.ROOT), hi, f(hi - self.ROOT), 0
        last = [(a, f_a), (b, f_b)]
        midpoints = 0
        for k, x in enumerate(sigmas):
            assert b - a <= (hi - lo) * 0.5 ** (k // 4)
            assert a < x < b
            midpoint = 0.5 * (a + b)
            midpoints += x == midpoint
            if k == 0:
                assert x == 1.0
            else:
                q = shooting._inverse_quadratic(last)
                step = q if a < q < b else (a * f_b - b * f_a) / (f_b - f_a)
                assert x in (step, midpoint)
            fx = f(x - self.ROOT)
            last = last[-2:] + [(x, fx)]
            if (fx < 0.0) == (f_a < 0.0):
                a, f_a = x, fx
                f_b *= 0.5 if kept == -1 else 1.0
                kept = -1
            else:
                b, f_b = x, fx
                f_a *= 0.5 if kept == 1 else 1.0
                kept = 1
        assert midpoints >= 1
        assert len(sigmas) <= 120

    @pytest.mark.parametrize("mu,lo,hi", [(0.01, 0.95, 1.05), (0.0, 0.95, 0.99)])
    def test_circle_only_at_mu_zero_inside_the_bracket(self, quarter_problem, monkeypatch, mu, lo, hi):
        f = self.SHAPES["kink"]
        _, sigmas = self.synthetic_solve(quarter_problem, monkeypatch, f, mu, lo, hi)
        f_lo, f_hi = f(lo - self.ROOT), f(hi - self.ROOT)
        assert sigmas[0] == (lo * f_hi - hi * f_lo) / (f_hi - f_lo) != 1.0

    def test_inverse_quadratic_outside_the_bracket_falls_back(self, quarter_problem, monkeypatch):
        # On the exponential shape the parabola through the bracket ends and
        # the first false-position point puts the root outside the bracket
        # [sigma_1, 1.05], so the second iterate is false position again.
        f = self.SHAPES["exponential"]
        _, sigmas = self.synthetic_solve(quarter_problem, monkeypatch, f, 0.01)
        x1, f_lo, f_hi = sigmas[0], f(0.95 - self.ROOT), f(1.05 - self.ROOT)
        f1 = f(x1 - self.ROOT)
        assert f1 < 0.0  # the lower end moved
        q = shooting._inverse_quadratic([(0.95, f_lo), (1.05, f_hi), (x1, f1)])
        assert not x1 < q < 1.05
        assert sigmas[1] == (x1 * f_hi - 1.05 * f1) / (f_hi - f1)


class TestSignTable:
    # Four-cell pattern: the crossing velocity tilts forward for soft forces
    # (apsidal angle below pi) and backward for steep ones, flipping with
    # the sign of the speed offset.
    EXPECTED = {
        (0.0, +1): +1,
        (0.0, -1): -1,
        (0.5, +1): +1,
        (0.5, -1): -1,
        (2.0, +1): -1,
        (2.0, -1): +1,
        (3.0, +1): -1,
        (3.0, -1): +1,
    }

    @pytest.mark.parametrize("alpha,eps_sign", sorted(EXPECTED))
    def test_cell(self, alpha, eps_sign):
        params = PowerLawParams(1.0, alpha)
        assert sign_table(params, eps_sign * 0.05) == self.EXPECTED[(alpha, eps_sign)]

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            sign_table(PowerLawParams(1.0, 1.0), 0.05)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match="^epsilon must be a finite nonzero number"):
            sign_table(PowerLawParams(1.0, 0.5), epsilon)

    def test_scales_with_kappa(self):
        assert sign_table(PowerLawParams(3.0, 0.5), 0.05) == +1
        assert sign_table(PowerLawParams(3.0, 3.0), -0.05) == +1


class TestContinuityProbe:
    def test_deviations_shrink(self, quarter_problem_radial):
        devs = crossing_time_deviation(quarter_problem_radial, 0.03, 1.01)
        assert devs[0] > devs[1] > devs[2] > 0

    def test_each_deviation_probes_sigma_plus_h(self, quarter_problem_radial):
        # The probe side is pinned: at this (sigma, mu) the crossing time
        # bends, so the sigma - h probes give other deviations.
        sigma, mu = 1.01, 0.03
        t0 = miss(quarter_problem_radial, sigma, mu).t_star

        def deviations(side):
            return [abs(miss(quarter_problem_radial, sigma + side * h, mu).t_star - t0) for h in (1e-3, 1e-4, 1e-5)]

        plus, minus = deviations(+1), deviations(-1)
        assert crossing_time_deviation(quarter_problem_radial, mu, sigma) == plus
        assert all(p != m for p, m in zip(plus, minus))
