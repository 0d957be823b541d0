import ast
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from symorbit import (
    DomainExit,
    ForceField,
    HypothesisViolation,
    PointOnCurve,
    PowerLawParams,
    Reflection,
    SectionSpec,
    SolverError,
    axis_crossings,
    axis_poly_perturbation,
    circular_speed,
    crossing_time,
    extend_half,
    extend_quarter,
    flow,
    is_simple_closed,
    miss,
    solve,
    validate_orbit,
    verify_closure,
    winding_number,
)
from symorbit import integrator, orbit as orbit_mod, section as section_mod
from symorbit.integrator import _sign_changes
from symorbit.orbit import PeriodicOrbit, _branch, _overlapping_pairs, _polyline
from symorbit.shooting import Mode

from oracles import kepler_period, semi_major_axis, trajectory_bits


@pytest.fixture(scope="module")
def circle_quarter_segment(kepler_field):
    traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), math.pi / 2 + 0.2)
    return traj.truncated(math.pi / 2)


@pytest.fixture(scope="module")
def ellipse_half_segment(kepler_field):
    # sigma = 1.1 launch: apsides on the x-axis, so the pericenter-to-apocenter
    # arc ends on the negative x-axis with a vertical velocity.
    section = SectionSpec.negative_x_axis(1.0)
    t_half, _, traj = crossing_time(
        kepler_field, 0.0, (1.0, 0.0), (0.0, 1.1), section, 8.0
    )
    return traj.truncated(t_half)


@pytest.fixture(scope="module")
def solved_perturbed_orbit(quarter_problem_radial):
    sol = solve(quarter_problem_radial, 0.05)
    return extend_quarter(sol.segment, mu=0.05)


def loop_points(n=512, fn=None):
    th = np.linspace(0.0, 2 * math.pi, n + 1)[:-1]
    if fn is None:
        return np.column_stack([np.cos(th), np.sin(th)])
    return fn(th)


class TestBranches:
    def test_derived_branches_are_the_written_ones(self):
        # (a, c, state signs) of each branch as the table spelled them out
        # before its branches named their reflections.
        same, x_mirror = (1.0, 1.0, 1.0, 1.0), (1.0, -1.0, -1.0, 1.0)
        y_mirror, both_mirrors = (-1.0, 1.0, 1.0, -1.0), (-1.0, -1.0, -1.0, -1.0)
        written = {
            Mode.HALF: [(0.0, 1.0, same), (2.0, -1.0, x_mirror)],
            Mode.QUARTER: [(0.0, 1.0, same), (2.0, -1.0, y_mirror), (-2.0, 1.0, both_mirrors), (4.0, -1.0, x_mirror)],
        }
        for mode, branches in written.items():
            derived = [_branch(k, reflections) for k, reflections in enumerate(mode.branches)]
            assert repr(derived) == repr(branches)  # signed zeros too


class TestExtendQuarter:
    def test_circle_becomes_full_circle(self, circle_quarter_segment, kepler_field):
        orb = extend_quarter(circle_quarter_segment)
        assert orb.period == pytest.approx(2 * math.pi, abs=1e-9)
        radii = np.hypot(orb.positions[:, 0], orb.positions[:, 1])
        assert np.max(np.abs(radii - 1.0)) < 1e-9
        assert orb.symmetry == {Reflection.X_AXIS, Reflection.Y_AXIS}
        assert np.allclose(orb.states[0], orb.states[-1], atol=1e-12)
        pos_res, vel_res, _ = verify_closure(orb, kepler_field, 0.0)
        assert pos_res < 1e-9 and vel_res < 1e-9

    def test_branch_joints_are_c1(self, circle_quarter_segment):
        orb = extend_quarter(circle_quarter_segment)
        tau = orb.period / 4
        for joint in (tau, 2 * tau, 3 * tau):
            left = orb._eval([joint - 1e-9])[0]
            right = orb._eval([joint + 1e-9])[0]
            assert np.allclose(left[:2], right[:2], atol=1e-7)
            assert np.allclose(left[2:], right[2:], atol=1e-7)

    def test_hypothesis_violation_on_non_orthogonal_end(self, kepler_field):
        # Cutting the quarter arc early leaves a slanted end velocity.
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), 2.0)
        with pytest.raises(HypothesisViolation) as err:
            extend_quarter(traj.truncated(0.9 * math.pi / 2))
        # The message prints plain floats under numpy 1 and 2, no np.float64(...).
        message = str(err.value)
        assert "np." not in message
        bad = ast.literal_eval(message[message.index("{") : message.index("}") + 1])
        assert set(bad) == {"x(tau)", "vy(tau)"} and all(type(v) is float for v in bad.values())
        assert bad["x(tau)"] == pytest.approx(math.cos(0.45 * math.pi), abs=1e-9)

    def test_perturbed_solution_closes(self, solved_perturbed_orbit, kepler_radial_field):
        pos_res, vel_res, sym = verify_closure(
            solved_perturbed_orbit, kepler_radial_field, 0.05
        )
        assert pos_res < 1e-6
        assert vel_res < 1e-5
        assert all(v < 1e-8 for v in sym.values())


class TestExtendHalf:
    def test_half_circle(self, kepler_field):
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), math.pi + 0.1)
        orb = extend_half(traj.truncated(math.pi))
        assert orb.period == pytest.approx(2 * math.pi, abs=1e-9)
        assert orb.symmetry == {Reflection.X_AXIS}

    def test_ellipse_period_matches_vis_viva(self, ellipse_half_segment, kepler_field):
        orb = extend_half(ellipse_half_segment)
        expected = kepler_period(semi_major_axis(1.0, 1.1, 1.0), 1.0)
        assert abs(orb.period - expected) / expected < 1e-6
        ok, diag = validate_orbit(orb, kepler_field, 0.0)
        assert ok, diag

    def test_non_orthogonal_end_rejected(self, kepler_field):
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), 3.0)
        with pytest.raises(HypothesisViolation):
            extend_half(traj.truncated(0.9 * math.pi))

    def test_wrong_tau_fails_closure(self, ellipse_half_segment, kepler_field):
        # Forcing assembly with a 1% wrong half-period must leave a closure
        # residual far above tolerance; the endpoint gate is bypassed on purpose.
        import symorbit.orbit as orbit_mod

        tau = ellipse_half_segment.t_end
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.1), 1.02 * tau)
        bad_segment = traj.truncated(1.01 * tau)
        old = orbit_mod._ENDPOINT_RTOL
        orbit_mod._ENDPOINT_RTOL = 1.0
        try:
            orb = extend_half(bad_segment)
        finally:
            orbit_mod._ENDPOINT_RTOL = old
        pos_res, _, _ = verify_closure(orb, kepler_field, 0.0)
        assert pos_res > 1e-3


def branch_eval_reference(segment, mode):
    """Per-sample construction the reflection table replaced: one dense-output
    evaluation per time through explicit branch formulas."""
    tau = segment.t_end
    period = (4.0 if mode == "quarter" else 2.0) * tau

    def branch_eval(t):
        s = t % period
        if s <= tau:
            return segment.eval_many([s])[0]
        if mode == "half":
            y = segment.eval_many([period - s])[0]
            return np.array([y[0], -y[1], -y[2], y[3]])
        if s <= 2.0 * tau:
            y = segment.eval_many([2.0 * tau - s])[0]
            return np.array([-y[0], y[1], y[2], -y[3]])
        if s <= 3.0 * tau:
            y = segment.eval_many([s - 2.0 * tau])[0]
            return np.array([-y[0], -y[1], -y[2], -y[3]])
        y = segment.eval_many([period - s])[0]
        return np.array([y[0], -y[1], -y[2], y[3]])

    return branch_eval


def assert_states_close(got, want):
    """Rows agree to 8 ulp of the larger of 1 and the row's largest entry."""
    bound = 8 * np.finfo(float).eps * np.maximum(1.0, np.max(np.abs(want), axis=1))
    assert np.all(np.max(np.abs(got - want), axis=1) <= bound)


class TestReflectionTable:
    @pytest.mark.parametrize(
        "orbit_fixture, mode",
        [("solved_perturbed_orbit", "quarter"), ("half_orbit_a05", "half"), ("half_orbit_a3", "half")],
    )
    def test_states_match_per_sample_construction(self, request, orbit_fixture, mode):
        orb = request.getfixturevalue(orbit_fixture)
        branch_eval = branch_eval_reference(orb.segment, mode)
        assert_states_close(orb.states, np.array([branch_eval(t) for t in orb.times]))
        # Off-sample times, branch joints and times beyond one period.
        ts = np.concatenate([
            np.random.default_rng(1).uniform(-orb.period, 2 * orb.period, 200),
            np.arange(5) * orb.period / (4 if mode == "quarter" else 2),
        ])
        want = np.array([branch_eval(t) for t in ts])
        assert_states_close(np.array([orb._eval([t])[0] for t in ts]), want)

    def test_start_is_the_segment_start(self, solved_perturbed_orbit):
        start = solved_perturbed_orbit.segment.ys[0]
        assert np.array_equal(solved_perturbed_orbit.states[0], start)

    @pytest.mark.parametrize("orbit_fixture", ["solved_perturbed_orbit", "half_orbit_a05", "half_orbit_a3"])
    def test_initial_state_is_the_orbit_at_zero(self, request, orbit_fixture):
        # The first sample, which verify_closure and validate_orbit read as
        # the start state, is the orbit's interpolant at time 0 bit for bit,
        # in both modes.
        orb = request.getfixturevalue(orbit_fixture)
        assert orb.states[0].tobytes() == orb._eval([0.0])[0].tobytes()


class TestClosureScaling:
    def test_residual_shrinks_with_tolerance(self, quarter_problem_radial, kepler_radial_field, set_tolerance):
        residuals = []
        for tol in (1e-8, 1e-12):
            set_tolerance(tol)
            sol = solve(quarter_problem_radial, 0.03)
            orb = extend_quarter(sol.segment, mu=0.03)
            pos_res, _, _ = verify_closure(orb, kepler_radial_field, 0.03)
            residuals.append(pos_res)
        assert residuals[1] < residuals[0]


class TestSimpleClosed:
    def test_circle(self):
        simple, pt = is_simple_closed(loop_points())
        assert simple and pt is None

    def test_solved_orbit(self, solved_perturbed_orbit):
        simple, _ = is_simple_closed(solved_perturbed_orbit)
        assert simple

    def test_closing_point_repeated_after_the_collapse(self):
        # The unit square closed twice at (0, 0): one copy goes as the
        # polyline's closing point, the other after the repeats collapse; kept,
        # it would make a zero-length wrap segment and the first and fourth
        # sides would meet at (0, 0).
        square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0), (0.0, 0.0)]
        assert is_simple_closed(square, min_points=4) == (True, None)

    def test_inner_loop_detected(self):
        # Limacon with an inner loop: r = 1 + 1.5 cos(theta).
        pts = loop_points(
            512,
            lambda th: np.column_stack(
                [(1 + 1.5 * np.cos(th)) * np.cos(th), (1 + 1.5 * np.cos(th)) * np.sin(th)]
            ),
        )
        simple, pt = is_simple_closed(pts)
        assert not simple
        assert pt is not None and np.linalg.norm(pt) < 0.05

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.05, 0.95), st.floats(0.0, 2 * math.pi))
    def test_dimpled_limacon_simple(self, ratio, phase):
        # For b < a the limacon r = a + b cos(theta) has no self-intersection.
        pts = loop_points(
            400,
            lambda th: np.column_stack(
                [
                    (1 + ratio * np.cos(th + phase)) * np.cos(th),
                    (1 + ratio * np.cos(th + phase)) * np.sin(th),
                ]
            ),
        )
        simple, _ = is_simple_closed(pts, min_points=256)
        assert simple

    @settings(max_examples=30, deadline=None)
    @given(st.floats(1.1, 4.0))
    def test_looped_limacon_not_simple(self, ratio):
        pts = loop_points(
            400,
            lambda th: np.column_stack(
                [
                    (1 + ratio * np.cos(th)) * np.cos(th),
                    (1 + ratio * np.cos(th)) * np.sin(th),
                ]
            ),
        )
        simple, _ = is_simple_closed(pts, min_points=256)
        assert not simple

    def test_min_points_enforced(self):
        with pytest.raises(ValueError):
            is_simple_closed(loop_points(64))


class TestPolyline:
    @staticmethod
    def _circle(n=300):
        th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return np.column_stack([np.cos(th), np.sin(th)])

    def test_exact_duplicate_closing_point_dropped(self):
        pts = self._circle()
        assert len(_polyline(np.vstack([pts, pts[:1]]))) == 300

    def test_real_closing_point_kept(self):
        # 5e-6 is 5,000 times the 1e-9 (at unit scale) that counts as a duplicate.
        pts = self._circle()
        last = pts[:1] + np.array([[5e-6, 0.0]])
        assert len(_polyline(np.vstack([pts, last]))) == 301

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=1, max_size=5),
        st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
    )
    @example([(1.0, 0.0)], (0.0, 1.0), 1e-9)  # |p0 - p_last| equals the atol
    def test_closing_point_decision_is_allclose(self, points, offset, scale):
        # The duplicate test max |p0 - p_last| <= atol decides as
        # np.allclose(p0, p_last, rtol=0, atol) on finite points, with atol
        # 1e-9 of the largest |coordinate|.
        pts = np.array(points)
        last = pts[0] + scale * np.array(offset) * float(np.max(np.abs(pts)))
        pts = np.vstack([pts, last])
        atol = 1e-9 * np.max(np.abs(pts))
        dropped = np.allclose(pts[0], pts[-1], rtol=0.0, atol=atol)
        assert len(_polyline(pts)) == len(pts) - dropped

    def test_overflowing_extent_answered_without_a_warning(self):
        # The closing segment of a semicircle of radius 1.5e308 spans 3e308,
        # past the largest float; every warning is an error here. The closing
        # gap counts as no duplicate, winding needs no extent, and the
        # simplicity check tests the points scaled into [-1, 1].
        th = np.linspace(0.0, np.pi, 300)
        pts = 1.5e308 * np.column_stack([np.cos(th), np.sin(th)])
        assert len(_polyline(pts)) == 300
        assert winding_number(pts) == 0
        assert is_simple_closed(pts) == (True, None)

    @staticmethod
    def _limacon(n=400):
        # r = 1 + 1.5 cos(theta) has an inner loop, so the curve is not simple.
        th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        r = 1.0 + 1.5 * np.cos(th)
        return np.column_stack([r * np.cos(th), r * np.sin(th)])

    @pytest.mark.parametrize("k", [-900, -500, 300, 1020])
    def test_meeting_point_scales_by_a_power_of_two(self, k):
        # The orientation tests are exact under scaling by 2**k, so the
        # meeting point scales with the points bit for bit.
        simple, point = is_simple_closed(self._limacon())
        assert not simple
        assert is_simple_closed(np.ldexp(self._limacon(), k))[1].tobytes() == np.ldexp(point, k).tobytes()

    @pytest.mark.parametrize("scale", [1e80, 1e155, 1e160])
    def test_far_out_verdicts_without_a_warning(self, scale):
        # Unscaled, the orientation products of these coordinates overflow;
        # every warning is an error here.
        assert not is_simple_closed(scale * self._limacon())[0]
        assert is_simple_closed(scale * self._circle(400)) == (True, None)

    def test_closing_point_decision_at_every_scale(self):
        # The closing-point atol is relative to the largest |coordinate|: a
        # gap of 5e-6 R is kept and an exact duplicate dropped at every R.
        for k in range(-40, 41):
            pts = 2.0**k * loop_points()
            assert len(_polyline(np.vstack([pts, pts[:1]]))) == 512, k
            assert len(_polyline(np.vstack([pts, pts[:1] + (5e-6 * 2.0**k, 0.0)]))) == 513, k

    def test_orbit_polyline_formed_once(self, solved_perturbed_orbit):
        pts = _polyline(solved_perturbed_orbit)
        assert _polyline(solved_perturbed_orbit) is pts
        assert np.array_equal(pts, _polyline(solved_perturbed_orbit.positions))


class TestWindingNumber:
    def test_circle_about_origin(self):
        assert winding_number(loop_points()) == 1

    def test_orientation_flips_sign(self):
        assert winding_number(loop_points()[::-1]) == -1

    def test_point_outside(self):
        # The origin lies outside the unit circle about (-5, 0).
        assert winding_number(loop_points() - (5.0, 0.0)) == 0

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_sample_rejected(self, value):
        # Refused before the closing-point test, whose tolerance an infinite
        # sample makes infinite (a RuntimeWarning from numpy, an error here).
        pts = loop_points()
        pts[7, 1] = value
        for check in (winding_number, is_simple_closed):
            with pytest.raises(ValueError, match="^polyline points must be finite$"):
                check(pts)

    def test_point_on_curve_rejected(self):
        with pytest.raises(PointOnCurve):
            winding_number(loop_points() - (1.0, 0.0))

    def test_circle_answered_alike_at_every_scale(self):
        # The distance floor is relative to the largest |coordinate|, so a
        # small circle about the origin is not taken for one through it.
        for k in range(-40, 41):
            pts = 2.0**k * loop_points()
            assert winding_number(pts) == 1, k
            assert is_simple_closed(pts) == (True, None), k

    def test_solved_orbit_encloses_origin(self, solved_perturbed_orbit):
        assert abs(winding_number(solved_perturbed_orbit)) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0, 2 * math.pi))
    def test_rotated_ellipse(self, a, b, rot):
        th = np.linspace(0, 2 * math.pi, 400)[:-1]
        x = a * np.cos(th)
        y = b * np.sin(th)
        pts = np.column_stack(
            [x * math.cos(rot) - y * math.sin(rot), x * math.sin(rot) + y * math.cos(rot)]
        )
        assert winding_number(pts) == 1
        assert winding_number(pts - (4 * a, 4 * b)) == 0


class TestSymmetryResidual:
    """The time-reversal residuals `verify_closure` reads off its re-integration."""

    def test_circle_under_both(self, circle_quarter_segment, kepler_field):
        orb = extend_quarter(circle_quarter_segment)
        _, _, res = verify_closure(orb, kepler_field, 0.0)
        assert set(res) == {Reflection.X_AXIS, Reflection.Y_AXIS}
        assert all(v < 1e-10 for v in res.values())

    def test_half_orbit_x_only(self, half_problem_a05):
        sol = solve(half_problem_a05, 0.03)
        orb = extend_half(sol.segment, mu=0.03)
        _, _, res = verify_closure(orb, half_problem_a05.field, 0.03)
        assert set(res) == {Reflection.X_AXIS}
        assert res[Reflection.X_AXIS] < 1e-7

    def test_asymmetric_trace_flagged(self, half_problem_a05):
        # The x-only perturbed orbit is not symmetric about the y-axis. Declared
        # anyway, that reflection's residual is far above tolerance, as is the
        # distance of the mirrored trace from the trace.
        sol = solve(half_problem_a05, 0.03)
        orb = extend_half(sol.segment, mu=0.03)
        orb.symmetry = frozenset({Reflection.X_AXIS, Reflection.Y_AXIS})
        _, _, res = verify_closure(orb, half_problem_a05.field, 0.03)
        assert res[Reflection.X_AXIS] < 1e-7
        assert res[Reflection.Y_AXIS] > 1e-3
        assert all_pairs_symmetry_residual(orb.positions, [Reflection.Y_AXIS])[Reflection.Y_AXIS] > 1e-3

    def test_reflection_names_accepted(self, solved_perturbed_orbit, kepler_radial_field):
        # validate_orbit reports verify_closure's residuals by reflection name.
        _, _, res = verify_closure(solved_perturbed_orbit, kepler_radial_field, 0.05)
        _, diag = validate_orbit(solved_perturbed_orbit, kepler_radial_field, 0.05)
        assert diag["symmetry_residuals"] == {"x_axis": res[Reflection.X_AXIS], "y_axis": res[Reflection.Y_AXIS]}

    def test_broken_y_mirror_flags_the_y_axis_only(self):
        # A circle of the logarithmic field (alpha = 0), re-integrated with a
        # tiny x^2 force, which keeps the x-axis mirror and breaks the y-axis
        # one. The re-integration stays exactly reversible about the launch, so
        # its x-axis residual measures only how far it is from closing after
        # one period; the y-axis residual adds the broken mirror, about twice
        # as much at this exponent.
        base = PowerLawParams(1.0, 0.0)
        v = circular_speed(base, 1.0)
        period = 2 * math.pi / v
        traj = flow(ForceField(base=base), 0.0, (1.0, 0.0), (0.0, v), period / 4 + 0.1)
        orb = extend_quarter(traj.truncated(period / 4))
        field = ForceField(base=base, perturbation=axis_poly_perturbation(cx=1.0, px=2, cy=0.0, py=3))
        assert validate_orbit(orb, field, 0.0)[0]
        ok, diag = validate_orbit(orb, field, 1.6e-8)
        res = diag["symmetry_residuals"]
        assert res["x_axis"] < 1e-7 < res["y_axis"]
        assert diag["closure_position"] < 1e-7
        assert not ok

    def test_sample_count_not_divisible_by_four(self, solved_perturbed_orbit, kepler_radial_field, set_samples):
        # With 1021 samples no y-axis mirrored time T/2 - t_k is a sample time:
        # the residual evaluates the re-integration there directly.
        set_samples(1021)
        orb = extend_quarter(solved_perturbed_orbit.segment, mu=0.05)
        mirrored = (0.5 * orb.period - orb.times) % orb.period
        assert not np.any(np.isin(mirrored, orb.times))
        ok, diag = validate_orbit(orb, kepler_radial_field, 0.05)
        ok_1024, _ = validate_orbit(solved_perturbed_orbit, kepler_radial_field, 0.05)
        assert all(v < 1e-7 for v in diag["symmetry_residuals"].values())
        assert ok == ok_1024


def all_pairs_is_simple_closed(points):
    """Reference: every non-adjacent segment pair, first meeting in (i, j) order,
    after collapsing consecutive repeated samples (the closing wrap included)."""
    distinct = []
    for p in _polyline(points):
        if not distinct or not np.array_equal(p, distinct[-1]):
            distinct.append(p)
    if len(distinct) > 1 and np.array_equal(distinct[-1], distinct[0]):
        distinct.pop()
    pts = np.array(distinct)
    n = len(pts)
    nxt = np.roll(pts, -1, axis=0)
    d = nxt - pts

    def cross(u, v):
        return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

    def in_box(p, q, r):
        return np.all((np.minimum(p, q) <= r) & (r <= np.maximum(p, q)), axis=-1)

    for i in range(n - 2):
        j0 = i + 2
        j1 = n if i > 0 else n - 1  # skip the wrap-adjacent pair (0, n-1)
        if j0 >= j1:
            continue
        a, b, da = pts[i], nxt[i], d[i]
        c, e, dc = pts[j0:j1], nxt[j0:j1], d[j0:j1]
        d1 = cross(dc, a - c)
        d2 = cross(dc, b - c)
        d3 = cross(da[None, :], c - a)
        d4 = cross(da[None, :], e - a)
        p12, p34 = d1 * d2, d3 * d4
        hit = ((p12 < 0) & (p34 <= 0)) | ((p12 <= 0) & (p34 < 0))
        # Both products zero: segments meet only at an end point on the other one.
        on = [
            (d1 == 0) & in_box(c, e, a),
            (d2 == 0) & in_box(c, e, b),
            (d3 == 0) & in_box(a, b, c),
            (d4 == 0) & in_box(a, b, e),
        ]
        hit |= (p12 == 0) & (p34 == 0) & (on[0] | on[1] | on[2] | on[3])
        if np.any(hit):
            k = int(np.argmax(hit))
            if p12[k] == 0 and p34[k] == 0:
                first = [o[k] for o in on].index(True)
                return False, [a, b, c[k], e[k]][first]
            t = d3[k] / (d3[k] - d4[k])
            return False, c[k] + t * dc[k]
    return True, None


def all_pairs_symmetry_residual(points, reflections):
    """Distance from every reflected sample to every segment of the trace."""
    pts = _polyline(points)
    starts = pts
    ends = np.roll(pts, -1, axis=0)
    d = ends - starts
    len2 = np.maximum(np.sum(d * d, axis=1), 1e-300)
    out = {}
    for refl in reflections:
        q = pts.copy()
        if refl is Reflection.X_AXIS:
            q[:, 1] = -q[:, 1]
        else:
            q[:, 0] = -q[:, 0]
        worst = 0.0
        for lo in range(0, len(q), 128):
            chunk = q[lo : lo + 128]
            w = chunk[:, None, :] - starts[None, :, :]
            t = np.clip(np.sum(w * d[None, :, :], axis=2) / len2[None, :], 0.0, 1.0)
            proj = starts[None, :, :] + t[:, :, None] * d[None, :, :]
            dist = np.min(np.linalg.norm(chunk[:, None, :] - proj, axis=2), axis=1)
            worst = max(worst, float(np.max(dist)))
        out[refl] = worst
    return out


def assert_matches_all_pairs(points):
    """The simplicity check, which tests only the segment pairs with
    overlapping bounding boxes, returns exactly what the all-pairs reference
    does."""
    simple, pt = is_simple_closed(points, min_points=3)
    ref_simple, ref_pt = all_pairs_is_simple_closed(points)
    assert simple == ref_simple
    if ref_pt is None:
        assert pt is None
    else:
        assert pt[0] == ref_pt[0] and pt[1] == ref_pt[1]
    return ref_simple


def limacon(ratio):
    return lambda th: np.column_stack(
        [(1 + ratio * np.cos(th)) * np.cos(th), (1 + ratio * np.cos(th)) * np.sin(th)]
    )


@pytest.fixture(scope="module")
def half_orbit_a05(half_problem_a05):
    return extend_half(solve(half_problem_a05, 0.02).segment, mu=0.02)


@pytest.fixture(scope="module")
def half_orbit_a3(half_problem_a3):
    return extend_half(solve(half_problem_a3, 0.005).segment, mu=0.005)


class TestGridPrunedChecksMatchAllPairs:
    @pytest.mark.parametrize(
        "orbit_fixture", ["solved_perturbed_orbit", "half_orbit_a05", "half_orbit_a3"]
    )
    def test_acceptance_orbits(self, request, orbit_fixture):
        orb = request.getfixturevalue(orbit_fixture)
        assert assert_matches_all_pairs(orb.positions)

    def test_circle(self, circle_quarter_segment):
        assert assert_matches_all_pairs(extend_quarter(circle_quarter_segment).positions)
        assert assert_matches_all_pairs(loop_points())

    def test_inner_loop(self):
        assert not assert_matches_all_pairs(loop_points(512, limacon(1.5)))

    def test_figure_eight_crossing_on_a_sample(self):
        # One lobe passes the origin at sample 0, the other on the chord from
        # p to -p, whose line contains the origin exactly.
        n = 512
        th = 2 * math.pi * (np.arange(n) + 0.5) / n
        th[0] = 0.0
        pts = np.column_stack([np.sin(th), np.sin(th) * np.cos(th)])
        pts[n // 2] = -pts[n // 2 - 1]
        assert not assert_matches_all_pairs(pts)
        simple, pt = is_simple_closed(pts, min_points=3)
        assert not simple and np.array_equal(pt, [0.0, 0.0])

    def test_figure_eight_both_lobes_through_one_sample(self):
        # Lemniscate (sin th, sin th cos th): both lobes pass the origin, at
        # sample 0 and at sample 256, set to the origin exactly. The segments
        # meeting there share an end point and both orientation products are 0.
        n = 512
        th = 2 * math.pi * np.arange(n) / n
        pts = np.column_stack([np.sin(th), np.sin(th) * np.cos(th)])
        pts[n // 2] = (0.0, 0.0)
        assert not assert_matches_all_pairs(pts)
        simple, pt = is_simple_closed(pts, min_points=3)
        assert not simple and np.array_equal(pt, [0.0, 0.0])

    def test_collinear_segments(self):
        # A square with one side traced twice meets itself; a zig-zag whose
        # collinear pieces leave a gap between them does not.
        square = np.array([[0, 0], [2, 0], [2, 2], [0, 2], [0, 0], [1, 0], [3, 0], [3, -1]], float)
        assert not assert_matches_all_pairs(square)
        gaps = np.array([[0, 0], [1, 0], [1, 1], [2, 1], [2, 0], [3, 0], [3, -1], [0, -1]], float)
        assert assert_matches_all_pairs(gaps)

    @pytest.mark.parametrize(
        "points, collinear, simple",
        [
            (loop_points(300, limacon(0.5)), False, True),
            (np.array([[0, 0], [2, 0], [2, 2], [0, 2], [0, 0], [1, 0], [3, 0], [3, -1]], float), True, False),
            # Only sides 0 and 4 overlap on one line; the other meetings are strict.
            (np.array([[0, 0], [2, 0], [2, 1], [3, 1], [3, 0], [1, 0], [1, -1], [0, -1]], float), True, False),
        ],
        ids=["none", "a side traced twice", "one collinear pair"],
    )
    def test_with_and_without_collinear_pairs(self, points, collinear, simple):
        # The end-point pass runs only over the pairs with both orientation
        # products zero; a smooth loop has none.
        pts = np.array(points)
        nxt = np.roll(pts, -1, axis=0)
        i, j = _overlapping_pairs(pts, nxt)

        def cross(u, v):
            return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

        a, b, c, e = pts[i], nxt[i], pts[j], nxt[j]
        both = (cross(e - c, a - c) * cross(e - c, b - c) == 0) & (cross(b - a, c - a) * cross(b - a, e - a) == 0)
        both &= (j >= i + 2) & ((i > 0) | (j < len(pts) - 1))
        assert bool(np.any(both)) is collinear
        assert assert_matches_all_pairs(pts) is simple

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(256, 600), st.booleans())
    @example(8, 256, False)
    def test_random_walks(self, seed, n, lattice):
        steps = np.random.default_rng(seed).normal(size=(n, 2))
        if lattice:
            # Quarter-unit steps: exact orientation tests, touching and
            # overlapping segments, and zero-length steps.
            steps = np.round(4.0 * steps) / 4.0
        simple = assert_matches_all_pairs(np.cumsum(steps, axis=0))
        if not lattice:
            assert not simple

    @pytest.mark.parametrize("ratio", [0.5, 1.5])
    def test_repeated_points(self, ratio):
        pts = loop_points(300, limacon(ratio))
        assert_matches_all_pairs(np.repeat(pts, 1 + np.arange(300) % 3, axis=0))

    def test_all_points_identical(self):
        assert assert_matches_all_pairs(np.tile([0.3, -0.7], (300, 1)))

    def test_non_finite_points_rejected(self):
        pts = loop_points(300)
        pts[7, 1] = np.nan
        with pytest.raises(ValueError):
            is_simple_closed(pts)

    @pytest.mark.parametrize("ratio", [0.5, 1.5])
    def test_segment_lengths_spanning_a_million(self, ratio):
        # 300 steps of 1e-7 rad, then 60 of about 0.1 rad.
        th = np.concatenate(
            [np.arange(300) * 1e-7, np.linspace(3e-5, 2 * math.pi, 61)[:-1]]
        )
        pts = limacon(ratio)(th)
        lengths = np.hypot(*np.diff(pts, axis=0).T)
        assert lengths.max() / lengths.min() > 1e6
        assert assert_matches_all_pairs(pts) == (ratio < 1)


def all_pairs_overlapping_boxes(starts, ends):
    """Reference: every pair (i, j), i < j, whose closed bounding boxes overlap."""
    lo, hi = np.minimum(starts, ends), np.maximum(starts, ends)
    n = len(starts)
    return [
        (i, j) for i in range(n) for j in range(i + 1, n) if np.all(lo[i] <= hi[j]) and np.all(lo[j] <= hi[i])
    ]


def assert_pairs_match_all_pairs(points):
    nxt = np.roll(points, -1, axis=0)
    i, j = _overlapping_pairs(points, nxt)
    assert list(zip(i.tolist(), j.tolist())) == all_pairs_overlapping_boxes(points, nxt)
    return i, j


class TestOverlappingPairs:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 80), st.sampled_from(["normal", "lattice", "repeated"]))
    @example(0, 1, "normal")
    def test_equal_to_all_pairs(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 2))
        if kind == "lattice":
            # Half-unit points: shared coordinates, boxes that touch at an
            # edge or a corner, repeated points and zero-length segments.
            pts = np.round(2.0 * pts) / 2.0
        elif kind == "repeated":
            pts = np.repeat(pts, rng.integers(1, 4, n), axis=0)
        assert_pairs_match_all_pairs(pts)

    def test_one_segment_spanning_the_x_range(self):
        # Segment 0 runs along y = 0 over all of x in [0, 10]; the zig-zag back
        # overlaps it in x everywhere and in y only where it reaches y = 0.
        ys = [1.0, -1.0, 2.0, 3.0, 0.0, 1.0, 2.0, 1.0, -1.0, 1.0]
        pts = np.array([(0.0, 0.0), (10.0, 0.0), *zip(np.arange(9.0, -1.0, -1.0), ys)])
        i, j = assert_pairs_match_all_pairs(pts)
        assert j[i == 0].tolist() == [1, 2, 3, 5, 6, 9, 10, 11]
        assert not assert_matches_all_pairs(pts)


class TestAxisCrossings:
    def test_circle(self, circle_quarter_segment):
        orb = extend_quarter(circle_quarter_segment)
        crossings = axis_crossings(orb)
        assert len(crossings) == 2
        xs = sorted(c["x"] for c in crossings)
        assert xs[0] == pytest.approx(-1.0, abs=1e-9)
        assert xs[1] == pytest.approx(1.0, abs=1e-9)

    def test_quarter_orbit_two_symmetric_crossings(self, solved_perturbed_orbit):
        crossings = axis_crossings(solved_perturbed_orbit)
        assert len(crossings) == 2
        xs = sorted(c["x"] for c in crossings)
        assert xs[0] == pytest.approx(-1.0, abs=1e-6)
        assert xs[1] == pytest.approx(1.0, abs=1e-6)

    def test_half_orbit_positive_and_negative(self, half_problem_a05):
        sol = solve(half_problem_a05, 0.03)
        orb = extend_half(sol.segment, mu=0.03)
        crossings = axis_crossings(orb)
        assert len(crossings) == 2
        xs = sorted(c["x"] for c in crossings)
        assert xs[0] < 0 < xs[1]
        assert xs[1] == pytest.approx(1.0, abs=1e-9)


def batched_refined_crossings(orbit):
    """Reference for axis_crossings' refinement: (t, x, y, vy) of each
    crossing between samples, all sign changes bisected together with 80
    halvings, one batched orbit evaluation per halving."""
    z_tol = 1e-9 * float(np.max(np.abs(orbit.positions)))
    floor = 1e-6 * float(np.max(np.abs(orbit.velocities)))
    ts = orbit.times[:-1]
    vals = orbit.states[:-1, 1]
    is_zero = np.abs(vals) < z_tol
    k = np.flatnonzero(~is_zero & ~np.roll(is_zero, -1) & (vals * np.roll(vals, -1) < 0.0))
    a, b, fa = ts[k], orbit.times[k + 1], vals[k]
    for _ in range(80):
        m = 0.5 * (a + b)
        fm = orbit._eval(m)[:, 1]
        left = fa * fm <= 0.0
        b = np.where(left, m, b)
        a = np.where(left, a, m)
        fa = np.where(left, fa, fm)
    t_star = 0.5 * (a + b)
    return [
        (t, *y[:2].tolist(), float(y[3]))
        for t, y in zip(t_star.tolist(), orbit._eval(t_star))
        if abs(y[3]) >= floor
    ]


class TestAxisCrossingRefinement:
    @pytest.mark.parametrize(
        "orbit_fixture", ["solved_perturbed_orbit", "half_orbit_a05", "half_orbit_a3"]
    )
    @pytest.mark.parametrize("n_samples", [1023, 1000])
    def test_matches_batched_bisection(self, request, orbit_fixture, n_samples, set_samples):
        # With 1023 samples no symmetry time of a period is a sample: of the
        # two x-axis crossings only the launch point is one.
        base = request.getfixturevalue(orbit_fixture)
        extend = extend_quarter if Reflection.Y_AXIS in base.symmetry else extend_half
        set_samples(n_samples)
        orb = extend(base.segment, mu=base.mu)
        samples = set(orb.times.tolist())
        got = [(c["t"], c["x"], c["y"], c["normal_speed"]) for c in axis_crossings(orb) if c["t"] not in samples]
        assert got == batched_refined_crossings(orb)
        assert len(got) == 1 or n_samples == 1000


def cluster_walk_axis_crossings(orbit):
    """Reference for axis_crossings' sign rule: (t, x, y, vy) of each
    crossing, on-sample crossings found as runs of samples in the zero
    band (wrapping around the period, the middle sample of each run taken)
    and the sign changes between samples off the band found by products."""
    from symorbit.integrator import _bisect

    z_tol = 1e-9 * float(np.max(np.abs(orbit.positions)))
    floor = 1e-6 * float(np.max(np.abs(orbit.velocities)))
    ts = orbit.times[:-1]
    vals = orbit.states[:-1, 1]
    n = len(ts)
    is_zero = np.abs(vals) < z_tol
    found = []
    visited = np.zeros(n, dtype=bool)
    for k in range(n):
        if is_zero[k] and not visited[k]:
            idxs = [k]
            visited[k] = True
            j = (k + 1) % n
            while is_zero[j] and not visited[j]:
                visited[j] = True
                idxs.append(j)
                j = (j + 1) % n
            j = (k - 1) % n
            while is_zero[j] and not visited[j]:
                visited[j] = True
                idxs.insert(0, j)
                j = (j - 1) % n
            mid = idxs[len(idxs) // 2]
            found.append((float(ts[mid]), orbit.states[mid]))
    for k in np.flatnonzero(~is_zero & ~np.roll(is_zero, -1) & (vals * np.roll(vals, -1) < 0.0)):
        fa = float(vals[k])
        a, b = _bisect(lambda m: fa * orbit._eval([m])[0, 1] <= 0.0, float(ts[k]), float(orbit.times[k + 1]))
        t = 0.5 * (a + b)
        found.append((t, orbit._eval([t])[0]))
    return sorted((t, *y[:2].tolist(), float(y[3])) for t, y in found if abs(y[3]) >= floor)


class TestAxisCrossingsMatchClusterWalk:
    @pytest.mark.parametrize(
        "orbit_fixture", ["solved_perturbed_orbit", "half_orbit_a05", "half_orbit_a3"]
    )
    @pytest.mark.parametrize("n_samples", [1024, 1023, 1000])
    def test_equal(self, request, orbit_fixture, n_samples, set_samples):
        base = request.getfixturevalue(orbit_fixture)
        extend = extend_quarter if Reflection.Y_AXIS in base.symmetry else extend_half
        set_samples(n_samples)
        orb = extend(base.segment, mu=base.mu)
        got = [(c["t"], c["x"], c["y"], c["normal_speed"]) for c in axis_crossings(orb)]
        assert got == cluster_walk_axis_crossings(orb)
        assert len(got) == 2


def axis_crossings_over_every_pair(orbit):
    """axis_crossings' sign rule run over every pair of consecutive samples,
    without the mask that passes over pairs of one strict sign."""
    from symorbit.integrator import _bisect, _crossed

    z_tol = 1e-9 * float(np.max(np.abs(orbit.positions)))
    floor = 1e-6 * float(np.max(np.abs(orbit.velocities)))
    times, n = orbit.times, len(orbit.times) - 1
    vals = orbit.states[:-1, 1]
    vals = np.where(np.abs(vals) < z_tol, 0.0, vals).tolist()
    found = []
    for k, j, fa in _sign_changes(list(enumerate(vals + vals[:1]))):
        if vals[j % n] == 0.0:
            t, y = float(times[j % n]), orbit.states[j % n]
        else:
            a, b = _bisect(lambda m: _crossed(fa, orbit._eval([m])[0, 1]), float(times[k]), float(times[j]))
            t = 0.5 * (a + b)
            y = orbit._eval([t])[0]
        if abs(y[3]) >= floor:
            found.append((t, *y[:2].tolist(), float(y[3])))
    return sorted(found)


class _SampledCurve:
    """An orbit stand-in: states at given times, read between them on the
    chord, so that any sample values, exact zeros included, can be given."""

    def __init__(self, times, states):
        self.times, self.states = np.asarray(times, dtype=float), np.asarray(states, dtype=float)
        self.positions, self.velocities = self.states[:, :2], self.states[:, 2:]

    def _eval(self, ts):
        return np.column_stack([np.interp(ts, self.times, self.states[:, i]) for i in range(4)])


class TestAxisCrossingsMask:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([-2.0, -1.0, -1e-12, 0.0, 1e-12, 1.0, 2.0]), min_size=2, max_size=40))
    def test_equals_the_rule_over_every_pair(self, values):
        # Values of y of one sign in runs, exact zeros and values inside the
        # zero band; x and both speeds are 1.
        states = np.ones((len(values) + 1, 4))
        states[:-1, 1] = values
        states[-1, 1] = values[0]
        curve = _SampledCurve(np.arange(len(values) + 1.0), states)
        got = [(c["t"], c["x"], c["y"], c["normal_speed"]) for c in axis_crossings(curve)]
        assert got == axis_crossings_over_every_pair(curve)


class TestContinuedClosure:
    """verify_closure continues the solve's segment past tau (`flow`'s
    prefix) and gives what the flow from the orbit's start over the whole
    period gives, bit for bit."""

    FAMILIES = {
        # problem fixture, largest mu of the family's sweep
        "quarter": ("quarter_problem_radial", 0.1),
        "half_a05": ("half_problem_a05", 0.04),
        "half_a3": ("half_problem_a3", 0.01),
    }

    @staticmethod
    def _recorded_miss(problem, sigma, mu):
        """The miss at sigma and mu, whether its flow left the annulus, and
        whether it shortened a trial to meet the window's end: a trial whose
        step is the window's end less the time of the node it starts from."""
        trials, exits, step_kernel = [], [], integrator._step_kernel

        def recording_kernel(kind):
            step = step_kernel(kind)

            def recorded(constants, mu, h, state, *rest):
                trials.append((h, state))
                return step(constants, mu, h, state, *rest)

            return recorded

        def recorded_flow(*args, **kwargs):
            try:
                return flow(*args, **kwargs)
            except DomainExit:
                exits.append(True)
                raise

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrator, "_step_kernel", recording_kernel)
            mp.setattr(section_mod, "flow", recorded_flow)
            m = miss(problem, sigma, mu)
        t_left = {id(step[2]): step[0] for step in m.trajectory._dense}
        capped = any(h == problem.window - t_left[id(state)] for h, state in trials)
        return m, bool(exits), capped

    @staticmethod
    def _closure(orbit, field, mu, keep_prefix):
        """verify_closure's result or DomainExit, and the bits and the first
        step record of its flow, with or without the segment as prefix."""
        flows = []

        def recorded(*args, prefix=None):
            try:
                flows.append(flow(*args, prefix=prefix if keep_prefix else None))
            except DomainExit as exc:
                flows.append(exc.trajectory)
                raise
            return flows[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orbit_mod, "flow", recorded)
            try:
                result = repr(verify_closure(orbit, field, mu))
            except DomainExit as exc:
                result = repr(exc), exc.trajectory.t_end
        return result, trajectory_bits(flows[0]), flows[0]._dense[0]

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=12, deadline=None)
    @given(sigma=st.floats(-1.0, 1.0), mu=st.floats(0.0, 1.0))
    # On half_a3 the miss's flow leaves the annulus after its crossing, at
    # sigma = 0.966 in a step the window did not shorten, at sigma = 1.02625
    # in the step it did.
    @example(sigma=-0.85, mu=0.0)
    @example(sigma=0.65625, mu=1.0)
    def test_equals_the_flow_from_the_start(
        self, family, sigma, mu, quarter_problem_radial, half_problem_a05, half_problem_a3
    ):
        fixture, mu_max = self.FAMILIES[family]
        problem = {
            "quarter_problem_radial": quarter_problem_radial,
            "half_problem_a05": half_problem_a05,
            "half_problem_a3": half_problem_a3,
        }[fixture]
        sigma, mu = 1.0 + sigma * problem.eta, mu * mu_max
        try:
            m, exited, capped = self._recorded_miss(problem, sigma, mu)
        except SolverError:  # no segment: at sigma = 1, alpha = 3's unstable circle leaves the annulus
            assume(False)
        segment = m.trajectory.truncated(m.t_star)
        # Any segment, closed or not: the orbit is built without the end check.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orbit_mod, "_SAMPLES", 64)
            orbit = PeriodicOrbit(segment, problem.mode, mu)
        *continued, first = self._closure(orbit, problem.field, mu, keep_prefix=True)
        *fresh, _ = self._closure(orbit, problem.field, mu, keep_prefix=False)
        assert continued == fresh
        # The segment is continued exactly when it kept the flow's controller
        # state. It keeps none when the miss's flow shortened a trial to meet
        # the window's end, which the closure flow over the period would not,
        # or left the annulus after its crossing: crossing_time then returns
        # the DomainExit trajectory.
        assert (first is segment._dense[0]) == (segment._resume is not None)
        assert (segment._resume is None) == (exited or capped)

    def test_only_the_steps_after_the_segment_are_computed(self, quarter_problem_radial, trials):
        sol = solve(quarter_problem_radial, 0.05)
        orbit = extend_quarter(sol.segment, mu=0.05)
        segment, field = sol.segment, quarter_problem_radial.field
        s0 = orbit.states[0]
        del trials[:]
        fresh = flow(field, 0.05, s0[:2], s0[2:], orbit.period)
        fresh_trials = len(trials)
        del trials[:]
        with pytest.MonkeyPatch.context() as mp:
            closures = []
            mp.setattr(orbit_mod, "flow", lambda *a, **k: closures.append(flow(*a, **k)) or closures[-1])
            verify_closure(orbit, field, 0.05)
        assert trajectory_bits(closures[0]) == trajectory_bits(fresh)
        assert len(trials) == fresh_trials - segment._resume.trials
        assert sum(t is not None and t[1] is not None for t in trials) == fresh.n_steps - segment.n_steps
        assert segment.n_steps > 0.2 * fresh.n_steps  # a quarter of the period is the solve's


class TestValidateOrbit:
    def test_full_battery_passes(self, solved_perturbed_orbit, kepler_radial_field):
        ok, diag = validate_orbit(solved_perturbed_orbit, kepler_radial_field, 0.05)
        assert ok
        assert diag["valid"]
        assert diag["winding_number"] in (-1, 1)
        assert diag["simple_closed"]
        assert diag["crossings_ok"]

    @pytest.mark.parametrize(
        "orbit_fixture, problem_fixture",
        [("solved_perturbed_orbit", "quarter_problem_radial"), ("half_orbit_a3", "half_problem_a3")],
    )
    def test_reports_the_axis_crossings_rows(self, request, orbit_fixture, problem_fixture):
        orb, problem = request.getfixturevalue(orbit_fixture), request.getfixturevalue(problem_fixture)
        rows = validate_orbit(orb, problem.field, orb.mu)[1]["x_axis_crossings"]
        assert rows == axis_crossings(orb) and len(rows) == 2
        assert all(list(row) == ["t", "x", "y", "normal_speed"] for row in rows)

    def test_one_reintegration_per_orbit(self, solved_perturbed_orbit, kepler_radial_field, monkeypatch):
        import symorbit.orbit as orbit_mod

        calls = []
        monkeypatch.setattr(orbit_mod, "flow", lambda *a, **k: calls.append(a) or flow(*a, **k))
        assert validate_orbit(solved_perturbed_orbit, kepler_radial_field, 0.05)[0]
        assert len(calls) == 1

    def test_asymmetric_reintegration_of_a_reflected_orbit_invalid(self, half_problem_a05):
        # The half orbit solved at mu = 0 is built by reflection, so its samples
        # are x-axis symmetric to round-off. Re-integrated with a y^2 force,
        # which breaks the x-axis mirror, it still closes within tolerance,
        # but the re-integration is not reversible about the launch.
        orb = extend_half(solve(half_problem_a05, 0.0).segment)
        field = ForceField(
            base=PowerLawParams(1.0, 0.5),
            perturbation=axis_poly_perturbation(cx=0.0, px=2, cy=1.0, py=2),
        )
        ok, diag = validate_orbit(orb, field, 1e-7)
        assert diag["closure_position"] < 1e-6 and diag["closure_velocity"] < 1e-5
        assert diag["symmetry_residuals"]["x_axis"] > 1e-7
        assert not ok and not diag["valid"]

    def test_orbit_serialization(self, solved_perturbed_orbit, kepler_radial_field):
        _, diag = validate_orbit(solved_perturbed_orbit, kepler_radial_field, 0.05)
        d = solved_perturbed_orbit.to_dict(diag)
        assert list(d) == ["mu", "v_mu", "period", "symmetry", "diagnostics", "samples"]
        assert d["diagnostics"] is diag
        assert d["symmetry"] == "x_and_y_axes"
        assert d["mu"] == 0.05
        assert len(d["samples"]) == len(solved_perturbed_orbit.times)

    def test_csv(self, solved_perturbed_orbit, tmp_path):
        path = tmp_path / "orbit.csv"
        solved_perturbed_orbit.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x,y,vx,vy"
        assert len(lines) == len(solved_perturbed_orbit.times) + 1

    def test_samples_built_once_for_json_and_csv(self, solved_perturbed_orbit, tmp_path):
        orb = solved_perturbed_orbit
        samples = orb.to_dict({})["samples"]
        assert samples == np.column_stack([orb.times, orb.states]).tolist()
        assert samples is orb.to_dict({})["samples"]
        assert json.loads(json.dumps(samples)) == samples
        orb.write_csv(tmp_path / "orbit.csv")
        lines = (tmp_path / "orbit.csv").read_text().splitlines()
        assert lines[1:] == samples.lines
