import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symorbit import (
    BoundaryCrossing,
    DomainExit,
    ForceField,
    NoCrossing,
    PowerLawParams,
    SectionSpec,
    TangentialCrossing,
    circular_speed,
    crossing_time,
    flow,
    miss,
)
from symorbit.integrator import _P, _coefficient_bound, _normal_terms
from symorbit.section import _SectionScan

from oracles import normal_coefficients_loop, same_float, section_frame_numpy


def first_transversal_crossing(traj, section):
    """Smallest t in [0, t_end] where a finished trajectory crosses the segment.

    The full-window reference for crossing_time: the section scan run over
    every step of the trajectory. Sign changes of the normal coordinate whose
    refined point misses the segment are skipped (the trajectory crossed the
    supporting line, not the section); a hit within 1e-6 segment lengths of
    an endpoint raises BoundaryCrossing and a transverse speed below the
    floor raises TangentialCrossing. Returns the crossing as crossing_time
    states it: (t*, tangent speed).
    """
    scan = _SectionScan(section, traj.t_end)
    for i, step in enumerate(traj._dense):
        if scan(step, traj.ys[i + 1].tolist()):
            break
    if scan.event is None:
        raise NoCrossing(f"no transversal crossing of {section.kind} in [0, {traj.t_end:.6g}]")
    return scan.event


def crossing_quantities(traj, section, crossing):
    """(t*, normal speed, tangent speed) of a crossing (t*, tangent speed)
    found on traj, the normal speed read off traj's state at t* through
    SectionSpec.speeds."""
    t_star, tangent_speed = crossing
    return t_star, section.speeds(*traj.interpolate(t_star).velocity)[0], tangent_speed


@pytest.fixture(scope="module")
def y_section():
    return SectionSpec.positive_y_axis(1.0)


class TestQuarterCircleCrossing:
    def test_crossing_at_quarter_period(self, kepler_field, y_section):
        # Unit circular orbit: angular speed 1, so the positive y-axis is hit
        # at t = pi/2 with state ((0,1), (-1,0)).
        t_star, tangent_speed, traj = crossing_time(
            kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), y_section, 2.0
        )
        assert t_star == pytest.approx(math.pi / 2, abs=1e-9)
        state = traj.interpolate(t_star)
        assert np.allclose(state.position, [0.0, 1.0], atol=1e-9)
        assert np.allclose(state.velocity, [-1.0, 0.0], atol=1e-9)
        assert y_section.speeds(*state.velocity)[0] == pytest.approx(1.0, abs=1e-9)
        assert tangent_speed == pytest.approx(0.0, abs=1e-9)

    def test_normal_coordinate_refined(self, kepler_field, y_section):
        t_star, _, traj = crossing_time(
            kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), y_section, 2.0
        )
        # x-coordinate at the refined time is zero to well under segment scale
        assert abs(traj.interpolate(t_star).position[0]) < 1e-10 * y_section.length

    def test_near_circular_crossing_interior(self, kepler_field, y_section):
        t_star, _, traj = crossing_time(
            kepler_field, 0.0, (1.0, 0.0), (0.0, 1.05), y_section, 4.7
        )
        assert 0 < t_star < 4.7
        tau = y_section.tangent_coord(traj.interpolate(t_star).position)
        assert 0.01 < tau < y_section.length - 0.01

    def test_single_crossing_in_window(self, kepler_field, y_section):
        # After the first hit there is no further crossing of the closed
        # segment inside the window (the second y-axis passage is at y < 0):
        # the flow restarted just past the hit crosses none before t_bar.
        t_bar = 0.75 * 2 * math.pi
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.05), t_bar)
        t_star, _ = first_transversal_crossing(traj, y_section)
        s = traj.interpolate(t_star + 1e-6)
        rest = flow(kepler_field, 0.0, s.position, s.velocity, t_bar - s.t)
        with pytest.raises(NoCrossing):
            first_transversal_crossing(rest, y_section)


class TestCrossingErrors:
    def test_no_crossing_right_half_plane(self, kepler_field):
        # A short arc of the circular orbit never reaches the negative x-axis.
        section = SectionSpec.negative_x_axis(1.0)
        with pytest.raises(NoCrossing):
            crossing_time(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), section, 1.0)

    def test_boundary_crossing_at_endpoint(self, kepler_field):
        # Segment starting exactly where the circular orbit meets the y-axis:
        # the hit lands on the segment boundary, which is an error, not a crossing.
        section = SectionSpec(start=(0.0, 1.0), end=(0.0, 4.0))
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), 2.0)
        with pytest.raises(BoundaryCrossing):
            first_transversal_crossing(traj, section)

    def test_tangential_crossing_flagged_by_floor(self, kepler_field):
        # Raising the floor above the actual transverse speed must flag the
        # crossing as tangential.
        section = SectionSpec.positive_y_axis(1.0, transversality_floor=10.0)
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), 2.0)
        with pytest.raises(TangentialCrossing):
            first_transversal_crossing(traj, section)

    def test_degenerate_segment_rejected(self):
        with pytest.raises(ValueError):
            SectionSpec(start=(1.0, 1.0), end=(1.0, 1.0))

    @pytest.mark.parametrize(
        "start, end, floor",
        [
            ((0.0, 0.25), (0.0, math.nan), 1e-6),
            ((0.0, -math.inf), (0.0, 4.0), 1e-6),
            ((0.0, 0.25), (0.0, 4.0), math.nan),
            ((0.0, 0.25), (0.0, 4.0), math.inf),
            ((0.0, 0.25), (0.0, 4.0), -1.0),
        ],
    )
    def test_non_finite_end_or_bad_floor_rejected(self, start, end, floor):
        # A NaN end would end every scan in NoCrossing, and a NaN floor would
        # accept the crossing that test_tangential_crossing_flagged_by_floor refuses.
        with pytest.raises(ValueError, match="must be finite|must be a finite number >= 0"):
            SectionSpec(start=start, end=end, transversality_floor=floor)

    def test_launch_outside_annulus_reraised(self, kepler_field):
        # The flow refuses the launch before its first step, so the DomainExit
        # carries no trajectory to scan, and crossing_time passes it on.
        with pytest.raises(DomainExit) as err:
            crossing_time(kepler_field, 0.0, (3.0, 0.0), (0.0, 1.0), SectionSpec.positive_y_axis(1.0), 2.0)
        assert err.value.trajectory is None
        assert str(err.value) == "initial position (3.0, 0.0) outside annulus"


class TestGeneralSegment:
    def test_diagonal_segment(self, kepler_field):
        # The unit circle meets the diagonal through (s, s) at s = sqrt(2)/2.
        section = SectionSpec(start=(0.25, 0.25), end=(1.5, 1.5))
        t_star, _, traj = crossing_time(
            kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), section, 2.0
        )
        assert t_star == pytest.approx(math.pi / 4, abs=1e-9)
        s = math.sqrt(2) / 2
        state = traj.interpolate(t_star)
        assert np.allclose(state.position, [s, s], atol=1e-9)
        # Circular velocity at 45 degrees is (-s, s): purely transverse here.
        assert abs(section.speeds(*state.velocity)[0]) == pytest.approx(1.0, abs=1e-9)

    def test_line_crossing_outside_segment_skipped(self, kepler_field):
        # Segment on the y-axis far above the orbit: the orbit crosses the
        # supporting line but never the segment.
        section = SectionSpec(start=(0.0, 1.5), end=(0.0, 1.9))
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), 2.0)
        with pytest.raises(NoCrossing):
            first_transversal_crossing(traj, section)


class TestCrossingContinuity:
    def test_continuity_in_launch_speed(self, kepler_field):
        section = SectionSpec.positive_y_axis(1.0)

        def t_of(sigma):
            t, _, _ = crossing_time(
                kepler_field, 0.0, (1.0, 0.0), (0.0, sigma), section, 4.7
            )
            return t

        base = t_of(1.0)
        devs = [abs(t_of(1.0 + h) - base) for h in (1e-3, 1e-4, 1e-5)]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-4

    def test_partial_trajectory_scanned_after_domain_exit(self, kepler_field):
        # Escaping orbit still registers its y-axis crossing before exit.
        section = SectionSpec.positive_y_axis(1.0)
        t_star, _, traj = crossing_time(
            kepler_field, 0.0, (1.0, 0.0), (0.0, 1.35), section, 20.0
        )
        assert 0 < t_star < 3.0
        assert traj.interpolate(t_star).position[1] > 0


# Reference: the crossing scan on a grid of step nodes and interior points,
# evaluating the normal coordinate through Trajectory.eval_many. A grid value of
# exactly zero ends a sign change; extrema between grid points are not searched.
def _reference_crossing_time(traj, section, subsamples=4):
    """t* of the first transversal crossing; raises like first_transversal_crossing."""
    t_hi = traj.t_end
    bt = 1e-6 * section.length
    time_tol = 1e-12 * max(t_hi, 1.0)
    _, _, normal = section_frame_numpy(section.start, section.end)

    def g(t):
        return float(normal @ (traj.eval_many([t], width=2)[0] - np.asarray(section.start)))

    grid = [0.0]
    for t_left, h, _, _ in traj._dense:
        for k in range(1, subsamples + 1):
            t = t_left + h * k / subsamples
            if t < t_hi:
                grid.append(t)
    grid.append(t_hi)
    grid = sorted(set(grid))

    g_prev = g(grid[0])
    for t_prev, t_next in zip(grid[:-1], grid[1:]):
        g_next = g(t_next)
        if g_prev * g_next < 0.0 or (g_next == 0.0 and g_prev != 0.0):
            a, b, ga = t_prev, t_next, g_prev
            while b - a > time_tol:
                m = 0.5 * (a + b)
                gm = g(m)
                if ga * gm <= 0.0:
                    b = m
                else:
                    a, ga = m, gm
            t_star = 0.5 * (a + b)
            y = traj.eval_many([t_star])[0]
            tau = section.tangent_coord(y[:2])
            if -bt < tau < bt or section.length - bt < tau < section.length + bt:
                raise BoundaryCrossing("boundary")
            if 0.0 <= tau <= section.length:
                n_speed = float(normal @ y[2:])
                if abs(n_speed) < section.transversality_floor:
                    raise TangentialCrossing("tangential")
                return t_star
        g_prev = g_next
    raise NoCrossing("none")


def _outcome(scan, *args, **kwargs):
    """(exception type or None, crossing time or None) of one scan."""
    try:
        t_star = scan(*args, **kwargs)
    except (BoundaryCrossing, TangentialCrossing, NoCrossing) as exc:
        return type(exc), None
    return None, t_star


def _assert_same_outcome(traj, section):
    got = _outcome(lambda *args: first_transversal_crossing(*args)[0], traj, section)
    ref = _outcome(_reference_crossing_time, traj, section)
    assert got[0] is ref[0]
    if ref[1] is not None:
        assert abs(got[1] - ref[1]) <= 10 * 1e-12 * max(traj.t_end, 1.0)
    return got


class TestQuarticScanMatchesReference:
    @pytest.mark.parametrize("sigma", [0.95, 1.0, 1.02, 1.05])
    def test_positive_y_axis(self, kepler_radial_field, y_section, sigma):
        traj = flow(kepler_radial_field, 0.05, (1.0, 0.0), (0.0, sigma), 2.5)
        kind, _ = _assert_same_outcome(traj, y_section)
        assert kind is None

    @pytest.mark.parametrize("sigma", [0.98, 1.0, 1.03])
    def test_negative_x_axis(self, half_field_a05, sigma):
        section = SectionSpec.negative_x_axis(1.0)
        traj = flow(half_field_a05, 0.03, (1.0, 0.0), (0.0, sigma), 6.0)
        kind, _ = _assert_same_outcome(traj, section)
        assert kind is None

    def test_line_crossed_outside_segment_first(self, kepler_field, y_section):
        # Clockwise circle: x = 0 is first crossed at (0, -1), below the
        # segment, then at (0, 1) on it.
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, -1.0), 5.0)
        kind, t_star = _assert_same_outcome(traj, y_section)
        assert kind is None
        assert t_star == pytest.approx(1.5 * math.pi, abs=1e-9)

    @pytest.mark.parametrize("offset", [-1e-15, 0.0, 1e-15, 1e-12])
    def test_crossing_on_step_node(self, kepler_field, offset):
        # A vertical segment through a node position: the normal coordinate
        # vanishes at (or within round-off of) that node, where the scan must
        # take the node value from the later step, as Trajectory._eval does.
        # An exact zero at the node is a crossing too.
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), 2.0)
        i = len(traj.ts) // 3
        px, py = traj.ys[i][:2]
        section = SectionSpec(start=(px + offset, py - 0.5), end=(px + offset, py + 0.5))
        kind, t_star = _assert_same_outcome(traj, section)
        assert kind is None
        assert t_star == pytest.approx(traj.ts[i], abs=1e-9)


class TestDoubleCrossingInOneStep:
    # At tolerances of 1e-6 the unit circle takes steps long enough to cross
    # the chord y = 1 - 1e-5 (at x = +-0.0045) twice between two grid points,
    # so the normal coordinate shows no sign change on the grid.
    TOL = 1e-6
    CHORD = SectionSpec(start=(-0.5, 1.0 - 1e-5), end=(0.5, 1.0 - 1e-5))

    def _check(self, traj, crossing):
        t_star, normal_speed, tangent_speed = crossing_quantities(traj, self.CHORD, crossing)
        x, y = traj.interpolate(t_star).position
        assert y == pytest.approx(1.0 - 1e-5, abs=1e-12)
        assert 0.0 < x < 0.01  # the first of the two crossings, moving left
        assert normal_speed > 0.0 and tangent_speed < 0.0

    def test_grid_alone_misses_it(self, kepler_field, set_tolerance):
        set_tolerance(self.TOL)
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), 2 * math.pi)
        with pytest.raises(NoCrossing):
            _reference_crossing_time(traj, self.CHORD)

    def test_found_through_the_quartic_extremum(self, kepler_field, set_tolerance):
        set_tolerance(self.TOL)
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), 2 * math.pi)
        self._check(traj, first_transversal_crossing(traj, self.CHORD))
        t_star, tangent_speed, stopped = crossing_time(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), self.CHORD, 2 * math.pi)
        self._check(stopped, (t_star, tangent_speed))


class TestCloseCrossingsInOneStep:
    def test_first_of_three_crossings(self):
        # A synthetic step, h = 1, whose normal coordinate on the positive
        # y-axis section, g = -x, is (theta - 0.05)(theta - 0.1)(theta - 0.15)
        # (theta - 2): three crossings inside the step's first quarter. The
        # stage velocities are fitted to P's rows so that h (K^T P) gives x's
        # coefficients of theta, ..., theta^D, those above theta^4 zero.
        g = np.polynomial.polynomial.polyfromroots([0.05, 0.1, 0.15, 2.0])
        g = np.concatenate([g, np.zeros(_P.shape[1] + 1 - len(g))])
        vx = np.linalg.lstsq(_P.T, -g[1:], rcond=None)[0]
        vx += np.linalg.lstsq(_P.T, -g[1:] - _P.T @ vx, rcond=None)[0]  # one refinement step
        stages = tuple(v for vx_s in vx.tolist() for v in (vx_s, 0.0, 0.0, 0.0))
        step = (0.0, 1.0, (-float(g[0]), 1.0, 1.0, 0.0), stages)
        # To round-off, relative to the moduli of the terms summed: P's
        # entries reach ~500, and its columns cancel heavily.
        terms = np.abs(vx) @ np.abs(_P)
        assert np.all(np.abs(np.array(_normal_terms(step, -1.0, 0.0)[0]) - g[1:]) <= 1e-15 * terms)
        scan = _SectionScan(SectionSpec.positive_y_axis(1.0), 1.0)
        assert scan(step, None)
        assert scan.event[0] == pytest.approx(0.05, abs=1e-11)


class TestTerminalEvent:
    """crossing_time stops each flow at the crossing step and still returns
    what a scan of the flow over the whole window returns."""

    @pytest.mark.parametrize(
        "problem_fixture, sigma, mu",
        [
            ("quarter_problem_radial", 1.02, 0.05),
            ("half_problem_a05", 0.97, 0.02),
            ("half_problem_a3", 1.0, 0.005),
        ],
    )
    def test_acceptance_problems(self, request, problem_fixture, sigma, mu):
        p = request.getfixturevalue(problem_fixture)
        x0, v = p.launch_point, p.launch_velocity(sigma)
        t_star, tangent_speed, traj = crossing_time(p.field, mu, x0, v, p.section, p.window)
        t_stop = p.window
        full = flow(p.field, mu, x0, v, t_stop)
        assert crossing_quantities(traj, p.section, (t_star, tangent_speed)) == crossing_quantities(
            full, p.section, first_transversal_crossing(full, p.section)
        )
        # The stopped flow is a prefix of the full one ending with the crossing step.
        assert traj.ts[-2] <= t_star <= traj.t_end < t_stop
        assert np.array_equal(traj.ts, full.ts[: len(traj.ts)])

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    def test_sign_table_geometry(self, alpha):
        # The probe of shooting.sign_table: pure power law, wide annulus, a
        # three-period window.
        params = PowerLawParams(1.0, alpha)
        field = ForceField(base=params, mu_range=1.0, annulus=(0.05, 20.0))
        v0 = circular_speed(params, 1.0)
        section = SectionSpec(
            start=(-8.0, 0.0), end=(-0.1, 0.0), transversality_floor=1e-6 * v0, kind="negative_x_axis"
        )
        t_bar = 3.0 * 2.0 * math.pi / v0
        t_star, tangent_speed, traj = crossing_time(field, 0.0, (1.0, 0.0), (0.0, 1.05 * v0), section, t_bar)
        full = flow(field, 0.0, (1.0, 0.0), (0.0, 1.05 * v0), t_bar)
        assert crossing_quantities(traj, section, (t_star, tangent_speed)) == crossing_quantities(
            full, section, first_transversal_crossing(full, section)
        )
        assert traj.n_steps < full.n_steps

    def test_alpha_3_launch_leaving_the_annulus_after_crossing(self, half_problem_a3):
        p, sigma, mu = half_problem_a3, 0.98, 0.005
        x0, v = p.launch_point, p.launch_velocity(sigma)
        t_stop = p.window
        with pytest.raises(DomainExit) as err:
            flow(p.field, mu, x0, v, t_stop)
        partial = err.value.trajectory
        ref = crossing_quantities(partial, p.section, first_transversal_crossing(partial, p.section))
        assert ref[0] < partial.t_end
        t_star, tangent_speed, traj = crossing_time(p.field, mu, x0, v, p.section, p.window)
        got = crossing_quantities(traj, p.section, (t_star, tangent_speed))
        assert traj.t_end < partial.t_end
        # The bisection tolerance now comes from the window end, not the exit
        # time, so t* may move within that tolerance.
        assert abs(t_star - ref[0]) <= 2e-12 * t_stop
        assert got[1:] == pytest.approx(ref[1:], rel=1e-9)

    def test_crossing_inside_the_exit_step(self, kepler_field):
        # Escaping launch; the section is the segment across the path at a
        # point inside the step that leaves the annulus.
        x0, v = (1.0, 0.0), (0.0, 1.35)
        with pytest.raises(DomainExit) as err:
            flow(kepler_field, 0.0, x0, v, 20.0)
        partial = err.value.trajectory
        t_left, h = partial._dense[-1][:2]
        t_cross = t_left + 0.5 * (partial.t_end - t_left)
        s = partial.interpolate(t_cross)
        u = s.velocity / np.linalg.norm(s.velocity)  # the section's normal
        ends = [tuple(s.position + w * np.array([u[1], -u[0]])) for w in (-0.1, 0.1)]
        section = SectionSpec(start=ends[0], end=ends[1])
        ref = crossing_quantities(partial, section, first_transversal_crossing(partial, section))
        assert ref[0] == pytest.approx(t_cross, abs=1e-9)
        t_star, tangent_speed, traj = crossing_time(kepler_field, 0.0, x0, v, section, 20.0)
        assert abs(t_star - ref[0]) <= 2e-12 * 20.0
        assert crossing_quantities(traj, section, (t_star, tangent_speed))[1] == pytest.approx(ref[1], rel=1e-9)

    def test_scan_grid_step_budget(self, quarter_problem_radial):
        # The 41x21 (sigma, mu) miss-sign grid, each flow stopped at its
        # crossing: 77,839 accepted steps with Dormand-Prince 5(4), 11,424
        # with DOP853. The bound asks for at least 4x fewer than the former.
        steps = sum(
            miss(quarter_problem_radial, float(s), float(m)).trajectory.n_steps
            for s in np.linspace(0.9, 1.1, 41)
            for m in np.linspace(0.0, 0.05, 21)
        )
        assert steps <= 19_460


# The package's sections: the two shooting sections and the sign_table probe's.
_AXIS_SECTIONS = {
    "positive_y_axis": SectionSpec.positive_y_axis(1.0, 1e-6),
    "negative_x_axis": SectionSpec.negative_x_axis(1.3, 1e-6),
    "sign_table": SectionSpec(start=(-8.0, 0.0), end=(-0.1, 0.0), transversality_floor=1e-6, kind="negative_x_axis"),
}
_SIGNED = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5.0, 5.0))


class TestFloatFrame:
    """The frame a SectionSpec computes once on floats, and the scan's float
    products, against the numpy vectors and dot products they replace: bit
    for bit, signs of zeros included, on the package's axis-aligned sections."""

    @pytest.mark.parametrize("name", sorted(_AXIS_SECTIONS))
    def test_frame_equals_the_numpy_vectors(self, name):
        section = _AXIS_SECTIONS[name]
        length, tangent, normal = section_frame_numpy(section.start, section.end)
        scan = _SectionScan(section, 1.0)
        assert section.length == length
        for got, ref in ((section.unit, tangent), ((scan._n0, scan._n1), normal)):
            assert all(same_float(a, b) for a, b in zip(got, ref.tolist()))

    @pytest.mark.parametrize("name", sorted(_AXIS_SECTIONS))
    @settings(max_examples=100, deadline=None)
    @given(_SIGNED, _SIGNED, _SIGNED, _SIGNED)
    def test_crossing_quantities_equal_the_numpy_products(self, name, x, y, vx, vy):
        section = _AXIS_SECTIONS[name]
        _, tangent, normal = section_frame_numpy(section.start, section.end)
        p, v = np.array([x, y]), np.array([vx, vy])
        assert same_float(section.tangent_coord((x, y)), float(tangent @ (p - np.asarray(section.start))))
        n_speed, t_speed = section.speeds(vx, vy)
        assert same_float(n_speed, float(normal @ v))
        assert same_float(t_speed, float(tangent @ v))

    @pytest.mark.parametrize(
        "problem_fixture, sigma, mu",
        [("quarter_problem_radial", 1.02, 0.05), ("half_problem_a05", 0.97, 0.02), ("half_problem_a3", 1.0, 0.005)],
    )
    def test_event_speeds_equal_the_numpy_products(self, request, problem_fixture, sigma, mu):
        p = request.getfixturevalue(problem_fixture)
        t_star, tangent_speed, traj = crossing_time(p.field, mu, p.launch_point, p.launch_velocity(sigma), p.section, p.window)
        # The trajectory ends with the crossing's step, so its state at t* is
        # the one the scan classified, bit for bit.
        velocity = traj.interpolate(t_star).velocity
        n_speed, t_speed = p.section.speeds(*velocity)
        assert same_float(tangent_speed, t_speed)
        _, tangent, normal = section_frame_numpy(p.section.start, p.section.end)
        assert same_float(n_speed, float(normal @ velocity))
        assert same_float(t_speed, float(tangent @ velocity))


FLOAT_OR_ZERO = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0])


class TestFusedScanTests:
    """The scan's per-step terms, one call, equal the separate functions they
    replace bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(FLOAT_OR_ZERO, min_size=64, max_size=64),
        st.floats(1e-6, 10.0),
        st.tuples(FLOAT_OR_ZERO, FLOAT_OR_ZERO) | st.sampled_from([(-1.0, 0.0), (-0.0, 1.0), (0.0, -1.0), (0.6, -0.8)]),
        FLOAT_OR_ZERO,
    )
    def test_terms_equal_the_coefficients_and_their_bound(self, stages, h, n, c0):
        step = (0.0, h, (1.0, 0.0, 0.0, 1.0), tuple(stages))
        coefficients, bound = _normal_terms(step, *n)
        want = normal_coefficients_loop(step, *n, _P)
        assert len(coefficients) == len(want) == _P.shape[1]
        assert all(same_float(a, b) for a, b in zip(coefficients, want))
        assert same_float(bound, _coefficient_bound((c0, *want)))
