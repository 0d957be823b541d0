import math

import numpy as np
import pytest

from symorbit import (
    BoundaryCrossing,
    NoCrossing,
    SectionSpec,
    TangentialCrossing,
    crossing_time,
    first_transversal_crossing,
    flow,
)


@pytest.fixture(scope="module")
def y_section():
    return SectionSpec.positive_y_axis(1.0)


class TestQuarterCircleCrossing:
    def test_crossing_at_quarter_period(self, kepler_field, y_section):
        # Unit circular orbit: angular speed 1, so the positive y-axis is hit
        # at t = pi/2 with state ((0,1), (-1,0)).
        t_star, event, _ = crossing_time(
            kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), y_section, 2.0
        )
        assert t_star == pytest.approx(math.pi / 2, abs=1e-9)
        assert np.allclose(event.state.position, [0.0, 1.0], atol=1e-9)
        assert np.allclose(event.state.velocity, [-1.0, 0.0], atol=1e-9)
        assert event.normal_speed == pytest.approx(1.0, abs=1e-9)
        assert event.tangent_speed == pytest.approx(0.0, abs=1e-9)

    def test_normal_coordinate_refined(self, kepler_field, y_section):
        t_star, event, traj = crossing_time(
            kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), y_section, 2.0
        )
        # x-coordinate at the refined time is zero to well under segment scale
        assert abs(event.state.position[0]) < 1e-10 * y_section.length

    def test_near_circular_crossing_interior(self, kepler_field, y_section):
        t_star, event, _ = crossing_time(
            kepler_field, 0.0, (1.0, 0.0), (0.0, 1.05), y_section, 4.7
        )
        assert 0 < t_star < 4.7
        tau = y_section.tangent_coord(event.state.position)
        assert 0.01 < tau < y_section.length - 0.01

    def test_single_crossing_in_window(self, kepler_field, y_section):
        # After the first hit there is no further crossing of the closed
        # segment inside the window (the second y-axis passage is at y < 0).
        t_bar = 0.75 * 2 * math.pi
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.05), t_bar)
        event = first_transversal_crossing(traj, y_section)
        with pytest.raises(NoCrossing):
            first_transversal_crossing(
                traj, y_section, window=(event.t_star + 1e-6, t_bar)
            )


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

    def test_empty_window(self, kepler_field):
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), 2.0)
        section = SectionSpec.positive_y_axis(1.0)
        with pytest.raises(NoCrossing):
            first_transversal_crossing(traj, section, window=(1.9, 1.9))

    def test_degenerate_segment_rejected(self):
        with pytest.raises(ValueError):
            SectionSpec(start=(1.0, 1.0), end=(1.0, 1.0))


class TestGeneralSegment:
    def test_diagonal_segment(self, kepler_field):
        # The unit circle meets the diagonal through (s, s) at s = sqrt(2)/2.
        section = SectionSpec(start=(0.25, 0.25), end=(1.5, 1.5))
        t_star, event, _ = crossing_time(
            kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), section, 2.0
        )
        assert t_star == pytest.approx(math.pi / 4, abs=1e-9)
        s = math.sqrt(2) / 2
        assert np.allclose(event.state.position, [s, s], atol=1e-9)
        # Circular velocity at 45 degrees is (-s, s): purely transverse here.
        assert abs(event.normal_speed) == pytest.approx(1.0, abs=1e-9)

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
        t_star, event, _ = crossing_time(
            kepler_field, 0.0, (1.0, 0.0), (0.0, 1.35), section, 20.0
        )
        assert 0 < t_star < 3.0
        assert event.state.position[1] > 0


# Reference: the crossing scan as it was before the per-step quartic
# coefficients, evaluating the normal coordinate through Trajectory._eval.
def _reference_crossing_time(traj, section, window=None, subsamples=4):
    """t* of the first transversal crossing; raises like first_transversal_crossing."""
    t_lo, t_hi = (0.0, traj.t_end) if window is None else window
    t_hi = min(t_hi, traj.t_end)
    bt = section.boundary_tol if section.boundary_tol is not None else 1e-6 * section.length
    time_tol = 1e-12 * max(t_hi, 1.0)

    def g(t):
        return section.normal_coord(traj._eval(t)[:2])

    grid = [t_lo]
    for t_left, h, _, _ in traj._dense:
        if t_left + h <= t_lo or t_left >= t_hi:
            continue
        for k in range(1, subsamples + 1):
            t = t_left + h * k / subsamples
            if t_lo < t < t_hi:
                grid.append(t)
    grid.append(t_hi)
    grid = sorted(set(grid))

    g_prev = g(grid[0])
    for t_prev, t_next in zip(grid[:-1], grid[1:]):
        g_next = g(t_next)
        if g_prev * g_next < 0.0:
            a, b, ga = t_prev, t_next, g_prev
            while b - a > time_tol:
                m = 0.5 * (a + b)
                gm = g(m)
                if ga * gm <= 0.0:
                    b = m
                else:
                    a, ga = m, gm
            t_star = 0.5 * (a + b)
            y = traj._eval(t_star)
            tau = section.tangent_coord(y[:2])
            if -bt < tau < bt or section.length - bt < tau < section.length + bt:
                raise BoundaryCrossing("boundary", t_star=t_star, point=y[:2])
            if 0.0 <= tau <= section.length:
                n_speed = float(section.normal @ y[2:])
                if abs(n_speed) < section.transversality_floor:
                    raise TangentialCrossing("tangential", t_star=t_star, normal_speed=n_speed)
                return t_star
        g_prev = g_next
    raise NoCrossing("none")


def _outcome(scan, *args, **kwargs):
    """(exception type or None, crossing time or None) of one scan."""
    try:
        result = scan(*args, **kwargs)
    except (BoundaryCrossing, TangentialCrossing, NoCrossing) as exc:
        return type(exc), getattr(exc, "t_star", None)
    return None, getattr(result, "t_star", result)


def _assert_same_outcome(traj, section, window=None):
    got = _outcome(first_transversal_crossing, traj, section, window=window)
    ref = _outcome(_reference_crossing_time, traj, section, window=window)
    assert got[0] is ref[0]
    if ref[1] is not None:
        t_hi = traj.t_end if window is None else min(window[1], traj.t_end)
        assert abs(got[1] - ref[1]) <= 10 * 1e-12 * max(t_hi, 1.0)
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
        # A window that starts mid-step and ends before the crossing.
        kind, _ = _assert_same_outcome(traj, section, window=(0.3, 2.0))
        assert kind is NoCrossing

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
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), 2.0)
        i = len(traj.ts) // 3
        px, py = traj.ys[i][:2]
        section = SectionSpec(start=(px + offset, py - 0.5), end=(px + offset, py + 0.5))
        _assert_same_outcome(traj, section)
