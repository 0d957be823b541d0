import ast
import bisect
import linecache
import math
import os
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from symorbit import (
    DomainExit,
    ForceField,
    PerturbationSpec,
    PowerLawParams,
    SectionSpec,
    State,
    StepFailure,
    angular_momentum,
    axis_poly_perturbation,
    circular_speed,
    crossing_time,
    energy,
    flow,
    zero_set_scan,
)
from symorbit import forcefield, integrator, section, serialize
from symorbit.integrator import (
    _A,
    _B,
    _D,
    _E3,
    _E5,
    _P,
    Trajectory,
    _bisect,
    _horner,
    _sign_changes,
)
from symorbit.section import _roots

from oracles import eval_many_loop, horner_loop, kepler_period, same_float, semi_major_axis, trajectory_bits


def launch_state(sigma, params, radius=1.0):
    return np.array([radius, 0.0]), np.array([0.0, sigma * circular_speed(params, radius)])


class TestFlow:
    def test_circular_orbit_stays_circular(self, kepler_field, kepler_params):
        x, v = launch_state(1.0, kepler_params)
        traj = flow(kepler_field, 0.0, x, v, 2 * math.pi)
        states = traj.eval_many(np.linspace(0.0, traj.t_end, 512))
        radii = np.hypot(states[:, 0], states[:, 1])
        assert np.max(np.abs(radii - 1.0)) < 1e-8

    def test_trial_budget_spent_is_step_failure(self, kepler_field, kepler_params, monkeypatch):
        x, v = launch_state(1.1, kepler_params)
        steps = flow(kepler_field, 0.0, x, v, 2 * math.pi).n_steps
        monkeypatch.setattr(integrator, "_MAX_TRIALS", steps - 1)
        with pytest.raises(StepFailure, match=f"_MAX_TRIALS = {steps - 1} trials"):
            flow(kepler_field, 0.0, x, v, 2 * math.pi)
        monkeypatch.setattr(integrator, "_MAX_TRIALS", 2 * steps)
        assert flow(kepler_field, 0.0, x, v, 2 * math.pi).n_steps == steps

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf, 0.0])
    def test_span_end_must_be_finite_and_positive(self, kepler_field, t_end):
        # NaN and inf used to pass `t_end <= 0` and return an empty trajectory.
        with pytest.raises(ValueError, match=f"t_end must be a finite number > 0, got {t_end}"):
            flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), t_end)

    @pytest.mark.parametrize("t_end", [1e-20, 5e-324, 1e-14])
    def test_span_at_or_below_the_time_resolution_refused(self, kepler_field, t_end):
        # A span of at most 1e-14 max(t_end, 1) holds no step: flow used to
        # return a trajectory with no steps and t_end 0.0, whose final_state,
        # interpolate and eval_many raised IndexError or ValueError.
        with pytest.raises(ValueError, match=r"t_end=.* is at or below the integrator's time resolution 1e-14"):
            flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), t_end)

    def test_span_just_above_the_time_resolution_takes_a_step(self, kepler_field):
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), 2e-14)
        assert traj.n_steps == 1 and traj.t_end == 2e-14
        assert np.array_equal(traj.final_state().position, traj.eval_many([2e-14])[0, :2])

    def test_energy_drift_one_radial_period(self, kepler_field, kepler_params):
        # sigma = 1.1 ellipse over one full radial period
        x, v = launch_state(1.1, kepler_params)
        period = kepler_period(semi_major_axis(1.0, 1.1, 1.0), 1.0)
        traj = flow(kepler_field, 0.0, x, v, period)
        h = [
            energy(kepler_params, traj.interpolate(t))
            for t in np.linspace(0, period, 400)
        ]
        drift = np.max(np.abs(np.array(h) - h[0])) / abs(h[0])
        assert drift < 1e-9
        # The propagated (node) solution meets the tighter 10 * _RTOL bound;
        # dense samples add the interpolant's error on top.
        h_nodes = [
            energy(kepler_params, State(t=t, position=y[:2], velocity=y[2:]))
            for t, y in zip(traj.ts, traj.ys)
        ]
        node_drift = np.max(np.abs(np.array(h_nodes) - h_nodes[0])) / abs(h_nodes[0])
        assert node_drift < 10 * integrator._RTOL

    def test_angular_momentum_drift(self, kepler_radial_field, kepler_params):
        # Central perturbation: K stays conserved for mu != 0 as well.
        x, v = launch_state(1.05, kepler_params)
        for mu in (0.0, 0.1):
            traj = flow(kepler_radial_field, mu, x, v, 2 * math.pi)
            ks = [
                angular_momentum(traj.interpolate(t))
                for t in np.linspace(0, 2 * math.pi, 200)
            ]
            drift = np.max(np.abs(np.array(ks) - ks[0])) / abs(ks[0])
            assert drift < 10 * integrator._RTOL

    def test_escape_raises_domain_exit(self, kepler_field):
        # Speed 2 exceeds escape speed sqrt(2); the orbit must hit the outer radius.
        with pytest.raises(DomainExit) as err:
            flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 2.0), 20.0)
        traj = err.value.trajectory
        assert 0 < traj.t_end < 20.0
        assert np.hypot(*traj.ys[-1, :2]) == pytest.approx(2.0, abs=1e-9)
        assert str(err.value) == f"orbit left annulus [0.5, 2.0] at t={traj.t_end:.6g}"

    def test_inward_plunge_hits_guard(self, kepler_field):
        with pytest.raises(DomainExit) as err:
            flow(kepler_field, 0.0, (1.0, 0.0), (-0.8, 0.0), 10.0)
        assert np.hypot(*err.value.trajectory.ys[-1, :2]) == pytest.approx(0.5, abs=1e-9)

    def test_initial_point_outside_annulus(self, kepler_field):
        with pytest.raises(DomainExit) as err:
            flow(kepler_field, 0.0, np.array([2.5, 0.0]), (0.0, 1.0), 1.0)
        # No step was taken, so no trajectory; the message names the position in plain floats.
        exc = err.value
        assert str(exc) == "initial position (2.5, 0.0) outside annulus"
        assert exc.trajectory is None

    def test_nan_launch_force_raises_step_failure(self):
        # A NaN force gives a NaN initial step; the loop once spun on it forever,
        # so the call runs in a child process that a timeout can stop.
        code = (
            "from symorbit import ForceField, PowerLawParams, StepFailure, flow\n"
            "field = ForceField(base=PowerLawParams(1.0, 1.0))\n"
            "try:\n"
            "    flow(field, float('nan'), (1.0, 0.0), (0.0, 1.0), 2.0)\n"
            "except StepFailure:\n"
            "    print('StepFailure')\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "StepFailure"

    def test_convergence_order(self, kepler_field, kepler_params, monkeypatch, set_tolerance):
        # Fixed-step mode (huge tolerances, the first step pinned and never
        # grown): the closure error of a known ellipse over one period must
        # scale with the method order, 8. Steps of period/32 to period/128
        # keep the error above round-off.
        x, v = launch_state(1.1, kepler_params)
        period = kepler_period(semi_major_axis(1.0, 1.1, 1.0), 1.0)
        errors = []
        steps = [period / 32, period / 64, period / 128]
        set_tolerance(1e6)
        monkeypatch.setattr(integrator, "_MAX_FACTOR", 1.0)
        for h in steps:
            monkeypatch.setattr(integrator, "_initial_step", lambda *args, h=h: h)
            traj = flow(kepler_field, 0.0, x, v, period)
            errors.append(np.linalg.norm(traj.final_state().position - x))
        slopes = [
            math.log2(e0 / e1) for e0, e1 in zip(errors[:-1], errors[1:])
        ]
        mean_slope = sum(slopes) / len(slopes)
        assert 7.0 < mean_slope < 8.5

    def test_overflowing_error_norm_is_rejected(self, kepler_field, monkeypatch, set_tolerance):
        # At tolerances of 1e-300 both error estimators' squared norms
        # overflow, and the norm |h| n5 / sqrt((n5 + 0.01 n3) 4) is NaN. A NaN
        # norm must reject the step: every trial fails until the step size
        # underflows, where a test `err > 1` would accept them all. The first
        # step is pinned, as the starting estimate is not finite there.
        set_tolerance(1e-300)
        monkeypatch.setattr(integrator, "_initial_step", lambda *args: 0.1)
        with pytest.raises(StepFailure, match="step size underflow"):
            flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), 1.0)

    def test_tolerance_halving_shrinks_closure(self, kepler_field, kepler_params, set_tolerance):
        x, v = launch_state(1.1, kepler_params)
        period = kepler_period(semi_major_axis(1.0, 1.1, 1.0), 1.0)
        errs = []
        for tol in (1e-8, 1e-10, 1e-12):
            set_tolerance(tol)
            traj = flow(kepler_field, 0.0, x, v, period)
            errs.append(np.linalg.norm(traj.final_state().position - x))
        assert errs[0] > errs[1] > errs[2]


class TestDenseOutput:
    def test_nodes_reproduced(self, kepler_field):
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.05), 3.0)
        for i in range(0, len(traj.ts), 7):
            st = traj.interpolate(traj.ts[i])
            assert np.allclose(
                np.concatenate([st.position, st.velocity]), traj.ys[i], atol=1e-12
            )

    def test_matches_independent_integrator(self, kepler_radial_field):
        # Cross-check the dense solution against scipy's DOP853 on a
        # perturbed field; both should agree far below the event tolerances.
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        mu = 0.07

        def rhs(t, y):
            ax, ay = kepler_radial_field.acceleration(y[0], y[1], mu)
            return [y[2], y[3], ax, ay]

        t_end = 5.0
        ref = solve_ivp(
            rhs,
            (0.0, t_end),
            [1.0, 0.0, 0.0, 1.02],
            method="DOP853",
            rtol=1e-12,
            atol=1e-12,
            dense_output=True,
        )
        traj = flow(kepler_radial_field, mu, (1.0, 0.0), (0.0, 1.02), t_end)
        worst = 0.0
        for t in np.linspace(0.0, t_end, 200):
            mine = traj.interpolate(t).position
            theirs = ref.sol(t)[:2]
            worst = max(worst, float(np.linalg.norm(mine - theirs)))
        assert worst < 1e-8

    def test_interpolation_continuity_across_steps(self, kepler_field):
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.05), 3.0)
        for t_node in traj.ts[1:-1][::5]:
            left, right = traj.eval_many([np.nextafter(t_node, -np.inf), np.nextafter(t_node, np.inf)])
            assert np.allclose(left, right, atol=1e-11)

    @pytest.mark.parametrize("past_end", [False, True])
    def test_truncated_outside_the_span_refused(self, kepler_field, past_end):
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), 1.0)
        t_cut = 1.5 if past_end else 0.0
        with pytest.raises(ValueError, match=rf"^t_cut={t_cut} outside span \(0, "):
            traj.truncated(t_cut)

    def test_truncated(self, kepler_field):
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), 4.0)
        cut = traj.truncated(1.7)
        assert cut.t_end == pytest.approx(1.7)
        full = traj.interpolate(1.3)
        part = cut.interpolate(1.3)
        assert np.allclose(full.position, part.position)
        assert np.allclose(
            cut.final_state().position, traj.interpolate(1.7).position
        )

    def test_csv_export(self, kepler_field, tmp_path):
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.0), 1.0)
        path = tmp_path / "traj.csv"
        ts = np.linspace(0.0, traj.t_end, 16)
        serialize.write_csv(path, ["t", "x", "y", "vx", "vy"], np.column_stack([ts, traj.eval_many(ts)]).tolist())
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x,y,vx,vy"
        assert len(lines) == 17
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, 1.0, 0.0, 0.0, 1.0]


def step_eval_at(traj, t):
    """`_step_eval` on the step that holds t: the last whose left node is at
    or before t, the first step before the span and the last at and past its
    end."""
    i = bisect.bisect_right([step[0] for step in traj._dense], t) - 1
    return integrator._step_eval(traj._dense[max(i, 0)], t)


def assert_eval_many_matches(traj, ts):
    """eval_many rows agree with one `_step_eval` per time, on the step that
    holds it, to 8 ulp of max(1, |y|)."""
    got = traj.eval_many(ts)
    want = np.array([step_eval_at(traj, t) for t in ts])
    assert got.shape == (len(ts), 4)
    bound = 8 * np.finfo(float).eps * np.maximum(1.0, np.max(np.abs(want), axis=1))
    assert np.all(np.max(np.abs(got - want), axis=1) <= bound)
    return got


class TestEvalMany:
    @pytest.fixture(scope="class")
    def traj(self, kepler_radial_field):
        return flow(kepler_radial_field, 0.07, (1.0, 0.0), (0.0, 1.1), 7.0)

    def test_nodes_are_exact(self, traj):
        # A node belongs to the later step, at theta = 0: its state exactly.
        got = assert_eval_many_matches(traj, traj.ts[:-1])
        assert np.array_equal(got, traj.ys[:-1])

    def test_either_side_of_nodes(self, traj):
        nodes = traj.ts[1:-1]
        assert_eval_many_matches(traj, np.nextafter(nodes, -np.inf))
        assert_eval_many_matches(traj, np.nextafter(nodes, np.inf))

    def test_interior_times_and_span_ends(self, traj):
        ts = np.random.default_rng(0).uniform(0.0, traj.t_end, 500)
        assert_eval_many_matches(traj, np.concatenate([[0.0, traj.t_end], ts, [traj.t_end, 0.0]]))

    def test_truncated_trajectory(self, traj):
        cut = traj.truncated(0.37 * traj.t_end)
        ts = np.concatenate([cut.ts, np.linspace(0.0, cut.t_end, 97)])
        assert_eval_many_matches(cut, ts)
        assert np.array_equal(cut.eval_many([0.0])[0], traj.ys[0])


def _kepler_launch_to(r_other):
    """Launch speed at (1, 0) of the Kepler ellipse with its other apsis at
    r_other, and its period."""
    a = 0.5 * (1.0 + r_other)
    return math.sqrt(2.0 * r_other / (1.0 + r_other)), 2.0 * math.pi * a**1.5


class TestExitInsideOneStep:
    """An apsis just past an annulus bound with both neighbouring step nodes
    inside it: the dense output leaves the annulus inside one step."""

    @pytest.mark.parametrize("r_other", [2.0 + 1e-6, 0.5 - 1e-7])
    def test_raises_just_past_the_bound(self, kepler_params, kepler_field, r_other):
        v, period = _kepler_launch_to(r_other)
        with pytest.raises(DomainExit) as err:
            flow(kepler_field, 0.0, (1.0, 0.0), (0.0, v), period)
        exc = err.value
        traj = exc.trajectory
        # Every node is inside; the exit lies just past the bound, before the
        # apsis half a period from the launch.
        r_nodes = np.hypot(traj.ys[:-1, 0], traj.ys[:-1, 1])
        assert np.all((0.5 <= r_nodes) & (r_nodes <= 2.0))
        # The trajectory ends at the refined exit: its end node is the exit state.
        r_exit = math.hypot(*traj.ys[-1, :2])
        assert not 0.5 <= r_exit <= 2.0 and r_exit == pytest.approx(2.0 if r_other > 1.0 else 0.5, abs=1e-12)
        assert traj.t_end < 0.5 * period and traj.t_end == pytest.approx(0.5 * period, abs=1e-2)
        assert str(exc).endswith(f" at t={traj.t_end:.6g}")
        # The steps up to the exit are those of the same flow in a wider annulus.
        wide = flow(ForceField(base=kepler_params, annulus=(0.25, 4.0)), 0.0, (1.0, 0.0), (0.0, v), period)
        assert traj._dense == wide._dense[: traj.n_steps]

    def test_apsis_just_inside_runs_to_the_end(self, kepler_field):
        v, period = _kepler_launch_to(2.0 - 1e-6)
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, v), period)
        assert traj.t_end == period


class TestOneEvaluationRule:
    """`_step_eval` (one step, on floats) and `eval_many` (every step, on
    arrays) evaluate the interpolant by one rule: equal bit for bit at any
    time, on the step that holds it, node times and their neighbours
    included."""

    @pytest.fixture(scope="class", params=["full", "truncated", "domain_exit"])
    def traj(self, request, kepler_field, kepler_radial_field):
        if request.param == "domain_exit":
            with pytest.raises(DomainExit) as err:
                flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.35), 20.0)
            return err.value.trajectory
        full = flow(kepler_radial_field, 0.07, (1.0, 0.0), (0.0, 1.1), 7.0)
        return full if request.param == "full" else full.truncated(0.37 * full.t_end)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
        st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from([-1, 0, 1])), max_size=10),
    )
    def test_eval_equals_eval_many(self, traj, fractions, nodes):
        ts = [f * traj.t_end for f in fractions]
        for k, side in nodes:
            t = float(traj.ts[k % len(traj.ts)])
            ts.append(t if side == 0 else float(np.nextafter(t, side * np.inf)))
        for t, row in zip(ts, traj.eval_many(ts)):
            assert np.array_equal(step_eval_at(traj, t), row), t

    def test_final_state_is_eval_many_at_t_end(self, traj):
        # final_state reads the last step without a lookup: the same bits.
        end = traj.final_state()
        assert end.t == traj.t_end
        assert np.array_equal(np.concatenate([end.position, end.velocity]), traj.eval_many([traj.t_end])[0])


def test_normal_coefficients_are_the_projected_interpolant(kepler_radial_field):
    # The scan's coefficients c1..cD of n . position on a step are h (n . Q)
    # with Q from `_q_matrix`, formed without building Q. Relative to the
    # moduli of the terms summed: the higher coefficients cancel heavily.
    traj = flow(kepler_radial_field, 0.07, (1.0, 0.0), (0.0, 1.1), 7.0)
    for t_left, h, y_left, stages in traj._dense:
        velocities = np.array(stages).reshape(len(_P), 4)[:, :2]
        for n in [(0.0, 1.0), (-1.0, 0.0), (0.6, -0.8)]:
            got = np.array(integrator._normal_terms((t_left, h, y_left, stages), *n)[0])
            want = h * (np.array(n) @ integrator._q_matrix(stages)[:2])
            terms = h * (np.abs(velocities @ np.array(n)) @ np.abs(_P))
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-14 * terms)


# Reference: DOP853 as a numpy step loop over the stage matrix K (16 rows: the
# 12 stages, the FSAL stage f(t + h, y_new) and the dense output's 3 extra
# ones), with flow()'s controller and guards: a bad stage halves h, the error
# norm is formed from the first 12 stages before the FSAL stage, and the last
# four stages are evaluated only for a step whose norm passes. Only the
# summation order differs from the unrolled float step, so step counts must
# match and dense states agree to round-off. Its steps are stored as flow()
# stores them, (t_left, h, y_left, stages) with K flattened row by row, and
# with the end node they make the Trajectory that samples them. It refines an
# annulus exit on the interpolant in Hairer's form (II.6), not through P.
def _reference_initial_step(rhs, y0, f0, t_end, rtol, atol):
    scale = atol + rtol * np.abs(y0)
    d0 = math.sqrt(float(np.mean((y0 / scale) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = rhs(y1)
    d2 = math.sqrt(float(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, t_end)


def _hairer_dense(y_left, h, k, theta):
    """The DOP853 interpolant as II.6 writes it: y_left + theta (f0 + (1 -
    theta) (f1 + theta (f2 + ...))), with f0 = h B.K, f1 = h k0 - f0,
    f2 = 2 f0 - h (k12 + k0) and f3..f6 = h D.K."""
    f0 = h * (k[:12].T @ _B)
    f = [f0, h * k[0] - f0, 2.0 * f0 - h * (k[12] + k[0]), *(h * (_D @ k))]
    acc = f[-1]
    for j in range(len(f) - 2, -1, -1):
        acc = f[j] + (theta if j % 2 else 1.0 - theta) * acc
    return y_left + theta * acc


def _reference_refine_domain_exit(dense_step, r_in, r_out):
    t_left, h, y_left, stages = dense_step
    y_left = np.array(y_left)
    k = np.array(stages).reshape(16, 4)

    def excess(theta):
        y = _hairer_dense(y_left, h, k, theta)
        r = math.hypot(y[0], y[1])
        return max(r_in - r, r - r_out)

    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return t_left + hi * h, _hairer_dense(y_left, h, k, hi)


def _bad(y):
    return not np.all(np.isfinite(y)) or math.hypot(y[0], y[1]) < 1e-12


def _reference_flow(field, mu, x, v, t_end, rtol=integrator._RTOL, atol=integrator._ATOL, first_step=None):
    """(trajectory, number of bad-stage halvings); raises DomainExit like flow().

    first_step, when given, replaces the starting estimate, as the tests that
    pin flow()'s first step do by patching `integrator._initial_step`."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    r_in, r_out = field.annulus
    accel = field.acceleration

    def rhs(y):
        ax, ay = accel(y[0], y[1], mu)
        return np.array([y[2], y[3], ax, ay])

    def stages(K, y, h, rows):
        """Fill K[rows]; False at the first bad stage position or non-finite stage."""
        for i in rows:
            y_stage = y + h * (K[:i].T @ _A[i, :i])
            if _bad(y_stage):
                return False
            K[i] = rhs(y_stage)
            if not np.all(np.isfinite(K[i])):
                return False
        return True

    y = np.concatenate([x, v])
    t = 0.0
    f_first = rhs(y)
    if first_step is not None:
        h = min(first_step, t_end)
    else:
        h = _reference_initial_step(rhs, y, f_first, t_end, rtol, atol)
    min_step = 1e-14 * max(t_end, 1.0)
    dense, halvings = [], 0
    K = np.empty((16, 4))
    K[0] = f_first
    while t < t_end:
        if t_end - t <= min_step:
            break
        h = min(h, t_end - t)
        assert h >= min_step, "step size underflow"
        if not (np.all(np.isfinite(K[0])) and stages(K, y, h, range(1, 12))):
            h *= 0.5
            halvings += 1
            continue
        y_new = y + h * (K[:12].T @ _B)
        if _bad(y_new):
            h *= 0.5
            halvings += 1
            continue
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        n5 = float(np.sum((K[:12].T @ _E5 / scale) ** 2))
        n3 = float(np.sum((K[:12].T @ _E3 / scale) ** 2))
        err = 0.0 if n5 == 0.0 and n3 == 0.0 else h * n5 / math.sqrt((n5 + 0.01 * n3) * 4.0)
        if not err <= 1.0:
            h *= max(0.2, 0.9 * err ** (-1 / 8))
            continue
        K[12] = rhs(y_new)
        if not (np.all(np.isfinite(K[12])) and stages(K, y, h, range(13, 16))):
            h *= 0.5
            halvings += 1
            continue
        dense.append((t, h, tuple(y), tuple(K.ravel())))
        t_next = t + h
        rr = math.hypot(y_new[0], y_new[1])
        if rr < r_in or rr > r_out:
            t_exit, y_exit = _reference_refine_domain_exit(dense[-1], r_in, r_out)
            raise DomainExit("left annulus", trajectory=Trajectory(dense, t_exit, y_exit))
        factor = 5.0 if err == 0.0 else min(5.0, max(1.0, 0.9 * err ** (-1 / 8)))
        h *= factor
        t, y, K[0] = t_next, y_new, K[12]
    return Trajectory(dense, t, y), halvings


# Test-only force families: the Kepler force inside radius `wall` and, past
# it, NaN or a float ** that overflows (r > 1 raised to 1e6). Registered in
# `forcefield._FAMILIES` for one test, so both `ForceField.acceleration` and
# the family's step kernel evaluate the wall.
_WALLS = {
    "nan_wall": "math.nan",
    "overflow_wall": "r ** 1e6",
}


@pytest.fixture
def walled_field(monkeypatch, kepler_params):
    def build(kind, wall):
        past = _WALLS[kind]
        force = tuple(f"a{c} = s * {c} + mu * 0.0 if r <= wall else {past}" for c in "xy")
        monkeypatch.setitem(forcefield._FAMILIES, kind, forcefield._Family({"wall": 1.5}, {"wall": "wall"}, force))
        return ForceField(base=kepler_params, perturbation=PerturbationSpec(kind, {"wall": wall}))

    return build


def _assert_dense_agreement(traj, ref, t_end):
    assert traj.n_steps == ref.n_steps
    ts = np.linspace(0.0, t_end, 500)
    assert np.max(np.abs(traj.eval_many(ts) - ref.eval_many(ts))) < 1e-10


class TestFloatStepLoopMatchesReference:
    def test_kepler_ellipse(self, kepler_field, kepler_params):
        x, v = launch_state(1.1, kepler_params)
        period = kepler_period(semi_major_axis(1.0, 1.1, 1.0), 1.0)
        ref, halvings = _reference_flow(kepler_field, 0.0, x, v, period)
        _assert_dense_agreement(flow(kepler_field, 0.0, x, v, period), ref, period)
        assert halvings == 0

    def test_radial_power(self, kepler_radial_field, kepler_params):
        x, v = launch_state(1.05, kepler_params)
        ref, _ = _reference_flow(kepler_radial_field, 0.1, x, v, 2 * math.pi)
        traj = flow(kepler_radial_field, 0.1, x, v, 2 * math.pi)
        _assert_dense_agreement(traj, ref, 2 * math.pi)

    def test_axis_poly_alpha_3(self, half_field_a3):
        x, v = launch_state(1.005, half_field_a3.base)
        ref, _ = _reference_flow(half_field_a3, 0.01, x, v, 2 * math.pi)
        traj = flow(half_field_a3, 0.01, x, v, 2 * math.pi)
        _assert_dense_agreement(traj, ref, 2 * math.pi)

    def test_domain_exit(self, kepler_field):
        with pytest.raises(DomainExit) as ref_err:
            _reference_flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 2.0), 20.0)
        with pytest.raises(DomainExit) as err:
            flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 2.0), 20.0)
        ref, got = ref_err.value.trajectory, err.value.trajectory
        assert got.t_end == pytest.approx(ref.t_end, abs=1e-10)
        assert np.allclose(got.ys[-1], ref.ys[-1], rtol=0, atol=1e-10)
        _assert_dense_agreement(got, ref, ref.t_end)

    @pytest.mark.parametrize("first_step", [2.2, 4.0])
    def test_bad_stage_halving(self, walled_field, trials, first_step, monkeypatch, set_tolerance):
        # Oversized first steps on the unit circle throw trial stages past a
        # NaN wall that the orbit itself never reaches. With 2.2, stage 11
        # lands at r = 1.013, past a wall at 1.01. With 4.0 and tolerances so
        # loose that every error norm passes, only the dense output's stage 15
        # lands past a wall at 2.4 (at r = 2.58; stage 11 reaches 2.36), so
        # the step is halved after its error norm passed.
        wall, tol = {2.2: (1.01, 1e-12), 4.0: (2.4, 1e6)}[first_step]
        set_tolerance(tol)
        monkeypatch.setattr(integrator, "_initial_step", lambda *args: first_step)
        walled = walled_field("nan_wall", wall)
        ref, halvings = _reference_flow(walled, 0.0, (1.0, 0.0), (0.0, 1.0), 2 * math.pi, tol, tol, first_step)
        assert halvings > 0
        traj = flow(walled, 0.0, (1.0, 0.0), (0.0, 1.0), 2 * math.pi)
        assert None in trials  # a trial the wall halved
        _assert_dense_agreement(traj, ref, 2 * math.pi)

    @pytest.mark.parametrize("first_step", [2.2, 4.0])
    def test_raising_force_halves_as_a_nan_force(self, walled_field, trials, first_step, monkeypatch, set_tolerance):
        # test_bad_stage_halving's trials, with a wall that raises instead of
        # returning NaN: the trial is rejected by the same rule, so the step
        # sequence is the same bit for bit.
        wall, tol = {2.2: (1.01, 1e-12), 4.0: (2.4, 1e6)}[first_step]
        set_tolerance(tol)
        monkeypatch.setattr(integrator, "_initial_step", lambda *args: first_step)
        nan_wall = flow(walled_field("nan_wall", wall), 0.0, (1.0, 0.0), (0.0, 1.0), 2 * math.pi)
        trials.clear()
        traj = flow(walled_field("overflow_wall", wall), 0.0, (1.0, 0.0), (0.0, 1.0), 2 * math.pi)
        assert None in trials  # a trial the wall halved
        assert np.array_equal(traj.ts, nan_wall.ts)
        assert np.array_equal(traj.ys, nan_wall.ys)

    def test_stage_at_the_origin_halves(self, kepler_field, monkeypatch):
        # A radial plunge whose first trial puts stage 1 at 1.1e-16 from the
        # origin, where the Kepler force is finite but 1e48: the trial is
        # halved, as the reference's bad-stage rule does, and the plunge then
        # leaves the annulus at its inner bound.
        h = 1.0 / _A[1, 0]
        monkeypatch.setattr(integrator, "_initial_step", lambda *args: h)
        with pytest.raises(DomainExit) as ref_err:
            _reference_flow(kepler_field, 0.0, (1.0, 0.0), (-1.0, 0.0), 100.0, first_step=h)
        with pytest.raises(DomainExit) as err:
            flow(kepler_field, 0.0, (1.0, 0.0), (-1.0, 0.0), 100.0)
        ref, got = ref_err.value.trajectory.ts, err.value.trajectory.ts
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) < 1e-6


def _products(expr, text, literal_first=True):
    """The (literal, name) products in expr, in source order, each literal
    read back from its text."""
    found = []
    for node in ast.walk(expr):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            literal, name = (node.left, node.right) if literal_first else (node.right, node.left)
            if isinstance(name, ast.Name) and isinstance(literal, (ast.Constant, ast.UnaryOp)):
                found.append((node.lineno, node.col_offset, float(ast.get_source_segment(text, literal)), name.id))
    return [(value, name) for _, _, value, name in sorted(found)]


class TestTableau:
    def test_matches_scipy_dop853(self):
        # scipy ships the same DOP853 constants; the field is autonomous, so
        # the nodes C enter only as the row sums of A.
        coeffs = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        assert np.array_equal(_A, coeffs.A)
        assert np.array_equal(_B, coeffs.B)
        assert np.max(np.abs(_A.sum(axis=1) - coeffs.C)) <= 1e-15
        # scipy's error vectors carry the FSAL stage, which neither reads.
        assert np.array_equal(_E3, coeffs.E3[:12]) and coeffs.E3[12] == 0.0
        assert np.array_equal(_E5, coeffs.E5[:12]) and coeffs.E5[12] == 0.0
        assert np.array_equal(_D, coeffs.D)

    def test_dense_output_rows_sum_to_the_weights(self):
        # At theta = 1 the interpolant is the step's solution: P's row sums are B.
        assert _P.shape == (16, 7)
        assert np.max(np.abs(_P.sum(axis=1) - np.concatenate([_B, np.zeros(4)]))) <= 1e-13
        assert not np.any(_P[1:5])  # stages 1-4 do not enter the dense output

    def test_dense_output_is_the_exact_derivation_rounded_once(self):
        # P derived again in exact rational arithmetic, entry by entry.
        b = [Fraction(w) for w in _B.tolist()] + [Fraction(0)] * 4
        f = [
            b,
            [int(s == 0) - w for s, w in enumerate(b)],
            [2 * w - int(s == 12) - int(s == 0) for s, w in enumerate(b)],
            *([Fraction(w) for w in row] for row in _D.tolist()),
        ]
        exact = [[Fraction(0)] * 7 for _ in range(16)]
        for j, fj in enumerate(f):
            a, c = (j + 2) // 2, (j + 1) // 2  # theta^a (1 - theta)^c in front of f_j
            for i in range(c + 1):
                for s in range(16):
                    exact[s][a + i - 1] += math.comb(c, i) * (-1) ** i * fj[s]
        assert np.array_equal(_P, np.array([[float(v) for v in row] for row in exact]))

    def test_monomial_form_is_the_interpolant_of_ii_6(self):
        # h K^T P [theta, ..., theta^7] against Hairer's nested form, for
        # random stages, relative to the moduli of the terms summed.
        rng = np.random.default_rng(0)
        for _ in range(20):
            k, h, y_left = rng.normal(size=(16, 4)), rng.uniform(0.01, 2.0), rng.normal(size=4)
            for theta in (0.0, 0.1, 0.5, 0.9, 1.0):
                powers = theta ** np.arange(1, 8)
                got = y_left + h * (k.T @ _P) @ powers
                terms = h * (np.abs(k.T) @ np.abs(_P)) @ powers
                assert np.all(np.abs(got - _hairer_dense(y_left, h, k, theta)) <= 1e-14 * (terms + 1.0))


    def test_generated_kernels_state_each_entry_once(self):
        # The products of each family's step source read back as
        # (coefficient, stage variable) in source order: each nonzero entry
        # of A's rows 1-15, E5 and E3 once per state component. Each stage's
        # force is the family's force text written out once on that stage's
        # position and radius, 11 stages before the `err > 1.0` return and 4
        # after it, and the step calls nothing but builtins and math. The
        # section-normal coefficients take every column of P's nonzero rows
        # once per power of theta, each literal reading back as its table
        # entry, and are returned with their moduli summed left to right.
        assert not hasattr(integrator, "_dop853_step")
        for kind in forcefield._FAMILIES:
            self._check_step_source(kind)
        normal_source = integrator._normal_source()
        (normal,) = ast.parse(normal_source).body
        (returned,) = [node.value for node in ast.walk(normal) if isinstance(node, ast.Return)]
        assigned = {
            target.id: node.value
            for node in ast.walk(normal)
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        rows = [s for s in range(16) if _P[s].any()]
        assert rows == [0, *range(5, 16)]
        names = [f"c{j + 1}" for j in range(_P.shape[1])]
        coefficients, bound = returned.elts
        assert [name.id for name in coefficients.elts] == names
        assert ast.unparse(bound) == " + ".join(f"abs({name})" for name in names)
        for j, name in enumerate(names):
            assert _products(assigned[name], normal_source, literal_first=False) == [(_P[s, j], f"p{s}") for s in rows], j

    @staticmethod
    def _check_step_source(kind):
        source = integrator._step_source(kind)
        assert "np." not in source
        tree = ast.parse(source)
        assigned = {
            target.id: node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }

        def entries(row, prefix):
            return [(float(a), f"{prefix}{j}") for j, a in enumerate(row.tolist()) if a != 0.0]

        components = ("u", "w", "gx", "gy")
        for i in range(1, 16):
            targets = ("xn", "yn") if i == 12 else (f"x{i}", f"y{i}")
            for target, prefix in zip((*targets, f"u{i}", f"w{i}"), components):
                assert _products(assigned[target], source) == entries(_A[i], prefix), (kind, target)
        for k, e in ((5, _E5), (3, _E3)):
            for c, prefix in zip("xyuw", components):
                assert _products(assigned[f"e{k}{c}"], source) == entries(e, prefix), (kind, f"e{k}{c}")

        lines = [line.strip() for line in source.splitlines()]
        split = lines.index("if err > 1.0:")
        for i in range(1, 16):
            x, y, r = ("xn", "yn", "rn") if i == 12 else (f"x{i}", f"y{i}", f"r{i}")
            assert lines.count(f"{r} = hypot({x}, {y})") == 1
            force = forcefield._force_lines(kind, x, y, r, f"gx{i}", f"gy{i}")
            at = [n for n in range(len(lines)) if lines[n : n + len(force)] == force]
            assert len(at) == 1 and (at[0] < split) == (i < 12), (kind, i)
            assert sum(line.startswith(f"gx{i} = ") for line in lines) == 1  # no other force for stage i
        # The origin guard reads the stage radii the forces were evaluated on.
        assert f"r_min = min({', '.join(f'r{i}' for i in range(1, 12))}, rn)" in lines
        assert "if not (isfinite(forces) and min(r13, r14, r15) >= 1e-12):" in lines
        called = {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert called == {"hypot", "isfinite", "abs", "max", "min", "math.sqrt"}

    def test_generated_lines_show_in_tracebacks(self, kepler_radial_field):
        # A mu whose products raise at the x component of stage 3, of the
        # FSAL stage 12 or of the dense stage 13 (two products per stage):
        # after linecache.checkcache(), the step's frame shows that stage's
        # force line of the generated source.
        step, constants = integrator._step_kernel("radial_power"), kepler_radial_field._force_constants
        for stage in (3, 12, 13):

            class RaisingMu:
                calls = 0

                def __mul__(self, other):
                    self.calls += 1
                    if self.calls == 2 * (stage - 1) + 1:
                        raise RuntimeError(f"stage {stage}")
                    return 0.0 * other

            with pytest.raises(RuntimeError, match=f"stage {stage}") as info:
                step(constants, RaisingMu(), 0.1, (1.0, 0.0, 0.0, 1.0), (-1.0, 0.0), 1e-6, 1e-6)
            linecache.checkcache()
            frame = traceback.extract_tb(info.value.__traceback__)[-2]
            assert (frame.filename, frame.name) == (step.__code__.co_filename, "_dop853_step_radial_power")
            x, y, r = ("xn", "yn", "rn") if stage == 12 else (f"x{stage}", f"y{stage}", f"r{stage}")
            assert frame.line == forcefield._force_lines("radial_power", x, y, r, f"gx{stage}", f"gy{stage}")[-2]
            assert frame.line == f"gx{stage} = s * {x} + mu * (q * {x})"


class TestStepKernelForce:
    """Each family's step kernel evaluates at every stage the force that
    `ForceField.acceleration` gives at that stage's position, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(sorted(forcefield._FAMILIES)),
        st.floats(0.5, 2.0),
        st.floats(0.0, 4.0),
        st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 4.0), st.floats(-2.0, 2.0), st.integers(0, 5)),
        st.floats(0.0, 2 * math.pi),
        st.floats(0.6, 1.8),
        st.floats(-1.5, 1.5),
        st.floats(-1.5, 1.5),
        st.floats(1e-3, 0.3),
        st.floats(-0.5, 0.5),
    )
    def test_stage_forces_equal_acceleration(self, kind, kappa, alpha, draws, angle, radius, vx, vy, h, mu):
        lam, beta, c, p = draws
        params = {
            "zero": {},
            "radial_power": {"lam": lam, "beta": beta},
            "axis_poly": {"cx": c, "px": p, "cy": lam, "py": 3},
        }
        field = ForceField(base=PowerLawParams(kappa, alpha), perturbation=PerturbationSpec(kind, params[kind]))
        x, y = radius * math.cos(angle), radius * math.sin(angle)
        step = integrator._step_kernel(kind)
        trial = step(field._force_constants, mu, h, (x, y, vx, vy), field.acceleration(x, y, mu), 1.0, 1.0)
        assume(trial is not None and trial[1] is not None)
        stages = trial[2]
        u, w = stages[0::4], stages[1::4]
        for i in range(1, 16):
            # The stage position in the kernel's order: x + h * (a u_j + ...),
            # summed left to right over the row's nonzero columns.
            terms = [(a, j) for j, a in enumerate(_A[i].tolist()) if a != 0.0]
            sx, sy = terms[0][0] * u[terms[0][1]], terms[0][0] * w[terms[0][1]]
            for a, j in terms[1:]:
                sx, sy = sx + a * u[j], sy + a * w[j]
            xi, yi = x + h * sx, y + h * sy
            if i == 12:
                assert (xi, yi) == trial[1][:2]
            gx, gy = field.acceleration(xi, yi, mu)
            assert same_float(stages[4 * i + 2], gx) and same_float(stages[4 * i + 3], gy), i


class TestRecordsBuiltWhenSampled:
    """flow keeps each step's stages; the interpolant's coefficients are built
    only for the steps something samples."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        q_matrix = integrator._q_matrix
        monkeypatch.setattr(integrator, "_q_matrix", lambda stages: calls.append(stages) or q_matrix(stages))
        return calls

    def test_crossing_time_builds_one_record(self, kepler_field, built):
        section = SectionSpec.positive_y_axis(1.0)
        _, _, traj = crossing_time(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.05), section, 4.7)
        assert traj.n_steps > 10
        assert len(built) == 1 and built[0] == traj._dense[-1][3]  # the crossing step's
        assert traj._stacked is None

    def test_unsampled_flow_builds_nothing(self, kepler_field, built):
        traj = flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 1.05), 4.7)
        assert built == [] and traj._stacked is None
        traj.final_state()
        assert len(built) == 1 and built[0] is traj._dense[-1][3]
        traj.eval_many([0.5, 1.5])  # one batched product, no per-step build
        assert len(built) == 1 and traj._stacked is not None


def _launches(fields):
    """(field, mu, x, v, t_end) of a flow over up to two circular periods
    from a vertical launch at radius 1, in one of `fields`."""
    return st.tuples(
        st.sampled_from(fields), st.floats(0.0, 0.05), st.floats(0.9, 1.1), st.floats(0.05, 2.0)
    ).map(lambda a: (a[0], a[1], (1.0, 0.0), (0.0, a[2] * circular_speed(a[0].base, 1.0)), a[3] * 2 * math.pi))


def _flow_or_exit(*args, **kwargs):
    try:
        return flow(*args, **kwargs)
    except DomainExit as exc:
        return exc.trajectory


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


class TestEachQuantityFormedOnce:
    """eval_many runs Horner's rule in place and a continued trajectory forms
    Q only for its new steps; both give the bits of the plainer forms."""

    FIELDS = [
        ForceField(base=PowerLawParams(1.0, 1.0)),
        ForceField(base=PowerLawParams(1.0, 0.5), perturbation=axis_poly_perturbation(1.0, 2, 1.0, 3)),
        ForceField(base=PowerLawParams(1.0, 3.0), perturbation=axis_poly_perturbation(1.0, 2, 1.0, 3)),
    ]

    @settings(max_examples=30, deadline=None)
    @given(
        launch=_launches(FIELDS),
        fractions=st.lists(st.floats(-0.1, 1.1), max_size=30),
        nodes=st.lists(st.integers(0, 10**6), max_size=10),
    )
    def test_eval_many_equals_the_horner_loop(self, launch, fractions, nodes):
        traj = _flow_or_exit(*launch)
        ts = [0.0, traj.t_end, *(f * traj.t_end for f in fractions)]
        ts += [float(traj.ts[k % len(traj.ts)]) for k in nodes]
        want = eval_many_loop(traj._dense, traj.t_end, _P, ts)
        got = traj.eval_many(ts)
        assert got.shape == (len(ts), 4) and _bits(got) == _bits(want)
        assert _bits(traj.eval_many(ts, width=2)) == _bits(want[:, :2])

    @settings(max_examples=15, deadline=None)
    @given(
        launch=_launches(FIELDS),
        cut=st.floats(0.05, 0.5),
        evaluated=st.booleans(),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    )
    def test_continued_trajectory_forms_q_for_its_new_steps_only(self, launch, cut, evaluated, fractions):
        field, mu, x, v, t_end = launch
        # A stop callback ends the prefix at the first node past cut t_end;
        # the prefix's Q is formed first when `evaluated`.
        prefix = _flow_or_exit(field, mu, x, v, t_end, stop=lambda step, y: step[0] + step[1] >= cut * t_end)
        assume(prefix._resume is not None)
        if evaluated:
            prefix.eval_many([0.0])
        formed = []
        q_matrices = integrator._q_matrices
        traj = _flow_or_exit(field, mu, x, v, t_end, prefix=prefix)
        assume(traj._dense[0] is prefix._dense[0])  # continued, not integrated again
        ts = [f * traj.t_end for f in fractions]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrator, "_q_matrices", lambda rows: formed.append(len(rows)) or q_matrices(rows))
            got = traj.eval_many(ts)
        assert formed == [traj.n_steps - prefix.n_steps if evaluated else traj.n_steps]
        t_left, h, y_left, q = traj._arrays()
        assert _bits(q) == _bits(q_matrices([step[3] for step in traj._dense]))
        assert _bits(t_left) == _bits([step[0] for step in traj._dense])
        assert _bits(h) == _bits([step[1] for step in traj._dense])
        assert _bits(y_left) == _bits([step[2] for step in traj._dense])
        fresh = _flow_or_exit(field, mu, x, v, t_end)
        assert trajectory_bits(fresh) == trajectory_bits(traj)
        assert _bits(fresh.eval_many(ts)) == _bits(got)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0]), min_size=4, max_size=4),
        st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0]), min_size=64, max_size=64),
        st.floats(1e-6, 10.0),
        st.floats(0.0, 1.0),
    )
    def test_step_eval_at_a_node_is_the_node(self, y_left, stages, h, theta):
        step = (0.5, h, tuple(y_left), tuple(stages))
        node = integrator._step_eval(step, 0.5)
        assert _bits(node) == _bits(y_left)
        # Elsewhere the one-step rule, which eval_many's rows equal.
        t = 0.5 + theta * h
        assert _bits(integrator._step_eval(step, t)) == _bits(eval_many_loop([step], 0.5 + h, _P, [t])[0])


class TestStopCallback:
    @pytest.mark.parametrize("k", [1, 7, 20])
    def test_stopped_flow_is_a_prefix(self, kepler_radial_field, kepler_params, k):
        x, v = launch_state(1.05, kepler_params)
        full = flow(kepler_radial_field, 0.1, x, v, 2 * math.pi)
        seen = []

        def stop(step, y_right):
            seen.append(y_right)
            return len(seen) == k

        traj = flow(kepler_radial_field, 0.1, x, v, 2 * math.pi, stop=stop)
        assert traj.n_steps == k and len(seen) == k
        for got, ref in zip(traj._dense, full._dense[:k]):
            assert got[:2] == ref[:2]
            assert np.array_equal(got[2], ref[2]) and np.array_equal(got[3], ref[3])
        assert np.array_equal(traj.ts, full.ts[: k + 1])
        assert np.array_equal(traj.ys, full.ys[: k + 1])
        assert [list(y) for y in seen] == full.ys[1 : k + 1].tolist()
        assert traj.t_end == full.ts[k]

    def test_never_stopping_changes_nothing(self, kepler_radial_field, kepler_params):
        x, v = launch_state(0.95, kepler_params)
        full = flow(kepler_radial_field, 0.1, x, v, 2 * math.pi)
        traj = flow(kepler_radial_field, 0.1, x, v, 2 * math.pi, stop=lambda step, y: False)
        assert np.array_equal(traj.ts, full.ts) and np.array_equal(traj.ys, full.ys)
        assert traj.t_end == full.t_end

    def test_step_leaving_the_annulus_is_not_offered(self, kepler_field):
        offered = []
        with pytest.raises(DomainExit) as err:
            flow(kepler_field, 0.0, (1.0, 0.0), (0.0, 2.0), 20.0, stop=lambda s, y: offered.append(s))
        dense = err.value.trajectory._dense
        assert len(offered) == len(dense) - 1
        assert all(a is b for a, b in zip(offered, dense))


def _stopped_after(field, mu, x, v, t_end, k):
    """The flow stopped by its callback after its k-th step."""
    seen = []
    return flow(field, mu, x, v, t_end, stop=lambda step, y: seen.append(step) or len(seen) == k)


def _outcome(fn):
    """The bits of the trajectory fn returns, or the type and text of what it raises."""
    try:
        return trajectory_bits(fn())
    except (DomainExit, StepFailure) as exc:
        return type(exc).__name__, str(exc)


class TestPrefix:
    """A flow that its stop callback ended keeps its controller state, and
    flow continues it as a prefix when the flow from the same start would
    repeat its steps; otherwise it integrates from the launch. Either way the
    result is the flow without the prefix, bit for bit."""

    MU, T_END = 0.1, 2 * math.pi

    @pytest.fixture
    def launches(self, monkeypatch):
        """The number of flows that evaluated the launch force."""
        calls, accelerate = [], ForceField.acceleration

        def counted(field, x, y, mu):
            calls.append((x, y))
            return accelerate(field, x, y, mu)

        monkeypatch.setattr(ForceField, "acceleration", counted)
        return lambda: len(calls) // 2  # the launch force and the starting-step probe

    @pytest.fixture
    def launch(self, kepler_params):
        return launch_state(1.05, kepler_params)

    @pytest.fixture
    def prefix(self, kepler_radial_field, launch):
        """The flow from `launch` stopped after its 20th step."""
        return _stopped_after(kepler_radial_field, self.MU, *launch, 10, 20)

    # After 1 step the controller grows h (the starting step is small); after
    # 20 it keeps h.
    @pytest.mark.parametrize("k", [1, 20])
    def test_continues_a_stopped_flow(self, kepler_radial_field, launch, launches, trials, k):
        fresh = flow(kepler_radial_field, self.MU, *launch, self.T_END)
        fresh_trials = len(trials)
        prefix = _stopped_after(kepler_radial_field, self.MU, *launch, 10, k)
        assert prefix._resume is not None and prefix._resume.trials == len(trials) - fresh_trials
        assert (prefix._resume.h > prefix._dense[-1][1]) == (k == 1)
        del trials[:]
        traj = flow(kepler_radial_field, self.MU, *launch, self.T_END, prefix=prefix)
        assert trajectory_bits(traj) == trajectory_bits(fresh)
        # Only the steps after the prefix were computed, and no launch force.
        assert len(trials) == fresh_trials - prefix._resume.trials
        assert sum(t is not None and t[1] is not None for t in trials) == fresh.n_steps - k
        assert launches() == 2
        assert all(a is b for a, b in zip(traj._dense, prefix._dense))

    def test_trial_budget_counts_the_prefix_trials(self, kepler_radial_field, launch, prefix, monkeypatch):
        monkeypatch.setattr(integrator, "_MAX_TRIALS", prefix._resume.trials + 5)
        got = _outcome(lambda: flow(kepler_radial_field, self.MU, *launch, self.T_END, prefix=prefix))
        assert got[0] == "StepFailure" and "_MAX_TRIALS" in got[1]
        assert got == _outcome(lambda: flow(kepler_radial_field, self.MU, *launch, self.T_END))

    def test_truncation_keeping_every_step_keeps_the_state(self, kepler_radial_field, launch, prefix):
        segment = prefix.truncated(0.5 * (prefix._dense[-1][0] + prefix.t_end))
        assert segment._resume is prefix._resume
        traj = flow(kepler_radial_field, self.MU, *launch, self.T_END, prefix=segment)
        assert trajectory_bits(traj) == trajectory_bits(flow(kepler_radial_field, self.MU, *launch, self.T_END))
        assert traj._dense[19] is prefix._dense[19]

    @pytest.mark.parametrize("case", ["another field", "another mu", "a -0.0 start"])
    def test_another_flow_starts_at_the_launch(self, kepler_radial_field, launch, prefix, launches, case):
        assert prefix._resume is not None
        field, mu, (x, v) = kepler_radial_field, self.MU, launch
        if case == "another field":
            field = ForceField(base=field.base, perturbation=field.perturbation)
            assert field == kepler_radial_field and field is not kepler_radial_field
        elif case == "another mu":
            mu = math.nextafter(mu, 1.0)
        else:
            x, v = (x[0], -0.0), (-0.0, v[1])
        before = launches()
        traj = flow(field, mu, x, v, self.T_END, prefix=prefix)
        assert launches() == before + 1
        assert trajectory_bits(traj) == trajectory_bits(flow(field, mu, x, v, self.T_END))
        assert traj._dense[0] is not prefix._dense[0]

    def _stateless(self, kind, field, launch, prefix):
        """A trajectory that keeps no controller state, of each kind."""
        if kind == "capped first step":
            # The span's end shortens _initial_step's estimate.
            return flow(field, self.MU, *launch, 1e-4, stop=lambda step, y: True)
        if kind == "capped last step":
            return flow(field, self.MU, *launch, 1.0, stop=lambda step, y: step[0] + step[1] >= 1.0)
        if kind == "truncation dropping the last step":
            return prefix.truncated(prefix._dense[-1][0])
        return flow(field, self.MU, *launch, 3.0)  # without stop

    @pytest.mark.parametrize(
        "kind", ["capped first step", "capped last step", "truncation dropping the last step", "flow without stop"]
    )
    def test_prefix_without_state_starts_at_the_launch(self, kepler_radial_field, launch, prefix, launches, kind):
        prefix = self._stateless(kind, kepler_radial_field, launch, prefix)
        assert prefix._resume is None and prefix.n_steps > 0
        before = launches()
        traj = flow(kepler_radial_field, self.MU, *launch, self.T_END, prefix=prefix)
        assert launches() == before + 1
        assert trajectory_bits(traj) == trajectory_bits(flow(kepler_radial_field, self.MU, *launch, self.T_END))

    @pytest.mark.parametrize("where", ["before the prefix's end", "within a trial's reach", "steps below min_step"])
    def test_span_the_prefix_does_not_fit_starts_at_the_launch(self, kepler_radial_field, launch, prefix, launches, where):
        t_end = {
            "before the prefix's end": 0.5 * prefix.t_end,
            # The prefix's trials may have reached past t_end, which the
            # fresh flow would have capped.
            "within a trial's reach": prefix.t_end + 0.5 * prefix._dense[-1][1],
            # min_step = 1e-14 t_end = 1 exceeds every step: the fresh flow
            # underflows at t = 0, a continued one would at the prefix's end.
            "steps below min_step": 1e14,
        }[where]
        before = launches()
        got = _outcome(lambda: flow(kepler_radial_field, self.MU, *launch, t_end, prefix=prefix))
        assert launches() == before + 1
        assert got == _outcome(lambda: flow(kepler_radial_field, self.MU, *launch, t_end))

    def test_stop_and_prefix_are_not_taken_together(self, kepler_radial_field, launch, prefix):
        with pytest.raises(ValueError, match="not both"):
            flow(kepler_radial_field, self.MU, *launch, self.T_END, stop=lambda step, y: False, prefix=prefix)


class TestBisect:
    def test_stops_at_the_tolerance(self):
        a, b = _bisect(lambda m: m >= 0.3, 0.0, 1.0, 1e-3)
        # 2^-10 is the first halving of [0, 1] at or below 1e-3.
        assert b - a == 2.0**-10
        assert a < 0.3 <= b

    @pytest.mark.parametrize(
        "lo, hi, root",
        [(0.0, 1.0, 0.7), (0.0, 1.0, 1e-300), (1e-300, 3e-300, 2.2e-300), (1e6, 1e6 + 1.0, 1e6 + 0.3)],
    )
    def test_zero_tolerance_ends_at_adjacent_floats(self, lo, hi, root):
        a, b = _bisect(lambda m: m >= root, lo, hi)
        assert b == np.nextafter(a, np.inf)
        assert a < root <= b

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-1e6, 1e6),
        st.floats(1e-9, 1e3),
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, 1e-12, 1e-6, 0.1]),
    )
    def test_keeps_the_bracket_property(self, lo, width, where, tol):
        hi = lo + width
        root = lo + where * width

        def pred(m):
            return m >= root

        if pred(lo) or not pred(hi):
            return
        a, b = _bisect(pred, lo, hi, tol)
        assert lo <= a < b <= hi
        assert not pred(a) and pred(b)
        assert b - a <= tol or b == np.nextafter(a, np.inf)

    def test_terminates_when_the_midpoint_rounds_to_an_end(self):
        # Adjacent ends: no midpoint lies between them, and a tolerance below
        # their spacing cannot be met.
        calls = []
        a0, b0 = 1e6, np.nextafter(1e6, np.inf)
        assert _bisect(lambda m: calls.append(m) or True, a0, b0, 1e-300) == (a0, b0)
        assert not calls
        a, b = _bisect(lambda m: calls.append(m) or m >= 1e6 + 0.5, 1e6, 1e6 + 1.0, 1e-300)
        assert b == np.nextafter(a, np.inf) and len(calls) <= 40


def _poly(roots, scale):
    """Coefficients, constant first, of scale * prod(x - r)."""
    return [float(c) for c in np.polynomial.polynomial.polyfromroots(roots) * scale]


class TestPolynomialSignChanges:
    """section._roots against dense sampling: it finds every sign change the
    samples show and reports only points where the polynomial vanishes to
    rounding."""

    @staticmethod
    def _check(c, lo, hi):
        got = _roots(c, lo, hi)
        assert all(lo < x <= hi for x in got) and got == sorted(got)
        noise = 1e-12 * sum(abs(ck) for ck in c)
        assert all(abs(_horner(c, x)) <= noise for x in got)
        xs = np.linspace(lo, hi, 4001)
        samples = [(x, _horner(c, x)) for x in xs.tolist()]
        for a, b, _ in _sign_changes(samples):
            if min(abs(_horner(c, a)), abs(_horner(c, b))) > noise:
                assert any(a <= x <= b for x in got), (a, b, got)
        return got

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(-0.25, 1.25), st.sampled_from([1, 1, 1, 2])), min_size=1, max_size=7),
        st.floats(0.1, 10.0),
        st.sampled_from([-1.0, 1.0]),
        st.floats(0.0, 0.4),
        st.floats(0.6, 1.0),
    )
    def test_matches_dense_sampling(self, factors, scale, sign, lo, hi):
        roots = [r for r, k in factors for _ in range(k)][:7]
        distinct = sorted({r for r, _ in factors})
        assume(all(b - a >= 1e-3 for a, b in zip(distinct, distinct[1:])))
        self._check(_poly(roots, sign * scale), lo, hi)

    @pytest.mark.parametrize("degree", range(1, 8))
    def test_simple_roots_of_each_degree(self, degree):
        roots = [0.05 + 0.9 * j / degree for j in range(degree)]
        got = self._check(_poly(roots, 1.0), 0.0, 1.0)
        assert got == pytest.approx(roots, abs=1e-12)

    def test_two_roots_inside_one_grid_interval(self):
        # Both roots lie between the quarter points 0.5 and 0.75, where the
        # quartic has the same sign.
        c = _poly([0.55, 0.6, -0.5, 2.0], 1.0)
        assert _horner(c, 0.5) * _horner(c, 0.75) > 0.0
        assert self._check(c, 0.0, 1.0) == pytest.approx([0.55, 0.6], abs=1e-12)

    def test_bound_rules_out_a_root_without_search(self, monkeypatch):
        # |c0| = 1 > 0.3 + 0.4 + 0.2 rules out a root on [0, 1], so nothing is
        # bisected, not even the derivative's root at 2/3.
        calls, real_bisect = [], section._bisect
        monkeypatch.setattr(section, "_bisect", lambda *a, **k: calls.append(a[1:]) or real_bisect(*a, **k))
        assert _roots([1.0, 0.3, -0.4, 0.2], 0.0, 1.0) == []
        assert calls == []

    def test_root_at_the_ends(self):
        # Exact dyadic roots: p(0) and p(1) are exactly 0. A zero counts at the
        # end of the interval it is reached on, so hi is a sign change and lo
        # is not.
        c = _poly([0.0, 0.25, 1.0], 1.0)
        assert _horner(c, 0.0) == 0.0 and _horner(c, 1.0) == 0.0
        got = self._check(c, 0.0, 1.0)
        assert got == pytest.approx([0.25, 1.0], abs=1e-15)

    def test_double_root(self):
        # (x - 0.5)^2 touches zero without a sign change: only the simple root
        # is a change.
        c = _poly([0.5, 0.5, 0.25], 1.0)
        assert self._check(c, 0.0, 1.0) == pytest.approx([0.25], abs=1e-12)


class TestUnrolledPolynomial:
    """`_horner`, unrolled at the interpolant's full degree, against the loop
    it unrolls, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=8),
        st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-2.0, 2.0)),
    )
    def test_horner_equals_the_loop(self, c, th):
        ref = horner_loop(c, th)
        assert same_float(_horner(c, th), ref)
        assert same_float(_horner(tuple(c), th), ref)

    def test_full_degree_is_the_interpolant_degree(self):
        assert _P.shape[1] + 1 == 8


def test_starting_step_norm_sums_left_to_right():
    # math.fsum, as builtin sum() from Python 3.12 on, rounds this sum of
    # squares otherwise than adding left to right, and so does the norm's
    # square root: the starting step, and with it every step sequence, would
    # follow the Python version.
    values, scale = (1.3503119026502914, 0.22581729060973377, 0.5691774517297823, -1.2563749364211292), (1e-12,) * 4
    squares = [(c / s) ** 2 for c, s in zip(values, scale)]
    total = 0.0
    for q in squares:
        total += q
    assert math.sqrt(math.fsum(squares) / 4) != math.sqrt(total / 4)
    assert same_float(integrator._rms(values, scale), math.sqrt(total / 4))


class TestForceEvaluationCount:
    """A flow from its launch evaluates the force twice through
    ForceField.acceleration (a flow that continues a prefix, none), where
    a patched counter sees it (as the benchmark's tracer counts): the launch
    force and the starting-step probe. Every other evaluation is written out
    in its family's step kernel, 15 per accepted trial and 11 per trial the
    controller rejects, counted from the trials of the wrapped kernel. A flow
    without halved trials makes 2 + 15 per accepted trial + 11 per rejected
    one."""

    @pytest.fixture
    def counters(self, monkeypatch, trials):
        calls, accelerate = [0], ForceField.acceleration

        def counted(field, x, y, mu):
            calls[0] += 1
            return accelerate(field, x, y, mu)

        monkeypatch.setattr(ForceField, "acceleration", counted)
        return calls, trials

    @staticmethod
    def _split(trials):
        assert None not in trials  # no halved trial
        accepted = sum(t[1] is not None for t in trials)
        return accepted, len(trials) - accepted

    @pytest.mark.parametrize(
        "field_fixture, mu, v",
        [("kepler_field", 0.0, 1.05), ("kepler_radial_field", 0.07, 1.1), ("half_field_a3", 0.005, 0.98)],
    )
    def test_one_flow(self, request, counters, field_fixture, mu, v):
        # Every force evaluation, inline or not, multiplies by mu twice: a mu
        # that counts its products counts the evaluations.
        products = [0]

        class CountingMu(float):
            def __mul__(self, other):
                products[0] += 1
                return float.__mul__(self, other)

        calls, trials = counters
        field = request.getfixturevalue(field_fixture)
        try:
            flow(field, CountingMu(mu), (1.0, 0.0), (0.0, v), 7.0)
        except DomainExit:
            pass
        accepted, rejected = self._split(trials)
        assert accepted > 0 and calls[0] == 2
        assert products[0] == 2 * (2 + 15 * accepted + 11 * rejected)

    def test_sign_scan_grid(self, counters, quarter_problem_radial):
        # The benchmark's seed-0 miss-sign grid: 861 flows, each stopped at its
        # crossing, and the evaluation count of its traced run before the
        # stages were written into the step kernel.
        calls, trials = counters
        scan = zero_set_scan(quarter_problem_radial, np.linspace(0.9, 1.1, 41), np.linspace(0.0, 0.05, 21))
        assert np.all(scan.signs != 0)
        accepted, rejected = self._split(trials)
        assert (accepted, rejected) == (11424, 511)
        assert calls[0] == 861 * 2
        assert calls[0] + 15 * accepted + 11 * rejected == 178703
