import dataclasses
import functools
import math
import types

import numpy as np
import pytest

from symorbit import (
    BoundaryHypothesisFailure,
    Bracket,
    BracketFailure,
    DomainExit,
    ForceField,
    Mode,
    PowerLawParams,
    ShootingProblem,
    SectionSpec,
    SolverError,
    axis_poly_perturbation,
    bracket,
    continuation,
    extend_half,
    extend_quarter,
    miss,
    radial_power_perturbation,
    shooting,
    solve,
    solve_orbit,
    sweep,
    validate_orbit,
    write_curves_csv,
    zero_set_scan,
)

from symorbit import section as section_module

from oracles import half_mode_orbit_scipy, perturbed_radial_sigma, quarter_mode_orbit_scipy


class TestSweep:
    def test_single_point_grid(self, quarter_problem):
        curve = sweep(quarter_problem, [0.0])
        assert len(curve.entries) == 1
        assert curve.entries[0].sigma_star == pytest.approx(1.0, abs=1e-9)
        assert curve.empirical_delta0 == 0.0
        assert curve.connect_gap == 0.0
        assert curve.failure is None

    def test_radial_family_matches_central_oracle(self, quarter_problem_radial):
        grid = np.arange(0.0, 0.0301, 0.005)
        curve = sweep(quarter_problem_radial, grid)
        assert len(curve.entries) == len(grid)
        assert curve.failure is None
        for e in curve.entries:
            assert e.sigma_star == pytest.approx(
                perturbed_radial_sigma(e.mu, 1.0, 3.0, 1.0, 1.0, 1.0), abs=1e-9
            )
            assert e.diagnostics["closure_position"] < 1e-6
            assert e.diagnostics["valid"]
        assert curve.connect_gap < 0.02
        assert curve.empirical_delta0 == pytest.approx(0.03)

    def test_negative_direction(self, quarter_problem_radial):
        grid = -np.arange(0.0, 0.0201, 0.005)
        curve = sweep(quarter_problem_radial, grid)
        assert len(curve.entries) == len(grid)
        for e in curve.entries:
            assert e.sigma_star == pytest.approx(math.sqrt(1.0 + e.mu), abs=1e-9)

    def test_stress_truncates_and_records_delta0(self, kepler_params):
        # 100x perturbation strength: sigma*(mu) = sqrt(1 + 100 mu) leaves the
        # eta band almost immediately.
        strong = ForceField(
            base=kepler_params, perturbation=radial_power_perturbation(lam=100.0, beta=3.0)
        )
        problem = ShootingProblem(field=strong, radius=1.0, mode=Mode.QUARTER)
        curve = sweep(problem, np.arange(0.0, 0.0501, 0.005))
        assert curve.failure is not None
        assert curve.failure["error"] == "BracketFailure"
        assert len(curve.entries) < 11
        assert curve.empirical_delta0 < 0.05

    def test_grid_validation(self, quarter_problem_radial):
        with pytest.raises(ValueError):
            sweep(quarter_problem_radial, [0.01, 0.02])  # must start at 0
        with pytest.raises(ValueError):
            sweep(quarter_problem_radial, [0.0, 0.02, 0.01])  # not monotone
        with pytest.raises(ValueError):
            sweep(quarter_problem_radial, [0.0, 0.01, -0.02])  # mixed signs
        with pytest.raises(ValueError):
            sweep(quarter_problem_radial, [0.0, 0.8])  # beyond mu_range
        with pytest.raises(ValueError):
            sweep(quarter_problem_radial, [0.0, -0.5])  # mu_range is the open (-0.5, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_value_is_named(self, quarter_problem_radial, bad):
        # NaN used to be reported as a grid that changes sign.
        with pytest.raises(ValueError, match=rf"mu grid holds a non-finite value: \[{bad}\]"):
            sweep(quarter_problem_radial, [0.0, bad])

    def test_repeated_grid_value(self, quarter_problem_radial):
        curve = sweep(quarter_problem_radial, [0.0, 0.005, 0.005, 0.01])
        assert curve.failure is None
        for e in curve.entries:
            assert e.sigma_star == pytest.approx(math.sqrt(1.0 + e.mu), abs=1e-9)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tol_raises(self, quarter_problem_radial, tol):
        # A bad setting is the caller's error, not a failure of the orbit at mu = 0.
        with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
            sweep(quarter_problem_radial, [0.0, 0.005], tol=tol)

    def test_failed_validation_truncates(self, quarter_problem_radial, monkeypatch):
        real_validate = continuation.validate_orbit

        def validate(orbit, field, mu):
            if mu >= 0.01:
                return False, {"valid": False, "forced": True}
            return real_validate(orbit, field, mu)

        monkeypatch.setattr(continuation, "validate_orbit", validate)
        curve = sweep(quarter_problem_radial, [0.0, 0.005, 0.01, 0.015])
        assert [e.mu for e in curve.entries] == [0.0, 0.005]
        assert curve.failure == {"mu": 0.01, "error": "ValidationFailure", "diagnostics": {"valid": False, "forced": True}}
        assert curve.empirical_delta0 == 0.005

    def test_every_orbit_validated_with_n_samples(self, quarter_problem_radial, monkeypatch, set_samples):
        real_validate, counts = continuation.validate_orbit, []

        def validate(orbit, *args):
            counts.append(len(orbit.times) - 1)
            return real_validate(orbit, *args)

        monkeypatch.setattr(continuation, "validate_orbit", validate)
        set_samples(512)
        curve = sweep(quarter_problem_radial, [0.0, 0.005, 0.01])
        assert curve.failure is None
        assert counts == [512, 512, 512]

    def test_half_mode_sweep(self, half_problem_a05):
        curve = sweep(half_problem_a05, np.arange(0.0, 0.0201, 0.005))
        assert curve.failure is None
        for e in curve.entries:
            assert e.diagnostics["valid"]
            assert abs(e.sigma_star - 1.0) < half_problem_a05.eta


class TestSolveOrbit:
    @pytest.mark.parametrize("mode", ["quarter", "half"])
    def test_cold_solve_extend_validate(self, quarter_problem_radial, half_problem_a05, mode, set_samples):
        problem, extend = {
            "quarter": (quarter_problem_radial, extend_quarter),
            "half": (half_problem_a05, extend_half),
        }[mode]
        set_samples(512)
        solution, orbit, ok, diag = solve_orbit(problem, 0.01, 1e-10)
        expected = solve(problem, 0.01, tol=1e-10)
        assert solution.sigma_star == expected.sigma_star and solution.tau == expected.tau
        reference = extend(expected.segment, mu=0.01)
        assert len(orbit.times) == 513
        assert np.array_equal(orbit.times, reference.times)
        assert np.array_equal(orbit.positions, reference.positions)
        assert ok and diag == validate_orbit(reference, problem.field, 0.01)[1]

    def test_solves_on_the_given_bracket(self, quarter_problem_radial, set_samples):
        lo, hi = 0.98, 1.02
        br = Bracket(miss(quarter_problem_radial, lo, 0.01), miss(quarter_problem_radial, hi, 0.01))
        set_samples(256)
        solution, _, ok, _ = solve_orbit(quarter_problem_radial, 0.01, 1e-10, prebuilt=br)
        assert ok and lo < solution.sigma_star < hi
        assert solution.sigma_star == solve(quarter_problem_radial, 0.01, tol=1e-10, prebuilt=br).sigma_star

    @pytest.mark.parametrize(
        "problem_fixture, alpha, mu",
        [("half_problem_a05", 0.5, 0.02), ("half_problem_a05", 0.5, 0.04), ("half_problem_a3", 3.0, 0.005)],
    )
    def test_half_mode_sigma_star_and_period_match_scipy(self, request, problem_fixture, alpha, mu, set_samples):
        # An oracle independent of the package's integrator, event location,
        # root-finder and force evaluation (its right-hand side is written out
        # from kappa, alpha and the axis_poly constants of the fixtures).
        # Measured agreement: |d sigma*| 1.5e-13 - 3.4e-12, |d T| 1.0e-11 -
        # 3.4e-11; the bounds leave a margin of about 30.
        pytest.importorskip("scipy.integrate")
        pytest.importorskip("scipy.optimize")
        problem = request.getfixturevalue(problem_fixture)
        sigma_ref, period_ref = half_mode_orbit_scipy(1.0, alpha, 1.0, 2, 1.0, 3, mu, problem.eta)
        set_samples(256)
        solution, orbit, ok, _ = solve_orbit(problem, mu, 1e-10)
        assert ok
        assert abs(solution.sigma_star - sigma_ref) < 1e-10
        assert abs(orbit.period - period_ref) < 1e-9


class TestQuarterModeOffTheCircle:
    """Quarter mode on axis_poly fields symmetric about both axes, where the
    orbit is not a circle: the start state, the end conditions, the y-axis
    residual and the +-x0 crossings run on an orbit whose radius varies."""

    @staticmethod
    def problem(cx, px, cy, py):
        field = ForceField(base=PowerLawParams(1.0, 1.0), perturbation=axis_poly_perturbation(cx, px, cy, py))
        return ShootingProblem(field=field, radius=1.0, mode=Mode.QUARTER)

    @pytest.mark.parametrize("constants, mu", [((1.0, 3, 1.0, 3), 0.04), ((1.0, 3, 1.0, 3), 0.1), ((2.0, 1, 1.0, 3), 0.07)])
    def test_sigma_star_and_period_match_scipy(self, constants, mu, set_samples):
        # An oracle independent of the package's integrator, event location,
        # root-finder and force evaluation. Measured agreement: |d sigma*|
        # 4.7e-13 - 2.2e-11, |d T| 3.9e-12 - 6.9e-11; the radius varies by
        # 0.002 - 0.06 over the orbit.
        pytest.importorskip("scipy.integrate")
        pytest.importorskip("scipy.optimize")
        problem = self.problem(*constants)
        sigma_ref, period_ref = quarter_mode_orbit_scipy(1.0, 1.0, *constants, mu, problem.eta)
        set_samples(256)
        solution, orbit, ok, diag = solve_orbit(problem, mu, 1e-10)
        assert ok, diag
        assert abs(solution.sigma_star - sigma_ref) < 1e-10
        assert abs(orbit.period - period_ref) < 1e-9
        radii = np.hypot(*orbit.positions.T)
        assert np.ptp(radii) > 1e-3  # not a circle

    @pytest.mark.parametrize("constants", [(1.0, 3, 1.0, 3), (2.0, 1, 1.0, 3)])
    def test_every_cell_of_the_sweep_validates(self, constants):
        grid = np.linspace(0.0, 0.1, 11)
        curve = sweep(self.problem(*constants), grid)
        assert curve.failure is None and len(curve.entries) == len(grid)
        for e in curve.entries:
            assert e.diagnostics["valid"], e.mu
            assert e.diagnostics["crossings_ok"] and e.diagnostics["symmetry_residuals"]["y_axis"] < 1e-7


def test_curves_csv_sorts_on_mu_positive_curve_first(tmp_path):
    def curve(mus):
        entries = [continuation.CurveEntry(m, 1.0 + m, 6.0 + m, {"closure_position": 1e-12}) for m in mus]
        return continuation.ContinuationCurve(entries=entries)

    write_curves_csv(tmp_path / "s.csv", [curve([0.0, 0.5]), curve([0.0, -0.5])])
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines[0] == "mu,sigma_star,period,closure_residual"
    assert [l.split(",")[:2] for l in lines[1:]] == [["-0.5", "0.5"], ["0", "1"], ["0", "1"], ["0.5", "1.5"]]
    assert lines[2] == lines[3] == "0,1,6,9.9999999999999998e-13"


SOLVE_TOL = 1e-10


def family_grids(seed):
    """The acceptance sweep grids; another seed pulls every nonzero mu towards 0
    by the same random fraction (below half) of the grid step."""
    shift = 0.0 if seed == 0 else float(np.random.default_rng(seed).uniform(0.0, 0.5))
    grids = {
        "quarter": (np.arange(0.0, 0.1001, 0.005), 0.005),
        "half_a05": (np.linspace(0.0, 0.04, 9), 0.005),
        "half_a3": (np.linspace(0.0, 0.01, 9), 0.00125),
    }
    for grid, step in grids.values():
        grid[1:] -= shift * step
    return {key: grid for key, (grid, _) in grids.items()}


def warm_bracket_sweep(problem, grid, tol=SOLVE_TOL):
    """(sigma*, period) per mu from a sweep without a predictor: each bracket
    is tried at half-width eta/4 around the previous sigma*, then cold."""
    extend = extend_quarter if problem.mode is Mode.QUARTER else extend_half
    out, warm = [], None
    for mu in grid:
        mu = float(mu)
        br = None
        if warm is not None:
            lo, hi = warm - 0.25 * problem.eta, warm + 0.25 * problem.eta
            try:
                m_lo, m_hi = miss(problem, lo, mu), miss(problem, hi, mu)
            except (SolverError, ValueError):
                m_lo = m_hi = None
            if m_lo is not None and (m_lo.value < 0.0) != (m_hi.value < 0.0):
                br = Bracket(m_lo, m_hi)
        if br is None:
            br = bracket(problem, mu)
        sol = solve(problem, mu, tol=tol, prebuilt=br)
        out.append((sol.sigma_star, extend(sol.segment, mu=mu).period))
        warm = sol.sigma_star
    return out


@pytest.fixture(scope="module")
def family_sweeps(quarter_problem_radial, half_problem_a05, half_problem_a3):
    """seed -> family -> (problem, curve, miss evaluations), each seed swept once."""
    problems = {
        "quarter": quarter_problem_radial,
        "half_a05": half_problem_a05,
        "half_a3": half_problem_a3,
    }
    cache = {}

    def run(seed):
        if seed in cache:
            return cache[seed]
        calls, real_miss = [0], shooting.miss

        def counted(*args, **kwargs):
            calls[0] += 1
            return real_miss(*args, **kwargs)

        cache[seed] = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(shooting, "miss", counted)
            mp.setattr(continuation, "miss", counted)
            for key, grid in family_grids(seed).items():
                calls[0] = 0
                curve = sweep(problems[key], grid, tol=SOLVE_TOL)
                cache[seed][key] = (problems[key], curve, calls[0])
        return cache[seed]

    return run


class TestPredictorCorrector:
    def test_miss_count_ceiling(self, family_sweeps):
        # 268 evaluations with the warm bracket alone (quarter 128, alpha 0.5
        # 59, alpha 3 81); 146 with the predictor; 128 with the circle as the
        # first iterate at mu = 0 and inverse-quadratic steps.
        sweeps = family_sweeps(0)
        assert sum(calls for _, _, calls in sweeps.values()) <= 128

    @pytest.mark.parametrize("problem_name", ["quarter_problem_radial", "half_problem_a05", "half_problem_a3"])
    def test_mu_zero_cell_takes_three_misses(self, request, monkeypatch, problem_name):
        # The two bracket probes, then the circle, which solves mu = 0.
        calls, real_miss = [], shooting.miss
        monkeypatch.setattr(shooting, "miss", lambda *args: calls.append(args) or real_miss(*args))
        curve = sweep(request.getfixturevalue(problem_name), [0.0], tol=SOLVE_TOL)
        assert len(calls) == 3
        assert curve.entries[0].sigma_star == 1.0 and curve.entries[0].diagnostics["valid"]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_warm_bracket_sweep(self, family_sweeps, seed):
        grids = family_grids(seed)
        for key, (problem, curve, _) in family_sweeps(seed).items():
            assert curve.failure is None
            assert len(curve.entries) == len(grids[key])
            expected = warm_bracket_sweep(problem, grids[key])
            for e, (sigma, period) in zip(curve.entries, expected):
                assert e.diagnostics["valid"]
                assert abs(e.sigma_star - sigma) < 100 * SOLVE_TOL
                assert abs(e.period - period) < 1000 * SOLVE_TOL

    @pytest.mark.parametrize(
        "lam, entries, failure_mu",
        [(10.0, 9, 0.045), (20.0, 3, 0.015), (100.0, 1, 0.005)],
    )
    def test_stress_truncation_unchanged(self, kepler_params, lam, entries, failure_mu):
        # The predictor only reaches within eta/4 of the previous sigma*, and
        # the cold bracket decides the rest: the usable range ends where the
        # bracket around sigma = 1 loses the root.
        strong = ForceField(
            base=kepler_params, perturbation=radial_power_perturbation(lam=lam, beta=3.0)
        )
        problem = ShootingProblem(field=strong, radius=1.0, mode=Mode.QUARTER)
        curve = sweep(problem, np.arange(0.0, 0.0501, 0.005))
        assert len(curve.entries) == entries
        assert curve.failure["mu"] == pytest.approx(failure_mu, abs=1e-12)
        assert curve.failure["error"] == "BracketFailure"
        for e in curve.entries:
            assert e.sigma_star == pytest.approx(math.sqrt(1.0 + lam * e.mu), abs=1e-9)


def raise_domain_exit(real_miss):
    def miss(problem, sigma, mu):
        raise DomainExit("forced")

    return miss


def keep_one_sign(real_miss):
    def miss(problem, sigma, mu):
        m = real_miss(problem, sigma, mu)
        return dataclasses.replace(m, value=abs(m.value))

    return miss


def record_brackets(monkeypatch):
    """Patch the sweep's cold bracket to log (mu, raised) per call."""
    calls, real_bracket = [], continuation.bracket

    def logged(problem, mu):
        try:
            br = real_bracket(problem, mu)
        except BracketFailure:
            calls.append((mu, True))
            raise
        calls.append((mu, False))
        return br

    monkeypatch.setattr(continuation, "bracket", logged)
    return calls


class TestBracketFallbacks:
    @pytest.mark.parametrize("broken", [raise_domain_exit, keep_one_sign])
    def test_predicted_falls_back_to_cold(self, quarter_problem_radial, monkeypatch, broken):
        # The predictor's probes are the only misses the sweep makes itself.
        monkeypatch.setattr(continuation, "miss", broken(shooting.miss))
        calls = record_brackets(monkeypatch)
        curve = sweep(quarter_problem_radial, [0.0, 0.005, 0.01])
        assert calls == [(0.0, False), (0.005, False), (0.01, False)]
        for e in curve.entries:
            assert e.sigma_star == pytest.approx(math.sqrt(1.0 + e.mu), abs=1e-9)

    @pytest.mark.parametrize("broken", [raise_domain_exit, keep_one_sign])
    def test_cold_fallback_is_per_cell(self, quarter_problem_radial, monkeypatch, broken):
        # Only the prediction at mu = 0.005 fails; the cell it brackets cold
        # still feeds the predictor, which brackets the next cell.
        real_miss = shooting.miss
        broken_miss = broken(real_miss)

        def miss(problem, sigma, mu):
            return (broken_miss if mu == 0.005 else real_miss)(problem, sigma, mu)

        monkeypatch.setattr(continuation, "miss", miss)
        calls = record_brackets(monkeypatch)
        curve = sweep(quarter_problem_radial, [0.0, 0.005, 0.01])
        assert calls == [(0.0, False), (0.005, False)]
        assert curve.failure is None
        for e in curve.entries:
            assert e.sigma_star == pytest.approx(math.sqrt(1.0 + e.mu), abs=1e-9)

    def test_failing_cell_makes_four_misses(self, kepler_params, monkeypatch):
        # sigma*(mu) = sqrt(1 + 100 mu) leaves the eta band at mu = 0.005: one
        # predictor probe, then the cold bracket's probes fail at both widths.
        strong = ForceField(base=kepler_params, perturbation=radial_power_perturbation(lam=100.0, beta=3.0))
        problem = ShootingProblem(field=strong, radius=1.0, mode=Mode.QUARTER)
        mus, real_miss = [], shooting.miss

        def counted(problem, sigma, mu):
            mus.append(mu)
            return real_miss(problem, sigma, mu)

        # The predictor's misses, and the cold bracket's and solve's.
        monkeypatch.setattr(continuation, "miss", counted)
        monkeypatch.setattr(shooting, "miss", counted)
        curve = sweep(problem, [0.0, 0.005, 0.01])
        assert [e.mu for e in curve.entries] == [0.0]
        assert curve.failure.keys() == {"mu", "error", "message"}
        assert (curve.failure["mu"], curve.failure["error"]) == (0.005, "BracketFailure")
        assert curve.failure["message"].startswith(
            "no miss sign change around sigma=1.0 within half-width 0.1 at mu=0.005 "
            "(last evaluation error: orbit left annulus [0.5, 2.0]"
        )
        assert mus.count(0.005) == 4
        assert 0.01 not in mus

    def test_tiny_same_sign_probes_make_no_predicted_bracket(self, quarter_problem, monkeypatch):
        # Their product underflows to zero; the sign rule sees no change.
        miss, calls = stub_miss(value=lambda sigma, mu: 1e-200)
        monkeypatch.setattr(continuation, "miss", miss)
        # One node predicts sigma 1; the slope puts the second probe at 0.985.
        assert continuation._predicted_bracket(quarter_problem, 0.0, [(0.0, 1.0, 1e-198)]) is None
        assert [sigma for sigma, _, _ in calls] == [1.0, pytest.approx(0.985)]


class TestZeroSetScan:
    def test_band_through_central_roots(self, quarter_problem_radial):
        sigmas = np.linspace(0.9, 1.1, 21)
        mus = np.linspace(0.0, 0.04, 5)
        scan = zero_set_scan(quarter_problem_radial, sigmas, mus)
        assert scan.row_complete
        assert scan.component_count() == 1
        assert np.all(scan.signs[0, :] == -1)
        assert np.all(scan.signs[-1, :] == 1)
        # the sign change brackets the known root sqrt(1 + mu) in every column;
        # a root landing exactly on a grid point may own either adjacent cell
        for j, mu in enumerate(mus):
            root = perturbed_radial_sigma(mu, 1.0, 3.0, 1.0, 1.0, 1.0)
            cells = [i for (i, jj) in scan.change_cells if jj == j]
            assert len(cells) == 1
            i = cells[0]
            assert sigmas[i] - 1e-9 <= root <= sigmas[i + 1] + 1e-9

    def test_flipped_orientation_high_alpha(self, half_problem_a3):
        sigmas = np.linspace(0.98, 1.02, 9)
        mus = np.linspace(0.0, 0.002, 3)
        scan = zero_set_scan(half_problem_a3, sigmas, mus)
        assert np.all(scan.signs[0, :] == 1)
        assert np.all(scan.signs[-1, :] == -1)
        assert scan.row_complete

    def test_boundary_failure_when_band_escapes(self, quarter_problem_radial):
        # sigma* reaches 1.0247 at mu = 0.05; a sigma ceiling of 1.01 puts the
        # root outside the rectangle for large mu and breaks the uniform sign.
        sigmas = np.linspace(0.99, 1.01, 5)
        mus = np.linspace(0.0, 0.05, 5)
        with pytest.raises(BoundaryHypothesisFailure):
            zero_set_scan(quarter_problem_radial, sigmas, mus)

    def test_rejects_trivial_grids(self, quarter_problem_radial):
        with pytest.raises(ValueError):
            zero_set_scan(quarter_problem_radial, [1.0], [0.0])

    @pytest.mark.parametrize("mu", [0.6, math.nan])
    def test_mu_outside_the_field_range_is_named(self, quarter_problem_radial, mu):
        # Raised with miss's message before the first miss, where it used to
        # be a failed cell and then a BoundaryHypothesisFailure.
        with pytest.raises(ValueError, match=rf"mu={mu} outside the field's open mu range \(-0.5, 0.5\)"):
            zero_set_scan(quarter_problem_radial, np.linspace(0.9, 1.1, 5), [0.0, mu, 5.0])

    @pytest.mark.parametrize("seed", [0, 3])
    def test_benchmark_grid_is_one_band(self, quarter_problem_radial, seed):
        # The 41 x 21 sign-scan grid at seed 0 and shifted by a sub-cell
        # offset as at seed 3: one zero curve, one band.
        sigmas, mus = np.linspace(0.9, 1.1, 41), np.linspace(0.0, 0.05, 21)
        if seed:
            rng = np.random.default_rng(seed)
            sigmas = sigmas + float(rng.uniform(0.0, 1.0)) * (sigmas[1] - sigmas[0])
            mus = mus + float(rng.uniform(0.0, 1.0)) * (mus[1] - mus[0])
        scan = zero_set_scan(quarter_problem_radial, sigmas, mus)
        assert scan.row_complete and scan.component_count() == 1


def _curve_signs(rows: int, curves) -> np.ndarray:
    """Signs alternating from -1 across each curve, a curve being its row per
    mu column: the sign flips between that row and the one above."""
    signs = -np.ones((rows, len(curves[0])), dtype=int)
    for curve in curves:
        for j, i in enumerate(curve):
            signs[i + 1 :, j] *= -1
    return signs


class TestBands:
    def test_curve_climbing_two_rows_per_column_is_one_band(self):
        # 8-neighbourhood components of the change cells split this in five.
        change_cells, bands = continuation._bands(_curve_signs(12, [[0, 2, 4, 6, 8]]))
        assert change_cells == [(0, 0), (2, 1), (4, 2), (6, 3), (8, 4)]
        assert bands == [change_cells]

    def test_two_curves_are_two_bands(self):
        _, bands = continuation._bands(_curve_signs(12, [[1, 2, 3, 4], [6, 6, 7, 9]]))
        assert bands == [[(1, 0), (2, 1), (3, 2), (4, 3)], [(6, 0), (6, 1), (7, 2), (9, 3)]]

    def test_parallel_curves_a_row_apart_are_two_bands(self):
        # 8-neighbourhood components of the change cells join these in one.
        _, bands = continuation._bands(_curve_signs(8, [[2, 2, 2, 2], [3, 3, 3, 3]]))
        assert bands == [[(2, 0), (2, 1), (2, 2), (2, 3)], [(3, 0), (3, 1), (3, 2), (3, 3)]]

    def test_steep_curve_through_the_scan(self, quarter_problem_radial, monkeypatch):
        # sigma*(mu) = 1 + 10 mu climbs 2 rows of 0.01 per mu column of 0.002.
        miss, _ = stub_miss(value=lambda sigma, mu: sigma - (1.0 + 10.0 * mu))
        scan_with(monkeypatch, miss)
        scan = zero_set_scan(quarter_problem_radial, np.linspace(0.955, 1.105, 16), np.linspace(0.0, 0.01, 6))
        assert scan.row_complete and scan.component_count() == 1
        assert [i for i, _ in scan.change_cells] == [4, 6, 8, 10, 12, 14]


SCAN_SIGMAS = np.linspace(0.91, 1.11, 5)  # no sigma on sqrt(1 + mu)
SCAN_MUS = np.array([0.0, 0.02])


def stub_miss(failing=(), value=lambda sigma, mu: sigma - math.sqrt(1.0 + mu)):
    """A miss with the closed-form sign of the quarter radial family that
    raises DomainExit at the (sigma, mu) cells in `failing`, at every
    tolerance; logs each call as (sigma, mu, tol)."""
    calls = []

    def miss(problem, sigma, mu, tol=None):
        calls.append((sigma, mu, tol))
        if (sigma, mu) in failing:
            raise DomainExit("forced")
        return types.SimpleNamespace(value=value(sigma, mu))

    return miss, calls


def scan_with(monkeypatch, miss):
    """Make `miss` the scan's miss, each of its loose values certified: a cell
    takes one loose call, and a second, tight one only when the loose raises."""
    monkeypatch.setattr(continuation, "miss", miss)
    monkeypatch.setattr(continuation, "_certified", lambda problem, loose: True)


def tight_scan(problem, sigmas, mus):
    """The sign matrix of one default-tolerance miss per cell, 0 where it
    raises, and the first failed boundary cell's error."""
    signs, first = np.zeros((len(sigmas), len(mus)), dtype=int), None
    for i, sigma in enumerate(sigmas):
        for j, mu in enumerate(mus):
            try:
                signs[i, j] = np.sign(miss(problem, float(sigma), float(mu)).value)
            except SolverError as exc:
                if first is None and i in (0, len(sigmas) - 1):
                    first = exc
    return signs, first


def log_misses(monkeypatch):
    """The scan's misses from here on, as (sigma, mu, tol, the error's type
    name or None)."""
    calls = []

    def logged(problem, sigma, mu, tol=None):
        try:
            value = miss(problem, sigma, mu, tol)
        except SolverError as exc:
            calls.append((sigma, mu, tol, type(exc).__name__))
            raise
        calls.append((sigma, mu, tol, None))
        return value

    monkeypatch.setattr(continuation, "miss", logged)
    return calls


LOOSE = continuation._SCAN_TOL
REL = continuation._CERTIFY * continuation._SCAN_TOL  # the certification margin, relative


def kepler_quarter(annulus=(0.5, 2.0), delta=0.2) -> ShootingProblem:
    field = ForceField(base=PowerLawParams(1.0, 1.0), annulus=annulus)
    return ShootingProblem(field=field, radius=1.0, mode=Mode.QUARTER, delta=delta)


def loose_crossing(problem, sigma, mu):
    """The loose miss at (sigma, mu) and the state at its crossing."""
    value = miss(continuation._loose_problem(problem), sigma, mu, LOOSE)
    return value, value.trajectory.interpolate(value.t_star)


def _circle_cell(request, monkeypatch):
    # |miss| = 6.6e-14 at sigma = 1, mu = 0.
    problem = request.getfixturevalue("quarter_problem_radial")
    value, _ = loose_crossing(problem, 1.0, 0.0)
    assert abs(value.value) < REL * problem.circular_velocity
    return problem, [0.9, 1.0, 1.1], None, None


def _narrowed_annulus(request, monkeypatch):
    # At sigma = 1.05 the Kepler orbit crosses the y-axis at radius
    # sigma^2, its largest so far, 5e-5 inside r_out: inside the annulus,
    # outside the narrowed one.
    problem = kepler_quarter(annulus=(0.5, 1.05**2 * (1.0 + 0.5 * REL)))
    with pytest.raises(DomainExit):
        loose_crossing(problem, 1.05, 0.0)
    return problem, [0.95, 1.05, 1.02], "DomainExit", None


def _endpoint_band(request, monkeypatch):
    # The Kepler orbit at sigma crosses the y-axis at y = sigma^2, here 2e-5
    # above the segment's start 0.25: past the endpoint band 1e-6 * 3.75,
    # not past it by the margin.
    problem = kepler_quarter(annulus=(0.1, 2.0), delta=0.6)
    sigma = math.sqrt(0.25 + 2e-5)
    _, state = loose_crossing(problem, sigma, 0.0)
    section = problem.section
    band = section_module._END_BAND * section.length
    assert band < section.tangent_coord(state.position) < band + REL * section.length
    return problem, [0.9, sigma, 1.1], None, None


def _transversality_floor(request, monkeypatch):
    # A floor 5e-5 v0 below the normal speed 1 / sigma at the Kepler orbit's
    # crossing at sigma = 1.1, which the launches at 0.95 and 1.05 clear by more.
    floor = 1.0 / 1.1 - 0.5 * REL
    section = functools.partial(SectionSpec.positive_y_axis, transversality_floor=floor)
    monkeypatch.setattr(Mode.QUARTER, "section", lambda radius, transversality_floor: section(radius))
    problem = kepler_quarter()
    _, state = loose_crossing(problem, 1.1, 0.0)
    assert floor < abs(state.velocity[0]) < floor + REL * problem.circular_velocity
    return problem, [0.95, 1.1, 1.05], None, None


def _window_end(request, monkeypatch):
    # A window that ends 5e-5 of itself after the crossing at sigma = 1.1,
    # the latest of the three.
    t_star = miss(kepler_quarter(), 1.1, 0.0).t_star
    monkeypatch.setattr(shooting, "_window", lambda radius, v0: t_star / (1.0 - 0.5 * REL))
    problem = kepler_quarter()
    value, _ = loose_crossing(problem, 1.1, 0.0)
    assert (1.0 - REL) * problem.window < value.t_star < problem.window
    return problem, [0.95, 1.1, 1.05], None, None


def _grazing_step(request, monkeypatch):
    # At sigma = 1.1308 the loose flow's last node before its crossing step
    # lies 1.9e-4 off the y-axis, within the margin 3.75e-4.
    problem = request.getfixturevalue("quarter_problem_radial")
    value, _ = loose_crossing(problem, 1.1308, 0.0)
    x_left = value.trajectory._dense[-1][2][0]
    assert 0.0 < x_left < REL * problem.section.length
    return problem, [0.9, 1.1308, 1.1], None, None


def _loose_error(request, monkeypatch):
    # At alpha = 3 the launch at sigma = 0.964 leaves the annulus, loose and
    # tight: the cell is 0.
    return request.getfixturevalue("half_problem_a3"), [0.98, 0.964, 1.02], "DomainExit", "DomainExit"


class TestCertifiedScan:
    """The scan keeps a loose sign only when it is certified, and recomputes
    every other cell at the default tolerance: its sign matrix is the one of a
    default-tolerance miss per cell."""

    @pytest.mark.parametrize(
        "alpha, sigmas, mus, zeros",
        [
            # perfbench's seed-0 sign_scan grid
            (1.0, np.linspace(0.9, 1.1, 41), np.linspace(0.0, 0.05, 21), 0),
            # zero_set_heatmap.py's grids at alpha = 1.5 and 3
            (1.5, np.linspace(0.98, 1.02, 25), np.linspace(0.0, 0.02, 13), 0),
            (3.0, np.linspace(0.98, 1.02, 25), np.linspace(0.0, 0.02, 13), 0),
            # failed cells inside: the launch at sigma = 0.964 leaves the annulus at alpha = 3
            (3.0, [0.98, 0.964, 1.0, 1.02], [0.0, 0.002], 2),
        ],
    )
    def test_signs_equal_the_default_tolerance_loop(
        self, quarter_problem_radial, x_only_perturbation, alpha, sigmas, mus, zeros
    ):
        problem = quarter_problem_radial
        if alpha != 1.0:
            field = ForceField(base=PowerLawParams(1.0, alpha), perturbation=x_only_perturbation)
            problem = ShootingProblem(field=field, radius=1.0, mode=Mode.HALF, eta=0.04)
        scan = zero_set_scan(problem, sigmas, mus)
        signs, _ = tight_scan(problem, sigmas, mus)
        assert np.array_equal(scan.signs, signs)
        assert np.count_nonzero(signs == 0) == zeros

    def test_refusal_names_the_default_tolerance_error(self, half_problem_a3):
        # Every launch at sigma = 0.964 and 1.036 leaves the annulus: the
        # failed cell's message names the annulus itself, not the loose
        # flow's narrowed one.
        sigmas, mus = np.linspace(0.964, 1.036, 5), np.linspace(0.0, 0.005, 3)
        with pytest.raises(BoundaryHypothesisFailure) as err:
            zero_set_scan(half_problem_a3, sigmas, mus)
        _, first = tight_scan(half_problem_a3, sigmas, mus)
        assert str(err.value.__cause__) == str(first)
        assert str(err.value).endswith(f"first failed cell sigma=0.964, mu=0.0: DomainExit: {first}")
        assert "[0.5, 2.0]" in str(first)

    def test_annulus_too_thin_to_narrow(self, monkeypatch):
        # Narrowed by REL at both ends, an annulus 1 + REL wide is empty: the
        # scan evaluates every cell at the default tolerance only.
        calls = log_misses(monkeypatch)
        with pytest.raises(BoundaryHypothesisFailure):
            zero_set_scan(kepler_quarter(annulus=(1.0, 1.0 + REL)), [0.9, 1.1], [0.0])
        assert [tol for *_, tol, _ in calls] == [None, None]

    def test_loose_miss_keeps_79x_of_the_margin(self, half_problem_a3):
        # At sigma = 0.966, mu = 0.004 on the half alpha = 3 family the launch
        # nearly leaves the annulus and the tangent speed changes fast at the
        # crossing: a t* bisected only to LOOSE windows moves the loose miss
        # 27 LOOSE v0 off the default one, which leaves the margin only 37x
        # over it. Bisected a decade finer it moves it 3.3.
        problem = half_problem_a3
        loose = miss(continuation._loose_problem(problem), 0.966, 0.004, LOOSE)
        tight = miss(problem, 0.966, 0.004)
        assert abs(loose.value - tight.value) < REL * problem.circular_velocity / 79

    def test_certification_reads_the_scan_record(self, quarter_problem_radial, monkeypatch):
        # A loose miss and its certification form each step's normal
        # polynomial once and the state at the crossing once: the
        # certification reads what the section scan recorded.
        calls = dict.fromkeys(["_normal_terms", "_step_eval"], 0)
        for name in calls:

            def counted(*args, name=name, original=getattr(section_module, name)):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(section_module, name, counted)
        problem = quarter_problem_radial
        value = miss(continuation._loose_problem(problem), 0.95, 0.02, LOOSE)
        assert continuation._certified(problem, value)
        assert calls == {"_normal_terms": value.trajectory.n_steps, "_step_eval": 1}

    @pytest.mark.parametrize(
        "path",
        [
            _circle_cell,
            _narrowed_annulus,
            _endpoint_band,
            _transversality_floor,
            _window_end,
            _grazing_step,
            _loose_error,
        ],
    )
    def test_uncertified_cell_is_recomputed(self, request, monkeypatch, path):
        # The path's cell, the middle sigma, is evaluated loose and then at
        # the default tolerance; the other two once each, loose. A path
        # returns its problem, sigmas and the cell's loose and tight errors.
        problem, sigmas, loose_error, error = path(request, monkeypatch)
        calls = log_misses(monkeypatch)
        scan = zero_set_scan(problem, sigmas, [0.0])
        sigma = sigmas[1]
        assert calls == [
            (sigmas[0], 0.0, LOOSE, None),
            (sigma, 0.0, LOOSE, loose_error),
            (sigma, 0.0, None, error),
            (sigmas[2], 0.0, LOOSE, None),
        ]
        assert scan.signs[:, 0].tolist() == tight_scan(problem, sigmas, [0.0])[0][:, 0].tolist()
        assert (scan.signs[1, 0] == 0) == (error is not None)


class TestZeroSetScanFailures:
    @pytest.mark.parametrize(
        "sigma, mu, message",
        [
            (1.3, 0.0, r"sigma=1.3 outside \(1-delta, 1\+delta\)"),
            (math.nan, 0.0, r"sigma=nan outside \(1-delta, 1\+delta\)"),
            (1.0, 0.6, r"mu=0.6 outside the field's open mu range \(-0.5, 0.5\)"),
            (1.0, math.nan, r"mu=nan outside the field's open mu range \(-0.5, 0.5\)"),
        ],
    )
    def test_grids_checked_before_the_first_miss(self, quarter_problem_radial, monkeypatch, sigma, mu, message):
        # The bad value is the last sigma, or the last mu, of a 41 x 21 grid.
        calls = []
        monkeypatch.setattr(continuation, "miss", lambda *a: calls.append(a) or miss(*a))
        sigmas = np.append(np.linspace(0.9, 1.1, 40), sigma)
        mus = np.append(np.linspace(0.0, 0.05, 20), mu)
        with pytest.raises(ValueError, match=message):
            zero_set_scan(quarter_problem_radial, sigmas, mus)
        assert calls == []

    def test_failed_cell_is_zero_and_the_scan_continues(self, quarter_problem_radial, monkeypatch):
        miss, calls = stub_miss(failing={(SCAN_SIGMAS[2], SCAN_MUS[1])})
        scan_with(monkeypatch, miss)
        scan = zero_set_scan(quarter_problem_radial, SCAN_SIGMAS, SCAN_MUS)
        # The failed cell is tried twice, loose and then at the default tolerance.
        assert len(calls) == SCAN_SIGMAS.size * SCAN_MUS.size + 1
        assert calls[5:7] == [(SCAN_SIGMAS[2], SCAN_MUS[1], LOOSE), (SCAN_SIGMAS[2], SCAN_MUS[1], None)]
        assert all(tol == LOOSE for *_, tol in calls[:5] + calls[7:])
        expected = np.sign(SCAN_SIGMAS[:, None] - np.sqrt(1.0 + SCAN_MUS[None, :])).astype(int)
        expected[2, 1] = 0
        assert np.array_equal(scan.signs, expected)
        # A failed cell borders no sign-change cell, so its mu row has none.
        assert scan.change_cells == [(1, 0)]
        assert not scan.row_complete

    def test_failed_cell_on_a_sigma_boundary(self, quarter_problem_radial, monkeypatch):
        # One rule, one message: both rows, and the failed boundary cell with
        # its error, chained as the cause.
        miss, _ = stub_miss(failing={(SCAN_SIGMAS[-1], SCAN_MUS[1])})
        scan_with(monkeypatch, miss)
        with pytest.raises(BoundaryHypothesisFailure) as err:
            zero_set_scan(quarter_problem_radial, SCAN_SIGMAS, SCAN_MUS)
        assert str(err.value) == (
            "sigma boundary rows need one nonzero sign each, the two opposite: "
            "sigma=0.91 row [-1, -1], sigma=1.11 row [1, 0]; "
            "first failed cell sigma=1.11, mu=0.02: DomainExit: forced"
        )
        cause = err.value.__cause__
        assert type(cause) is DomainExit and str(cause) == "forced"

    def test_equal_boundary_signs(self, quarter_problem_radial, monkeypatch):
        miss, _ = stub_miss(value=lambda sigma, mu: 1.0)
        scan_with(monkeypatch, miss)
        with pytest.raises(BoundaryHypothesisFailure) as err:
            zero_set_scan(quarter_problem_radial, SCAN_SIGMAS, SCAN_MUS)
        assert str(err.value) == (
            "sigma boundary rows need one nonzero sign each, the two opposite: "
            "sigma=0.91 row [1, 1], sigma=1.11 row [1, 1]"
        )
        assert err.value.__cause__ is None
