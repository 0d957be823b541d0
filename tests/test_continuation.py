import math

import numpy as np
import pytest

from symorbit import (
    BoundaryHypothesisFailure,
    ForceField,
    Mode,
    ShootingProblem,
    radial_power_perturbation,
    sweep,
    zero_set_scan,
)

from oracles import perturbed_radial_sigma


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
            assert e.closure_residual < 1e-6
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

    def test_half_mode_sweep(self, half_problem_a05):
        curve = sweep(half_problem_a05, np.arange(0.0, 0.0201, 0.005))
        assert curve.failure is None
        for e in curve.entries:
            assert e.diagnostics["valid"]
            assert abs(e.sigma_star - 1.0) < half_problem_a05.eta


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
