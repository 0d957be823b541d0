import pytest

from symorbit import integrator, orbit
from symorbit import (
    ForceField,
    Mode,
    PowerLawParams,
    ShootingProblem,
    axis_poly_perturbation,
    radial_power_perturbation,
)


@pytest.fixture
def set_tolerance(monkeypatch):
    """Sets flow's relative and absolute error tolerances, both to one value,
    for the rest of the test."""

    def set_(tol):
        monkeypatch.setattr(integrator, "_RTOL", tol)
        monkeypatch.setattr(integrator, "_ATOL", tol)

    return set_


@pytest.fixture
def set_samples(monkeypatch):
    """Sets the sample intervals per period of every orbit built for the rest
    of the test."""

    def set_(n):
        monkeypatch.setattr(orbit, "_SAMPLES", n)

    return set_


@pytest.fixture
def trials(monkeypatch):
    """The result of every trial step flow takes, recorded by wrapping the
    step kernel that flow fetches for its field's family."""
    results, step_kernel = [], integrator._step_kernel

    def recorded_kernel(kind):
        step = step_kernel(kind)

        def recorded(*args):
            results.append(step(*args))
            return results[-1]

        return recorded

    monkeypatch.setattr(integrator, "_step_kernel", recorded_kernel)
    return results


@pytest.fixture(scope="session")
def kepler_params():
    return PowerLawParams(kappa=1.0, alpha=1.0)


@pytest.fixture(scope="session")
def kepler_field(kepler_params):
    return ForceField(base=kepler_params)


@pytest.fixture(scope="session")
def kepler_radial_field(kepler_params):
    # Central perturbation, both reflections: the fully symmetric test family.
    return ForceField(
        base=kepler_params, perturbation=radial_power_perturbation(lam=1.0, beta=3.0)
    )


@pytest.fixture(scope="session")
def x_only_perturbation():
    # Even power in x breaks the y-axis reflection, odd power in y keeps x-axis.
    return axis_poly_perturbation(cx=1.0, px=2, cy=1.0, py=3)


@pytest.fixture(scope="session")
def half_field_a05(x_only_perturbation):
    return ForceField(base=PowerLawParams(1.0, 0.5), perturbation=x_only_perturbation)


@pytest.fixture(scope="session")
def half_field_a3(x_only_perturbation):
    return ForceField(base=PowerLawParams(1.0, 3.0), perturbation=x_only_perturbation)


@pytest.fixture(scope="session")
def quarter_problem(kepler_field):
    return ShootingProblem(field=kepler_field, radius=1.0, mode=Mode.QUARTER)


@pytest.fixture(scope="session")
def quarter_problem_radial(kepler_radial_field):
    return ShootingProblem(field=kepler_radial_field, radius=1.0, mode=Mode.QUARTER)


@pytest.fixture(scope="session")
def half_problem_a05(half_field_a05):
    return ShootingProblem(field=half_field_a05, radius=1.0, mode=Mode.HALF)


@pytest.fixture(scope="session")
def half_problem_a3(half_field_a3):
    return ShootingProblem(field=half_field_a3, radius=1.0, mode=Mode.HALF, eta=0.04)
