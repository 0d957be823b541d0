import dataclasses
import functools
import linecache
import math
import pickle
import traceback

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from symorbit import (
    ForceField,
    Mode,
    PerturbationSpec,
    PowerLawParams,
    Reflection,
    ShootingProblem,
    SymmetryViolation,
    axis_poly_perturbation,
    check_symmetry,
    circular_speed,
    potential,
    potential_derivatives,
    radial_power_perturbation,
)

from oracles import acceleration_by_term, same_float, symmetry_residuals_numpy


def force(field, p, mu):
    return np.array(field.acceleration(float(p[0]), float(p[1]), mu))


def perturbed(spec, kappa=1.0, alpha=1.0):
    return ForceField(base=PowerLawParams(kappa, alpha), perturbation=spec)


class TestEvalForce:
    """The force law as `ForceField.acceleration` evaluates it."""

    def test_kepler_unit_circle(self, kepler_field):
        assert np.allclose(force(kepler_field, (1.0, 0.0), 0.0), [-1.0, 0.0])

    def test_power_law_formula_alpha0(self):
        # -kappa r / |r|^2 at (2, 0): magnitude kappa/|r| = 1/2
        f = ForceField(base=PowerLawParams(1.0, 0.0))
        assert np.allclose(force(f, (2.0, 0.0), 0.0), [-0.25 * 2.0, 0.0])

    def test_power_law_formula_alpha1(self):
        f = ForceField(base=PowerLawParams(1.0, 1.0))
        assert np.allclose(force(f, (2.0, 0.0), 0.0), [-0.25, 0.0])

    def test_radial_perturbation_hand_sum(self, kepler_radial_field):
        # -r/|r|^3 - 0.1 r/|r|^5 at unit radius
        got = force(kepler_radial_field, (1.0, 0.0), 0.1)
        assert np.allclose(got, [-1.1, 0.0], atol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0.1, 10.0),
        st.floats(0.0, 3.0),
        st.floats(0.55, 1.95),
        st.floats(0.0, 2 * math.pi),
    )
    def test_matches_power_law_everywhere(self, kappa, alpha, r, angle):
        f = ForceField(base=PowerLawParams(kappa, alpha))
        p = np.array([r * math.cos(angle), r * math.sin(angle)])
        expected = -kappa * p / r ** (alpha + 2.0)
        assert np.allclose(force(f, p, 0.0), expected, rtol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.1, 5.0), st.floats(0.05, 2.5), st.floats(0.6, 1.9))
    def test_gradient_consistency(self, kappa, alpha, r):
        # Force equals -grad U along the radial direction, via central differences.
        params = PowerLawParams(kappa, alpha)
        f = ForceField(base=params)
        h = 1e-5
        dU = (potential(params, r + h) - potential(params, r - h)) / (2 * h)
        got = force(f, (r, 0.0), 0.0)
        assert got[1] == 0.0
        assert got[0] == pytest.approx(-dU, rel=1e-6)


class TestPotential:
    def test_values(self):
        assert potential(PowerLawParams(1.0, 1.0), 2.0) == pytest.approx(-0.5)
        assert potential(PowerLawParams(1.0, 0.0), 1.0) == 0.0
        assert potential(PowerLawParams(2.0, 2.0), 2.0) == pytest.approx(-0.25)

    def test_derivatives(self):
        assert potential_derivatives(PowerLawParams(1.0, 1.0), 1.0) == pytest.approx((1.0, -2.0))
        assert potential_derivatives(PowerLawParams(1.0, 0.0), 2.0) == pytest.approx((0.5, -0.25))

    def test_derivatives_decay(self):
        params = PowerLawParams(1.0, 1.0)
        rs = [1.0, 10.0, 100.0, 1000.0]
        u1s = [potential_derivatives(params, r)[0] for r in rs]
        u2s = [abs(potential_derivatives(params, r)[1]) for r in rs]
        assert all(a > b for a, b in zip(u1s, u1s[1:]))
        assert all(a > b for a, b in zip(u2s, u2s[1:]))
        assert u1s[-1] < 1e-5 and u2s[-1] < 1e-8

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.1, 10.0), st.floats(0.05, 3.0), st.floats(0.1, 10.0))
    def test_derivative_matches_finite_difference(self, kappa, alpha, r):
        params = PowerLawParams(kappa, alpha)
        u1, u2 = potential_derivatives(params, r)
        h1 = 1e-6 * r
        fd1 = (potential(params, r + h1) - potential(params, r - h1)) / (2 * h1)
        # Second differences need a larger step to stay above round-off.
        h2 = 1e-4 * r
        fd2 = (potential(params, r + h2) - 2 * potential(params, r) + potential(params, r - h2)) / h2**2
        assert u1 == pytest.approx(fd1, rel=1e-7)
        assert u2 == pytest.approx(fd2, rel=1e-4, abs=1e-8)


class TestCircularSpeed:
    def test_values(self):
        assert circular_speed(PowerLawParams(1.0, 1.0), 1.0) == pytest.approx(1.0)
        assert circular_speed(PowerLawParams(4.0, 0.0), 3.7) == pytest.approx(2.0)
        assert circular_speed(PowerLawParams(1.0, 2.0), 2.0) == pytest.approx(0.5)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.1, 10.0), st.floats(0.0, 3.0), st.floats(0.1, 10.0))
    def test_definition(self, kappa, alpha, p):
        params = PowerLawParams(kappa, alpha)
        v = circular_speed(params, p)
        u1, _ = potential_derivatives(params, p)
        assert v * v == pytest.approx(p * u1, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    def test_alpha0_independent_of_radius(self, kappa, p1, p2):
        params = PowerLawParams(kappa, 0.0)
        assert circular_speed(params, p1) == pytest.approx(circular_speed(params, p2))


class TestNonFiniteRadius:
    @pytest.mark.parametrize("r", [math.nan, -1.0, 0.0])
    def test_potential_and_derivatives_refuse(self, r):
        params = PowerLawParams(1.0, 0.5)
        with pytest.raises(ValueError, match="^potential requires r > 0"):
            potential(params, r)
        with pytest.raises(ValueError, match="^potential_derivatives requires r > 0"):
            potential_derivatives(params, r)

    @pytest.mark.parametrize("p", [math.nan, math.inf, 0.0])
    def test_circular_speed_refuses(self, p):
        with pytest.raises(ValueError, match="^circular_speed requires a finite p > 0"):
            circular_speed(PowerLawParams(1.0, 0.5), p)


class TestParamsValidation:
    def test_kappa_positive(self):
        with pytest.raises(ValueError):
            PowerLawParams(kappa=0.0, alpha=1.0)
        with pytest.raises(ValueError):
            PowerLawParams(kappa=-1.0, alpha=1.0)

    def test_alpha_nonnegative(self):
        with pytest.raises(ValueError):
            PowerLawParams(kappa=1.0, alpha=-0.5)

    @pytest.mark.parametrize("kappa, alpha", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_rejected(self, kappa, alpha):
        # 1.0 ** nan == 1.0: a NaN exponent would not show in the circular speed at r = 1.
        with pytest.raises(ValueError, match="must be a finite"):
            PowerLawParams(kappa, alpha)

    def test_annulus_excludes_origin(self):
        with pytest.raises(ValueError):
            ForceField(base=PowerLawParams(1.0, 1.0), annulus=(0.0, 2.0))
        with pytest.raises(ValueError):
            ForceField(base=PowerLawParams(1.0, 1.0), annulus=(2.0, 1.0))

    @pytest.mark.parametrize("mu_range", [0.0, math.nan])
    def test_mu_range_positive(self, mu_range):
        with pytest.raises(ValueError, match="^mu_range half-width must be positive$"):
            ForceField(base=PowerLawParams(1.0, 1.0), mu_range=mu_range)

    def test_unknown_perturbation_kind(self):
        with pytest.raises(ValueError):
            PerturbationSpec(kind="magnetic")


class TestPerturbationSpec:
    @pytest.mark.parametrize(
        "kind, params",
        [
            ("radial_power", {"lam": 0.5, "beta": 2.0}),
            ("axis_poly", {"cx": 1.0, "px": 2, "cy": -0.5, "py": 3}),
            pytest.param("axis_poly", {"cx": 0.25, "px": 0, "cy": -0.1, "py": 0}, id="uniform-params2"),
        ],
    )
    def test_later_mutation_of_params_changes_nothing(self, kind, params):
        spec = PerturbationSpec(kind=kind, params=params)
        before = perturbed(spec).acceleration(1.1, -0.7, 0.3)
        for key in list(params):
            params[key] = 7
        assert perturbed(spec).acceleration(1.1, -0.7, 0.3) == before
        assert spec.params != params

    def test_term_values(self):
        # The mu-scaled part of the force, through the field: at mu = 1 the
        # force is the unperturbed one (mu = 0) plus the term, exactly, since
        # s*x + 0.0 + t rounds as s*x + t.
        def unperturbed_plus(x, y, term):
            z = perturbed(PerturbationSpec()).acceleration(x, y, 0.0)
            return z[0] + term[0], z[1] + term[1]

        radial = radial_power_perturbation(lam=0.5, beta=2.0)
        r = math.hypot(1.1, -0.7)
        assert perturbed(radial).acceleration(1.1, -0.7, 1.0) == pytest.approx(
            unperturbed_plus(1.1, -0.7, (-0.5 * 1.1 / r**4, 0.5 * 0.7 / r**4))
        )
        poly = axis_poly_perturbation(cx=2.0, px=2, cy=-1.0, py=3)
        assert perturbed(poly).acceleration(1.5, -0.5, 1.0) == unperturbed_plus(1.5, -0.5, (2.0 * 1.5**2, 0.125))
        assert perturbed(PerturbationSpec()).acceleration(1.0, 1.0, 1.0) == unperturbed_plus(1.0, 1.0, (0.0, 0.0))
        constant = axis_poly_perturbation(cx=0.25, px=0, cy=-0.1, py=0)
        for x, y in ((0.0, -3.0), (1.5, 2.0)):  # the same push everywhere, bit for bit
            assert perturbed(constant).acceleration(x, y, 1.0) == unperturbed_plus(x, y, (0.25, -0.1))

    @pytest.mark.parametrize(
        "kind, params, key",
        [
            ("axis_poly", {"px": math.inf}, "px"),
            ("axis_poly", {"py": math.nan}, "py"),
            ("axis_poly", {"px": 2.5}, "px"),
            ("axis_poly", {"py": -1}, "py"),
            ("axis_poly", {"cx": math.inf}, "cx"),
            ("radial_power", {"bogus": 1.0}, "bogus"),
            ("radial_power", {"lam": math.nan}, "lam"),
            pytest.param("axis_poly", {"cy": -math.inf, "px": 0, "py": 0}, "cy", id="uniform-params7-cy"),
            ("zero", {"lam": 1.0}, "lam"),
        ],
    )
    def test_bad_constant_is_a_value_error_naming_the_key(self, kind, params, key):
        with pytest.raises(ValueError, match=f"\\b{key}\\b"):
            PerturbationSpec(kind=kind, params=params)

    def test_integral_float_exponent_is_the_integer(self):
        spec = PerturbationSpec(kind="axis_poly", params={"cx": 2.0, "px": 2.0, "cy": -1.0, "py": 3.0})
        integral = axis_poly_perturbation(cx=2.0, px=2, cy=-1.0, py=3)
        assert perturbed(spec).acceleration(1.5, -0.5, 0.3) == perturbed(integral).acceleration(1.5, -0.5, 0.3)

    def test_pickle_round_trip(self, kepler_radial_field):
        import pickle

        copy = pickle.loads(pickle.dumps(kepler_radial_field))
        assert copy == kepler_radial_field
        assert copy.acceleration(1.2, 0.4, 0.1) == kepler_radial_field.acceleration(1.2, 0.4, 0.1)

    def test_hash_agrees_with_equality(self):
        # Fields built apart with equal params hash equal, so a field serves
        # as a dict key and a cache argument; fields whose params differ
        # still compare unequal.
        a = perturbed(radial_power_perturbation(lam=0.5, beta=2.0))
        b = perturbed(PerturbationSpec("radial_power", {"lam": 0.5, "beta": 2}, frozenset(Reflection)))
        c = perturbed(radial_power_perturbation(lam=0.25, beta=2.0))
        assert a == b and hash(a) == hash(b)
        assert a != c and a.perturbation != c.perturbation
        assert {a: "a", c: "c"}[b] == "a"
        calls = []

        @functools.cache
        def force_at(field):
            calls.append(field)
            return field.acceleration(1.2, 0.4, 0.1)

        assert force_at(a) == force_at(b) != force_at(c)
        assert calls == [a, c]
        assert hash(ShootingProblem(a, 1.0, Mode.QUARTER)) == hash(ShootingProblem(b, 1.0, Mode.QUARTER))


def _outcome(accel, x, y, mu):
    """The force's two components, or the type of the error it raised."""
    try:
        return accel(x, y, mu)
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc)


_COORD = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0), st.floats(-1e-150, 1e-150))
_MU = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0))
_FAMILY = st.one_of(
    st.tuples(st.just("zero"), st.just(())),
    st.tuples(st.just("radial_power"), st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 4.0))),
    st.tuples(
        st.just("axis_poly"),
        st.tuples(st.floats(-2.0, 2.0), st.integers(0, 5), st.floats(-2.0, 2.0), st.integers(0, 5)),
    ),
)
_NAMES = {"zero": (), "radial_power": ("lam", "beta"), "axis_poly": ("cx", "px", "cy", "py")}


class TestFieldKernel:
    """Each field's one closure against the force as it was evaluated before:
    the base power law plus mu times a partial over the family's term."""

    @settings(max_examples=400, deadline=None)
    @given(st.floats(0.1, 10.0), st.floats(0.0, 4.0), _FAMILY, _COORD, _COORD, _MU)
    def test_equals_the_term_formula_bit_for_bit(self, kappa, alpha, family, x, y, mu):
        kind, constants = family
        spec = PerturbationSpec(kind=kind, params=dict(zip(_NAMES[kind], constants)))
        field = ForceField(base=PowerLawParams(kappa, alpha), perturbation=spec)
        got = _outcome(field.acceleration, x, y, mu)
        ref = _outcome(lambda *p: acceleration_by_term(kappa, alpha, kind, constants, *p), x, y, mu)
        if isinstance(ref, type):
            assert got is ref
        else:
            assert all(same_float(a, b) for a, b in zip(got, ref)), (got, ref)

    def test_inside_and_outside_the_annulus_on_the_axes(self, half_field_a05):
        # Signed zeros of x, y and mu, at radii 0.3 (inside r_in) to 3 (past r_out).
        kappa, alpha = half_field_a05.base.kappa, half_field_a05.base.alpha
        for r in (0.3, 1.0, 3.0):
            for x, y in ((r, 0.0), (r, -0.0), (-r, 0.0), (0.0, r), (-0.0, -r)):
                for mu in (0.0, -0.0, -0.02, 0.04):
                    got = half_field_a05.acceleration(x, y, mu)
                    ref = acceleration_by_term(kappa, alpha, "axis_poly", (1.0, 2, 1.0, 3), x, y, mu)
                    assert all(same_float(a, b) for a, b in zip(got, ref)), (x, y, mu)

    def test_pickle_and_replace_give_a_working_kernel(self, kepler_radial_field):
        other = axis_poly_perturbation(cx=1.0, px=2, cy=1.0, py=3)
        replaced = dataclasses.replace(kepler_radial_field, perturbation=other)
        expected = acceleration_by_term(1.0, 1.0, "axis_poly", (1.0, 2, 1.0, 3), 1.2, 0.4, 0.1)
        assert replaced.acceleration(1.2, 0.4, 0.1) == expected
        assert pickle.loads(pickle.dumps(replaced)).acceleration(1.2, 0.4, 0.1) == expected
        rebased = dataclasses.replace(replaced, base=PowerLawParams(2.0, 0.5))
        assert rebased.acceleration(1.2, 0.4, 0.1) == acceleration_by_term(
            2.0, 0.5, "axis_poly", (1.0, 2, 1.0, 3), 1.2, 0.4, 0.1
        )

    def test_generated_force_line_shows_in_tracebacks(self, kepler_radial_field):
        # r ** a2 overflows at r = 1e200 (a2 = 3): after linecache.checkcache()
        # the traceback shows the base law's line of the family's `force`.
        with pytest.raises(OverflowError) as info:
            kepler_radial_field.acceleration(1e200, 0.0, 0.1)
        linecache.checkcache()
        frame = traceback.extract_tb(info.value.__traceback__)[-1]
        assert (frame.filename, frame.name) == ("<symorbit.forcefield: the radial_power force>", "force")
        assert frame.line == "s = neg_kappa / r ** a2"

    def test_a_field_keeps_only_its_constants(self, kepler_radial_field):
        # -kappa, alpha + 2, -lam, beta + 2: the tuple the step kernel reads.
        assert kepler_radial_field._force_constants == (-1.0, 3.0, -1.0, 5.0)
        assert [f.name for f in dataclasses.fields(ForceField) if not f.init] == ["_force_constants"]
        assert "__reduce__" not in vars(ForceField)


def reflected(refl, p):
    """p, a pair of floats, reflected by refl's signs."""
    sx, sy = refl.signs
    return np.array([sx * p[0], sy * p[1]])


class TestReflection:
    @given(st.floats(allow_nan=False), st.floats(allow_nan=False))
    @example(0.0, -0.0)
    @example(-0.0, 0.0)
    def test_signs_reflect_as_negating_one_coordinate(self, x, y):
        # X_AXIS maps (x, y) to (x, -y), Y_AXIS to (-x, y): multiplying by the
        # signs gives those floats, signed zeros and infinities included.
        for refl, expected in ((Reflection.X_AXIS, (x, -y)), (Reflection.Y_AXIS, (-x, y))):
            sx, sy = refl.signs
            assert same_float(sx * x, expected[0]) and same_float(sy * y, expected[1])

    def test_values_name_the_reflections(self):
        assert [(r.value, r.signs) for r in Reflection] == [("x_axis", (1.0, -1.0)), ("y_axis", (-1.0, 1.0))]
        assert Reflection("y_axis") is Reflection.Y_AXIS


class TestSymmetry:
    def test_pure_kepler_both_reflections(self, kepler_field):
        residuals = check_symmetry(kepler_field, 0.0)
        assert set(residuals) == {Reflection.X_AXIS, Reflection.Y_AXIS}
        assert all(v <= 1e-14 for v in residuals.values())

    def test_radial_perturbation_equivariant(self, kepler_radial_field):
        residuals = check_symmetry(kepler_radial_field, 0.5)
        assert all(v <= 1e-14 for v in residuals.values())

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_non_finite_mu_rejected(self, mu):
        # A NaN force difference would drop out of max() and pass silently.
        with pytest.raises(ValueError, match="^mu must be a finite number"):
            check_symmetry(ForceField(PowerLawParams(1.0, 1.0)), mu)

    def test_broken_declaration_raises(self):
        # Constant vertical push (zero exponents) breaks the x-axis
        # reflection; residual is twice the component, here 2 * mu * 0.1 with mu = 1.
        broken = PerturbationSpec(
            kind="axis_poly", params={"cx": 0.0, "px": 0, "cy": 0.1, "py": 0}, declared_symmetries={"x_axis"}
        )
        f = ForceField(base=PowerLawParams(1.0, 1.0), perturbation=broken, mu_range=2.0)
        with pytest.raises(SymmetryViolation) as err:
            check_symmetry(f, 1.0)
        assert err.value.residuals[Reflection.X_AXIS] == pytest.approx(0.2)

    @pytest.mark.parametrize(
        "params",
        [
            {"cx": 1.0, "px": 2, "cy": 1.0, "py": 3},  # breaks the y-axis reflection
            {"cx": 0.7, "px": 3, "cy": 1.3, "py": 2},  # breaks the x-axis reflection
            {"cx": 1.0, "px": 2, "cy": 0.5, "py": 4},  # breaks both
        ],
    )
    @settings(max_examples=10, deadline=None)
    @given(alpha=st.sampled_from([0.0, 0.5, 1.0, 3.0]), mu=st.floats(0.01, 1.5), seed=st.integers(0, 2**32 - 1))
    def test_residuals_equal_the_numpy_norm(self, params, alpha, mu, seed):
        # Declared symmetric about both axes, so the broken reflections leave
        # nonzero residuals; check_symmetry, on floats, gives the same floats.
        spec = PerturbationSpec(kind="axis_poly", params=params, declared_symmetries={"x_axis", "y_axis"})
        f = ForceField(base=PowerLawParams(1.0, alpha), perturbation=spec, mu_range=2.0, annulus=(0.3, 2.5))
        with pytest.raises(SymmetryViolation) as err:
            check_symmetry(f, mu, seed=seed)
        got = {r.value: v for r, v in err.value.residuals.items()}
        assert got == symmetry_residuals_numpy(f, mu, 64, seed)
        assert max(got.values()) > 0.0

    def test_force_evaluated_once_per_point(self, kepler_radial_field, monkeypatch):
        # f(p) once per point, f(S p) once per point and reflection: for 64
        # points and two reflections, 64 + 2 * 64 calls at distinct points.
        real, calls = ForceField.acceleration, []

        def counted(field, x, y, mu):
            calls.append((x, y))
            return real(field, x, y, mu)

        monkeypatch.setattr(ForceField, "acceleration", counted)
        check_symmetry(kepler_radial_field, 0.5)
        assert len(calls) == 192 and len(set(calls)) == 192

    def test_point_whose_force_raises_is_left_out(self, kepler_radial_field, monkeypatch):
        # The force raises at the first sample p and is wrong at its mirror
        # images, so only leaving p out of both reflections keeps the
        # residuals at round-off.
        rng = np.random.default_rng(0)
        radii = rng.uniform(*kepler_radial_field.annulus, 64)
        angles = rng.uniform(0.0, 2.0 * math.pi, 64)
        x0, y0 = (radii * np.cos(angles)).tolist()[0], (radii * np.sin(angles)).tolist()[0]
        real = ForceField.acceleration

        def broken(field, x, y, mu):
            if (x, y) == (x0, y0):
                raise ZeroDivisionError("forced")
            if (abs(x), abs(y)) == (abs(x0), abs(y0)):
                return 1.0, 1.0
            return real(field, x, y, mu)

        monkeypatch.setattr(ForceField, "acceleration", broken)
        residuals = check_symmetry(kepler_radial_field, 0.5)
        assert set(residuals) == {Reflection.X_AXIS, Reflection.Y_AXIS}
        assert all(v <= 1e-14 for v in residuals.values())

    def test_x_only_field(self, half_field_a05):
        residuals = check_symmetry(half_field_a05, 0.3)
        assert set(residuals) == {Reflection.X_AXIS}
        assert residuals[Reflection.X_AXIS] <= 1e-14

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.55, 1.95), st.floats(0.0, 2 * math.pi), st.floats(-0.4, 0.4))
    def test_radial_family_pointwise_equivariance(self, r, angle, mu):
        f = ForceField(
            base=PowerLawParams(1.0, 1.0), perturbation=radial_power_perturbation(2.0, 4.0)
        )
        p = np.array([r * math.cos(angle), r * math.sin(angle)])
        for refl in (Reflection.X_AXIS, Reflection.Y_AXIS):
            lhs = np.array(f.acceleration(*reflected(refl, p), mu))
            rhs = reflected(refl, f.acceleration(p[0], p[1], mu))
            assert np.allclose(lhs, rhs, atol=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.55, 1.95), st.floats(0.0, 2 * math.pi), st.floats(-0.4, 0.4))
    def test_axis_poly_x_only_breaks_y(self, r, angle, mu):
        pert = axis_poly_perturbation(cx=1.0, px=2, cy=1.0, py=3)
        f = ForceField(base=PowerLawParams(1.0, 0.5), perturbation=pert)
        p = np.array([r * math.cos(angle), r * math.sin(angle)])
        lhs = np.array(f.acceleration(*reflected(Reflection.X_AXIS, p), mu))
        rhs = reflected(Reflection.X_AXIS, f.acceleration(p[0], p[1], mu))
        assert np.allclose(lhs, rhs, atol=1e-14)
        # and the y-axis reflection genuinely fails off the axes when mu != 0
        if abs(mu) > 1e-3 and abs(p[0]) > 0.1:
            lhs = np.array(f.acceleration(*reflected(Reflection.Y_AXIS, p), mu))
            rhs = reflected(Reflection.Y_AXIS, f.acceleration(p[0], p[1], mu))
            assert not np.allclose(lhs, rhs, atol=1e-6)

