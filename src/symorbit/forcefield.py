"""Planar power-law force fields with parametrized symmetric perturbations.

The unperturbed field is the attractive power law a(r) = -kappa * r / |r|^(alpha+2).
A perturbation family, scaled by the parameter mu, is added on top; each family
declares which axis reflections it commutes with, and the declaration can be
checked numerically against samples.

Each family's force, base and perturbation together, is written once: in the
builder of its `_FAMILIES` row, which binds -kappa, alpha + 2 and the family
constants into one closure (x, y, mu) -> (ax, ay). A `ForceField` builds its
closure once, at construction, and `ForceField.acceleration` is the one entry
point to it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import SymmetryViolation


class Reflection(enum.Enum):
    """Axis reflections of the plane.

    X_AXIS maps (x, y) -> (x, -y); Y_AXIS maps (x, y) -> (-x, y).
    """

    X_AXIS = "x_axis"
    Y_AXIS = "y_axis"

    def apply(self, p):
        p = np.asarray(p, dtype=float)
        if self is Reflection.X_AXIS:
            return np.array([p[0], -p[1]])
        return np.array([-p[0], p[1]])


@dataclass(frozen=True)
class PowerLawParams:
    """Strength and exponent of the unperturbed attraction."""

    kappa: float
    alpha: float

    def __post_init__(self):
        # Written so that NaN fails each check.
        if not 0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be a finite positive number, got {self.kappa}")
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be a finite nonnegative number, got {self.alpha}")


def potential(params: PowerLawParams, r: float) -> float:
    """Radial potential of the power-law field; logarithmic when alpha == 0."""
    if r <= 0:
        raise ValueError("potential requires r > 0")
    if params.alpha == 0:
        return params.kappa * math.log(r)
    gamma = params.kappa / params.alpha
    return -gamma / r**params.alpha


def potential_derivatives(params: PowerLawParams, r: float) -> tuple[float, float]:
    """(U'(r), U''(r)); U' > 0 everywhere for an attractive field."""
    if r <= 0:
        raise ValueError("potential_derivatives requires r > 0")
    a = params.alpha
    u1 = params.kappa / r ** (a + 1.0)
    u2 = -params.kappa * (a + 1.0) / r ** (a + 2.0)
    return u1, u2


def circular_speed(params: PowerLawParams, p: float) -> float:
    """Speed of the circular solution of radius p: sqrt(p * U'(p)).

    Independent of p when alpha == 0.
    """
    if p <= 0:
        raise ValueError("circular_speed requires p > 0")
    u1, _ = potential_derivatives(params, p)
    return math.sqrt(p * u1)


# Builders: each takes -kappa, alpha + 2.0 and the family constants and returns
# the field's force (x, y, mu) -> (ax, ay), one hypot per call. The base law is
# written in each builder, not shared through a base closure that calls a term
# closure: that call and its tuple cost 90-155 ns of a 600-850 ns evaluation,
# about 3% of a miss (Python 3.11, 2 vCPUs). tests/test_forcefield.py checks
# every builder against one base-plus-term formula bit for bit.


def _zero(neg_kappa, a2):
    hypot = math.hypot

    def accel(x: float, y: float, mu: float) -> tuple[float, float]:
        s = neg_kappa / hypot(x, y) ** a2
        return s * x + mu * 0.0, s * y + mu * 0.0

    return accel


def _radial_power(neg_kappa, a2, lam, beta):
    hypot, neg_lam, b2 = math.hypot, -lam, beta + 2.0

    def accel(x: float, y: float, mu: float) -> tuple[float, float]:
        r = hypot(x, y)
        s = neg_kappa / r**a2
        q = neg_lam / r**b2
        return s * x + mu * (q * x), s * y + mu * (q * y)

    return accel


def _axis_poly(neg_kappa, a2, cx, px, cy, py):
    hypot = math.hypot

    def accel(x: float, y: float, mu: float) -> tuple[float, float]:
        s = neg_kappa / hypot(x, y) ** a2
        return s * x + mu * (cx * x**px), s * y + mu * (cy * y**py)

    return accel


# Built-in perturbation families: kind -> ({constant: default}, builder), a
# builder taking the constants in the defaults' order after -kappa and alpha + 2.
_FAMILIES = {
    "zero": ({}, _zero),
    "radial_power": ({"lam": 1.0, "beta": 3.0}, _radial_power),
    "axis_poly": ({"cx": 0.0, "px": 3, "cy": 0.0, "py": 3}, _axis_poly),
}


@dataclass(frozen=True)
class PerturbationSpec:
    """One member of the built-in perturbation menu, scaled by mu at evaluation.

    kind:
      zero          no perturbation
      radial_power  -lam * r / |r|^(beta+2)       (central, both symmetries)
      axis_poly     (cx * x**px, cy * y**py)      (parities set the symmetries)

    declared_symmetries is what the caller claims; check_symmetry verifies it
    numerically, so a wrong declaration is constructible on purpose.

    params maps family constants (defaults in _FAMILIES) to finite numbers; a
    name the family lacks is a ValueError, and a constant whose default is an
    integer is an exponent, which must be a nonnegative integer. _constants
    holds them, taken from a copy of params once, in the defaults' order, with
    the defaults filled in. params, a dict, is left out of the hash, so a spec
    hashes by its kind and symmetries and still compares by its params.
    """

    kind: str = "zero"
    params: dict = field(default_factory=dict, hash=False)
    declared_symmetries: frozenset = frozenset()
    _constants: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        object.__setattr__(self, "declared_symmetries", frozenset(map(Reflection, self.declared_symmetries)))
        object.__setattr__(self, "params", dict(self.params))
        defaults, _ = _FAMILIES[self.kind]
        for key, value in self.params.items():
            if key not in defaults:
                raise ValueError(f"{self.kind} has no constant {key!r}; its constants are {list(defaults)}")
            if not math.isfinite(value):
                raise ValueError(f"{self.kind} constant {key!r} must be finite, got {value!r}")
        k = {**defaults, **self.params}  # absent constants take the family defaults
        for key, default in defaults.items():
            if isinstance(default, int):  # an exponent
                if not (float(k[key]).is_integer() and k[key] >= 0):
                    raise ValueError(f"{self.kind} exponent {key} must be a nonnegative integer, got {k[key]!r}")
                k[key] = int(k[key])
        object.__setattr__(self, "_constants", tuple(k.values()))


def radial_power_perturbation(lam: float = 1.0, beta: float = 3.0) -> PerturbationSpec:
    """Central perturbation; commutes with both reflections."""
    return PerturbationSpec(
        kind="radial_power",
        params={"lam": lam, "beta": beta},
        declared_symmetries=frozenset({Reflection.X_AXIS, Reflection.Y_AXIS}),
    )


def axis_poly_perturbation(cx=0.0, px=3, cy=0.0, py=3) -> PerturbationSpec:
    """(cx*x^px, cy*y^py) with symmetries inferred from the exponent parities.

    The y-component is odd in y iff py is odd, which is exactly x-axis
    equivariance for this family; likewise px odd gives y-axis equivariance.
    """
    syms = set()
    if py % 2 == 1 or cy == 0.0:
        syms.add(Reflection.X_AXIS)
    if px % 2 == 1 or cx == 0.0:
        syms.add(Reflection.Y_AXIS)
    return PerturbationSpec(
        kind="axis_poly",
        params={"cx": cx, "px": px, "cy": cy, "py": py},
        declared_symmetries=frozenset(syms),
    )


def zero_perturbation() -> PerturbationSpec:
    return PerturbationSpec(
        kind="zero",
        declared_symmetries=frozenset({Reflection.X_AXIS, Reflection.Y_AXIS}),
    )


@dataclass(frozen=True)
class ForceField:
    """Power-law base plus mu-scaled perturbation, valid on an annulus.

    The annulus must exclude the origin and mu_range is the half-width a of
    the symmetric parameter interval (-a, a). The force closure of the
    perturbation's family is built once, here, with this field's constants.
    """

    base: PowerLawParams
    perturbation: PerturbationSpec = field(default_factory=zero_perturbation)
    mu_range: float = 0.5
    annulus: tuple[float, float] = (0.5, 2.0)
    _kernel: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r_in, r_out = self.annulus
        if not (0 < r_in < r_out):
            raise ValueError(f"annulus must satisfy 0 < r_in < r_out, got {self.annulus}")
        if not self.mu_range > 0:
            raise ValueError("mu_range half-width must be positive")
        _, build = _FAMILIES[self.perturbation.kind]
        kernel = build(-self.base.kappa, self.base.alpha + 2.0, *self.perturbation._constants)
        object.__setattr__(self, "_kernel", kernel)

    def __reduce__(self):
        # pickle cannot store the closure; the constructor builds it again.
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)

    @property
    def symmetries(self) -> frozenset:
        return self.perturbation.declared_symmetries

    def contains(self, x: float, y: float) -> bool:
        r = math.hypot(x, y)
        return self.annulus[0] <= r <= self.annulus[1]

    def acceleration(self, x: float, y: float, mu: float) -> tuple[float, float]:
        """The force at (x, y) and mu, without an annulus check: the field's one
        closure, built at construction. Every force evaluation of the package,
        each integrator stage included, comes through here."""
        return self._kernel(x, y, mu)


# Largest residual a declared reflection may leave.
_SYMMETRY_TOL = 1e-10


def check_symmetry(
    field_: ForceField,
    mu: float,
    sample_count: int = 64,
    seed: int = 0,
) -> dict:
    """Max residual |f(phi p) - phi f(p)| per declared reflection, over random samples.

    Raises SymmetryViolation when a declared reflection fails beyond
    _SYMMETRY_TOL; built-in families with honest declarations sit at round-off.
    A sample where the force overflows or divides by zero is left out.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    r_in, r_out = field_.annulus
    radii = rng.uniform(r_in, r_out, sample_count)
    angles = rng.uniform(0.0, 2.0 * math.pi, sample_count)
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])

    residuals = {}
    for refl in sorted(field_.symmetries, key=lambda s: s.value):
        worst = 0.0
        for p in pts.tolist():
            try:  # on floats, as the integrator evaluates the force
                f_q = np.array(field_.acceleration(*refl.apply(p).tolist(), mu))
                f_p = np.array(field_.acceleration(*p, mu))
            except (ZeroDivisionError, OverflowError):
                continue  # the force is undefined here; flow ends in StepFailure where it meets it
            worst = max(worst, float(np.linalg.norm(f_q - refl.apply(f_p))))
        residuals[refl] = worst

    bad = {k.value: v for k, v in residuals.items() if v > _SYMMETRY_TOL}
    if bad:
        raise SymmetryViolation(
            f"declared symmetry violated beyond tol={_SYMMETRY_TOL}: {bad}", residuals=residuals
        )
    return residuals

