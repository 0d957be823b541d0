"""Planar power-law force fields with parametrized symmetric perturbations.

The unperturbed field is the attractive power law a(r) = -kappa * r / |r|^(alpha+2).
A perturbation family, scaled by the parameter mu, is added on top; each family
declares which axis reflections it commutes with, and the declaration can be
checked numerically against samples. Each `Reflection` carries its position
signs, and every caller that reflects reads them.

Each family's force, base and perturbation together, is written once, as
source text in its `_FAMILIES` row. From it `_family` compiles, once per
family, two plain functions: `constants(kappa, alpha, *family constants)`, the
tuple of -kappa, alpha + 2 and the family's derived constants, which a
`ForceField` computes once and keeps, and `force(constants, x, y, mu) -> (ax,
ay)`, which `ForceField.acceleration` calls. The integrator writes the same
text inline into every stage of the family's DOP853 step, so the integration
steps evaluate the force without a call; everything else (the launch force,
the starting-step probe, `check_symmetry`, `analysis`) goes through
`acceleration`.
"""

from __future__ import annotations

import enum
import functools
import linecache
import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import SymmetryViolation


class Reflection(enum.Enum):
    """Axis reflections of the plane, by name; each maps (x, y) to (sx * x,
    sy * y) by its `signs` (sx, sy): X_AXIS to (x, -y), Y_AXIS to (-x, y)."""

    X_AXIS = "x_axis", 1.0, -1.0
    Y_AXIS = "y_axis", -1.0, 1.0

    def __new__(cls, value, sx, sy):
        member = object.__new__(cls)
        member._value_, member.signs = value, (sx, sy)
        return member


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
    if not r > 0:  # false for NaN too
        raise ValueError(f"potential requires r > 0, got {r}")
    if params.alpha == 0:
        return params.kappa * math.log(r)
    gamma = params.kappa / params.alpha
    return -gamma / r**params.alpha


def potential_derivatives(params: PowerLawParams, r: float) -> tuple[float, float]:
    """(U'(r), U''(r)); U' > 0 everywhere for an attractive field."""
    if not r > 0:
        raise ValueError(f"potential_derivatives requires r > 0, got {r}")
    a = params.alpha
    u1 = params.kappa / r ** (a + 1.0)
    u2 = -params.kappa * (a + 1.0) / r ** (a + 2.0)
    return u1, u2


def circular_speed(params: PowerLawParams, p: float) -> float:
    """Speed of the circular solution of radius p: sqrt(p * U'(p)).

    Independent of p when alpha == 0.
    """
    if not 0 < p < math.inf:
        raise ValueError(f"circular_speed requires a finite p > 0, got {p}")
    u1, _ = potential_derivatives(params, p)
    return math.sqrt(p * u1)


class _Family(NamedTuple):
    """A built-in perturbation family: its constants with their defaults, the
    constants its force reads, each an expression in the family's, and its
    force, statements assigning ax and ay after the base law."""

    defaults: dict
    constants: dict
    force: tuple


# A force is text over x, y, r = hypot(x, y), mu and the derived constants
# (`_derived`), after the base law `_BASE_FORCE`. The step kernels run it in
# their own scope, so a temporary it assigns (s, q) must not be a name of the
# kernel's (h, mu, x1, u1, gx1, sx, err, ...).
_BASE_CONSTANTS = {"neg_kappa": "-kappa", "a2": "alpha + 2.0"}
_BASE_FORCE = "s = neg_kappa / r ** a2"
_FAMILIES = {
    "zero": _Family({}, {}, ("ax = s * x + mu * 0.0", "ay = s * y + mu * 0.0")),
    "radial_power": _Family(
        {"lam": 1.0, "beta": 3.0},
        {"neg_lam": "-lam", "b2": "beta + 2.0"},
        ("q = neg_lam / r ** b2", "ax = s * x + mu * (q * x)", "ay = s * y + mu * (q * y)"),
    ),
    "axis_poly": _Family(
        {"cx": 0.0, "px": 3, "cy": 0.0, "py": 3},
        {"cx": "cx", "px": "px", "cy": "cy", "py": "py"},
        ("ax = s * x + mu * (cx * x**px)", "ay = s * y + mu * (cy * y**py)"),
    ),
}


def _derived(kind: str) -> dict:
    """The constants the force of `kind` reads, in `ForceField._force_constants`
    order, each an expression in kappa, alpha and the family's constants."""
    return {**_BASE_CONSTANTS, **_FAMILIES[kind].constants}


def _force_lines(kind: str, x="x", y="y", r="r", ax="ax", ay="ay") -> list:
    """The statements of the force of `kind`, base law first, with the names
    x, y, r, ax and ay replaced by the given ones; r must hold hypot(x, y)."""
    names = {"x": x, "y": y, "r": r, "ax": ax, "ay": ay}
    lines = (_BASE_FORCE, *_FAMILIES[kind].force)
    return [re.sub(r"\b(?:x|y|r|ax|ay)\b", lambda m: names[m[0]], line) for line in lines]


def _generated(source: str, filename: str) -> dict:
    """The namespace of generated source, executed once. Its text goes into
    linecache (mtime None: `linecache.checkcache` keeps it), so tracebacks and
    profiles show the generated lines."""
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"math": math, "__name__": __name__}
    exec(compile(source, filename, "exec"), namespace)
    return namespace


@functools.cache
def _family(kind: str) -> dict:
    """The namespace holding the two functions of the family `kind`, compiled
    once per process on first use: `constants(kappa, alpha, *family
    constants)`, the derived constants in `_derived` order, and
    `force(constants, x, y, mu) -> (ax, ay)` on them."""
    derived = _derived(kind)
    body = "\n    ".join(_force_lines(kind))
    source = f'''def constants({", ".join(["kappa", "alpha", *_FAMILIES[kind].defaults])}):
    return ({", ".join(derived.values())},)


def force(constants, x, y, mu):
    {", ".join(derived)}, = constants
    r = math.hypot(x, y)
    {body}
    return ax, ay
'''
    return _generated(source, f"<symorbit.forcefield: the {kind} force>")


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
        defaults = _FAMILIES[self.kind].defaults
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
    return PerturbationSpec("radial_power", {"lam": lam, "beta": beta}, frozenset(Reflection))


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
    return PerturbationSpec("zero", declared_symmetries=frozenset(Reflection))


@dataclass(frozen=True)
class ForceField:
    """Power-law base plus mu-scaled perturbation, valid on an annulus.

    The annulus must exclude the origin and mu_range is the half-width a of
    the symmetric parameter interval (-a, a). `_force_constants` holds the
    field's derived force constants (-kappa, alpha + 2 and the family's),
    computed once, here, by the family's `constants`; the family's `force` and
    its step kernel read them.
    """

    base: PowerLawParams
    perturbation: PerturbationSpec = field(default_factory=zero_perturbation)
    mu_range: float = 0.5
    annulus: tuple[float, float] = (0.5, 2.0)
    _force_constants: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r_in, r_out = self.annulus
        if not (0 < r_in < r_out):
            raise ValueError(f"annulus must satisfy 0 < r_in < r_out, got {self.annulus}")
        if not self.mu_range > 0:
            raise ValueError("mu_range half-width must be positive")
        constants = _family(self.perturbation.kind)["constants"](
            self.base.kappa, self.base.alpha, *self.perturbation._constants
        )
        object.__setattr__(self, "_force_constants", constants)

    @property
    def symmetries(self) -> frozenset:
        return self.perturbation.declared_symmetries

    def contains(self, x: float, y: float) -> bool:
        r = math.hypot(x, y)
        return self.annulus[0] <= r <= self.annulus[1]

    def acceleration(self, x: float, y: float, mu: float) -> tuple[float, float]:
        """The force at (x, y) and mu, without an annulus check: the family's
        `force` on the field's constants. The integrator's step kernels
        evaluate the same force text inline, bit for bit alike, and do not
        call this; every other force evaluation of the package does."""
        return _family(self.perturbation.kind)["force"](self._force_constants, x, y, mu)


# Largest residual a declared reflection may leave, over how many random points.
_FORCE_SYMMETRY_TOL = 1e-10
_SYMMETRY_SAMPLES = 64


def check_symmetry(field_: ForceField, mu: float, seed: int = 0) -> dict:
    """Max residual |f(phi p) - phi f(p)| per declared reflection, over
    _SYMMETRY_SAMPLES points drawn uniformly in radius and angle from `seed`.

    Raises SymmetryViolation when a declared reflection fails beyond
    _FORCE_SYMMETRY_TOL; built-in families with honest declarations sit at
    round-off. A sample where the force overflows or divides by zero is left
    out. f(p) is evaluated once per sample, f(phi p) once per sample and
    reflection.
    """
    if not math.isfinite(mu):  # NaN would leave every residual out of max()
        raise ValueError(f"mu must be a finite number, got {mu}")
    rng = np.random.default_rng(seed)
    r_in, r_out = field_.annulus
    radii = rng.uniform(r_in, r_out, _SYMMETRY_SAMPLES)
    angles = rng.uniform(0.0, 2.0 * math.pi, _SYMMETRY_SAMPLES)
    undefined = (ZeroDivisionError, OverflowError)  # flow ends in StepFailure where it meets such a point
    points = []  # (x, y, f(x, y)), f once per point, on floats as the integrator evaluates it
    for x, y in zip((radii * np.cos(angles)).tolist(), (radii * np.sin(angles)).tolist()):
        try:
            points.append((x, y, field_.acceleration(x, y, mu)))
        except undefined:
            pass

    residuals = {}
    for refl in sorted(field_.symmetries, key=lambda s: s.value):
        sx, sy = refl.signs
        worst = 0.0
        for x, y, (fx, fy) in points:
            try:
                gx, gy = field_.acceleration(sx * x, sy * y, mu)
            except undefined:
                continue
            dx, dy = gx - sx * fx, gy - sy * fy
            worst = max(worst, math.sqrt(dx * dx + dy * dy))
        residuals[refl] = worst

    bad = {k.value: v for k, v in residuals.items() if v > _FORCE_SYMMETRY_TOL}
    if bad:
        raise SymmetryViolation(
            f"declared symmetry violated beyond tol={_FORCE_SYMMETRY_TOL}: {bad}", residuals=residuals
        )
    return residuals

