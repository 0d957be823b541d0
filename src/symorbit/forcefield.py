"""Planar power-law force fields with parametrized symmetric perturbations.

The unperturbed field is the attractive power law a(r) = -kappa * r / |r|^(alpha+2).
A perturbation family, scaled by the parameter mu, is added on top; each family
declares which axis reflections it commutes with, and the declaration can be
checked numerically against samples.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

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
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")


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


# Built-in perturbation families: kind -> {constant: default}.
# PerturbationSpec.term dispatches on the kind.
_FAMILIES = {
    "zero": {},
    "radial_power": {"lam": 1.0, "beta": 3.0},
    "axis_poly": {"cx": 0.0, "px": 3, "cy": 0.0, "py": 3},
    "uniform": {"ux": 0.0, "uy": 0.0},
}


@dataclass(frozen=True)
class PerturbationSpec:
    """One member of the built-in perturbation menu, scaled by mu at evaluation.

    kind:
      zero          no perturbation
      radial_power  -lam * r / |r|^(beta+2)       (central, both symmetries)
      axis_poly     (cx * x**px, cy * y**py)      (parities set the symmetries)
      uniform       constant vector (ux, uy)      (test family)

    declared_symmetries is what the caller claims; check_symmetry verifies it
    numerically, so a wrong declaration is constructible on purpose.

    params names family constants (defaults in _FAMILIES); it is copied at
    construction and the constants are resolved from it once, so mutating
    the caller's dict later changes nothing.
    """

    kind: str = "zero"
    params: dict = field(default_factory=dict)
    declared_symmetries: frozenset = frozenset()
    _constants: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        syms = frozenset(
            Reflection(s) if not isinstance(s, Reflection) else s
            for s in self.declared_symmetries
        )
        object.__setattr__(self, "declared_symmetries", syms)
        params = dict(self.params)
        object.__setattr__(self, "params", params)
        k = {**_FAMILIES[self.kind], **params}  # absent constants take the family defaults
        if self.kind == "axis_poly":
            for key in ("px", "py"):
                if k[key] != int(k[key]) or k[key] < 0:
                    raise ValueError(f"axis_poly exponent {key} must be a nonnegative integer")
        if self.kind == "radial_power":
            constants = (k["lam"], k["beta"] + 2.0)
        elif self.kind == "axis_poly":
            constants = (k["cx"], int(k["px"]), k["cy"], int(k["py"]))
        elif self.kind == "uniform":
            constants = (k["ux"], k["uy"])
        else:
            constants = ()
        object.__setattr__(self, "_constants", constants)

    def term(self, x: float, y: float) -> tuple[float, float]:
        """Unscaled perturbation vector at (x, y); multiply by mu for the force."""
        kind = self.kind
        if kind == "zero":
            return 0.0, 0.0
        if kind == "radial_power":
            lam, exponent = self._constants
            s = -lam / math.hypot(x, y) ** exponent
            return s * x, s * y
        if kind == "axis_poly":
            cx, px, cy, py = self._constants
            return cx * x**px, cy * y**py
        # uniform
        return self._constants


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
    the symmetric parameter interval (-a, a).
    """

    base: PowerLawParams
    perturbation: PerturbationSpec = field(default_factory=zero_perturbation)
    mu_range: float = 0.5
    annulus: tuple[float, float] = (0.5, 2.0)

    def __post_init__(self):
        r_in, r_out = self.annulus
        if not (0 < r_in < r_out):
            raise ValueError(f"annulus must satisfy 0 < r_in < r_out, got {self.annulus}")
        if not self.mu_range > 0:
            raise ValueError("mu_range half-width must be positive")

    @property
    def symmetries(self) -> frozenset:
        return self.perturbation.declared_symmetries

    def contains(self, x: float, y: float) -> bool:
        r = math.hypot(x, y)
        return self.annulus[0] <= r <= self.annulus[1]

    def acceleration(self, x: float, y: float, mu: float) -> tuple[float, float]:
        """Raw force evaluation, no annulus check (used by integrator stages)."""
        r = math.hypot(x, y)
        s = -self.base.kappa / r ** (self.base.alpha + 2.0)
        px, py = self.perturbation.term(x, y)
        return s * x + mu * px, s * y + mu * py


def check_symmetry(
    field_: ForceField,
    mu: float,
    sample_count: int = 64,
    seed: int = 0,
    tol: float = 1e-10,
) -> dict:
    """Max residual |f(phi p) - phi f(p)| per declared reflection, over random samples.

    Raises SymmetryViolation when a declared reflection fails beyond tol;
    built-in families with honest declarations sit at round-off.
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
        for p in pts:
            q = refl.apply(p)
            f_q = np.array(field_.acceleration(q[0], q[1], mu))
            f_p = np.array(field_.acceleration(p[0], p[1], mu))
            worst = max(worst, float(np.linalg.norm(f_q - refl.apply(f_p))))
        residuals[refl] = worst

    bad = {k.value: v for k, v in residuals.items() if v > tol}
    if bad:
        raise SymmetryViolation(
            f"declared symmetry violated beyond tol={tol}: {bad}", residuals=residuals
        )
    return residuals

