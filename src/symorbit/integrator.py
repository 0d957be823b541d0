"""Adaptive Dormand-Prince 5(4) integration of r'' = g(r, mu) with dense output.

The integrator propagates the fifth-order solution, estimates local error from
the embedded fourth-order result, and keeps with every accepted step what its
interpolant is built from, so downstream event detection can refine crossing
times without re-integrating. Leaving the validity annulus terminates the flow
with a DomainExit carrying the refined exit time and state. An optional stop
callback sees each accepted step's record and end state after the annulus
check and ends the flow after the first step for which it returns true:
terminal event location (Hairer, Norsett & Wanner, Solving ODEs I, II.6). It
changes no step before that one.

Only this module knows the tableau, the step record, the dense-output matrix
P and, from P's shape, the stage count and the interpolant's degree. The step
loop runs on plain floats and calls no numpy, with the tableau products
unrolled. A step's record is (t_left, h, y_left, stages): its start time and
size, its start state as a 4-tuple and its stages (velocity, force) as one
flat tuple. A `Trajectory` is its step records plus its end node.

The interpolant's coefficients Q = K^T P (K the stage matrix) are built only
where something samples the step (`_quartics`) and evaluated by one Horner
rule: on floats for one step (`_step_eval`, `_refine_in_step`) and on arrays
for many times at once (`eval_many`, over all steps' Q stacked in one batched
product), bit for bit alike. The section scan takes the coefficients of a
step's position projected on its normal from `_normal_coefficients`, formed
from the stages without building Q.

Every event search of the package is built from three primitives here:
`_bisect`, the one interval-halving loop; `_crossed` and `_sign_changes`, the
one rule for where a sampled function changes sign (a zero counts at the end
of the interval that reaches it); and `_refine_in_step`, the one refinement
of an event inside a step, which bisects the step fraction with the step's Q
built once. The annulus exit and the apsides are refined by the last; the
section scan, its polynomial root search and the axis crossings of an
assembled orbit bisect with `_crossed` as the predicate; turning radii are
bisected on the effective potential.

The annulus check reads each accepted step's end node and, where the radial
speed changes sign across the step and a node lies within reach of a bound,
the turning point between the nodes: an apsis just past a bound is an exit
even when both nodes are inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainExit, StepFailure
from .forcefield import ForceField

# Dormand-Prince 5(4) tableau; the propagated solution is order 5 and the
# last row of A doubles as its weights (FSAL).
_A = np.array(
    [
        [0, 0, 0, 0, 0, 0],
        [1 / 5, 0, 0, 0, 0, 0],
        [3 / 40, 9 / 40, 0, 0, 0, 0],
        [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    ]
)
_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
# Difference between 5th- and 4th-order weights, including the FSAL stage.
_E = np.array(
    [71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# Dense-output coefficients (Shampine), rows by stage and columns by power of
# theta: y(t0 + theta h) = y0 + h (K^T P) @ [theta, theta^2, theta^3, theta^4].
_P = np.array(
    [
        [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0, 0, 0, 0],
        [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)
_STAGES, _DEGREE = _P.shape

# Float copies of A, B and E for the scalar step loop; the second weight of
# B and E is zero, so stage 2 enters only the later stages.
(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54), (
    _A61, _A62, _A63, _A64, _A65
) = (tuple(float(a) for a in _A[i, :i]) for i in range(1, 6))
_B1, _B3, _B4, _B5, _B6 = (float(_B[j]) for j in (0, 2, 3, 4, 5))
_E1, _E3, _E4, _E5, _E6, _E7 = (float(_E[j]) for j in (0, 2, 3, 4, 5, 6))
# Float copies of P's rows for `_normal_coefficients`; the second stage's row
# is zero and left out.
(_P11, _P12, _P13, _P14), (_P31, _P32, _P33, _P34), (_P41, _P42, _P43, _P44), (
    _P51, _P52, _P53, _P54
), (_P61, _P62, _P63, _P64), (_P71, _P72, _P73, _P74) = (tuple(_P[j].tolist()) for j in (0, 2, 3, 4, 5, 6))

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-12
    abs_tol: float = 1e-12
    max_step: float | None = None  # None: t_end / 50
    first_step: float | None = None  # None: automatic selection

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_step is not None and self.max_step <= 0:
            raise ValueError("max_step must be positive")
        if self.first_step is not None and self.first_step <= 0:
            raise ValueError("first_step must be positive")


@dataclass(frozen=True)
class State:
    t: float
    position: np.ndarray
    velocity: np.ndarray


class Trajectory:
    """Dense numerical solution on [0, t_end].

    Built from the records (t_left, h, y_left, stages) of its steps and its
    end node (t_end, y_end); the nodes `ts`, `ys` are the steps' left ends and
    the end node. interpolate() reproduces each step's left node exactly; any
    other time, t_end included, is read from its step's interpolant (at t_end
    the last step's at theta 1, which may differ from the end node `ys[-1]`
    in the last bits), continuous across the whole span.
    """

    def __init__(self, steps: list, t_end: float, y_end):
        self._dense = steps
        self.t_end = float(t_end)
        self._y_end = y_end
        self._stacked = None  # t_left, h, y_left and Q of every step as arrays, built by _arrays

    @cached_property
    def ts(self) -> np.ndarray:
        return np.array([step[0] for step in self._dense] + [self.t_end])

    @cached_property
    def ys(self) -> np.ndarray:
        return np.array([step[2] for step in self._dense] + [self._y_end])

    @property
    def n_steps(self):
        return len(self._dense)

    def _arrays(self):
        """t_left, h, y_left and Q of every step as arrays, built on first use."""
        if self._stacked is None:
            t_left, h, y_left, stages = zip(*self._dense)
            self._stacked = np.array(t_left), np.array(h), np.array(y_left), _q_matrices(stages)
        return self._stacked

    def refine_in_step(self, i: int, pred):
        """`_refine_in_step` on step i: (t, state) at the first point of the
        step where pred(state), a predicate on (x, y, vx, vy), holds."""
        return _refine_in_step(self._dense[i], pred)

    def _eval(self, t: float) -> np.ndarray:
        i = int(np.searchsorted(self.ts, t, side="right")) - 1
        i = min(max(i, 0), len(self._dense) - 1)
        return _step_eval(self._dense[i], t)

    def eval_many(self, ts) -> np.ndarray:
        """States at every time of ts, shape (len(ts), 4).

        Each time goes to the step `_eval` picks (a node belongs to the later
        step) and is evaluated by `_step_eval`'s rule, with the same float
        operations on arrays, so each row equals `_eval` bit for bit; a step's
        left node time gives that node state exactly, and t_end the last
        step's interpolant at theta 1, not the end node.
        """
        t_left, h, y_left, q = self._arrays()
        ts = np.asarray(ts, dtype=float)
        i = np.clip(np.searchsorted(self.ts, ts, side="right") - 1, 0, len(h) - 1)
        h, y_left, q = h[i, None], y_left[i], q[i]
        theta = (ts - t_left[i])[:, None] / h
        acc = q[:, :, -1]
        for k in range(_DEGREE - 2, -1, -1):
            acc = q[:, :, k] + theta * acc
        return np.where(theta == 0.0, y_left, y_left + h * (theta * acc))

    def interpolate(self, t: float) -> State:
        y = self._eval(float(t))
        return State(t=float(t), position=y[:2], velocity=y[2:])

    def final_state(self) -> State:
        return self.interpolate(self.t_end)

    def truncated(self, t_cut: float) -> "Trajectory":
        """Restriction to [0, t_cut]; keeps the step that straddles t_cut."""
        if not 0.0 < t_cut <= self.t_end + 1e-15:
            raise ValueError(f"t_cut={t_cut} outside span (0, {self.t_end}]")
        return Trajectory([d for d in self._dense if d[0] < t_cut], t_cut, self._eval(t_cut))


def _q_matrices(stage_rows) -> np.ndarray:
    """Q = K^T P of each step, shape (steps, 4, degree): row i holds the
    coefficients of theta, ..., theta^degree of state component i."""
    k = np.array(stage_rows).reshape(len(stage_rows), _STAGES, 4)
    return k.transpose(0, 2, 1) @ _P


def _quartics(stages) -> np.ndarray:
    """Q of one step, by the batched product `eval_many` uses."""
    return _q_matrices([stages])[0]


def _horner(c, th: float) -> float:
    """c[0] + c[1] th + ... + c[-1] th^(len(c) - 1) by Horner's rule."""
    acc = c[-1]
    for ck in reversed(c[:-1]):
        acc = ck + th * acc
    return acc


def _dense_at(y_left, h: float, rows, theta: float) -> list:
    """The one dense-output rule: component i at theta is y_left[i] + h theta
    (q1 + theta (q2 + ...)) over row i of Q, and y_left[i] itself at theta 0."""
    if theta == 0.0:
        return list(y_left)
    return [y0 + h * (theta * _horner(row, theta)) for y0, row in zip(y_left, rows)]


def _step_eval(step, t: float) -> np.ndarray:
    """State at time t on the interpolant of one step record."""
    t_left, h, y_left, stages = step
    return np.array(_dense_at(y_left, h, _quartics(stages).tolist(), (t - t_left) / h))


def _normal_coefficients(step, n0: float, n1: float) -> tuple:
    """c1, ..., cD of g(theta) = n0 x + n1 y = g(0) + c1 theta + ... + cD
    theta^D on one step: h times the stage velocities projected on (n0, n1)
    dotted with the columns of P, on floats."""
    _, h, _, k = step
    p1 = n0 * k[0] + n1 * k[1]
    p3 = n0 * k[8] + n1 * k[9]
    p4 = n0 * k[12] + n1 * k[13]
    p5 = n0 * k[16] + n1 * k[17]
    p6 = n0 * k[20] + n1 * k[21]
    p7 = n0 * k[24] + n1 * k[25]
    return (
        h * (p1 * _P11 + p3 * _P31 + p4 * _P41 + p5 * _P51 + p6 * _P61 + p7 * _P71),
        h * (p1 * _P12 + p3 * _P32 + p4 * _P42 + p5 * _P52 + p6 * _P62 + p7 * _P72),
        h * (p1 * _P13 + p3 * _P33 + p4 * _P43 + p5 * _P53 + p6 * _P63 + p7 * _P73),
        h * (p1 * _P14 + p3 * _P34 + p4 * _P44 + p5 * _P54 + p6 * _P64 + p7 * _P74),
    )


def _rms(values, scale) -> float:
    return math.sqrt(sum((c / s) ** 2 for c, s in zip(values, scale)) / len(values))


def _initial_step(accel, mu, y0, f0, t_end, rtol, atol, max_step):
    # Hairer-style starting-step heuristic; y0 and f0 are 4-tuples of floats.
    scale = [atol + rtol * abs(c) for c in y0]
    d0 = _rms(y0, scale)
    d1 = _rms(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = [c + h0 * f for c, f in zip(y0, f0)]
    f1 = (y1[2], y1[3], *accel(y1[0], y1[1], mu))
    d2 = _rms([a - b for a, b in zip(f1, f0)], scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, max_step, t_end)


def _bisect(pred, a: float, b: float, tol: float = 0.0) -> tuple[float, float]:
    """Halve [a, b], where pred(a) is false and pred(b) true, keeping that
    property, until b - a <= tol or the midpoint rounds to an end (with tol 0:
    a and b adjacent floats). The one bisection loop of the package."""
    while b - a > tol:
        m = 0.5 * (a + b)
        if not a < m < b:
            break
        if pred(m):
            b = m
        else:
            a = m
    return a, b


def _crossed(ga: float, g: float) -> bool:
    """g is zero or of the other sign than the nonzero ga: ga * g <= 0
    without a product that can underflow to zero."""
    return g <= 0.0 if ga > 0.0 else g >= 0.0


def _sign_changes(points) -> list:
    """(a, b, g(a)) for each consecutive pair of (t, g) points where g changes
    sign; a zero counts at the end of the interval it is reached on. The one
    sign-change rule of the package's event searches."""
    return [(a, b, ga) for (a, ga), (b, gb) in zip(points, points[1:]) if ga != 0.0 and _crossed(ga, gb)]


def _refine_in_step(step, pred):
    """(t, state) at the first point of one step's interpolant where
    pred(state) holds, given that it holds at the step's end and not at its
    start: theta bisected to adjacent floats with the step's Q built once. The
    one refinement of an event inside a step."""
    t_left, h, y_left, stages = step
    rows = _quartics(stages).tolist()
    _, hi = _bisect(lambda theta: pred(_dense_at(y_left, h, rows, theta)), 0.0, 1.0)
    return t_left + hi * h, np.array(_dense_at(y_left, h, rows, hi))


def _outside(s, r_in: float, r_out: float) -> bool:
    r = math.hypot(s[0], s[1])
    return r < r_in or r > r_out


def _turning_exit(step, g_left, r_right, g_right, r_in, r_out):
    """(t, state) of an annulus exit inside a step whose nodes lie in the
    annulus while r dr/dt = x vx + y vy changes sign from g_left to g_right
    across it, or None.

    Where dr/dt is monotone on the step, the turning radius is within
    h (|dr/dt|_left + |dr/dt|_right) of either node radius, so a step whose
    node radii are further than that from both bounds is passed over.
    Otherwise the step is bisected for the first point outside the annulus or
    past the turning point: the exit comes first when the turning point is
    outside.
    """
    _, h, y_left, _ = step
    r_left = math.hypot(y_left[0], y_left[1])
    reach = h * (abs(g_left) / r_left + abs(g_right) / r_right)
    if r_in <= min(r_left, r_right) - reach and max(r_left, r_right) + reach <= r_out:
        return None
    t, s = _refine_in_step(step, lambda s: _outside(s, r_in, r_out) or _crossed(g_left, s[0] * s[2] + s[1] * s[3]))
    return (t, s) if _outside(s, r_in, r_out) else None


def _dp5_step(accel, mu, h, state, force, rtol, atol):
    """One trial step of the 5(4) pair on floats.

    state is (x, y, vx, vy) and force the acceleration there, the first stage
    (FSAL). Returns (new state, the seven stage derivatives (vx, vy, ax, ay)
    one after another in one flat tuple, error norm), or None when a stage
    position is non-finite or within 1e-12 of the origin, a stage velocity is
    non-finite, or a stage force is non-finite: the caller then halves h.
    """
    hypot, isfinite, inf = math.hypot, math.isfinite, math.inf
    x, y, u1, w1 = state
    gx1, gy1 = force
    if not (isfinite(gx1) and isfinite(gy1)):
        return None
    x2 = x + h * (_A21 * u1)
    y2 = y + h * (_A21 * w1)
    u2 = u1 + h * (_A21 * gx1)
    w2 = w1 + h * (_A21 * gy1)
    # A NaN radius fails `1e-12 <= r < inf` as an infinite one does.
    if not (1e-12 <= hypot(x2, y2) < inf and isfinite(u2) and isfinite(w2)):
        return None
    gx2, gy2 = accel(x2, y2, mu)
    if not (isfinite(gx2) and isfinite(gy2)):
        return None
    x3 = x + h * (_A31 * u1 + _A32 * u2)
    y3 = y + h * (_A31 * w1 + _A32 * w2)
    u3 = u1 + h * (_A31 * gx1 + _A32 * gx2)
    w3 = w1 + h * (_A31 * gy1 + _A32 * gy2)
    if not (1e-12 <= hypot(x3, y3) < inf and isfinite(u3) and isfinite(w3)):
        return None
    gx3, gy3 = accel(x3, y3, mu)
    if not (isfinite(gx3) and isfinite(gy3)):
        return None
    x4 = x + h * (_A41 * u1 + _A42 * u2 + _A43 * u3)
    y4 = y + h * (_A41 * w1 + _A42 * w2 + _A43 * w3)
    u4 = u1 + h * (_A41 * gx1 + _A42 * gx2 + _A43 * gx3)
    w4 = w1 + h * (_A41 * gy1 + _A42 * gy2 + _A43 * gy3)
    if not (1e-12 <= hypot(x4, y4) < inf and isfinite(u4) and isfinite(w4)):
        return None
    gx4, gy4 = accel(x4, y4, mu)
    if not (isfinite(gx4) and isfinite(gy4)):
        return None
    x5 = x + h * (_A51 * u1 + _A52 * u2 + _A53 * u3 + _A54 * u4)
    y5 = y + h * (_A51 * w1 + _A52 * w2 + _A53 * w3 + _A54 * w4)
    u5 = u1 + h * (_A51 * gx1 + _A52 * gx2 + _A53 * gx3 + _A54 * gx4)
    w5 = w1 + h * (_A51 * gy1 + _A52 * gy2 + _A53 * gy3 + _A54 * gy4)
    if not (1e-12 <= hypot(x5, y5) < inf and isfinite(u5) and isfinite(w5)):
        return None
    gx5, gy5 = accel(x5, y5, mu)
    if not (isfinite(gx5) and isfinite(gy5)):
        return None
    x6 = x + h * (_A61 * u1 + _A62 * u2 + _A63 * u3 + _A64 * u4 + _A65 * u5)
    y6 = y + h * (_A61 * w1 + _A62 * w2 + _A63 * w3 + _A64 * w4 + _A65 * w5)
    u6 = u1 + h * (_A61 * gx1 + _A62 * gx2 + _A63 * gx3 + _A64 * gx4 + _A65 * gx5)
    w6 = w1 + h * (_A61 * gy1 + _A62 * gy2 + _A63 * gy3 + _A64 * gy4 + _A65 * gy5)
    if not (1e-12 <= hypot(x6, y6) < inf and isfinite(u6) and isfinite(w6)):
        return None
    gx6, gy6 = accel(x6, y6, mu)
    if not (isfinite(gx6) and isfinite(gy6)):
        return None
    # Fifth-order solution; its derivative is the seventh (FSAL) stage.
    xn = x + h * (_B1 * u1 + _B3 * u3 + _B4 * u4 + _B5 * u5 + _B6 * u6)
    yn = y + h * (_B1 * w1 + _B3 * w3 + _B4 * w4 + _B5 * w5 + _B6 * w6)
    un = u1 + h * (_B1 * gx1 + _B3 * gx3 + _B4 * gx4 + _B5 * gx5 + _B6 * gx6)
    wn = w1 + h * (_B1 * gy1 + _B3 * gy3 + _B4 * gy4 + _B5 * gy5 + _B6 * gy6)
    if not (1e-12 <= hypot(xn, yn) < inf and isfinite(un) and isfinite(wn)):
        return None
    gx7, gy7 = accel(xn, yn, mu)
    if not (isfinite(gx7) and isfinite(gy7)):
        return None

    ex = h * (_E1 * u1 + _E3 * u3 + _E4 * u4 + _E5 * u5 + _E6 * u6 + _E7 * un)
    ey = h * (_E1 * w1 + _E3 * w3 + _E4 * w4 + _E5 * w5 + _E6 * w6 + _E7 * wn)
    eu = h * (_E1 * gx1 + _E3 * gx3 + _E4 * gx4 + _E5 * gx5 + _E6 * gx6 + _E7 * gx7)
    ew = h * (_E1 * gy1 + _E3 * gy3 + _E4 * gy4 + _E5 * gy5 + _E6 * gy6 + _E7 * gy7)
    ex /= atol + rtol * max(abs(x), abs(xn))
    ey /= atol + rtol * max(abs(y), abs(yn))
    eu /= atol + rtol * max(abs(u1), abs(un))
    ew /= atol + rtol * max(abs(w1), abs(wn))
    err = math.sqrt((ex * ex + ey * ey + eu * eu + ew * ew) / 4.0)

    stages = (
        u1, w1, gx1, gy1,
        u2, w2, gx2, gy2,
        u3, w3, gx3, gy3,
        u4, w4, gx4, gy4,
        u5, w5, gx5, gy5,
        u6, w6, gx6, gy6,
        un, wn, gx7, gy7,
    )  # fmt: skip
    return (xn, yn, un, wn), stages, err


def flow(
    field: ForceField,
    mu: float,
    x,
    v,
    t_end: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    stop=None,
) -> Trajectory:
    """Integrate r'' = g(r, mu) from (x, v) over [0, t_end].

    Raises DomainExit (with partial trajectory) when the orbit leaves the
    annulus, StepFailure if the step size underflows. `stop(step, y_right)`,
    when given, is called with the record (t_left, h, y_left, stages) and the
    end state (four floats) of every accepted step that stays in the annulus;
    the trajectory then ends after the first step for which it returns true.
    The step sequence up to there is the one without `stop`.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if not field.contains(x[0], x[1]):
        raise DomainExit(f"initial position {tuple(x.tolist())} outside annulus", t_exit=0.0, state=State(0.0, x, v))

    r_in, r_out = field.annulus
    accel = field.acceleration
    max_step = cfg.max_step if cfg.max_step is not None else t_end / 50.0
    rtol, atol = cfg.rel_tol, cfg.abs_tol

    state = (float(x[0]), float(x[1]), float(v[0]), float(v[1]))
    t = 0.0
    force = accel(state[0], state[1], mu)
    if cfg.first_step is not None:
        h = min(cfg.first_step, max_step, t_end)
    else:
        h = _initial_step(accel, mu, state, (state[2], state[3], *force), t_end, rtol, atol, max_step)
    min_step = 1e-14 * max(t_end, 1.0)
    g_left = state[0] * state[2] + state[1] * state[3]  # r dr/dt at the step's left node

    dense = []

    while t < t_end:
        if t_end - t <= min_step:
            break  # remainder below time resolution: the span is covered
        h = min(h, max_step, t_end - t)
        if not h >= min_step:  # a NaN step (non-finite launch force) never shrinks below it
            raise StepFailure(f"step size underflow at t={t} (h={h})")

        trial = _dp5_step(accel, mu, h, state, force, rtol, atol)
        if trial is None:
            h *= 0.5
            continue
        state_new, stages, err = trial
        if err > 1.0:
            h *= max(_MIN_FACTOR, _SAFETY * err**-0.2)
            continue

        step = (t, h, state, stages)
        dense.append(step)
        t_next = t + h

        rr = math.hypot(state_new[0], state_new[1])
        g = state_new[0] * state_new[2] + state_new[1] * state_new[3]  # r dr/dt
        if rr < r_in or rr > r_out:
            exit_ = _refine_in_step(step, lambda s: _outside(s, r_in, r_out))
        elif g_left != 0.0 and _crossed(g_left, g):
            exit_ = _turning_exit(step, g_left, rr, g, r_in, r_out)
        else:
            exit_ = None
        if exit_ is not None:
            t_exit, y_exit = exit_
            raise DomainExit(
                f"orbit left annulus [{r_in}, {r_out}] at t={t_exit:.6g}",
                t_exit=t_exit,
                state=State(t=t_exit, position=y_exit[:2], velocity=y_exit[2:]),
                trajectory=Trajectory(dense, t_exit, y_exit),
            )
        if stop is not None and stop(step, state_new):
            return Trajectory(dense, t_next, state_new)

        factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, max(1.0, _SAFETY * err**-0.2))
        h *= factor
        t, state, force, g_left = t_next, state_new, stages[-2:], g

    return Trajectory(dense, t, state)

