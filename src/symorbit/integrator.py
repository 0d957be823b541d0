"""Adaptive DOP853 integration of r'' = g(r, mu) with dense output.

The integrator propagates the eighth-order solution of Dormand and Prince's
8(5,3) pair, controls the step with the error norm of its fifth- and
third-order estimators, and keeps with every accepted step what its
seventh-order interpolant is built from, so downstream event detection can
refine crossing times without re-integrating (Hairer, Norsett & Wanner,
Solving ODEs I, II.5 and II.6). The error tolerances are fixed, relative and
absolute both 1e-12 (`_RTOL`, `_ATOL`); the first step comes from Hairer's
starting heuristic and no step is capped. Leaving the validity annulus
terminates the flow with a DomainExit carrying the trajectory up to the
refined exit, whose message names the exit time. An optional stop callback
sees each accepted step's record and end state after the annulus check and
ends the flow after the first step for which it returns true: terminal event
location (II.6). It changes no step before that one, so the trajectory it
ends keeps the step controller's state there (`_Resume`), and a later flow
from the same start, in the same field at the same mu, continues it past its
end (`flow`'s prefix) instead of repeating its steps. A span at or below the time resolution (`_RESOLUTION`) holds no step
and is refused.

Only this module knows the tableau, the step record, the dense-output matrix
P and, from P's shape, the stage count and the interpolant's degree. The step
loop runs on plain floats and calls no numpy, with the tableau products
unrolled. Neither the step nor `_normal_terms` is written by hand.
There is one step kernel per force family, generated from `_A`, `_E3`, `_E5`
and the family's force text (`forcefield._FAMILIES`) and compiled on first
use (`_step_source`, `_step_kernel`): each stage's force is written out
inline, on the stage radius that the origin guard reads too, so a step makes
no force call. `_normal_terms` is generated from `_P` at import. The
generated text is in linecache, so tracebacks and profiles show its lines.
A trial step evaluates the 12 stages and the error norm; only an
accepted one goes on to the FSAL stage f(t + h, y_new) and the three extra
stages of the dense output. No stage is guarded on its own: one rule, applied
after stage 11 and to the dense stages, halves h for a raising force, a
non-finite value or a stage within 1e-12 of the origin. A step's record is
(t_left, h, y_left, stages): its start time and size, its start state as a
4-tuple and its 16 stages (velocity, force) as one flat tuple. A `Trajectory`
is its step records plus its end node.

P is the interpolant in monomial form, y(t_left + theta h) = y_left +
h K^T P [theta, ..., theta^7] (K the stage matrix), derived once in exact
rational arithmetic from the weights and the dense-output coefficients. The
coefficients Q = K^T P are built only where something samples the step
(`_q_matrix`) and evaluated by one Horner rule: on floats for one known
step (`_step_eval`, `_refine_in_step`) and on arrays for many times at once
(`eval_many`, over all steps' Q stacked in one batched product), bit for bit
alike. `eval_many` is the one lookup of the step that holds a time; a reader
that knows its step (`final_state`, `truncated`, the section scan) calls
`_step_eval` on it. At theta 0 `_step_eval` and `eval_many` give the left
node as it is, `_step_eval` with no Q; `_refine_in_step` evaluates theta in
(0, 1] only. Q is formed once per step: a trajectory that continues a prefix
takes the prefix's stacked Q and forms only its new steps'. `eval_many` runs
Horner's rule in place on the gathered coefficients, and on the position rows
only when asked for positions (width 2). The section scan takes the coefficients of a step's
position projected on its normal, and the sum of their moduli, from one call
of `_normal_terms`, formed from the stages without building Q.

Every event search of the package is built from three primitives here:
`_bisect`, the one interval-halving loop; `_crossed` and `_sign_changes`, the
one rule for where a sampled function changes sign (a zero counts at the end
of the interval that reaches it); and `_refine_in_step`, the one refinement
of an event inside a step, which bisects the step fraction with the step's Q
built once. The annulus exit and the apsides are refined by the last; the
section scan, its polynomial root search, the axis crossings of an assembled
orbit and the turning radii bisect with `_crossed` as the predicate.

The annulus check reads each accepted step's end node and, where the radial
speed changes sign across the step and a node lies within reach of a bound,
the turning point between the nodes: an apsis just past a bound is an exit
even when both nodes are inside.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainExit, StepFailure
from .forcefield import ForceField, _derived, _force_lines, _generated

# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, 2nd ed., II.5 and II.6):
# twelve stages for the eighth-order solution, whose derivative is stage 12
# (the next step's first stage, FSAL), and stages 13-15 for the seventh-order
# dense output. Nonzero entries of A by row (stage, 0-based) and column; the
# field is autonomous, so the nodes c (the row sums) are not needed. Row 12
# is the weight vector B.
_A_ENTRIES = (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {
        0: 2.41365134159266685502369798665e-1,
        2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1,
    },
    {
        0: 3.7037037037037037037037037037e-2,
        3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1,
    },
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1, 4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {
        0: 3.70920001185047927108779319836e-2,
        3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1,
        5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3,
    },
    {
        0: 6.24110958716075717114429577812e-1,
        3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1,
        5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1,
        7: -4.34898841810699588477366255144e1,
    },
    {
        0: 4.77662536438264365890433908527e-1,
        3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1,
        5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1,
        7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2,
    },
    {
        0: -9.3714243008598732571704021658e-1,
        3: 5.18637242884406370830023853209,
        4: 1.09143734899672957818500254654,
        5: -8.14978701074692612513997267357,
        6: -1.85200656599969598641566180701e1,
        7: 2.27394870993505042818970056734e1,
        8: 2.49360555267965238987089396762,
        9: -3.0467644718982195003823669022,
    },
    {
        0: 2.27331014751653820792359768449,
        3: -1.05344954667372501984066689879e1,
        4: -2.00087205822486249909675718444,
        5: -1.79589318631187989172765950534e1,
        6: 2.79488845294199600508499808837e1,
        7: -2.85899827713502369474065508674,
        8: -8.87285693353062954433549289258,
        9: 1.23605671757943030647266201528e1,
        10: 6.43392746015763530355970484046e-1,
    },
    {
        0: 5.42937341165687622380535766363e-2,
        5: 4.45031289275240888144113950566,
        6: 1.89151789931450038304281599044,
        7: -5.8012039600105847814672114227,
        8: 3.1116436695781989440891606237e-1,
        9: -1.52160949662516078556178806805e-1,
        10: 2.01365400804030348374776537501e-1,
        11: 4.47106157277725905176885569043e-2,
    },
    {
        0: 5.61675022830479523392909219681e-2,
        6: 2.53500210216624811088794765333e-1,
        7: -2.46239037470802489917441475441e-1,
        8: -1.24191423263816360469010140626e-1,
        9: 1.5329179827876569731206322685e-1,
        10: 8.20105229563468988491666602057e-3,
        11: 7.56789766054569976138603589584e-3,
        12: -8.298e-3,
    },
    {
        0: 3.18346481635021405060768473261e-2,
        5: 2.83009096723667755288322961402e-2,
        6: 5.35419883074385676223797384372e-2,
        7: -5.49237485713909884646569340306e-2,
        10: -1.08347328697249322858509316994e-4,
        11: 3.82571090835658412954920192323e-4,
        12: -3.40465008687404560802977114492e-4,
        13: 1.41312443674632500278074618366e-1,
    },
    {
        0: -4.28896301583791923408573538692e-1,
        5: -4.69762141536116384314449447206,
        6: 7.68342119606259904184240953878,
        7: 4.06898981839711007970213554331,
        8: 3.56727187455281109270669543021e-1,
        12: -1.39902416515901462129418009734e-3,
        13: 2.9475147891527723389556272149,
        14: -9.15095847217987001081870187138,
    },
)
# The error estimators: B minus the third-order weights (E3), and the
# fifth-order error weights (E5). Neither reads stage 12.
_BHH_ENTRIES = {
    0: 0.244094488188976377952755905512,
    8: 0.733846688281611857341361741547,
    11: 0.220588235294117647058823529412e-1,
}
_E5_ENTRIES = {
    0: 0.1312004499419488073250102996e-1,
    5: -0.1225156446376204440720569753e1,
    6: -0.4957589496572501915214079952,
    7: 0.1664377182454986536961530415e1,
    8: -0.3503288487499736816886487290,
    9: 0.3341791187130174790297318841,
    10: 0.8192320648511571246570742613e-1,
    11: -0.2235530786388629525884427845e-1,
}
# The dense output's last four coefficient vectors (II.6), by stage.
_D_ENTRIES = (
    {
        0: -0.84289382761090128651353491142e1,
        5: 0.56671495351937776962531783590,
        6: -0.30689499459498916912797304727e1,
        7: 0.23846676565120698287728149680e1,
        8: 0.21170345824450282767155149946e1,
        9: -0.87139158377797299206789907490,
        10: 0.22404374302607882758541771650e1,
        11: 0.63157877876946881815570249290,
        12: -0.88990336451333310820698117400e-1,
        13: 0.18148505520854727256656404962e2,
        14: -0.91946323924783554000451984436e1,
        15: -0.44360363875948939664310572000e1,
    },
    {
        0: 0.10427508642579134603413151009e2,
        5: 0.24228349177525818288430175319e3,
        6: 0.16520045171727028198505394887e3,
        7: -0.37454675472269020279518312152e3,
        8: -0.22113666853125306036270938578e2,
        9: 0.77334326684722638389603898808e1,
        10: -0.30674084731089398182061213626e2,
        11: -0.93321305264302278729567221706e1,
        12: 0.15697238121770843886131091075e2,
        13: -0.31139403219565177677282850411e2,
        14: -0.93529243588444783865713862664e1,
        15: 0.35816841486394083752465898540e2,
    },
    {
        0: 0.19985053242002433820987653617e2,
        5: -0.38703730874935176555105901742e3,
        6: -0.18917813819516756882830838328e3,
        7: 0.52780815920542364900561016686e3,
        8: -0.11573902539959630126141871134e2,
        9: 0.68812326946963000169666922661e1,
        10: -0.10006050966910838403183860980e1,
        11: 0.77771377980534432092869265740,
        12: -0.27782057523535084065932004339e1,
        13: -0.60196695231264120758267380846e2,
        14: 0.84320405506677161018159903784e2,
        15: 0.11992291136182789328035130030e2,
    },
    {
        0: -0.25693933462703749003312586129e2,
        5: -0.15418974869023643374053993627e3,
        6: -0.23152937917604549567536039109e3,
        7: 0.35763911791061412378285349910e3,
        8: 0.93405324183624310003907691704e2,
        9: -0.37458323136451633156875139351e2,
        10: 0.10409964950896230045147246184e3,
        11: 0.29840293426660503123344363579e2,
        12: -0.43533456590011143754432175058e2,
        13: 0.96324553959188282948394950600e2,
        14: -0.39177261675615439165231486172e2,
        15: -0.14972683625798562581422125276e3,
    },
)


def _table(rows, width: int) -> np.ndarray:
    """Dense array of the nonzero entries {column: value} of each row."""
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        for j, a in row.items():
            out[i, j] = a
    return out


_A = _table(_A_ENTRIES, 16)
_B = _A[12, :12]
_E3 = _B - _table([_BHH_ENTRIES], 12)[0]
_E5 = _table([_E5_ENTRIES], 12)[0]
_D = _table(_D_ENTRIES, 16)


def _monomial_dense_output(b, d) -> np.ndarray:
    """P of y(t0 + theta h) = y0 + h K^T P [theta, ..., theta^7], K the 16
    stages: each entry the exact value, rounded once, that the weights b and
    the rows of d give.

    The interpolant of II.6 is y0 + theta (f0 + (1 - theta) (f1 + theta (f2 +
    (1 - theta) (f3 + theta (f4 + (1 - theta) (f5 + theta f6)))))) with
    f0 = h b.K (the step's increment), f1 = h k0 - f0, f2 = 2 f0 - h (k12 +
    k0) and f3..f6 = h d.K: row s of P collects the stage-s weight of each f_j
    times the monomial coefficients of theta^a (1 - theta)^c, the product in
    front of f_j. Every such term is a float (a weight, its negative or twice
    it) repeated |binomial| times, so `math.fsum` of an entry's terms is its
    exact rational value rounded once.
    """
    n = d.shape[1]
    b = b.tolist() + [0.0] * (n - len(b))
    e0, e12 = ([1.0 if s == i else 0.0 for s in range(n)] for i in (0, 12))
    f = [
        [[w] for w in b],
        [[one, -w] for one, w in zip(e0, b)],
        [[2.0 * w, -one12, -one0] for w, one12, one0 in zip(b, e12, e0)],
        *([[w] for w in row] for row in d.tolist()),
    ]
    terms = [[[] for _ in f] for _ in range(n)]
    for j, fj in enumerate(f):
        a, c = (j + 2) // 2, (j + 1) // 2  # theta^a (1 - theta)^c in front of f_j
        for i in range(c + 1):
            sign, count = (-1.0) ** i, math.comb(c, i)
            for s in range(n):
                terms[s][a + i - 1] += [sign * t for t in fj[s]] * count
    return np.array([[math.fsum(entry) for entry in row] for row in terms])


_P = _monomial_dense_output(_B, _D)
_STAGES, _DEGREE = _P.shape


_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_MAX_TRIALS = 100_000  # accepted or rejected steps per flow, Hairer's NMAX: <= ~280 MB of records
# flow's time resolution relative to max(t_end, 1): its smallest step, and
# the remainder of the span it leaves uncovered. A span at or below it
# holds no step.
_RESOLUTION = 1e-14
# flow's relative and absolute error tolerances, read at each call; the
# acceptance bounds of the package were calibrated at these values.
_RTOL = _ATOL = 1e-12


@dataclass(frozen=True)
class State:
    t: float
    position: np.ndarray
    velocity: np.ndarray


class _Resume(NamedTuple):
    """The step controller of a flow that its stop callback ended, at the
    flow's last node: what the loop of `flow` would carry into its next trial.

    field and mu are the flow's; t, state, force and g are the last node's
    time, state, force (the FSAL stage) and r dr/dt; h is the next trial's
    step, the controller's update of the last accepted one; trials counts the
    trials taken; h_first is the first trial's step, `_initial_step`'s.
    """

    field: ForceField
    mu: float
    t: float
    state: tuple
    force: tuple
    g: float
    h: float
    trials: int
    h_first: float


class Trajectory:
    """Dense numerical solution on [0, t_end].

    Built from the records (t_left, h, y_left, stages) of its steps and its
    end node (t_end, y_end); the nodes `ts`, `ys` are the steps' left ends and
    the end node. interpolate() reads one time through `eval_many`: it
    reproduces each step's left node exactly; any other time, t_end included,
    is read from its step's interpolant (at t_end the last step's at theta 1,
    which may differ from the end node `ys[-1]` in the last bits), continuous
    across the whole span. final_state() reads that same value off the last
    step without the lookup.

    A trajectory that a stop callback ended, with no trial shortened to meet
    the flow's t_end, keeps the flow's controller state (`_Resume`), so that
    `flow` can continue it as a prefix.
    """

    def __init__(self, steps: list, t_end: float, y_end, resume: _Resume | None = None, head=None):
        self._dense = steps
        self.t_end = float(t_end)
        self._y_end = y_end
        self._resume = resume
        self._stacked = None  # t_left, h, y_left and Q of every step as arrays, built by _arrays
        self._head = head  # _arrays of a trajectory whose steps begin these ones, or None

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
        """t_left, h, y_left and Q of every step as arrays, built on first use.

        The steps that `_head`, a continued prefix's arrays, already holds are
        taken from it, so Q is formed once per step: a step's Q does not
        depend on the other steps of its batched product.
        """
        if self._stacked is None:
            head, self._head = self._head, None
            t_left, h, y_left, stages = zip(*self._dense[0 if head is None else len(head[0]) :])
            new = np.array(t_left), np.array(h), np.array(y_left), _q_matrices(stages)
            self._stacked = new if head is None else tuple(map(np.concatenate, zip(head, new)))
        return self._stacked

    def refine_in_step(self, i: int, pred):
        """`_refine_in_step` on step i: (t, state) at the first point of the
        step where pred(state), a predicate on (x, y, vx, vy), holds."""
        return _refine_in_step(self._dense[i], pred)

    def eval_many(self, ts, width: int = 4) -> np.ndarray:
        """States at every time of ts, shape (len(ts), width): the first
        `width` components (x, y, vx, vy), so width 2 gives positions only.

        Each time goes to the step that holds it (a node belongs to the later
        step, and times outside the span to the nearest step) and is
        evaluated by `_step_eval`'s rule, with the same float operations on
        arrays, so each row equals `_step_eval` on that step bit for bit; a
        step's left node time gives that node state exactly, and t_end the
        last step's interpolant at theta 1, not the end node. Horner's rule
        runs in place on the gathered coefficients: (acc + q_k) theta is
        theta (q_k + theta acc') rounded alike, since float + and * commute.
        """
        t_left, h, y_left, q = self._arrays()
        ts = np.asarray(ts, dtype=float)
        i = np.clip(np.searchsorted(self.ts, ts, side="right") - 1, 0, len(h) - 1)
        h, y_left, q = h[i, None], y_left[i, :width], q[i, :width]
        theta = (ts - t_left[i])[:, None] / h
        acc = q[:, :, -1] * theta
        for k in range(_DEGREE - 2, -1, -1):
            acc += q[:, :, k]
            acc *= theta
        acc *= h
        acc += y_left
        return np.where(theta == 0.0, y_left, acc)

    def interpolate(self, t: float) -> State:
        y = self.eval_many([t])[0]
        return State(t=float(t), position=y[:2], velocity=y[2:])

    def final_state(self) -> State:
        """The state at t_end, read from the last step at theta 1."""
        y = _step_eval(self._dense[-1], self.t_end)
        return State(t=self.t_end, position=y[:2], velocity=y[2:])

    def truncated(self, t_cut: float) -> "Trajectory":
        """Restriction to [0, t_cut]; keeps the step that straddles t_cut, and
        the controller state only when it keeps every step.

        The end node is read from the last kept step, the one whose left node
        is below t_cut. A t_cut exactly on a later step's left node therefore
        reads the kept step at theta 1, the value the cut trajectory's own
        `interpolate(t_cut)` returns, not that node's state.
        """
        if not 0.0 < t_cut <= self.t_end + 1e-15:
            raise ValueError(f"t_cut={t_cut} outside span (0, {self.t_end}]")
        steps = [d for d in self._dense if d[0] < t_cut]
        resume = self._resume if len(steps) == len(self._dense) else None
        return Trajectory(steps, t_cut, _step_eval(steps[-1], t_cut), resume)


def _q_matrices(stage_rows) -> np.ndarray:
    """Q = K^T P of each step, shape (steps, 4, degree): row i holds the
    coefficients of theta, ..., theta^degree of state component i."""
    k = np.array(stage_rows).reshape(len(stage_rows), _STAGES, 4)
    return k.transpose(0, 2, 1) @ _P


def _q_matrix(stages) -> np.ndarray:
    """Q of one step, by the batched product `eval_many` uses."""
    return _q_matrices([stages])[0]


def _horner(c, th: float) -> float:
    """c[0] + c[1] th + ... + c[-1] th^(len(c) - 1) by Horner's rule.

    The full-degree polynomial of a step, of _DEGREE + 1 coefficients, is
    evaluated unrolled; shorter ones, such as the derivatives the section scan
    builds, by the loop. Both take the same operations in the same order.
    """
    if len(c) == 8:  # _DEGREE + 1
        c0, c1, c2, c3, c4, c5, c6, c7 = c
        return c0 + th * (c1 + th * (c2 + th * (c3 + th * (c4 + th * (c5 + th * (c6 + th * c7))))))
    acc = c[-1]
    for ck in reversed(c[:-1]):
        acc = ck + th * acc
    return acc


def _coefficient_bound(c) -> float:
    """|c[1]| + ... + |c[-1]|, summed left to right (builtin sum() rounds
    otherwise from Python 3.12 on). No root on [0, 1] when |c[0]| exceeds it."""
    bound = 0.0
    for ck in c[1:]:
        bound += abs(ck)
    return bound


def _dense_at(y_left, h: float, rows, theta: float) -> list:
    """The one dense-output rule off the left node: component i at theta is
    y_left[i] + h theta (q1 + theta (q2 + ...)) over row i of Q. At theta 0
    `_step_eval` takes the node itself; `_refine_in_step` never reaches it."""
    return [y0 + h * (theta * _horner(row, theta)) for y0, row in zip(y_left, rows)]


def _step_eval(step, t: float) -> np.ndarray:
    """State at time t on the interpolant of one step record; at the left
    node (theta 0) that node's state, without forming Q."""
    t_left, h, y_left, stages = step
    theta = (t - t_left) / h
    if theta == 0.0:
        return np.array(y_left)
    return np.array(_dense_at(y_left, h, _q_matrix(stages).tolist(), theta))


def _rms(values, scale) -> float:
    """RMS of values / scale, summed left to right as `_coefficient_bound` sums."""
    total = 0.0
    try:
        for c, s in zip(values, scale):
            total += (c / s) ** 2
    except OverflowError:  # float ** raises where x * x would round to inf
        return math.inf
    return math.sqrt(total / len(values))


def _initial_step(accel, mu, y0, f0, rtol, atol):
    # Hairer-style starting-step heuristic; y0 and f0 are 4-tuples of floats.
    # The span's end caps the result in flow's loop, as it caps every trial.
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
        h1 = (0.01 / max(d1, d2)) ** 0.125  # 1 / (error order 7 + 1)
    return min(100 * h0, h1)


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
    rows = _q_matrix(stages).tolist()
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


def _dot(row, prefix: str) -> str:
    """The tableau row's product with the stage variables `prefix`0, 1, ...:
    `a * u` over its nonzero columns, left to right, the coefficient a literal."""
    # Python floats: repr of a numpy scalar reads np.float64(...) under numpy 2
    return " + ".join(f"{a!r} * {prefix}{j}" for j, a in enumerate(row.tolist()) if a != 0.0)


def _step_source(kind: str) -> str:
    """Source of the DOP853 step of the force family `kind`, written from `_A`,
    `_E3`, `_E5` and the family's force text (`forcefield._force_lines`). Each
    tableau product is unrolled on floats by `_dot`; each stage i's position
    is followed by its radius r{i} = hypot(x{i}, y{i}) and the family's force
    written out on it, which no call separates from the step. Stage 12's
    position is the solution (xn, yn), its radius rn."""

    def position(i: int) -> tuple:
        return ("xn", "yn", "rn") if i == 12 else (f"x{i}", f"y{i}", f"r{i}")

    def stage(i: int) -> list:
        # Stage i's state from the stages before it and its position's radius.
        x, y, r = position(i)
        row = _A[i]
        return [
            f"{x} = x + h * ({_dot(row, 'u')})",
            f"{y} = y + h * ({_dot(row, 'w')})",
            f"u{i} = u0 + h * ({_dot(row, 'gx')})",
            f"w{i} = w0 + h * ({_dot(row, 'gy')})",
            f"{r} = hypot({x}, {y})",
        ]

    def force(i: int) -> list:
        return _force_lines(kind, *position(i), f"gx{i}", f"gy{i}")

    indent = "\n        "
    trial, dense = (
        indent.join(line for i in r for line in stage(i) + force(i)) for r in (range(1, 12), range(13, 16))
    )
    errors = indent.join(
        f"e{k}{c} = ({_dot(e, p)}) / s{c}" for k, e in ((5, _E5), (3, _E3)) for c, p in zip("xyuw", ("u", "w", "gx", "gy"))
    )
    radii = ", ".join([f"r{i}" for i in range(1, 12)] + ["rn"])
    stages = ", ".join(f"u{s}, w{s}, gx{s}, gy{s}" for s in range(_STAGES))
    return f'''def _dop853_step_{kind}(constants, mu, h, state, force, rtol, atol):
    """One trial step of DOP853 on floats, with the {kind} force.

    constants are the field's derived force constants, state is (x, y, vx,
    vy) and force the acceleration there, the first stage (FSAL). The trial
    makes one decision: it returns None, and the caller halves h, when a
    force evaluation raises ZeroDivisionError or OverflowError (as Python's
    float ** does), or when after stage 11 the error norm or the new state is
    not finite or a stage position or the new position lies within 1e-12 of
    the origin. A non-finite stage reaches the norm through the stages after
    it, so no stage is checked on its own. A trial whose finite norm is above
    1 stops there with 11 force evaluations and returns (error norm, None,
    None). An accepted one goes on to the FSAL stage f(t + h, new state) and
    the dense output's three extra stages, returns None if a force of those is
    not finite or one of them lies within 1e-12 of the origin, and otherwise
    (error norm, new state, stages): the 16 stage derivatives (vx, vy, ax, ay)
    one after another in one flat tuple.
    """
    hypot, isfinite = math.hypot, math.isfinite
    {", ".join(_derived(kind))}, = constants
    x, y, u0, w0 = state
    gx0, gy0 = force
    try:
        {trial}
        # Eighth-order solution; stage 12 is its derivative.
        {indent.join(stage(12))}

        # Error norm of the 5th- and 3rd-order estimators, scaled per component.
        sx = atol + rtol * max(abs(x), abs(xn))
        sy = atol + rtol * max(abs(y), abs(yn))
        su = atol + rtol * max(abs(u0), abs(u12))
        sw = atol + rtol * max(abs(w0), abs(w12))
        {errors}
        n5 = e5x * e5x + e5y * e5y + e5u * e5u + e5w * e5w
        n3 = e3x * e3x + e3y * e3y + e3u * e3u + e3w * e3w
        err = 0.0 if n5 == 0.0 and n3 == 0.0 else h * n5 / math.sqrt((n5 + 0.01 * n3) * 4.0)
        r_min = min({radii})
        if not (isfinite(err + xn + yn + u12 + w12) and r_min >= 1e-12):  # a sum is finite only if every term is
            return None
        if err > 1.0:
            return err, None, None

        # Accepted: the FSAL stage and the dense output's three extra stages.
        {indent.join(force(12))}
        {dense}
    except (ZeroDivisionError, OverflowError):  # raised by float ** in the force
        return None
    forces = gx12 + gy12 + gx13 + gy13 + gx14 + gy14 + gx15 + gy15  # finite only if every term is
    if not (isfinite(forces) and min(r13, r14, r15) >= 1e-12):
        return None
    return err, (xn, yn, u12, w12), ({stages})
'''


def _normal_source() -> str:
    """Source of `_normal_terms`, written from `_P`: each coefficient sums
    `p_s * P[s, j]` over the stages s of P's nonzero rows, zero entries
    included, and the bound sums the coefficients' moduli left to right, as
    `_coefficient_bound` sums them."""
    rows = [s for s in range(_STAGES) if _P[s].any()]
    projections = "\n    ".join(f"p{s} = n0 * k[{4 * s}] + n1 * k[{4 * s + 1}]" for s in rows)
    coefficients = "\n    ".join(
        f"c{j + 1} = h * (" + " + ".join(f"p{s} * {float(_P[s, j])!r}" for s in rows) + ")" for j in range(_DEGREE)
    )
    names = [f"c{j + 1}" for j in range(_DEGREE)]
    return f'''def _normal_terms(step, n0, n1):
    """((c1, ..., cD), |c1| + ... + |cD|) of g(theta) = n0 x + n1 y = g(0) +
    c1 theta + ... + cD theta^D on one step: h times the stage velocities
    projected on (n0, n1) dotted with the columns of P, on floats, and the
    coefficient bound of `_coefficient_bound` (its 0.0 + |c1| is |c1|)."""
    _, h, _, k = step
    {projections}
    {coefficients}
    return ({", ".join(names)}), {" + ".join(f"abs({c})" for c in names)}
'''


_normal_terms = _generated(_normal_source(), "<symorbit.integrator: section-normal coefficients from P>")["_normal_terms"]


@functools.cache
def _step_kernel(kind: str):
    """The DOP853 step of the force family `kind` (`_step_source`), compiled
    once per process on first use: a process that integrates one family pays
    for one compilation."""
    filename = f"<symorbit.integrator: DOP853 step with the {kind} force>"
    return _generated(_step_source(kind), filename)[f"_dop853_step_{kind}"]


def _continuable(prefix, field, mu, state, t_end, min_step) -> _Resume | None:
    """`prefix`'s controller state when the flow of `field` at mu from `state`
    over [0, t_end] repeats the prefix's trials exactly, else None.

    That is when the prefix kept its state (`Trajectory._resume`) and ran with
    the same field object, the same mu and the same start state, bit for bit;
    when t_end caps none of its trials; and when none of its steps is below
    the new min_step. The trials at a node shrink until one is accepted: the
    first is `_initial_step`'s h_first at t = 0 and at most `_MAX_FACTOR`
    times the step before at any later node, so none reaches past t_end when
    max(h_first, _MAX_FACTOR max h) <= t_end - t for the prefix's last node
    t. The accepted one, the step, is the smallest, so no trial is below a
    min_step that no step is below.
    """
    resume = None if prefix is None else prefix._resume
    if resume is None or resume.field is not field:
        return None
    # Bits, not values: -0.0 is not 0.0, and a NaN is itself.
    if struct.pack("<5d", resume.mu, *prefix._dense[0][2]) != struct.pack("<5d", mu, *state):
        return None
    hs = [step[1] for step in prefix._dense]
    if not (max(resume.h_first, _MAX_FACTOR * max(hs)) <= t_end - resume.t and min(hs) >= min_step):
        return None
    return resume


def flow(
    field: ForceField,
    mu: float,
    x,
    v,
    t_end: float,
    stop=None,
    prefix: Trajectory | None = None,
) -> Trajectory:
    """Integrate r'' = g(r, mu) from (x, v) over [0, t_end] at the module's
    tolerances `_RTOL` and `_ATOL`. A t_end at or below the time resolution
    `_RESOLUTION` max(t_end, 1), where no step fits, is a ValueError.

    The first step is `_initial_step`'s estimate and every later one the
    controller's, capped by nothing but the span's end. Raises DomainExit
    when the orbit leaves the annulus, its trajectory ending at the refined
    exit, or when x lies outside it, with no trajectory; and
    StepFailure after _MAX_TRIALS trials, when the step size underflows, or
    when the force at the launch or at the starting-step probe raises
    ZeroDivisionError or OverflowError. Each trial is one call of the step
    kernel of the field's force family (`_step_kernel`); a trial it rejects by
    its one rule halves h, and a finite error norm above 1 shrinks h by the
    controller.

    `stop(step, y_right)`, when given, is called with the record (t_left, h,
    y_left, stages) and the end state (four floats) of every accepted step
    that stays in the annulus; the trajectory then ends after the first step
    for which it returns true. The step sequence up to there is the one
    without `stop`. Unless a trial was shortened to meet t_end, the returned
    trajectory keeps the controller state there.

    `prefix`, a trajectory that a stop callback ended, is continued instead
    of integrated again when the flow from (x, v) would repeat its steps
    (`_continuable`: the same field object, mu and start state, bit for bit,
    and a t_end that caps none of its trials): the loop starts at the
    prefix's last node with its controller state and its step records. The
    result is the flow without `prefix`, bit for bit, as it is when the
    prefix does not qualify and the flow starts at the launch. `stop` and
    `prefix` are not taken together.
    """
    if not 0.0 < t_end < math.inf:  # false for NaN too
        raise ValueError(f"t_end must be a finite number > 0, got {t_end}")
    min_step = _RESOLUTION * max(t_end, 1.0)
    if t_end <= min_step:
        raise ValueError(f"t_end={t_end:g} is at or below the integrator's time resolution {_RESOLUTION:g}")
    if stop is not None and prefix is not None:
        raise ValueError("flow takes a stop callback or a prefix, not both")
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if not field.contains(x[0], x[1]):
        raise DomainExit(f"initial position {tuple(x.tolist())} outside annulus")

    r_in, r_out = field.annulus
    accel = field.acceleration
    step_kernel, constants = _step_kernel(field.perturbation.kind), field._force_constants
    rtol, atol = _RTOL, _ATOL

    state = (float(x[0]), float(x[1]), float(v[0]), float(v[1]))
    resume = _continuable(prefix, field, mu, state, t_end, min_step)
    if resume is None:
        t = 0.0
        try:
            force = accel(state[0], state[1], mu)
            h = _initial_step(accel, mu, state, (state[2], state[3], *force), rtol, atol)
        except (ZeroDivisionError, OverflowError) as exc:  # float ** in the force: no first stage to halve towards
            raise StepFailure(f"force evaluation at the launch raised {type(exc).__name__}: {exc}") from exc
        g_left = state[0] * state[2] + state[1] * state[3]  # r dr/dt at the step's left node
        dense = []
        trials = 0
        h_first = h
        head = None
    else:
        _, _, t, state, force, g_left, h, trials, h_first = resume
        dense = list(prefix._dense)
        head = prefix._stacked  # the prefix's Q, when it was formed
    capped = False  # a trial was shortened to meet t_end

    while t < t_end:
        if t_end - t <= min_step:
            break  # remainder below time resolution: the span is covered
        if h > t_end - t:  # min(h, t_end - t), recording the cap
            h, capped = t_end - t, True
        if not h >= min_step:  # a NaN step (non-finite launch force) never shrinks below it
            raise StepFailure(f"step size underflow at t={t} (h={h})")
        if trials == _MAX_TRIALS:
            raise StepFailure(f"step budget _MAX_TRIALS = {_MAX_TRIALS} trials spent at t={t} of {t_end}")
        trials += 1

        trial = step_kernel(constants, mu, h, state, force, rtol, atol)
        if trial is None:
            h *= 0.5
            continue
        err, state_new, stages = trial
        if state_new is None:
            h *= max(_MIN_FACTOR, _SAFETY * err**-0.125)
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
                trajectory=Trajectory(dense, t_exit, y_exit, head=head),
            )

        factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, max(1.0, _SAFETY * err**-0.125))
        h *= factor
        force = stages[50:52]  # stage 12's force (FSAL)
        if stop is not None and stop(step, state_new):
            kept = None if capped else _Resume(field, mu, t_next, state_new, force, g, h, trials, h_first)
            return Trajectory(dense, t_next, state_new, kept)
        t, state, g_left = t_next, state_new, g

    return Trajectory(dense, t, state, head=head)
