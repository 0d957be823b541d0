"""Closed-form oracles used to freeze expected values, independent of src/.

Everything here comes from textbook two-body geometry (vis-viva, conic
apsides) or direct algebra on the force law; nothing imports the solver's
numerical paths. The serialization references are the straightforward
algorithms that `symorbit.serialize` must reproduce byte for byte, and the
hot-path references below are the earlier, plainer forms of the force, the
interpolant's Horner rule, its batched evaluation, the section-normal
coefficients and the section frame, which the rewritten ones must equal bit
for bit. The scipy orbits are the solver's independent twins.
"""

import json
import math
from functools import partial

import numpy as np


def semi_major_axis(r0: float, speed: float, kappa: float) -> float:
    """Vis-viva: 1/a = 2/r - v^2/kappa for the inverse-square law."""
    return 1.0 / (2.0 / r0 - speed * speed / kappa)


def kepler_period(a_s: float, kappa: float) -> float:
    return 2.0 * math.pi * a_s**1.5 / math.sqrt(kappa)


def kepler_apsis_radii(r0: float, sigma: float, kappa: float = 1.0) -> tuple[float, float]:
    """(r_min, r_max) for a vertical launch from an apsis at radius r0.

    sigma is the speed in units of the circular speed at r0; sigma > 1 makes
    the launch point the pericenter, sigma < 1 the apocenter.
    """
    v = sigma * math.sqrt(kappa / r0)
    a_s = semi_major_axis(r0, v, kappa)
    other = 2.0 * a_s - r0  # apsides are symmetric about the center line
    return (min(r0, other), max(r0, other))


def circular_speed_power_law(kappa: float, alpha: float, p: float) -> float:
    """sqrt(p U'(p)) with U'(p) = kappa p^-(alpha+1), done by hand."""
    return math.sqrt(kappa * p**-alpha)


def perturbed_radial_sigma(mu: float, lam: float, beta: float, kappa: float, alpha: float, p: float) -> float:
    """Exact orthogonal-crossing speed ratio for a radial perturbation.

    A central perturbation keeps the problem central, so the solved orbit is
    the circular orbit of the combined field at radius p; its speed is
    sqrt(p * (kappa p^-(alpha+1) + mu lam p^-(beta+1))).
    """
    v_sq = kappa * p**-alpha + mu * lam * p**-beta
    return math.sqrt(v_sq) / circular_speed_power_law(kappa, alpha, p)


def apsidal_limit_power_law(alpha: float) -> float:
    """Near-circular apsidal angle pi / sqrt(2 - alpha), valid for alpha < 2."""
    return math.pi / math.sqrt(2.0 - alpha)


_MARK = "@~f17~@"  # sentinel stripped after encoding; never appears in payload strings


def _tag(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite value {obj} not serializable")
        return _MARK + format(obj, ".17g") + _MARK
    if isinstance(obj, dict):
        return {k: _tag(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_tag(v) for v in obj]
    return obj


def json_dumps_17g(obj) -> str:
    """json.dumps(indent=2, sort_keys=True) with every float at 17 significant
    digits: each float is tagged as a marked string, encoded, and unmarked."""
    text = json.dumps(_tag(obj), indent=2, sort_keys=True)
    return text.replace('"' + _MARK, "").replace(_MARK + '"', "")


def csv_text_17g(header, rows) -> str:
    """The CSV text of header and rows, one cell at a time: floats at 17
    significant digits, anything else as str."""
    lines = [",".join(header)]
    lines += [",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def half_mode_orbit_scipy(kappa, alpha, cx, px, cy, py, mu, eta, radius=1.0):
    """(sigma*, period) of the half-mode orbit of the axis_poly family, by scipy.

    The right-hand side is written out here from kappa, alpha and the axis_poly
    constants: a = -kappa r / |r|^(alpha+2) + mu (cx x^px, cy y^py). scipy's
    DOP853 (rtol = atol = 1e-13) runs from the vertical launch at (radius, 0)
    with sigma times the circular speed to a terminal event on y = 0 crossed
    downwards; brentq finds the sigma in [1 - eta, 1 + eta] where the
    horizontal velocity there vanishes. The x-axis reflection closes the orbit,
    so the period is twice the crossing time. Needs scipy.
    """
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq

    v0 = math.sqrt(kappa * radius**-alpha)
    window = 2.0 * (2.0 * math.pi * radius / v0)

    def rhs(t, s):
        x, y, vx, vy = s
        f = -kappa / math.hypot(x, y) ** (alpha + 2.0)
        return [vx, vy, f * x + mu * cx * x**px, f * y + mu * cy * y**py]

    def down_crossing(t, s):
        return s[1]

    down_crossing.terminal = True
    down_crossing.direction = -1

    def crossing(sigma):
        sol = solve_ivp(rhs, (0.0, window), [radius, 0.0, 0.0, sigma * v0], method="DOP853",
                        rtol=1e-13, atol=1e-13, events=down_crossing)
        (t_star,), (state,) = sol.t_events[0], sol.y_events[0]
        return t_star, state[2]

    sigma_star = brentq(lambda s: crossing(s)[1], 1.0 - eta, 1.0 + eta, xtol=1e-15, rtol=1e-15)
    return sigma_star, 2.0 * crossing(sigma_star)[0]


def quarter_mode_orbit_scipy(kappa, alpha, cx, px, cy, py, mu, eta, radius=1.0):
    """(sigma*, period) of the quarter-mode orbit of the axis_poly family, by scipy.

    The twin of `half_mode_orbit_scipy`, with the same right-hand side: scipy's
    DOP853 (rtol = atol = 1e-13) runs from the vertical launch at (radius, 0)
    with sigma times the circular speed to a terminal event on x = 0 crossed
    downwards (the first arrival on the positive y-axis); brentq finds the
    sigma in [1 - eta, 1 + eta] where the vertical velocity there vanishes.
    Both axis reflections close the orbit, so the period is four times the
    crossing time. Needs scipy.
    """
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq

    v0 = math.sqrt(kappa * radius**-alpha)
    window = 2.0 * math.pi * radius / v0

    def rhs(t, s):
        x, y, vx, vy = s
        f = -kappa / math.hypot(x, y) ** (alpha + 2.0)
        return [vx, vy, f * x + mu * cx * x**px, f * y + mu * cy * y**py]

    def down_crossing(t, s):
        return s[0]

    down_crossing.terminal = True
    down_crossing.direction = -1

    def crossing(sigma):
        sol = solve_ivp(rhs, (0.0, window), [radius, 0.0, 0.0, sigma * v0], method="DOP853",
                        rtol=1e-13, atol=1e-13, events=down_crossing)
        (t_star,), (state,) = sol.t_events[0], sol.y_events[0]
        return t_star, state[3]

    sigma_star = brentq(lambda s: crossing(s)[1], 1.0 - eta, 1.0 + eta, xtol=1e-15, rtol=1e-15)
    return sigma_star, 4.0 * crossing(sigma_star)[0]


def _zero_term(x, y):
    return 0.0, 0.0


def _radial_power_term(lam, beta, x, y):
    s = -lam / math.hypot(x, y) ** (beta + 2.0)
    return s * x, s * y


def _axis_poly_term(cx, px, cy, py, x, y):
    return cx * x**px, cy * y**py


_TERMS = {"zero": _zero_term, "radial_power": _radial_power_term, "axis_poly": _axis_poly_term}


def acceleration_by_term(kappa, alpha, kind, constants, x, y, mu):
    """The force as the base power law plus mu times the family's unscaled
    term, bound with its constants by functools.partial: the evaluation order
    of the package before each field had one fused closure."""
    term = partial(_TERMS[kind], *constants)
    r = math.hypot(x, y)
    s = -kappa / r ** (alpha + 2.0)
    px, py = term(x, y)
    return s * x + mu * px, s * y + mu * py


def same_float(a, b):
    """a and b are the same float: equal with the same sign, or both NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def trajectory_bits(traj) -> bytes:
    """The bits of every step record (t_left, h, y_left, stages) of a
    trajectory and of its end node: equal only for the same floats, signed
    zeros and NaNs included."""
    rows = [np.array([t, h, *y, *k]) for t, h, y, k in traj._dense]
    return b"".join(row.tobytes() for row in rows) + np.array([traj.t_end, *traj._y_end]).tobytes()


def horner_loop(c, th):
    """c[0] + c[1] th + ... by Horner's rule, as one loop over the coefficients."""
    acc = c[-1]
    for ck in reversed(c[:-1]):
        acc = ck + th * acc
    return acc


def eval_many_loop(steps, t_end, p, ts):
    """States at the times ts on the dense output of the step records
    `steps` (t_left, h, y_left, stages) of a span ending at t_end, as
    `Trajectory.eval_many` evaluated them with Horner's rule as a loop that
    builds a new array per coefficient: Q = K^T p of every step by one
    batched product, each time on the step of the last node at or before it
    (the first step before the span, the last at and past its end), and a
    step's left node state itself at theta 0."""
    t_left = np.array([step[0] for step in steps])
    h = np.array([step[1] for step in steps])
    y_left = np.array([step[2] for step in steps])
    q = np.array([step[3] for step in steps]).reshape(len(steps), p.shape[0], 4).transpose(0, 2, 1) @ p
    ts = np.asarray(ts, dtype=float)
    i = np.clip(np.searchsorted(np.append(t_left, t_end), ts, side="right") - 1, 0, len(steps) - 1)
    h, y_left, q = h[i, None], y_left[i], q[i]
    theta = (ts - t_left[i])[:, None] / h
    acc = q[:, :, -1]
    for k in range(q.shape[2] - 2, -1, -1):
        acc = q[:, :, k] + theta * acc
    return np.where(theta == 0.0, y_left, y_left + h * (theta * acc))


def normal_coefficients_loop(step, n0, n1, p):
    """c1, ..., cD of the step's position projected on (n0, n1), on floats:
    h times the sum, left to right over the stages s of p's nonzero rows, of
    (n0 vx_s + n1 vy_s) p[s, j], as the section scan formed them before the
    coefficients and their bound came from one generated function."""
    _, h, _, k = step
    rows = [s for s in range(p.shape[0]) if p[s].any()]
    projected = {s: n0 * k[4 * s] + n1 * k[4 * s + 1] for s in rows}
    out = []
    for j in range(p.shape[1]):
        acc = projected[rows[0]] * float(p[rows[0], j])
        for s in rows[1:]:
            acc = acc + projected[s] * float(p[s, j])
        out.append(h * acc)
    return out


def section_frame_numpy(start, end):
    """(length, unit tangent, unit normal) of a segment, the vectors as numpy
    arrays built from the ends on every use."""
    length = math.hypot(end[0] - start[0], end[1] - start[1])
    tangent = np.array([end[0] - start[0], end[1] - start[1]]) / length
    return length, tangent, np.array([-tangent[1], tangent[0]])


# The reflections as numpy maps of a point or a force, written out per name.
_MIRRORS = {"x_axis": lambda p: np.array([p[0], -p[1]]), "y_axis": lambda p: np.array([-p[0], p[1]])}


def symmetry_residuals_numpy(field, mu, sample_count, seed):
    """check_symmetry's residuals, by name, computed on numpy arrays: per
    declared reflection S, max over its samples of np.linalg.norm(f(S p) -
    S f(p)), leaving out the samples where the force raises."""
    rng = np.random.default_rng(seed)
    r_in, r_out = field.annulus
    radii = rng.uniform(r_in, r_out, sample_count)
    angles = rng.uniform(0.0, 2.0 * math.pi, sample_count)
    points = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    residuals = {}
    for name in sorted(s.value for s in field.symmetries):
        mirror, worst = _MIRRORS[name], 0.0
        for p in points:
            try:
                f_q = np.array(field.acceleration(*mirror(p).tolist(), mu))
                f_p = np.array(field.acceleration(*p.tolist(), mu))
            except (ZeroDivisionError, OverflowError):
                continue
            worst = max(worst, float(np.linalg.norm(f_q - mirror(f_p))))
        residuals[name] = worst
    return residuals
