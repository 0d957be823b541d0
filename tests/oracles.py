"""Closed-form oracles used to freeze expected values, independent of src/.

Everything here comes from textbook two-body geometry (vis-viva, conic
apsides) or direct algebra on the force law; nothing imports the solver's
numerical paths. The serialization references are the straightforward
algorithms that `symorbit.serialize` must reproduce byte for byte.
"""

import json
import math


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
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        return _tag(obj.item())  # numpy scalars
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
