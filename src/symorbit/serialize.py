"""Deterministic JSON/CSV emission: every float printed with 17 significant digits."""

from __future__ import annotations

import json
import math

_MARK = "@~f17~@"  # sentinel stripped after encoding; never appears in payload strings
_DIGITS = ".17g"


def fmt(x: float) -> str:
    return format(float(x), _DIGITS)


def _tag(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite value {obj} not serializable")
        return _MARK + format(obj, _DIGITS) + _MARK
    if isinstance(obj, dict):
        return {k: _tag(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_tag(v) for v in obj]
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        return _tag(obj.item())  # numpy scalars
    return obj


def dumps(obj) -> str:
    """json.dumps with floats rendered at fixed precision (sorted keys, indent 2)."""
    text = json.dumps(_tag(obj), indent=2, sort_keys=True)
    return text.replace('"' + _MARK, "").replace(_MARK + '"', "")


def dump(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj) + "\n")


def write_csv(path, header: list[str], rows):
    """The one CSV writer: floats at 17 significant digits, anything else as str."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(v, _DIGITS) if isinstance(v, float) else str(v) for v in row) + "\n")
