"""Deterministic JSON/CSV emission: every float printed with 17 significant digits.

`dumps` writes the layout of `json.dumps(obj, indent=2, sort_keys=True)` in one
recursive pass, with floats at 17 significant digits and `json.dumps` for keys,
strings, ints, bools and None. A list of floats (a sample row) and a CSV row of
floats are each rendered by one cached `%`-template per row length, since
`'%.17g' % x` is `format(x, '.17g')` for every float.
"""

from __future__ import annotations

import functools
import json
import math

_DIGITS = ".17g"


def fmt(x: float) -> str:
    return format(float(x), _DIGITS)


def _block(brackets: str, items: list[str], depth: int) -> str:
    """Encoded items in `json`'s indent-2 layout for a container at `depth`."""
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


@functools.cache
def _float_row(n: int, depth: int | None) -> str:
    """%-template for n floats: a CSV line (depth None), else a JSON array at
    the given nesting depth."""
    if depth is None:
        return ",".join(["%" + _DIGITS] * n) + "\n"
    return _block("[]", ["%" + _DIGITS] * n, depth)


def _key(k) -> str:
    """A dict key as `json` writes it: str as is; float, int, bool and None by
    their JSON text."""
    if isinstance(k, str):
        return k
    if isinstance(k, (float, int)) or k is None:
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _encode(obj, depth: int) -> str:
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite value {obj} not serializable")
        return format(obj, _DIGITS)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return _block("{}", [json.dumps(_key(k)) + ": " + _encode(v, depth + 1) for k, v in sorted(obj.items())], depth)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(v) is float for v in obj):
            text = _float_row(len(obj), depth) % tuple(obj)
            if "n" not in text:  # 'inf' and 'nan' are the only renderings with an n
                return text
        return _block("[]", [_encode(v, depth + 1) for v in obj], depth)
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        return _encode(obj.item(), depth)  # numpy scalars
    return json.dumps(obj)


def dumps(obj) -> str:
    """json.dumps with floats rendered at fixed precision (sorted keys, indent 2)."""
    return _encode(obj, 0)


def dump(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj) + "\n")


def write_csv(path, header: list[str], rows):
    """The one CSV writer: floats at 17 significant digits, anything else as str."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            if all(type(v) is float for v in row):
                fh.write(_float_row(len(row), None) % tuple(row))
            else:
                fh.write(",".join(format(v, _DIGITS) if isinstance(v, float) else str(v) for v in row) + "\n")
