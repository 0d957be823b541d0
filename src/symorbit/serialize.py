"""Deterministic JSON/CSV emission: every float printed with 17 significant digits.

`dumps` writes the layout of `json.dumps(obj, indent=2, sort_keys=True)` in one
recursive pass, with floats at 17 significant digits and `json.dumps` for keys,
strings, ints, bools and None. Keys are str: any other key is a TypeError
naming its type. `FloatRows` keeps the rows of a float table (an
orbit's samples in orbit.json and orbit.csv) and renders each row once, by one
cached `%`-template per row length, as its CSV line, since `'%.17g' % x` is
`format(x, '.17g')` for every float; the row's JSON array is that line with
each comma widened to a comma, a newline and the indent, since no rendering
holds a comma. Every other float is formatted on its own.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

_DIGITS = ".17g"


def fmt(x: float) -> str:
    return format(float(x), _DIGITS)


def _block(brackets: str, items: list[str], depth: int) -> str:
    """Encoded items in `json`'s indent-2 layout for a container at `depth`."""
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


@functools.cache
def _float_row(n: int) -> str:
    """%-template of the CSV line of n floats, without the newline."""
    return ",".join(["%" + _DIGITS] * n)


def _refuse(x: float):
    raise ValueError(f"non-finite value {x} not serializable")


def _float_array(row, line: str, depth: int) -> str:
    """The JSON array at `depth` of a nonempty row of floats, from its CSV line."""
    if "n" in line:  # 'inf' and 'nan' are the only renderings with an n
        _refuse(next(v for v in row if not math.isfinite(v)))
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + line.replace(",", "," + inner) + "\n" + "  " * depth + "]"


class FloatRows(list):
    """The rows of a 2-D float array as lists of floats, whose CSV lines are
    rendered once, on first use, for both `dumps` and `write_csv`. It compares
    equal to the list of rows and passes `json.dumps`; change no row after
    `lines` is read."""

    def __init__(self, array):
        array = np.asarray(array, dtype=float)
        if array.ndim != 2:
            raise ValueError(f"FloatRows needs a 2-D array, got {array.ndim}-D")
        super().__init__(array.tolist())

    @functools.cached_property
    def lines(self) -> list[str]:
        """Each row's CSV line, without the newline."""
        return [_float_row(len(row)) % tuple(row) for row in self]


def _sorted_items(obj: dict) -> list:
    """obj's items in key order; a key that is not a str is a TypeError."""
    for k in obj:
        if not isinstance(k, str):
            raise TypeError(f"keys must be str, not {type(k).__name__}")
    return sorted(obj.items())


def _encode(obj, depth: int) -> str:
    if isinstance(obj, float):
        if not math.isfinite(obj):
            _refuse(obj)
        return format(obj, _DIGITS)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return _block("{}", [json.dumps(k) + ": " + _encode(v, depth + 1) for k, v in _sorted_items(obj)], depth)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if isinstance(obj, FloatRows):
            items = [_float_array(row, line, depth + 1) if row else "[]" for row, line in zip(obj, obj.lines)]
            return _block("[]", items, depth)
        return _block("[]", [_encode(v, depth + 1) for v in obj], depth)
    return json.dumps(obj)


def dumps(obj) -> str:
    """json.dumps with floats rendered at fixed precision (sorted keys, indent 2)."""
    return _encode(obj, 0)


def dump(obj, path):
    """Write `dumps(obj)` and a newline to path; a payload that `dumps` refuses
    leaves no file."""
    text = dumps(obj) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _csv_line(row) -> str:
    return ",".join(format(v, _DIGITS) if isinstance(v, float) else str(v) for v in row)


def write_csv(path, header: list[str], rows):
    """The one CSV writer: floats at 17 significant digits, anything else as
    str; the lines of `FloatRows` as they were rendered."""
    lines = rows.lines if isinstance(rows, FloatRows) else [_csv_line(row) for row in rows]
    text = "\n".join([",".join(header), *lines]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
