"""Deterministic CSV and JSON-sidecar output for experiment artifacts.

Every CSV gets a sibling .meta.json naming the window, grids, and
certificates that produced it.  Rows are written sorted by their key
columns, numbers in repr form, so a rational-backend rerun is
byte-identical regardless of scheduling.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (float, complex)):
        return repr(x)
    return str(x)


def write_csv(path: str, header, rows, comments=()) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(",".join(str(h) for h in header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _jsonable(obj):
    """obj with JSON types only; a float that is not finite becomes null."""
    if hasattr(obj, "item"):  # numpy scalars
        obj = obj.item()
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return [_jsonable(v) for v in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_meta(csv_path: str, meta: dict) -> None:
    path = csv_path + ".meta.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(meta), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
