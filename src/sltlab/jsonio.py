"""Deterministic JSON/CSV emission with fixed-width float formatting.

Floats are rendered with 17 significant digits, which round-trips IEEE
doubles exactly and makes output files byte-comparable across runs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from fractions import Fraction

import numpy as np


def format_float(x: float) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x} cannot be serialized")
    return format(x, ".17g")


def _render(obj, indent: int, level: int) -> str:
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [inner + _render(v, indent, level + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            inner + json.dumps(str(k)) + ": " + _render(v, indent, level + 1)
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize value of type {type(obj).__name__}")


def dumps(obj, indent: int = 2) -> str:
    return _render(obj, indent, 0) + "\n"


def dump(obj, path) -> None:
    """Render first, so a value that cannot be serialized leaves no file behind."""
    text = dumps(obj)
    with open(path, "w") as fh:
        fh.write(text)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    if isinstance(v, Fraction):
        return str(v)
    return str(v)


def write_csv(path, rows: list[dict]) -> None:
    """Write rows under a header of the first row's keys, formatting floats
    deterministically.

    Every row must have exactly those keys in that order.  Cells are rendered
    first, so an empty row list or a row with other keys raises ValueError and
    leaves no file behind.
    """
    if not rows:
        raise ValueError(f"{path}: no rows to write")
    header = list(rows[0])
    table = [header]
    for i, row in enumerate(rows):
        if list(row) != header:
            raise ValueError(f"{path}: row {i} has keys {list(row)}, expected {header}")
        table.append([_cell(v) for v in row.values()])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(table)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
