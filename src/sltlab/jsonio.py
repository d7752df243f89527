"""Deterministic JSON/CSV emission with fixed-width float formatting.

Floats are rendered with 17 significant digits, which round-trips IEEE
doubles exactly and makes output files byte-comparable across runs.  A JSON
value is rendered by the function its exact type picks, a list of one scalar
type by one join; any other value (a subclass, a numpy scalar or array) is
cast to such a type by ``_fallback``.  Every output file, a sample's CSV too,
is written by ``write_text``, which rewrites an existing file in place and
returns the sha256 of the bytes written.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str

import numpy as np


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x} cannot be serialized")
    return format(x, ".17g")


_SCALARS = {type(None): lambda v: "null", bool: lambda v: "true" if v else "false",
            int: int.__repr__, float: format_float, str: _quote, Fraction: lambda v: _quote(str(v))}


def _render(obj, pad: str) -> str:
    scalar = _SCALARS.get(type(obj))
    return scalar(obj) if scalar else _CONTAINERS.get(type(obj), _fallback)(obj, pad)


def _list(obj, pad: str) -> str:
    inner = pad + "  "
    kinds = set(map(type, obj))
    scalar = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
    items = list(map(scalar, obj)) if scalar else [_render(v, inner) for v in obj]
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]" if items else "[]"


def _dict(obj, pad: str) -> str:
    inner = pad + "  "
    items = [_quote(str(k)) + ": " + _render(v, inner) for k, v in obj.items()]
    return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}" if items else "{}"


_CONTAINERS = {list: _list, tuple: _list, dict: _dict}
# Other values are cast by the first entry they are an instance of; an array
# is its tolist(), which must be a container (a 0-d array's scalar is refused).
_CASTS = (((int, np.integer), int), ((float, np.floating), float), (Fraction, str),
          (str, str.__str__), ((list, tuple), list), (dict, dict))
_NUMBERS = (bool, int, np.integer, float, np.floating)  # CSV cells rendered as in JSON


def _fallback(obj, pad: str) -> str:
    casts = _CASTS
    if isinstance(obj, np.ndarray):
        obj, casts = obj.tolist(), _CASTS[-2:]
    for types, cast in casts:
        if isinstance(obj, types):
            return _render(cast(obj), pad)
    raise TypeError(f"cannot serialize value of type {type(obj).__name__}")


def dumps(obj) -> str:
    """obj as JSON text indented by two spaces per level, ending in a newline."""
    return _render(obj, "") + "\n"


def write_text(path, texts) -> str:
    """Write each text of texts, encoded once in the text layer's encoding and
    with no newline translation; return the sha256 of the bytes written.

    Like open(path, "w"), this writes through a symlink or hard link, creates
    a file with mode 0o666 & ~umask and keeps an existing file's mode.  But it
    opens without O_TRUNC, whose close on ext4 forces the file's writeback,
    and cuts the file to the bytes written only if it was longer, which a FIFO
    or /dev/null never is.  If texts raises midway, the bytes written so far
    lie over the old ones."""
    digest, written = hashlib.sha256(), 0
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="") as fh:
        for text in texts:
            data = text.encode(fh.encoding)
            fh.buffer.write(data)
            digest.update(data)
            written += len(data)
        fh.flush()
        if os.fstat(fh.fileno()).st_size > written:
            os.ftruncate(fh.fileno(), written)
    return digest.hexdigest()


def dump(obj, path) -> str:
    """Render first, so a value that cannot be serialized leaves no file behind."""
    return write_text(path, [dumps(obj)])


def write_csv(path, rows: list[dict]) -> str:
    """Write rows under a header of the first row's keys, which every row must
    have in that order, and return the sha256.  Cells are rendered first, so no
    rows or a row with other keys raises ValueError and leaves no file behind."""
    if not rows:
        raise ValueError(f"{path}: no rows to write")
    header, text = list(rows[0]), io.StringIO(newline="")
    table = csv.writer(text)
    table.writerow(header)
    for i, row in enumerate(rows):
        if list(row) != header:
            raise ValueError(f"{path}: row {i} has keys {list(row)}, expected {header}")
        table.writerow([_render(v, "") if isinstance(v, _NUMBERS) else "" if v is None else str(v)
                        for v in row.values()])
    return write_text(path, [text.getvalue()])


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
