"""Deterministic JSON/CSV emission with fixed-width float formatting.

Floats are rendered with 17 significant digits, which round-trips IEEE
doubles exactly and makes output files byte-comparable across runs.  A JSON
value is rendered by the function its exact type picks, a list of one scalar
type by one join; any other value (a subclass, a numpy scalar or array) is
cast to such a type by ``_fallback``.  A sample's CSV rows are the text of
one ``%.17g`` template, made mostly by the exact numpy kernel of ``csv_rows``.
Every output file, a sample's CSV too, is written by ``write_text``, which
rewrites an existing file in place and returns the sha256 of the bytes written.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
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


# The sample-CSV row kernel, csv_rows.  A row is a run of 4-byte words, each
# an entry of _WORDS, and a kernel cell is 12 of them in fixed columns: its
# sign, 16 integer digits, its point, 20 fraction digits and a comma, with a
# NUL for each character %.17g does not write.  _WORDS holds the 4 ASCII
# digits of each i < 10^4 by four tables (all digits; leading zeros as NULs;
# the same but a lone "0" kept; trailing zeros as NULs), then single words.
def _word_table() -> np.ndarray:
    i = np.arange(10_000, dtype=np.uint16)[:, None]
    place = np.array([1000, 100, 10, 1], dtype=np.uint16)
    digits = (i // place % 10 + 48).astype(np.uint8)
    leading = i < place
    quads = np.stack([digits, np.where(leading, 0, digits),
                      np.where(leading & (place > 1), 0, digits),
                      np.where(i % (10 * place) == 0, 0, digits)]).astype(np.uint8)
    return np.concatenate([quads.view(np.uint32).ravel(),
                           np.frombuffer(b"\0\0\0\0-\0\0\0.\0\0\0,\0\0\0" b"0\r\n\0" b"1\r\n\0", np.uint32)])


_WORDS = _word_table()
_FULL, _LEADING, _UNITS, _TRAILING, _NUL, _MINUS, _POINT, _COMMA, _LABEL = (
    0, 10_000, 20_000, 30_000, 40_000, 40_001, 40_002, 40_003, 40_004)
# Table of each of the integer part's 4 quads by X + 4, for X = -4..15: quad
# j keeps its leading zeros only when a quad before it holds a digit, that is
# X >= 4 (4 - j), and the last quad keeps a lone 0.
_WHOLE_TABLES = np.where(np.arange(-4, 16) >= 4 * np.arange(4, 0, -1)[:, None], _FULL,
                         np.array([_LEADING, _LEADING, _LEADING, _UNITS])[:, None])
_POW10 = 10 ** np.arange(18)
# 10^P for P = 0..21 as a float and as its Veltkamp split into two halves of
# at most 26 significant bits, whose products with a half of a are exact.
_SPLIT = 2.0 ** 27 + 1
_POW10_FLOAT = 10.0 ** np.arange(22)
_POW10_HIGH = _POW10_FLOAT * _SPLIT - (_POW10_FLOAT * _SPLIT - _POW10_FLOAT)
_POW10_LOW = _POW10_FLOAT - _POW10_HIGH


def _round_digits(a, X):
    """round-half-even(a * 10^(16 - X)) for 0 < a < 1e17 and -5 <= X <= 16,
    exact where it is at least 2^53.  Dekker's product: p = fl(a * 10^P),
    and its error e = a * 10^P - p, exact from the halves of a and 10^P.  At
    2^53 and above p is an even integer and |e| <= 64, so the rounding is
    p + round-half-even(e)."""
    P = 16 - X
    p = a * np.take(_POW10_FLOAT, P)
    high, low = np.take(_POW10_HIGH, P), np.take(_POW10_LOW, P)
    a_high = a * _SPLIT - (a * _SPLIT - a)
    a_low = a - a_high
    e = ((a_high * high - p) + a_high * low + a_low * high) + a_low * low
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _kernel_cells(V: np.ndarray, cells: np.ndarray) -> None:
    """Write the _WORDS indices of "%.17g," of each v in V, with 1e-4 <= |v| <
    1e16 or v == 0, into cells, an array of shape (12,) + V.shape."""
    zero = V == 0
    a = np.where(zero, 1.0, np.abs(V))
    X = np.floor(np.log10(a)).astype(np.int64)  # may be off by one at a power of ten
    D = _round_digits(a, X)
    while (redo := (D - 10 ** 16).view(np.uint64) >= 9 * 10 ** 16).any():  # at most twice
        X[redo] += np.where(D[redo] < 10 ** 16, -1, 1)
        D[redo] = _round_digits(a[redo], X[redo])
    D[zero] = 0
    P = 16 - X  # fraction digits of D
    unit = np.take(_POW10, np.minimum(P, 17))
    whole = D // unit
    frac = D - whole * unit
    cut = np.take(_POW10, np.maximum(P - 4, 0))
    head = frac // cut  # the first 4 of the fraction's 20 columns, then the 16 of tail
    tail = (frac - head * cut) * np.take(_POW10, 20 - np.maximum(P, 4))
    halves = np.stack([whole, tail])
    hi = halves // 10 ** 8
    eights = np.stack([hi, halves - hi * 10 ** 8])
    hi = eights // 10_000
    lo = eights - hi * 10_000
    cells[0] = np.where(np.signbit(V), _MINUS, _NUL)
    cells[1:5:2], cells[2:5:2] = hi[:, 0], lo[:, 0]
    cells[1:5] += np.take(_WHOLE_TABLES, X + 4, axis=1)
    cells[5] = np.where(frac == 0, _NUL, _POINT)
    cells[6] = head * np.take(_POW10, np.maximum(4 - P, 0))
    cells[7:11:2], cells[8:11:2] = hi[:, 1], lo[:, 1]
    # a quad of the fraction is cut at its last nonzero digit if no digit follows
    cells[6] += np.where(tail == 0, _TRAILING, _FULL)
    cells[7] += np.where((lo[0, 1] == 0) & (eights[1, 1] == 0), _TRAILING, _FULL)
    cells[8] += np.where(eights[1, 1] == 0, _TRAILING, _FULL)
    cells[9] += np.where(lo[1, 1] == 0, _TRAILING, _FULL)
    cells[10] += _TRAILING
    cells[11] = _COMMA


def _template_rows(X: np.ndarray, y: np.ndarray, cell: str = "%.17g,") -> str:
    """The rows (cell * d + "%d\\r\\n") % (*x, label) of X and y, in one call."""
    rows = (cell * X.shape[1] + "%d\r\n") * len(y)
    return rows % tuple(itertools.chain.from_iterable(zip(*X.T.tolist(), y.tolist())))


def csv_rows(X: np.ndarray, y: np.ndarray) -> str:
    """The text ("%.17g," * d + "%d\\r\\n") % (*x, label) of each row of the
    finite (n, d) features X and 0/1 labels y.

    A row whose features all have 1e-4 <= |v| < 1e16 or are 0, where %.17g
    writes fixed notation with 17 significant digits, is formatted by the
    exact integer kernel _kernel_cells: the digits are round-half-even of
    |v| * 10^(16 - X), X the decimal exponent, split at the point.  The
    other rows go through the % template in one call, each cell padded with
    spaces to its widest, 24 characters, and are merged back by row index.
    Neither a NUL, the kernel's padding, nor a space is part of a cell, and
    bytes.translate drops both.  A block with no kernel row goes through
    the template whole."""
    n, d = X.shape
    a = np.abs(X)
    fast = ((a >= 1e-4) & (a < 1e16) | (a == 0)).all(axis=1)
    kept = np.count_nonzero(fast)
    if not kept:
        return _template_rows(X, y)
    words = np.empty((d * 12 + 1, kept), np.intp)  # one column per row
    _kernel_cells(X[fast].T, np.moveaxis(words[:-1].reshape(d, 12, kept), 1, 0))
    words[-1] = y[fast]
    words[-1] += _LABEL
    rows = np.take(_WORDS, words.T).view(np.uint8)
    if kept < n:
        slow = ~fast
        padded = np.frombuffer(_template_rows(X[slow], y[slow], "%-24.17g,").encode(), np.uint8)
        padded = padded.reshape(n - kept, -1)  # 24 characters hold any %.17g
        merged = np.zeros((n, rows.shape[1]), np.uint8)
        merged[fast] = rows
        merged[slow, :padded.shape[1]] = padded
        rows = merged
    return rows.tobytes().translate(None, b"\0 ").decode("ascii")


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
