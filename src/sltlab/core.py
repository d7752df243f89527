"""Domain vocabulary: instances, labels, samples, hypotheses, hypothesis classes.

Instances are real vectors of dimension d >= 1; discrete domains are embedded
as distinct reals.  Labels are 0/1.  Every boundary tie in a real-valued
family (a point exactly on a threshold, an interval endpoint, a separating
line, or sin(alpha*x) == 0) maps to label 1; this single convention is
applied everywhere in the package.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import math
import numbers
import types
import typing
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Iterator, Sequence

import numpy as np

from .jsonio import csv_rows, write_text

DEFAULT_ENUMERATION_BUDGET = 500_000

# Most label cells (members x trials x sample rows) trial_error_counts
# evaluates at once, and so the trials per block of a Monte Carlo harness: a
# 500-row sample takes every member of a default class in one block, while an
# 80 000-row sample stays at about 1 MB per block.
LABEL_BLOCK_CELLS = 1 << 20

# Largest sample size m at which trial_error_counts lays its label blocks out
# m-major.  A count of a 1 M-cell block of 41 threshold members took 0.38 ms
# m-major against 0.94 ms at m = 32, and 0.90 ms against 0.36 ms at m = 500;
# with 5 members the two tie near m = 40 (2-core x86 host).
COUNT_M_MAJOR = 32

# Characters of sample-CSV text handled at once: from_csv reads whole lines
# up to about this many per block, and to_csv formats rows of at most this
# many per write, so neither holds the whole file as text.
CSV_BLOCK_CHARS = 1 << 16
# Widest cell to_csv writes: a 17-digit float such as -1.7976931348623157e+308.
# A block of rows of cells this wide is at most CSV_BLOCK_CHARS of text; the
# kernel of jsonio.csv_rows assembles it in a NUL-padded byte matrix of about
# twice that (48 bytes per cell) before the NULs are dropped.
_CSV_CELL_CHARS = 24


class DimensionMismatchError(ValueError):
    """Instance dimension does not match the hypothesis or sample dimension."""


class EnumerationBudgetError(RuntimeError):
    """A requested enumeration would exceed the configured budget."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(f"enumeration requires {required} hypotheses but the budget is {budget}")


def as_instance(x) -> np.ndarray:
    """Normalize a scalar or 1-d sequence to a finite float vector."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"an instance must be a single point, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"instance coordinates must be finite, got {arr.tolist()}")
    return arr


def _check_matrix(X: np.ndarray, dim: int, what: str) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"{what} expects an (n, d) matrix of instances, got shape {X.shape}")
    if X.shape[1] != dim:
        raise DimensionMismatchError(
            f"{what} is defined on dimension {dim} but instances have dimension {X.shape[1]}"
        )
    return X


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------


def check_keys(data, known, where: str = "") -> None:
    """Reject a JSON value that is not an object or has a key outside known;
    ``where`` prefixes the message (say "distribution: ")."""
    if not isinstance(data, dict):
        raise ValueError(f"{where}expected a JSON object, got {data!r}")
    for key in data:
        if key not in known:
            raise ValueError(f"{where}unknown key {key!r}")


def read_key(data: dict, key: str, cast: Callable, where: str = "",
             default=dataclasses.MISSING):
    """data[key] passed through cast, or default when the key is absent; a
    missing required key or a failed cast raises ValueError naming the key.
    A JSON integer beyond the float range fails its cast with OverflowError,
    which is mapped the same way."""
    if key not in data:
        if default is dataclasses.MISSING:
            raise ValueError(f"{where}missing {key!r}")
        return default
    try:
        return cast(data[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}{key}: {exc}") from exc


class JsonFields:
    """Base of the frozen dataclasses whose fields are their JSON schema.

    ``to_json`` writes the tag, the class attribute named by ``json_tag_key``
    ("kind", "family" or "type"), then every field in declaration order under
    its ``json_names`` name; a field that is None with default None is left
    out.  ``from_json`` casts each key by the field's declared type, and an
    omitted key takes the field's default.  An unknown key, a missing
    required key or a value that does not cast raises ValueError naming the
    tag and the key.
    """

    json_tag_key: ClassVar[str | None] = None
    json_names: ClassVar[dict[str, str]] = {}

    def _check_counts(self, what: str = "", **counts: int) -> None:
        """Reject a count below 1, naming the tag and the field that gives it:
        each keyword is a field name and its count, either the field's value
        or, when ``what`` names it, the count the field determines (say the
        "instance dimension" of a bounds list)."""
        for key, count in counts.items():
            if count < 1:
                raise ValueError(f"{getattr(self, self.json_tag_key)}: {key}: "
                                 f"{what + ' ' if what else ''}must be at least 1, got {count}")

    def to_json(self) -> dict:
        out = {self.json_tag_key: getattr(self, self.json_tag_key)} if self.json_tag_key else {}
        for name, key, _, default in _json_schema(type(self)):
            value = getattr(self, name)
            if value is not None or default is not None:
                out[key] = _encode(value)
        return out

    @classmethod
    def from_json(cls, data) -> "JsonFields":
        schema = _json_schema(cls)
        where = f"{getattr(cls, cls.json_tag_key)}: " if cls.json_tag_key else ""
        check_keys(data, {key for _, key, _, _ in schema} | {cls.json_tag_key}, where)
        return cls(**{name: read_key(data, key, cast, where, default)
                      for name, key, cast, default in schema})


@functools.cache
def _json_schema(cls: type) -> tuple[tuple[str, str, Callable, object], ...]:
    """(field name, JSON key, cast, default) of each field of cls, in order."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, cls.json_names.get(f.name, f.name), _json_cast(hints[f.name]), f.default)
                 for f in dataclasses.fields(cls))


def _json_cast(tp) -> Callable:
    """The function that casts a decoded JSON value to the field type tp."""
    args = typing.get_args(tp)
    if isinstance(tp, types.UnionType):  # X | None
        inner = _json_cast(args[0])
        return lambda v: None if v is None else inner(v)
    if typing.get_origin(tp) is tuple:
        if args[-1] is Ellipsis:
            item = _json_cast(args[0])
            return lambda v: tuple(map(item, _json_list(v)))
        items = [_json_cast(a) for a in args]

        def fixed(v):
            v = _json_list(v)
            if len(v) != len(items):
                raise ValueError(f"expected {len(items)} values, got {len(v)}")
            return tuple(cast(x) for cast, x in zip(items, v))
        return fixed
    if tp is Hypothesis:
        return hypothesis_from_json
    if tp is HypothesisClass:
        return class_from_json
    if tp is int:
        return whole_number
    if tp is float:
        return real_number
    if tp is str:
        return _json_text
    return getattr(tp, "from_json", tp)


def whole_number(v) -> int:
    """int(v), refusing to truncate: a bool, a string or a fractional,
    infinite or NaN float raises ValueError; a whole float such as 5.0
    casts to 5."""
    if (isinstance(v, bool) or not isinstance(v, numbers.Real)
            or isinstance(v, float) and not v.is_integer()):
        raise ValueError(f"expected a whole number, got {v!r}")
    return int(v)


def real_number(v) -> float:
    """float(v) of a finite number: a bool, a string, NaN or an infinity
    raises ValueError."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {v!r}")
    return float(v)


def _json_list(v) -> list:
    if not isinstance(v, (list, tuple)):
        raise ValueError(f"expected a list, got {v!r}")
    return v


def _json_text(v) -> str:
    if not isinstance(v, str):
        raise ValueError(f"expected a string, got {v!r}")
    return v


def _encode(value):
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, JsonFields):
        return value.to_json()
    return value


def from_tagged(data, tag_key: str, types_by_tag: dict, what: str):
    """Decode data as the type its tag names in types_by_tag."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object with a {tag_key!r}, got {data!r}")
    tag = data.get(tag_key)
    if not isinstance(tag, str) or tag not in types_by_tag:
        raise ValueError(f"unknown {what} {tag!r}")
    return types_by_tag[tag].from_json(data)


# ---------------------------------------------------------------------------
# Hypotheses
# ---------------------------------------------------------------------------


class Hypothesis(JsonFields):
    """A total, deterministic binary labeling rule on d-dimensional instances.

    Subclasses expose ``dim`` and declare their rule once, for a stack of
    members: ``_stack_row()`` gives a stacking key and a float parameter row,
    and ``_from_row(key, row)`` builds the member back from them;
    ``_label_stack(out, P, X)``, called on one member, writes into the (k, n)
    bool array out the labels on the (n, dim) matrix X of the k members of its
    exact type and key whose rows form P.  ``labels`` is that rule on the
    member's own one-row P.  Equal inputs always give equal labels.
    """

    json_tag_key = "kind"
    kind: str = ""
    dim = 1  # instances are on the line unless a subclass says otherwise

    _from_row = classmethod(lambda cls, key, row: cls(*row))

    def labels(self, X: np.ndarray) -> np.ndarray:
        """Labels in {0, 1} for each row of an (n, dim) matrix."""
        X = _check_matrix(X, self.dim, f"{self.kind} hypothesis")
        out = np.empty((1, len(X)), dtype=np.uint8)
        self._label_stack(out.view(bool), np.array([self._stack_row()[1]], dtype=float), X)
        return out[0]

    def describe(self) -> str:
        """Compact one-line description for tables and logs."""
        return repr(self)


def _reject_nan(what: str, *values: float, finite: bool = False) -> None:
    """Reject NaN, which orders with nothing, and if finite, infinity: times 0 it is NaN."""
    if any(map(math.isnan, values)):
        raise ValueError(f"{what} must not be NaN")
    if finite and any(map(math.isinf, values)):
        raise ValueError(f"{what} must be finite")


def _check_points(tag: str, points) -> int:
    """The dimension, 1 if none, of finite points of one dimension, distinct as dict keys."""
    dim, *other = {len(p) for p in points} or {1}
    if other:
        raise ValueError(f"{tag} points must share one dimension, got {sorted({dim, *other})}")
    if dim < 1:
        raise ValueError(f"{tag}: points: instance dimension must be at least 1, got {dim}")
    _reject_nan(f"{tag} points", *itertools.chain(*points), finite=True)
    if len(set(points)) < len(points):
        raise ValueError(f"{tag} points must be distinct")
    return dim


def _in_closed(x: np.ndarray, P: np.ndarray, j: int, out: np.ndarray | None = None) -> np.ndarray:
    """(k, n) bool: P[i, j] <= x <= P[i, j + 1] for each row i of P and point x."""
    out = np.greater_equal(x, P[:, j:j + 1], out=out)
    out &= x <= P[:, j + 1:j + 2]
    return out


@dataclass(frozen=True)
class Threshold(Hypothesis):
    """1[x >= theta] (direction "ge") or 1[x <= theta] (direction "le") on the line."""

    theta: float
    direction: str = "ge"

    kind = "threshold"

    def __post_init__(self):
        if self.direction not in ("ge", "le"):
            raise ValueError(f"direction must be 'ge' or 'le', got {self.direction!r}")
        _reject_nan("threshold theta", self.theta)

    def _stack_row(self):
        return self.direction, (self.theta,)

    _from_row = classmethod(lambda cls, key, row: cls(*row, key))

    def _label_stack(self, out, P, X):
        (np.greater_equal if self.direction == "ge" else np.less_equal)(X[:, 0], P, out=out)

    def describe(self) -> str:
        op = ">=" if self.direction == "ge" else "<="
        return f"1[x {op} {self.theta:g}]"


@dataclass(frozen=True)
class Interval(Hypothesis):
    """1[lo <= x <= hi] on the line; closed on both ends."""

    lo: float
    hi: float

    kind = "interval"

    def __post_init__(self):
        _reject_nan("interval endpoints", self.lo, self.hi)
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    def _stack_row(self):
        return None, (self.lo, self.hi)

    def _label_stack(self, out, P, X):
        _in_closed(X[:, 0], P, 0, out)

    def describe(self) -> str:
        return f"1[{self.lo:g} <= x <= {self.hi:g}]"


@dataclass(frozen=True)
class IntervalUnion(Hypothesis):
    """Indicator of a union of disjoint closed intervals on the line."""

    intervals: tuple[tuple[float, float], ...]

    kind = "interval_union"

    def __post_init__(self):
        for lo, hi in self.intervals:
            _reject_nan("interval endpoints", lo, hi)
            if lo > hi:
                raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        # Compared as the floats of its row, where parts less than a float apart touch.
        ends = [float(v) for part in self.intervals for v in part]
        if any(lo <= hi for hi, lo in zip(ends[1:-1:2], ends[2::2])):
            raise ValueError("intervals must be disjoint and sorted")

    def _stack_row(self):
        return len(self.intervals), sum(self.intervals, ())

    _from_row = classmethod(lambda cls, key, row: cls(tuple(zip(row[0::2], row[1::2]))))

    def _label_stack(self, out, P, X):
        out[:] = False
        for j in range(0, P.shape[1], 2):
            out |= _in_closed(X[:, 0], P, j)

    def describe(self) -> str:
        parts = " u ".join(f"[{lo:g},{hi:g}]" for lo, hi in self.intervals)
        return f"1[x in {parts}]"


@dataclass(frozen=True)
class Rectangle(Hypothesis):
    """Indicator of a closed axis-aligned box; one (lo, hi) pair per dimension."""

    bounds: tuple[tuple[float, float], ...]

    kind = "rectangle"

    def __post_init__(self):
        self._check_counts("instance dimension", bounds=self.dim)
        for lo, hi in self.bounds:
            _reject_nan("box bounds", lo, hi)
            if lo > hi:
                raise ValueError(f"box bounds out of order: [{lo}, {hi}]")

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def _stack_row(self):
        return self.dim, sum(self.bounds, ())

    _from_row = classmethod(lambda cls, key, row: cls(tuple(zip(row[0::2], row[1::2]))))

    def _label_stack(self, out, P, X):
        _in_closed(X[:, 0], P, 0, out)
        for j in range(1, self.dim):
            out &= _in_closed(X[:, j], P, 2 * j)

    def describe(self) -> str:
        parts = " x ".join(f"[{lo:g},{hi:g}]" for lo, hi in self.bounds)
        return f"1[x in {parts}]"


@dataclass(frozen=True)
class Halfspace(Hypothesis):
    """1[w . x + b >= 0] in len(weights) dimensions."""

    weights: tuple[float, ...]
    bias: float

    kind = "halfspace"

    def __post_init__(self):
        self._check_counts("instance dimension", weights=self.dim)
        _reject_nan("halfspace weights and bias", *self.weights, self.bias)
        _reject_nan("halfspace weights", *self.weights, finite=True)

    @property
    def dim(self) -> int:
        return len(self.weights)

    def _stack_row(self):
        return self.dim, (*self.weights, self.bias)

    _from_row = classmethod(lambda cls, key, row: cls(tuple(row[:-1]), row[-1]))

    def _label_stack(self, out, P, X):
        # The batched matmul runs one matrix-vector product per member, as
        # X @ w does, so a member's labels do not depend on its stack.  One
        # product of the whole stack (X @ P[:, :-1].T) or an elementwise sum
        # rounds some points on a boundary line to the other side.
        np.greater_equal(np.matmul(X, P[:, :-1, None])[..., 0] + P[:, -1:], 0.0, out=out)

    def describe(self) -> str:
        w = ",".join(f"{v:g}" for v in self.weights)
        return f"1[({w}).x + {self.bias:g} >= 0]"


@dataclass(frozen=True)
class SineSign(Hypothesis):
    """1[sin(alpha * x) >= 0] on the line."""

    alpha: float

    kind = "sine"

    def __post_init__(self):
        _reject_nan("sine alpha", self.alpha, finite=True)

    def _stack_row(self):
        return None, (self.alpha,)

    def _label_stack(self, out, P, X):
        for row, alpha in zip(out, P[:, 0]):
            np.greater_equal(np.sin(alpha * X[:, 0]), 0.0, out=row)

    def describe(self) -> str:
        return f"1[sin({self.alpha:g} x) >= 0]"


@dataclass(frozen=True)
class LookupTable(Hypothesis):
    """Explicit table on a finite domain; unseen instances get the default label."""

    points: tuple[tuple[float, ...], ...]
    point_labels: tuple[int, ...]
    default: int = 0

    kind = "lookup"
    json_names = {"point_labels": "labels"}

    def __post_init__(self):
        if len(self.points) != len(self.point_labels):
            raise ValueError("points and labels must have equal length")
        if any(lab not in (0, 1) for lab in self.point_labels) or self.default not in (0, 1):
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "_dim", _check_points(self.kind, self.points))
        object.__setattr__(self, "_table", dict(zip(self.points, self.point_labels)))

    @property
    def dim(self) -> int:
        return self._dim

    def _stack_row(self):
        return self, ()  # a stack holds equal tables only

    _from_row = classmethod(lambda cls, key, row: key)

    def _label_stack(self, out, P, X):
        table = self._table
        out[:] = np.fromiter(
            (table.get(tuple(row), self.default) for row in X), dtype=np.uint8, count=len(X)
        )

    def describe(self) -> str:
        return f"lookup({len(self.points)} points, default {self.default})"


_HYPOTHESIS_KINDS = {h.kind: h for h in (
    Threshold, Interval, IntervalUnion, Rectangle, Halfspace, SineSign, LookupTable)}


def hypothesis_from_json(data: dict) -> Hypothesis:
    return from_tagged(data, "kind", _HYPOTHESIS_KINDS, "hypothesis kind")


def predict(h: Hypothesis, x) -> int:
    """Label of a single instance under h; rejects dimension mismatches."""
    return int(h.labels(as_instance(x)[None, :])[0])


# ---------------------------------------------------------------------------
# Labeled samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabeledSample:
    """Ordered finite sequence of (instance, label) pairs.

    Backed by a read-only (m, d) float matrix and a read-only (m,) 0/1 vector.
    Order is significant and preserved.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.array(self.X, dtype=float)
        y = np.array(self.y, dtype=np.uint8)
        if X.ndim != 2:
            raise ValueError(f"sample instances must form an (m, d) matrix, got shape {X.shape}")
        if X.shape[1] < 1:
            raise ValueError("instance dimension must be at least 1")
        if y.shape != (X.shape[0],):
            raise ValueError(f"labels shape {y.shape} does not match {X.shape[0]} instances")
        if not np.all(np.isfinite(X)):
            raise ValueError("sample instances must have finite coordinates")
        if not np.all((np.asarray(self.y) == 0) | (np.asarray(self.y) == 1)):
            raise ValueError("labels must be 0 or 1")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def pairs(self) -> Iterator[tuple[np.ndarray, int]]:
        for i in range(self.m):
            yield self.X[i], int(self.y[i])

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple], dim: int | None = None) -> "LabeledSample":
        """Build from [(instance, label), ...]; instances may be scalars for d=1."""
        if not pairs:
            if dim is None:
                raise ValueError("empty sample needs an explicit dimension")
            return cls(np.empty((0, dim)), np.empty((0,), dtype=np.uint8))
        rows = [as_instance(x) for x, _ in pairs]
        labels = [int(y) for _, y in pairs]
        dims = {len(r) for r in rows}
        if len(dims) != 1:
            raise ValueError(f"all instances must share one dimension, saw {sorted(dims)}")
        if dim is not None and dims != {dim}:
            raise ValueError(f"declared dim={dim} but the instances have dimension {dims.pop()}")
        return cls(np.stack(rows), np.array(labels, dtype=np.uint8))

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "dim": self.dim,
            "pairs": [[list(map(float, x)), int(y)] for x, y in self.pairs()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LabeledSample":
        check_keys(data, ("m", "dim", "pairs"), "sample: ")
        pairs = read_key(data, "pairs", lambda v: [(x, y) for x, y in _json_list(v)], "sample: ")
        sample = cls.from_pairs(pairs, dim=read_key(data, "dim", whole_number, "sample: ", None))
        if sample.m != read_key(data, "m", whole_number, "sample: ", sample.m):
            raise ValueError(f"sample: declared m={data['m']} but {sample.m} pairs given")
        return sample

    def to_csv(self, path) -> str:
        """Write a header, then per pair a CRLF-ended row of 17-digit features and the
        label; return the sha256 of the bytes written.

        The bytes are csv.writer's: a finite 17-digit float or a 0/1 label never needs
        quoting.  Each block of at most CSV_BLOCK_CHARS, the most text held at once, is
        the text of the ``("%.17g," * dim + "%d\\r\\n") * rows`` template, made by
        jsonio.csv_rows: rows whose features all lie in 1e-4 <= |v| < 1e16 or are 0 by an
        exact integer kernel, the other rows by the template itself.  The blocks go with
        the header to jsonio.write_text, which rewrites an existing file in place and cuts
        it to length.
        """
        step = max(1, CSV_BLOCK_CHARS // ((_CSV_CELL_CHARS + 1) * self.dim + 3))

        def texts():
            yield ",".join([f"x{j + 1}" for j in range(self.dim)] + ["label"]) + "\r\n"
            for start in range(0, self.m, step):
                yield csv_rows(self.X[start:start + step], self.y[start:start + step])
        return write_text(path, texts())

    @classmethod
    def from_csv(cls, path) -> "LabeledSample":
        """Read the CSV schema written by to_csv; all but the last column are features.

        Fields may be quoted, blank lines are skipped, a header-only file is an empty sample; a
        non-finite feature, a label not 0 or 1 (spaces trimmed) or a record csv cannot read
        fails naming the 1-based file line where its record starts.  Plain files are read in
        blocks by _csv_table; a file it doubts is read again from the start by the csv.reader
        loop, the reference, which writes every error.
        """
        with open(path, newline="") as fh:
            table = _csv_table(fh)
            if table is not None:
                return cls(table[:, :-1], table[:, -1])
            fh.seek(0)
            rows: list[list[float]] = []
            records = _csv_records(fh, path)
            _, header = next(records, (None, None))
            if header is None:
                raise ValueError(f"{path}: empty file, expected a header row")
            width = len(header)
            if width < 2:
                raise ValueError(f"{path}: need at least one feature column and one label column")
            for lineno, row in records:
                if not row:
                    continue
                if len(row) != width:
                    raise ValueError(f"{path} line {lineno}: expected {width} columns, got {len(row)}")
                try:
                    feats = [float(v) for v in row[:-1]]
                except ValueError:
                    raise ValueError(f"{path} line {lineno}: non-numeric feature value") from None
                if not all(map(math.isfinite, feats)):
                    raise ValueError(f"{path} line {lineno}: feature values must be finite")
                raw = row[-1].strip()
                if raw not in ("0", "1"):
                    raise ValueError(f"{path} line {lineno}: label must be 0 or 1, got {raw!r}")
                rows.append([*feats, float(raw)])
        table = np.array(rows, dtype=float).reshape(len(rows), width)
        return cls(table[:, :-1], table[:, -1])


def _csv_records(fh, path):
    """(start line, cells) of each csv.reader record of fh; a csv.Error (a
    field over csv's limit, or a NUL before Python 3.11) becomes a ValueError
    naming the line where the record starts."""
    reader = csv.reader(fh)
    start = 1  # a quoted field may span lines
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ValueError(f"{path} line {start}: {exc}") from None


def _csv_table(fh) -> np.ndarray | None:
    """The (m, width) float table of a sample CSV, parsed by np.loadtxt a block
    of whole lines of about CSV_BLOCK_CHARS at a time, or None at the first
    doubt that the csv.reader loop of LabeledSample.from_csv would read it the
    same way and accept it.  Guards: a header with no quote or NUL, within csv's
    field limit, of two or more cells; blocks that are ASCII, with no quote, no
    control character but tab, LF and CRLF (numpy strips \\x1c-\\x1f around a
    number, float() does not), no line over csv's field limit and each non-blank
    line ending in ",0" or ",1"; then no ValueError from loadtxt, the header's
    width and finite features.  loadtxt parses fields with float()'s parser,
    PyOS_string_to_double, so accepted tokens keep their bits.  Blank lines are
    skipped, as csv.reader skips them; one block of text is the most held at once.
    """
    limit = csv.field_size_limit()
    header = fh.readline()
    width = header.count(",") + 1
    if '"' in header or "\0" in header or len(header) > limit or width < 2:
        return None
    blocks = []
    while lines := fh.readlines(CSV_BLOCK_CHARS):
        text = "".join(lines)
        if not text.isascii() or '"' in text:
            return None
        raw = np.frombuffer(f"\n{text}\n".encode(), np.uint8)
        lf = np.flatnonzero(raw == 10)  # the leading pad's, then each line's
        cr = raw[lf[1:] - 1] == 13
        end = lf[1:] - cr  # where each line's LF or CRLF starts
        blank = raw[end - 1] == 10
        label = ((raw[end - 1] == 48) | (raw[end - 1] == 49)) & (raw[end - 2] == 44)
        if (np.count_nonzero(raw < 32) != len(lf) + np.count_nonzero(cr) + text.count("\t")
                or np.diff(lf).max() > limit or not (blank | label).all()):
            return None
        if blank.all():
            continue
        try:
            block = np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2)
        except ValueError:
            return None
        if block.shape[1] != width or not np.isfinite(block).all():
            return None
        blocks.append(block)
    return np.concatenate(blocks or [np.empty((0, width))])


def empirical_error(h: Hypothesis, S: LabeledSample) -> float:
    """Fraction of S's pairs mislabeled by h: count mismatches, then divide."""
    if S.m == 0:
        raise ValueError("empirical error is undefined for an empty sample")
    return empirical_error_count(h, S) / S.m


def empirical_error_count(h: Hypothesis, S: LabeledSample) -> int:
    """Exact number of mismatches of h on S (integer, tie-break friendly)."""
    return int(np.count_nonzero(h.labels(S.X) != S.y))


def error_counts(members: Sequence[Hypothesis], S: LabeledSample) -> np.ndarray:
    """Mismatch count of each member on S, in member order: the one-row case
    of ``trial_error_counts``."""
    return trial_error_counts(members, S.X[None], S.y[None])[0]


def trial_error_counts(
    members: Sequence[Hypothesis], X: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """(T, len(members)) mismatch counts of each member on each of T samples
    of m pairs, given as (T, m, d) finite instances X and (T, m) 0/1 labels y.

    All T * m points are labelled at once, as by ``label_matrix``, in blocks
    of at most LABEL_BLOCK_CELLS label cells (at least one member per block),
    so memory is bounded by one block, about 1 MB, whatever the sizes.

    A run of Interval or IntervalUnion members whose distinct lower endpoints
    plus distinct upper endpoints number fewer than its members is counted
    from threshold rows at those endpoints instead.  For a <= b and finite x,
    1[a <= x <= b] = 1[x >= a] + 1[x <= b] - 1, so on a sample with n0 0s and
    n1 1s an interval mismatches M_ge(a) + M_le(b) - n0 pairs, where M_ge and
    M_le count the mismatches of the "ge" and "le" thresholds there.  The k
    parts of a union are disjoint, so it mismatches
    sum_i (M_ge(a_i) + M_le(b_i)) - k n0 - (k - 1) n1, the same integers.
    """
    members = members if isinstance(members, StackedMembers) else StackedMembers(members)
    T, m = y.shape
    # Labels are per point, so the points can go in any order: at small m they
    # go m-major, and a block is summed over its middle axis of m rows of T
    # cells, not along m-cell segments, which numpy's reduction pays per call.
    m_major = m <= COUNT_M_MAJOR
    points = (X.transpose(1, 0, 2) if m_major else X).reshape(T * m, X.shape[-1])
    flat_y = (y.T if m_major else y).reshape(T * m)
    runs, sums = members._count_runs
    for a, *_ in sums or ():  # a wrong dimension names the member's own type
        _check_matrix(points, members[a].dim, f"{members[a].kind} hypothesis")
    n_rows = runs[-1][1] if runs else 0
    counts = np.empty((T, n_rows), dtype=np.int64)
    step = max(1, LABEL_BLOCK_CELLS // max(T * m, 1))
    block = np.empty((min(step, n_rows), T * m), dtype=np.uint8)
    # Labels are 0/1, so after the xor a row segment's sum is its mismatch
    # count, at most m.  So a uint16 sum is exact while m < 2^16; on a 1 M-cell
    # block with m in the hundreds it takes about 60% of a uint32 sum's time,
    # and that about half of count_nonzero's along an axis.  m < 2^32 always
    # holds (X alone would need 32 GB otherwise).
    total = np.uint16 if m < 2 ** 16 else np.uint32
    for start in range(0, n_rows, step):
        rows = block[:min(step, n_rows - start)]
        _fill_labels(rows, runs, points, start)
        rows ^= flat_y
        counts[:, start:start + len(rows)] = (
            rows.reshape(len(rows), m, T).sum(axis=1, dtype=total).T if m_major
            else rows.reshape(len(rows), T, m).sum(axis=2, dtype=total).T)
    if sums is None:
        return counts
    out = np.empty((T, len(members)), dtype=np.int64)
    n1 = y.sum(axis=1, dtype=np.int64)[:, None]
    for a, b, cols, k in sums:
        if k is None:  # a kept run: its rows start at cols
            out[:, a:b] = counts[:, cols:cols + b - a]
            continue
        out[:, a:b] = n1 - k * m  # = -k n0 - (k - 1) n1
        for col in cols.T:
            out[:, a:b] += counts[:, col]
    return out


def _endpoint_rows(runs: Sequence[tuple]) -> tuple[list, list | None]:
    """The runs trial_error_counts labels, each interval or union run whose
    distinct endpoints number fewer than its members replaced by a "ge"
    threshold run over its distinct lower endpoints and an "le" run over its
    distinct upper ones; and, unless no run is replaced, per given run
    (start, stop, cols, k): member start + i counts the sum of the rows
    cols[i], plus n1 - k m, for a k-interval union; for a kept run, k is None
    and cols the index of its first row.
    Threshold rows compare as _in_closed does, so ties on an endpoint agree."""
    out: list[tuple] = []
    sums = []
    for a, b, (typ, key), P, h in runs:
        at = out[-1][1] if out else 0
        if typ in (Interval, IntervalUnion):
            lo, lo_row = np.unique(P[:, 0::2], return_inverse=True)
            hi, hi_row = np.unique(P[:, 1::2], return_inverse=True)
            if len(lo) + len(hi) < b - a:
                for theta, direction, first in ((lo, "ge", at), (hi, "le", at + len(lo))):
                    if len(theta):
                        out.append((first, first + len(theta), (Threshold, direction),
                                    theta[:, None], Threshold(float(theta[0]), direction)))
                k = P.shape[1] // 2
                cols = np.concatenate([lo_row.reshape(b - a, k) + at,
                                       hi_row.reshape(b - a, k) + at + len(lo)], axis=1)
                sums.append((a, b, cols, k))
                continue
        out.append((at, at + b - a, (typ, key), P, h))
        sums.append((a, b, at, None))
    return out, sums if any(k is not None for *_, k in sums) else None


def label_matrix(members: Sequence[Hypothesis], X: np.ndarray) -> np.ndarray:
    """(len(members), n) uint8 labels on the (n, d) matrix X, in member order;
    row i equals ``members[i].labels(X)``.

    Each run of members of one exact type and stacking key is labelled by one
    call of that type's rule on the run's stacked parameter rows.  Pass a
    StackedMembers to label one list on many samples without stacking it
    again; ``StackedMembers.of`` labels a class without building it.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(
            f"label_matrix expects an (n, d) matrix of instances, got shape {X.shape}"
        )
    members = members if isinstance(members, StackedMembers) else StackedMembers(members)
    out = np.empty((len(members), len(X)), dtype=np.uint8)
    _fill_labels(out, members._runs, X, 0)
    return out


class StackedMembers(Sequence):
    """An immutable member list, built from a list or by ``of`` from classes,
    held as the runs of stacked parameter rows label_matrix and error_counts
    label it with; code that labels one list on many samples passes this.
    Reading member i builds that one object from its float row (see
    FiniteClass), and iterating builds them all in order.
    """

    def __init__(self, members: Iterable[Hypothesis] = ()):
        self._runs = _joined_runs(_row_runs(members))

    @classmethod
    def of(cls, *classes: "HypothesisClass",
           budget: int = DEFAULT_ENUMERATION_BUDGET) -> "StackedMembers":
        """The members of classes in canonical order, each class under the
        enumeration budget.  A class is checked when it is built, so every
        row it gives builds its member, and the one error raised here is
        EnumerationBudgetError."""
        runs = []
        for H in classes:
            if H.size() > budget:
                raise EnumerationBudgetError(H.size(), budget)
            runs += H._param_runs()
        stacked = cls()
        stacked._runs = _joined_runs(runs)
        return stacked

    @functools.cached_property
    def _count_runs(self) -> tuple[list, list | None]:
        """The runs trial_error_counts labels, by ``_endpoint_rows``, made
        once for the counts on every sample."""
        return _endpoint_rows(self._runs)

    def __len__(self) -> int:
        return self._runs[-1][1] if self._runs else 0

    def __getitem__(self, index):
        index = range(len(self))[index]
        a, _, (typ, key), P, _ = next(run for run in self._runs if index < run[1])
        return typ._from_row(key, P[index - a].tolist())

    def __iter__(self) -> Iterator[Hypothesis]:
        return (typ._from_row(key, row)
                for _, _, (typ, key), P, _ in self._runs for row in P.tolist())


def _adjacent_runs(items: Iterable[tuple]) -> list[tuple]:
    """(type, key, parts) per maximal run of adjacent (type, (key, part))
    items; a lookup table is its own key and joins only the same object."""
    runs: list[tuple] = []
    for typ, (key, part) in items:
        if not (runs and runs[-1][0] is typ and (
                runs[-1][1] is key or typ is not LookupTable and runs[-1][1] == key)):
            runs.append((typ, key, []))
        runs[-1][2].append(part)
    return runs


def _row_runs(members: Iterable[Hypothesis]) -> list[tuple]:
    """(type, key, P) of each maximal run of members, P their float rows."""
    rows = [(type(h), h._stack_row()) for h in members]
    return [(typ, key, np.array(part, dtype=float)) for typ, key, part in _adjacent_runs(rows)]


def _joined_runs(runs: Iterable[tuple]) -> tuple[tuple, ...]:
    """(start, stop, (type, key), P, first member) of each maximal sequence of
    adjacent nonempty (type, key, P) runs, P their rows, read-only."""
    out: list[tuple] = []
    for typ, key, parts in _adjacent_runs((typ, (key, P)) for typ, key, P in runs if len(P)):
        P = np.concatenate(parts)
        P.flags.writeable = False
        at = out[-1][1] if out else 0
        out.append((at, at + len(P), (typ, key), P, typ._from_row(key, P[0].tolist())))
    return tuple(out)


def _fill_labels(out: np.ndarray, runs: Sequence[tuple], X: np.ndarray, start: int) -> None:
    """Write the labels of members start to start + len(out) of the runs on X
    into out, each run's by its first member's rule."""
    stop = start + len(out)
    for a, b, _, params, h in runs:
        lo, hi = max(a, start), min(b, stop)
        if lo < hi:
            # A bool view takes 0/1 bytes without a cast.
            h._label_stack(out[lo - start:hi - start].view(bool), params[lo - a:hi - a],
                           _check_matrix(X, h.dim, f"{h.kind} hypothesis"))


# ---------------------------------------------------------------------------
# Hypothesis classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec(JsonFields):
    """Per-parameter-axis grid values used to discretize a parametric family.

    Each family documents how many axes it expects and what they mean.
    """

    axes: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        axes = tuple(tuple(float(v) for v in axis) for axis in self.axes)
        for axis in axes:
            if not axis:
                raise ValueError("grid axes must be nonempty")
            _reject_nan("grid values", *axis)
        object.__setattr__(self, "axes", axes)

    @classmethod
    def linspace(cls, lo: float, hi: float, n: int) -> "GridSpec":
        return cls((tuple(np.linspace(lo, hi, n).tolist()),))


class HypothesisClass(JsonFields):
    """A family of hypotheses with a canonical, stable enumeration order.

    Parametric families carry continuous parameter ranges, a default grid
    built from them and an optional explicit ``grid`` (their last field);
    exhaustive operations discretize them through that GridSpec.  Every
    class, finite or grid, declares its members once, as (type, key, P) runs
    of parameter rows in canonical order (``_param_runs``).  A grid family
    checks its resolved grid when it is built and refuses one on which some
    member would not build, so every row it declares builds its member.
    ``vc_dim_hint`` is the combinatorial dimension of the continuous family
    (None if infinite or unknown); grid restrictions never exceed it.
    """

    json_tag_key = "family"
    family: str = ""
    vc_dim_hint: int | None = None
    grid_axes = 1  # axes of the family's grid, explicit or default
    dim = 1  # instances are on the line unless a family says otherwise

    def default_grid(self) -> GridSpec:
        """``resolution`` values from lo to hi, unless a family says otherwise."""
        return GridSpec.linspace(self.lo, self.hi, self.resolution)

    def _check_range(self, lo: str, hi: str) -> None:
        """Reject a NaN bound, naming the tag and the field.  With no explicit
        grid, the bounds span the default grid, so an infinite bound or a span
        hi - lo that overflows, either of which makes that grid NaN, is refused too."""
        bounds = getattr(self, lo), getattr(self, hi)
        for key, value in zip((lo, hi), bounds):
            _reject_nan(f"{self.family}: {key}", value, finite=self.grid is None)
        if self.grid is None and math.isinf(bounds[1] - bounds[0]):
            raise ValueError(f"{self.family}: {hi} - {lo} must be finite, "
                             f"got {lo}={bounds[0]}, {hi}={bounds[1]}")

    def _check_order(self, ranges: Sequence[tuple[str, float, float]],
                     strict: bool = False) -> None:
        """Reject, unless the class is empty, a resolved grid axis that
        decreases or, if strict, repeats a value: some member would not build.
        The message names the field that gives the axis and the first pair out
        of order: ``grid``, else the axis's (field prefix, lo, hi) in ranges."""
        order = "increasing" if strict else "nondecreasing"
        axes = self.resolve_grid().axes
        if self.size() == 0:
            return
        for n, (axis, (field, lo, hi)) in enumerate(zip(axes, ranges), start=1):
            bad = [(a, b) for a, b in zip(axis, axis[1:]) if b < a or strict and b == a]
            if not bad:
                continue
            got = "got {} then {}".format(*bad[0])
            if self.grid is not None:
                where = "grid" if len(axes) == 1 else f"grid axis {n}"
                raise ValueError(f"{self.family}: {where} must be {order}, {got}")
            if lo > hi:
                raise ValueError(f"{self.family}: {field}lo must not exceed hi, "
                                 f"got lo={lo}, hi={hi}")
            raise ValueError(f"{self.family}: {field}the default grid of {self.resolution} "
                             f"values from lo={lo} to hi={hi} must be {order}, {got}")

    def resolve_grid(self) -> GridSpec:
        """The explicit grid, checked against the family's axis count, else
        the default grid; resolved once, when the class is built."""
        return self._grid

    @functools.cached_property
    def _grid(self) -> GridSpec:
        if self.grid is None:
            return self.default_grid()
        if len(self.grid.axes) != self.grid_axes:
            raise ValueError(f"{self.family} discretization needs {self.grid_axes} grid axes, "
                             f"got {len(self.grid.axes)}")
        return self.grid

    def size(self) -> int:
        """Number of enumerated members."""
        raise NotImplementedError

    def _param_runs(self) -> list[tuple]:
        raise NotImplementedError

    def members(self) -> Iterator[Hypothesis]:
        return iter(StackedMembers.of(self, budget=math.inf))


def _row_product(blocks) -> np.ndarray:
    """Each row of the first block joined to each of the next, first block major."""
    P = np.empty((1, 0))
    for block in blocks:
        P = np.concatenate([np.repeat(P, len(block), axis=0), np.tile(block, (len(P), 1))], axis=1)
    return P


def _chains(axis, k: int) -> np.ndarray:
    """Rows (axis[i1], axis[j1], ..., axis[ik], axis[jk]) over the index chains
    i1 <= j1 < i2 <= ... <= jk < len(axis), in lexicographic index order: the
    2k-subsets of range(len(axis) + k), index t of each lowered by (t + 1) // 2."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(len(axis) + k), 2 * k))
    picks = np.fromiter(flat, dtype=np.intp).reshape(-1, 2 * k) - (np.arange(2 * k) + 1) // 2
    return np.array(axis)[picks]


@dataclass(frozen=True)
class ThresholdClass(HypothesisClass):
    """Thresholds on [lo, hi].  Canonical order: direction-major, theta ascending.

    One grid axis: the theta values.
    """

    lo: float = 0.0
    hi: float = 1.0
    directions: tuple[str, ...] = ("ge",)
    resolution: int = 41
    grid: GridSpec | None = None

    family = "thresholds"

    def __post_init__(self):
        if not self.directions or any(d not in ("ge", "le") for d in self.directions):
            raise ValueError(f"directions must be a nonempty subset of ('ge','le'), got {self.directions}")
        self._check_range("lo", "hi")
        if self.lo > self.hi:
            raise ValueError(f"thresholds: lo must not exceed hi, got lo={self.lo}, hi={self.hi}")
        self._check_counts(resolution=self.resolution)
        self.resolve_grid()

    @property
    def vc_dim_hint(self) -> int:
        return 1 if len(self.directions) == 1 else 2

    def size(self) -> int:
        return len(self.resolve_grid().axes[0]) * len(self.directions)

    def _param_runs(self):
        theta = np.array(self.resolve_grid().axes[0])[:, None]
        return [(Threshold, direction, theta) for direction in self.directions]


@dataclass(frozen=True)
class IntervalClass(HypothesisClass):
    """Closed intervals [a, b] with endpoints on one grid axis, a <= b.

    Canonical order: lower endpoint major, upper endpoint ascending.
    """

    lo: float = 0.0
    hi: float = 1.0
    resolution: int = 25
    grid: GridSpec | None = None

    family = "intervals"
    vc_dim_hint = 2

    def __post_init__(self):
        self._check_range("lo", "hi")
        self._check_counts(resolution=self.resolution)
        self._check_order([("", self.lo, self.hi)])

    def size(self) -> int:
        g = len(self.resolve_grid().axes[0])
        return g * (g + 1) // 2

    def _param_runs(self):
        return [(Interval, None, _chains(self.resolve_grid().axes[0], 1))]


@dataclass(frozen=True)
class IntervalUnionClass(HypothesisClass):
    """Unions of k disjoint closed intervals with endpoints on one grid axis.

    Members are chains a1 <= b1 < a2 <= b2 < ... over the axis, in
    lexicographic index order.
    """

    k: int = 2
    lo: float = 0.0
    hi: float = 1.0
    resolution: int = 13
    grid: GridSpec | None = None

    family = "interval_unions"

    def __post_init__(self):
        self._check_range("lo", "hi")
        self._check_counts(k=self.k, resolution=self.resolution)
        # A chain of k >= 2 parts needs b_i < a_(i+1).
        self._check_order([("", self.lo, self.hi)], strict=self.k > 1)

    @property
    def vc_dim_hint(self) -> int:
        return 2 * self.k

    def size(self) -> int:
        g = len(self.resolve_grid().axes[0])
        return math.comb(g + self.k, 2 * self.k)

    def _param_runs(self):
        return [(IntervalUnion, self.k, _chains(self.resolve_grid().axes[0], self.k))]


@dataclass(frozen=True)
class RectangleClass(HypothesisClass):
    """Axis-aligned boxes; one grid axis per dimension, (lo <= hi) pairs per axis.

    Canonical order: first axis major, then lower-before-upper endpoint order
    within each axis.
    """

    bounds: tuple[tuple[float, float], ...] = ((0.0, 1.0), (0.0, 1.0))
    resolution: int = 7
    grid: GridSpec | None = None

    family = "rectangles"
    grid_axes = property(lambda self: self.dim)

    def __post_init__(self):
        self._check_counts("instance dimension", bounds=self.dim)
        self._check_counts(resolution=self.resolution)
        _reject_nan("rectangles: bounds", *itertools.chain.from_iterable(self.bounds),
                    finite=self.grid is None)
        if self.grid is None and any(math.isinf(hi - lo) for lo, hi in self.bounds):
            raise ValueError(f"rectangles: bounds: hi - lo must be finite, got {self.bounds}")
        self._check_order([("bounds: ", lo, hi) for lo, hi in self.bounds])

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def vc_dim_hint(self) -> int:
        return 2 * len(self.bounds)

    def default_grid(self) -> GridSpec:
        return GridSpec(
            tuple(tuple(np.linspace(lo, hi, self.resolution).tolist()) for lo, hi in self.bounds)
        )

    def size(self) -> int:
        return math.prod(len(axis) * (len(axis) + 1) // 2 for axis in self.resolve_grid().axes)

    def _param_runs(self):
        pairs = (_chains(axis, 1) for axis in self.resolve_grid().axes)
        return [(Rectangle, self.dim, _row_product(pairs))]


@dataclass(frozen=True)
class HalfspaceClass2D(HypothesisClass):
    """Halfplanes 1[cos(a) x1 + sin(a) x2 >= o] in the plane.

    Two grid axes: unit-normal angles (radians) and offsets o.  Canonical
    order: angle major, offset ascending.
    """

    offset_lo: float = -2.0
    offset_hi: float = 2.0
    n_angles: int = 24
    n_offsets: int = 33
    grid: GridSpec | None = None

    family = "halfspaces2d"
    vc_dim_hint = 3
    dim = grid_axes = 2

    def __post_init__(self):
        self._check_range("offset_lo", "offset_hi")
        self._check_counts(n_angles=self.n_angles, n_offsets=self.n_offsets)
        _reject_nan(f"{self.family}: grid angles", *self.resolve_grid().axes[0], finite=True)

    def default_grid(self) -> GridSpec:
        angles = tuple((2.0 * math.pi * j / self.n_angles) for j in range(self.n_angles))
        offsets = tuple(np.linspace(self.offset_lo, self.offset_hi, self.n_offsets).tolist())
        return GridSpec((angles, offsets))

    def size(self) -> int:
        return math.prod(map(len, self.resolve_grid().axes))

    def _param_runs(self):
        angles, offsets = self.resolve_grid().axes
        # math.cos per angle: np.cos may differ in the last bit.
        normals = np.array([(math.cos(angle), math.sin(angle)) for angle in angles])
        return [(Halfspace, self.dim, _row_product([normals, -np.array(offsets)[:, None]]))]


@dataclass(frozen=True)
class SineClass(HypothesisClass):
    """Sign-of-sine hypotheses 1[sin(alpha x) >= 0]; one grid axis of frequencies.

    The continuous family shatters arbitrarily large point sets, so it has no
    finite dimension hint.
    """

    alpha_lo: float = 0.1
    alpha_hi: float = 100.0
    resolution: int = 50
    grid: GridSpec | None = None

    family = "sine"
    vc_dim_hint = None

    def __post_init__(self):
        self._check_range("alpha_lo", "alpha_hi")
        self._check_counts(resolution=self.resolution)
        _reject_nan(f"{self.family}: grid frequencies", *self.resolve_grid().axes[0], finite=True)

    def default_grid(self) -> GridSpec:
        return GridSpec.linspace(self.alpha_lo, self.alpha_hi, self.resolution)

    def size(self) -> int:
        return len(self.resolve_grid().axes[0])

    def _param_runs(self):
        return [(SineSign, None, np.array(self.resolve_grid().axes[0])[:, None])]


@dataclass(frozen=True)
class FiniteClass(HypothesisClass):
    """An explicit finite list of hypotheses in a fixed, stored order.

    Members are enumerated rebuilt from float rows, like a grid family's:
    each parameter comes back as its nearest float, equal and with the same
    JSON bytes for a float or an int below 2^53 in size (not for a Fraction
    or a larger int).  If a finite probe domain is declared, members must be
    pairwise distinct on it (extensional de-duplication diagnostic).
    """

    hypotheses: tuple[Hypothesis, ...]
    domain: tuple[tuple[float, ...], ...] | None = None

    family = "finite"
    vc_dim_hint = None
    json_names = {"hypotheses": "members"}

    def __post_init__(self):
        if not self.hypotheses:
            raise ValueError("a finite class needs at least one hypothesis")
        dims = {h.dim for h in self.hypotheses}
        if len(dims) != 1:
            raise ValueError(f"members must share one dimension, saw {sorted(dims)}")
        if self.domain is not None:
            probe = np.asarray(self.domain, dtype=float)
            dupes = find_extensional_duplicates(self.hypotheses, probe)
            if dupes:
                i, j = dupes[0]
                raise ValueError(
                    f"members {i} and {j} agree on every declared domain point "
                    f"({len(dupes)} duplicate pairs in total)"
                )

    @property
    def dim(self) -> int:
        return self.hypotheses[0].dim

    def size(self) -> int:
        return len(self.hypotheses)

    def _param_runs(self):
        return _row_runs(self.hypotheses)


_CLASS_FAMILIES = {c.family: c for c in (
    ThresholdClass, IntervalClass, IntervalUnionClass, RectangleClass, HalfspaceClass2D,
    SineClass, FiniteClass)}


def class_from_json(data: dict) -> HypothesisClass:
    return from_tagged(data, "family", _CLASS_FAMILIES, "class family")


def enumerate_class(
    H: HypothesisClass,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> list[Hypothesis]:
    """Materialize H's members in canonical order under an enumeration budget.

    The order is deterministic and byte-stable across runs for equal inputs.
    Exceeding the budget raises EnumerationBudgetError carrying the required
    size and the budget.
    """
    return list(StackedMembers.of(H, budget=budget))


# ---------------------------------------------------------------------------
# Extensional comparison and weighted sequences
# ---------------------------------------------------------------------------


def find_extensional_duplicates(
    hypotheses: Sequence[Hypothesis], probe: np.ndarray
) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, that agree on the whole probe set.

    Diagnostic only; learning operations never rely on it.
    """
    seen: dict[bytes, int] = {}
    dupes: list[tuple[int, int]] = []
    for idx, row in enumerate(label_matrix(hypotheses, probe)):
        key = row.tobytes()
        if key in seen:
            dupes.append((seen[key], idx))
        else:
            seen[key] = idx
    return dupes


@dataclass(frozen=True)
class WeightedClassSequence(JsonFields):
    """A finite ordered sequence of hypothesis classes with positive weights.

    Weights sum to at most 1 (tolerance 1e-12); weights left None halve with
    each position and are renormalized over the finite prefix.
    """

    classes: tuple[HypothesisClass, ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.weights is None:
            raw = [2.0 ** -(i + 1) for i in range(len(self.classes))]
            total = sum(raw)
            object.__setattr__(self, "weights", tuple(w / total for w in raw))
        if len(self.classes) != len(self.weights):
            raise ValueError("classes and weights must have equal length")
        if not self.classes:
            raise ValueError("the sequence must contain at least one class")
        if any(w <= 0 for w in self.weights):
            raise ValueError("all weights must be positive")
        if sum(self.weights) > 1.0 + 1e-12:
            raise ValueError(f"weights must sum to at most 1, got {sum(self.weights)}")

    def __len__(self) -> int:
        return len(self.classes)
