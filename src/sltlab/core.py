"""Domain vocabulary: instances, labels, samples, hypotheses, hypothesis classes.

Instances are real vectors of dimension d >= 1; discrete domains are embedded
as distinct reals.  Labels are 0/1.  Every boundary tie in a real-valued
family (a point exactly on a threshold, an interval endpoint, a separating
line, or sin(alpha*x) == 0) maps to label 1; this single convention is
applied everywhere in the package.

All types are immutable after construction and all operations are pure, so
values can be shared freely across concurrent workers.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

DEFAULT_ENUMERATION_BUDGET = 500_000

# Most label cells (members x sample rows) error_counts evaluates at once: a
# 500-row sample takes every member of a default class in one block, while an
# 80 000-row sample stays at about 1 MB per block.
LABEL_BLOCK_CELLS = 1 << 20


class DimensionMismatchError(ValueError):
    """Instance dimension does not match the hypothesis or sample dimension."""


class EnumerationBudgetError(RuntimeError):
    """A requested enumeration would exceed the configured budget."""

    def __init__(self, required, budget):
        self.required = required
        self.budget = budget
        req = str(required) if required is not None else f"more than {budget}"
        super().__init__(f"enumeration requires {req} hypotheses but the budget is {budget}")


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
# Hypotheses
# ---------------------------------------------------------------------------


class Hypothesis:
    """A total, deterministic binary labeling rule on d-dimensional instances.

    Subclasses implement ``labels`` (vectorized over an (n, d) matrix) and
    expose ``dim``.  Equal inputs always give equal labels.
    """

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def labels(self, X: np.ndarray) -> np.ndarray:
        """Labels in {0, 1} for each row of an (n, dim) matrix."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def describe(self) -> str:
        """Compact one-line description for tables and logs."""
        return repr(self)


@dataclass(frozen=True)
class Threshold(Hypothesis):
    """1[x >= theta] (direction "ge") or 1[x <= theta] (direction "le") on the line."""

    theta: float
    direction: str = "ge"

    def __post_init__(self):
        if self.direction not in ("ge", "le"):
            raise ValueError(f"direction must be 'ge' or 'le', got {self.direction!r}")

    @property
    def dim(self) -> int:
        return 1

    def labels(self, X: np.ndarray) -> np.ndarray:
        X = _check_matrix(X, 1, "threshold hypothesis")
        if self.direction == "ge":
            return (X[:, 0] >= self.theta).astype(np.uint8)
        return (X[:, 0] <= self.theta).astype(np.uint8)

    def to_json(self) -> dict:
        return {"kind": "threshold", "theta": self.theta, "direction": self.direction}

    def describe(self) -> str:
        op = ">=" if self.direction == "ge" else "<="
        return f"1[x {op} {self.theta:g}]"


@dataclass(frozen=True)
class Interval(Hypothesis):
    """1[lo <= x <= hi] on the line; closed on both ends."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @property
    def dim(self) -> int:
        return 1

    def labels(self, X: np.ndarray) -> np.ndarray:
        X = _check_matrix(X, 1, "interval hypothesis")
        x = X[:, 0]
        return ((x >= self.lo) & (x <= self.hi)).astype(np.uint8)

    def to_json(self) -> dict:
        return {"kind": "interval", "lo": self.lo, "hi": self.hi}

    def describe(self) -> str:
        return f"1[{self.lo:g} <= x <= {self.hi:g}]"


@dataclass(frozen=True)
class IntervalUnion(Hypothesis):
    """Indicator of a union of disjoint closed intervals on the line."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev_hi = -math.inf
        for lo, hi in self.intervals:
            if lo > hi:
                raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
            if lo <= prev_hi:
                raise ValueError("intervals must be disjoint and sorted")
            prev_hi = hi

    @property
    def dim(self) -> int:
        return 1

    def labels(self, X: np.ndarray) -> np.ndarray:
        X = _check_matrix(X, 1, "interval-union hypothesis")
        x = X[:, 0]
        out = np.zeros(len(x), dtype=np.uint8)
        for lo, hi in self.intervals:
            out |= ((x >= lo) & (x <= hi)).astype(np.uint8)
        return out

    def to_json(self) -> dict:
        return {"kind": "interval_union", "intervals": [list(p) for p in self.intervals]}

    def describe(self) -> str:
        parts = " u ".join(f"[{lo:g},{hi:g}]" for lo, hi in self.intervals)
        return f"1[x in {parts}]"


@dataclass(frozen=True)
class Rectangle(Hypothesis):
    """Indicator of a closed axis-aligned box; one (lo, hi) pair per dimension."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for lo, hi in self.bounds:
            if lo > hi:
                raise ValueError(f"box bounds out of order: [{lo}, {hi}]")

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def labels(self, X: np.ndarray) -> np.ndarray:
        X = _check_matrix(X, self.dim, "rectangle hypothesis")
        inside = np.ones(len(X), dtype=bool)
        for j, (lo, hi) in enumerate(self.bounds):
            inside &= (X[:, j] >= lo) & (X[:, j] <= hi)
        return inside.astype(np.uint8)

    def to_json(self) -> dict:
        return {"kind": "rectangle", "bounds": [list(p) for p in self.bounds]}

    def describe(self) -> str:
        parts = " x ".join(f"[{lo:g},{hi:g}]" for lo, hi in self.bounds)
        return f"1[x in {parts}]"


@dataclass(frozen=True)
class Halfspace(Hypothesis):
    """1[w . x + b >= 0] in len(weights) dimensions."""

    weights: tuple[float, ...]
    bias: float

    @property
    def dim(self) -> int:
        return len(self.weights)

    def labels(self, X: np.ndarray) -> np.ndarray:
        X = _check_matrix(X, self.dim, "halfspace hypothesis")
        return (X @ np.asarray(self.weights) + self.bias >= 0.0).astype(np.uint8)

    def to_json(self) -> dict:
        return {"kind": "halfspace", "weights": list(self.weights), "bias": self.bias}

    def describe(self) -> str:
        w = ",".join(f"{v:g}" for v in self.weights)
        return f"1[({w}).x + {self.bias:g} >= 0]"


@dataclass(frozen=True)
class SineSign(Hypothesis):
    """1[sin(alpha * x) >= 0] on the line."""

    alpha: float

    @property
    def dim(self) -> int:
        return 1

    def labels(self, X: np.ndarray) -> np.ndarray:
        X = _check_matrix(X, 1, "sine hypothesis")
        return (np.sin(self.alpha * X[:, 0]) >= 0.0).astype(np.uint8)

    def to_json(self) -> dict:
        return {"kind": "sine", "alpha": self.alpha}

    def describe(self) -> str:
        return f"1[sin({self.alpha:g} x) >= 0]"


@dataclass(frozen=True)
class LookupTable(Hypothesis):
    """Explicit table on a finite domain; unseen instances get the default label."""

    points: tuple[tuple[float, ...], ...]
    point_labels: tuple[int, ...]
    default: int = 0

    def __post_init__(self):
        if len(self.points) != len(self.point_labels):
            raise ValueError("points and labels must have equal length")
        if any(lab not in (0, 1) for lab in self.point_labels) or self.default not in (0, 1):
            raise ValueError("labels must be 0 or 1")
        dims = {len(p) for p in self.points}
        if len(dims) > 1:
            raise ValueError("all table points must share one dimension")
        object.__setattr__(self, "_table", dict(zip(self.points, self.point_labels)))
        object.__setattr__(self, "_dim", dims.pop() if dims else 1)

    @property
    def dim(self) -> int:
        return self._dim

    def labels(self, X: np.ndarray) -> np.ndarray:
        X = _check_matrix(X, self.dim, "lookup-table hypothesis")
        table = self._table
        return np.fromiter(
            (table.get(tuple(row), self.default) for row in X), dtype=np.uint8, count=len(X)
        )

    def to_json(self) -> dict:
        return {
            "kind": "lookup",
            "points": [list(p) for p in self.points],
            "labels": list(self.point_labels),
            "default": self.default,
        }

    def describe(self) -> str:
        return f"lookup({len(self.points)} points, default {self.default})"


_HYPOTHESIS_KINDS = {
    "threshold": lambda d: Threshold(float(d["theta"]), str(d["direction"])),
    "interval": lambda d: Interval(float(d["lo"]), float(d["hi"])),
    "interval_union": lambda d: IntervalUnion(
        tuple((float(a), float(b)) for a, b in d["intervals"])
    ),
    "rectangle": lambda d: Rectangle(tuple((float(a), float(b)) for a, b in d["bounds"])),
    "halfspace": lambda d: Halfspace(tuple(float(w) for w in d["weights"]), float(d["bias"])),
    "sine": lambda d: SineSign(float(d["alpha"])),
    "lookup": lambda d: LookupTable(
        tuple(tuple(float(c) for c in p) for p in d["points"]),
        tuple(int(v) for v in d["labels"]),
        int(d.get("default", 0)),
    ),
}


def hypothesis_from_json(data: dict) -> Hypothesis:
    kind = data.get("kind")
    if kind not in _HYPOTHESIS_KINDS:
        raise ValueError(f"unknown hypothesis kind {kind!r}")
    return _HYPOTHESIS_KINDS[kind](data)


def predict(h: Hypothesis, x) -> int:
    """Label of a single instance under h; rejects dimension mismatches."""
    arr = as_instance(x)
    if len(arr) != h.dim:
        raise DimensionMismatchError(
            f"hypothesis is defined on dimension {h.dim} but instance has dimension {len(arr)}"
        )
    return int(h.labels(arr[None, :])[0])


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
        pairs = [(p[0], p[1]) for p in data["pairs"]]
        sample = cls.from_pairs(pairs, dim=int(data["dim"]) if "dim" in data else None)
        if "m" in data and sample.m != int(data["m"]):
            raise ValueError(f"declared m={data['m']} but {sample.m} pairs given")
        return sample

    def to_csv(self, path) -> None:
        """Write one row per pair: d feature columns then the label; header required."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{j + 1}" for j in range(self.dim)] + ["label"])
            for x, y in self.pairs():
                writer.writerow([format(v, ".17g") for v in x] + [y])

    @classmethod
    def from_csv(cls, path, dim: int | None = None) -> "LabeledSample":
        """Read the CSV schema written by to_csv; all but the last column are features.

        Malformed rows and non-binary labels are rejected with the offending
        1-based file line number.
        """
        rows: list[tuple[list[float], int]] = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty file, expected a header row") from None
            width = len(header)
            if width < 2:
                raise ValueError(f"{path}: need at least one feature column and one label column")
            if dim is not None and width != dim + 1:
                raise ValueError(f"{path}: expected {dim} feature columns, header has {width - 1}")
            for lineno, row in enumerate(reader, start=2):
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
                rows.append((feats, int(raw)))
        return cls.from_pairs(rows, dim=width - 1)


def empirical_error(h: Hypothesis, S: LabeledSample) -> float:
    """Fraction of S's pairs mislabeled by h: count mismatches, then divide."""
    if S.m == 0:
        raise ValueError("empirical error is undefined for an empty sample")
    return empirical_error_count(h, S) / S.m


def empirical_error_count(h: Hypothesis, S: LabeledSample) -> int:
    """Exact number of mismatches of h on S (integer, tie-break friendly)."""
    return int(np.count_nonzero(h.labels(S.X) != S.y))


def error_counts(members: Sequence[Hypothesis], S: LabeledSample) -> np.ndarray:
    """Mismatch count of each member on S, in member order.

    Members are labelled as by ``label_matrix``, in blocks of at most
    LABEL_BLOCK_CELLS label cells (at least one member per block), so memory
    is bounded by one block, about 1 MB, whatever the class and sample sizes.
    """
    runs = _runs_of(members)
    counts = np.empty(len(members), dtype=np.int64)
    step = max(1, LABEL_BLOCK_CELLS // max(S.m, 1))
    block = np.empty((min(step, len(members)), S.m), dtype=np.uint8)
    # Labels are 0/1, so after the xor a row's sum is its mismatch count.  A
    # uint32 sum is about twice as fast as count_nonzero along an axis, and
    # m < 2^32 always holds (X alone would need 32 GB otherwise).
    for start in range(0, len(members), step):
        rows = block[:min(step, len(members) - start)]
        _fill_labels(rows, members, runs, S.X, start)
        rows ^= S.y
        counts[start:start + len(rows)] = rows.sum(axis=1, dtype=np.uint32)
    return counts


def label_matrix(members: Sequence[Hypothesis], X: np.ndarray) -> np.ndarray:
    """(len(members), n) uint8 labels on the (n, d) matrix X, in member order;
    row i equals ``members[i].labels(X)``.

    Thresholds and intervals are compared with their stacked parameters in
    one numpy call per run of one rule; any other hypothesis type stacks its
    own ``labels`` rows.  Pass a StackedMembers to label one list on many
    samples without collecting those parameters again.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(
            f"label_matrix expects an (n, d) matrix of instances, got shape {X.shape}"
        )
    out = np.empty((len(members), len(X)), dtype=np.uint8)
    _fill_labels(out, members, _runs_of(members), X, 0)
    return out


_RULE_SUBJECT = {"ge": "threshold hypothesis", "le": "threshold hypothesis",
                 "interval": "interval hypothesis"}


def _label_runs(members: Sequence[Hypothesis]) -> list[tuple]:
    """Maximal runs (start, stop, rule, params) of members sharing one
    vectorized rule: "ge" or "le" thresholds (params: one theta column),
    "interval" (lo and hi columns), or None for every other type."""
    runs: list[list] = []
    for i, h in enumerate(members):
        # Exact types only: a subclass may label differently.
        if type(h) is Threshold:
            rule, p = h.direction, (h.theta,)
        elif type(h) is Interval:
            rule, p = "interval", (h.lo, h.hi)
        else:
            rule, p = None, ()
        if runs and runs[-1][2] == rule:
            runs[-1][1] = i + 1
            runs[-1][3].append(p)
        else:
            runs.append([i, i + 1, rule, [p]])
    return [(a, b, rule, np.array(ps, dtype=float)) for a, b, rule, ps in runs]


class StackedMembers(Sequence):
    """An immutable copy of a member list that keeps the parameter runs
    label_matrix and error_counts evaluate it with, collected once.  Code
    that labels one list on many samples passes this in place of the list.
    """

    def __init__(self, members: Iterable[Hypothesis]):
        self._members = tuple(members)
        self._runs = tuple(_label_runs(self._members))
        for run in self._runs:
            run[3].flags.writeable = False

    def __len__(self) -> int:
        return len(self._members)

    def __getitem__(self, index):
        return self._members[index]

    def __iter__(self) -> Iterator[Hypothesis]:
        return iter(self._members)


def _runs_of(members: Sequence[Hypothesis]) -> Sequence[tuple]:
    return members._runs if isinstance(members, StackedMembers) else _label_runs(members)


def _fill_labels(out: np.ndarray, members: Sequence[Hypothesis], runs: Sequence[tuple],
                 X: np.ndarray, start: int) -> None:
    """Write the labels of members[start:start + len(out)] on X into out."""
    stop = start + len(out)
    for a, b, rule, params in runs:
        lo, hi = max(a, start), min(b, stop)
        if lo >= hi:
            continue
        rows = out[lo - start:hi - start]
        if rule is None:
            for row, h in zip(rows, members[lo:hi]):
                row[:] = h.labels(X)
            continue
        x = _check_matrix(X, 1, _RULE_SUBJECT[rule])[:, 0]
        p = params[lo - a:hi - a]
        flags = rows.view(bool)  # comparisons write 0/1 bytes without a cast
        if rule == "ge":
            np.greater_equal(x, p[:, :1], out=flags)
        elif rule == "le":
            np.less_equal(x, p[:, :1], out=flags)
        else:
            np.greater_equal(x, p[:, :1], out=flags)
            flags &= x <= p[:, 1:]


# ---------------------------------------------------------------------------
# Hypothesis classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Per-parameter-axis grid values used to discretize a parametric family.

    Each family documents how many axes it expects and what they mean.
    """

    axes: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        axes = tuple(tuple(float(v) for v in axis) for axis in self.axes)
        for axis in axes:
            if not axis:
                raise ValueError("grid axes must be nonempty")
        object.__setattr__(self, "axes", axes)

    @classmethod
    def linspace(cls, lo: float, hi: float, n: int, naxes: int = 1) -> "GridSpec":
        axis = tuple(np.linspace(lo, hi, n).tolist())
        return cls(tuple(axis for _ in range(naxes)))

    def to_json(self) -> dict:
        return {"axes": [list(axis) for axis in self.axes]}

    @classmethod
    def from_json(cls, data: dict) -> "GridSpec":
        return cls(tuple(tuple(axis) for axis in data["axes"]))


class HypothesisClass:
    """A family of hypotheses with a canonical, stable enumeration order.

    Parametric families carry continuous parameter ranges plus a default grid;
    exhaustive operations discretize them through a GridSpec.  ``vc_dim_hint``
    is the combinatorial dimension of the continuous family (None if infinite
    or unknown); grid restrictions never exceed it.
    """

    family: str = ""
    vc_dim_hint: int | None = None

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def default_grid(self) -> GridSpec:
        raise NotImplementedError

    def resolve_grid(self, grid: GridSpec | None) -> GridSpec:
        g = grid if grid is not None else getattr(self, "grid", None)
        if g is None:
            g = self.default_grid()
        expected = self._n_axes()
        if len(g.axes) != expected:
            raise ValueError(
                f"{self.family} discretization needs {expected} grid axes, got {len(g.axes)}"
            )
        return g

    def _n_axes(self) -> int:
        raise NotImplementedError

    def size(self, grid: GridSpec | None = None) -> int | None:
        """Number of enumerated members, or None when only counting enumerates."""
        raise NotImplementedError

    def members(self, grid: GridSpec | None = None) -> Iterator[Hypothesis]:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def describe(self) -> str:
        return self.family


@dataclass(frozen=True)
class ThresholdClass(HypothesisClass):
    """Thresholds on [lo, hi].  Canonical order: direction-major, theta ascending.

    One grid axis: the theta values.
    """

    lo: float = 0.0
    hi: float = 1.0
    directions: tuple[str, ...] = ("ge",)
    grid: GridSpec | None = None
    resolution: int = 41

    family = "thresholds"

    def __post_init__(self):
        if not self.directions or any(d not in ("ge", "le") for d in self.directions):
            raise ValueError(f"directions must be a nonempty subset of ('ge','le'), got {self.directions}")

    @property
    def dim(self) -> int:
        return 1

    @property
    def vc_dim_hint(self) -> int:
        return 1 if len(self.directions) == 1 else 2

    def _n_axes(self) -> int:
        return 1

    def default_grid(self) -> GridSpec:
        return GridSpec.linspace(self.lo, self.hi, self.resolution)

    def size(self, grid: GridSpec | None = None) -> int:
        g = self.resolve_grid(grid)
        return len(g.axes[0]) * len(self.directions)

    def members(self, grid: GridSpec | None = None) -> Iterator[Hypothesis]:
        g = self.resolve_grid(grid)
        for direction in self.directions:
            for theta in g.axes[0]:
                yield Threshold(theta, direction)

    def to_json(self) -> dict:
        out = {"family": "thresholds", "lo": self.lo, "hi": self.hi,
               "directions": list(self.directions), "resolution": self.resolution}
        if self.grid is not None:
            out["grid"] = self.grid.to_json()
        return out

    def describe(self) -> str:
        tag = "+".join(self.directions)
        return f"thresholds[{tag}] on [{self.lo:g},{self.hi:g}]"


@dataclass(frozen=True)
class IntervalClass(HypothesisClass):
    """Closed intervals [a, b] with endpoints on one grid axis, a <= b.

    Canonical order: lower endpoint major, upper endpoint ascending.
    """

    lo: float = 0.0
    hi: float = 1.0
    grid: GridSpec | None = None
    resolution: int = 25

    family = "intervals"
    vc_dim_hint = 2

    @property
    def dim(self) -> int:
        return 1

    def _n_axes(self) -> int:
        return 1

    def default_grid(self) -> GridSpec:
        return GridSpec.linspace(self.lo, self.hi, self.resolution)

    def size(self, grid: GridSpec | None = None) -> int:
        g = len(self.resolve_grid(grid).axes[0])
        return g * (g + 1) // 2

    def members(self, grid: GridSpec | None = None) -> Iterator[Hypothesis]:
        axis = self.resolve_grid(grid).axes[0]
        for i in range(len(axis)):
            for j in range(i, len(axis)):
                yield Interval(axis[i], axis[j])

    def to_json(self) -> dict:
        out = {"family": "intervals", "lo": self.lo, "hi": self.hi, "resolution": self.resolution}
        if self.grid is not None:
            out["grid"] = self.grid.to_json()
        return out

    def describe(self) -> str:
        return f"intervals on [{self.lo:g},{self.hi:g}]"


@dataclass(frozen=True)
class IntervalUnionClass(HypothesisClass):
    """Unions of k disjoint closed intervals with endpoints on one grid axis.

    Members are chains a1 <= b1 < a2 <= b2 < ... over the axis, in
    lexicographic index order.
    """

    k: int = 2
    lo: float = 0.0
    hi: float = 1.0
    grid: GridSpec | None = None
    resolution: int = 13

    family = "interval_unions"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")

    @property
    def dim(self) -> int:
        return 1

    @property
    def vc_dim_hint(self) -> int:
        return 2 * self.k

    def _n_axes(self) -> int:
        return 1

    def default_grid(self) -> GridSpec:
        return GridSpec.linspace(self.lo, self.hi, self.resolution)

    def size(self, grid: GridSpec | None = None) -> int:
        g = len(self.resolve_grid(grid).axes[0])
        return math.comb(g + self.k, 2 * self.k)

    def members(self, grid: GridSpec | None = None) -> Iterator[Hypothesis]:
        axis = self.resolve_grid(grid).axes[0]
        g = len(axis)

        def chains(start: int, remaining: int):
            if remaining == 0:
                yield ()
                return
            for i in range(start, g):
                for j in range(i, g):
                    for rest in chains(j + 1, remaining - 1):
                        yield ((axis[i], axis[j]),) + rest

        for ivs in chains(0, self.k):
            yield IntervalUnion(ivs)

    def to_json(self) -> dict:
        out = {"family": "interval_unions", "k": self.k, "lo": self.lo, "hi": self.hi,
               "resolution": self.resolution}
        if self.grid is not None:
            out["grid"] = self.grid.to_json()
        return out

    def describe(self) -> str:
        return f"{self.k}-interval unions on [{self.lo:g},{self.hi:g}]"


@dataclass(frozen=True)
class RectangleClass(HypothesisClass):
    """Axis-aligned boxes; one grid axis per dimension, (lo <= hi) pairs per axis.

    Canonical order: first axis major, then lower-before-upper endpoint order
    within each axis.
    """

    bounds: tuple[tuple[float, float], ...] = ((0.0, 1.0), (0.0, 1.0))
    grid: GridSpec | None = None
    resolution: int = 7

    family = "rectangles"

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def vc_dim_hint(self) -> int:
        return 2 * len(self.bounds)

    def _n_axes(self) -> int:
        return len(self.bounds)

    def default_grid(self) -> GridSpec:
        return GridSpec(
            tuple(tuple(np.linspace(lo, hi, self.resolution).tolist()) for lo, hi in self.bounds)
        )

    def size(self, grid: GridSpec | None = None) -> int:
        g = self.resolve_grid(grid)
        total = 1
        for axis in g.axes:
            n = len(axis)
            total *= n * (n + 1) // 2
        return total

    def members(self, grid: GridSpec | None = None) -> Iterator[Hypothesis]:
        g = self.resolve_grid(grid)
        per_axis = [
            [(axis[i], axis[j]) for i in range(len(axis)) for j in range(i, len(axis))]
            for axis in g.axes
        ]
        for combo in itertools.product(*per_axis):
            yield Rectangle(tuple(combo))

    def to_json(self) -> dict:
        out = {"family": "rectangles", "bounds": [list(p) for p in self.bounds],
               "resolution": self.resolution}
        if self.grid is not None:
            out["grid"] = self.grid.to_json()
        return out

    def describe(self) -> str:
        return f"axis-aligned boxes in {self.dim}d"


@dataclass(frozen=True)
class HalfspaceClass2D(HypothesisClass):
    """Halfplanes 1[cos(a) x1 + sin(a) x2 >= o] in the plane.

    Two grid axes: unit-normal angles (radians) and offsets o.  Canonical
    order: angle major, offset ascending.
    """

    offset_lo: float = -2.0
    offset_hi: float = 2.0
    grid: GridSpec | None = None
    n_angles: int = 24
    n_offsets: int = 33

    family = "halfspaces2d"
    vc_dim_hint = 3

    @property
    def dim(self) -> int:
        return 2

    def _n_axes(self) -> int:
        return 2

    def default_grid(self) -> GridSpec:
        angles = tuple((2.0 * math.pi * j / self.n_angles) for j in range(self.n_angles))
        offsets = tuple(np.linspace(self.offset_lo, self.offset_hi, self.n_offsets).tolist())
        return GridSpec((angles, offsets))

    def size(self, grid: GridSpec | None = None) -> int:
        g = self.resolve_grid(grid)
        return len(g.axes[0]) * len(g.axes[1])

    def members(self, grid: GridSpec | None = None) -> Iterator[Hypothesis]:
        g = self.resolve_grid(grid)
        for angle in g.axes[0]:
            w = (math.cos(angle), math.sin(angle))
            for offset in g.axes[1]:
                yield Halfspace(w, -offset)

    def to_json(self) -> dict:
        out = {"family": "halfspaces2d", "offset_lo": self.offset_lo, "offset_hi": self.offset_hi,
               "n_angles": self.n_angles, "n_offsets": self.n_offsets}
        if self.grid is not None:
            out["grid"] = self.grid.to_json()
        return out

    def describe(self) -> str:
        return "halfplanes in 2d"


@dataclass(frozen=True)
class SineClass(HypothesisClass):
    """Sign-of-sine hypotheses 1[sin(alpha x) >= 0]; one grid axis of frequencies.

    The continuous family shatters arbitrarily large point sets, so it has no
    finite dimension hint.
    """

    alpha_lo: float = 0.1
    alpha_hi: float = 100.0
    grid: GridSpec | None = None
    resolution: int = 50

    family = "sine"
    vc_dim_hint = None

    @property
    def dim(self) -> int:
        return 1

    def _n_axes(self) -> int:
        return 1

    def default_grid(self) -> GridSpec:
        return GridSpec.linspace(self.alpha_lo, self.alpha_hi, self.resolution)

    def size(self, grid: GridSpec | None = None) -> int:
        return len(self.resolve_grid(grid).axes[0])

    def members(self, grid: GridSpec | None = None) -> Iterator[Hypothesis]:
        for alpha in self.resolve_grid(grid).axes[0]:
            yield SineSign(alpha)

    def to_json(self) -> dict:
        out = {"family": "sine", "alpha_lo": self.alpha_lo, "alpha_hi": self.alpha_hi,
               "resolution": self.resolution}
        if self.grid is not None:
            out["grid"] = self.grid.to_json()
        return out

    def describe(self) -> str:
        return "sign-of-sine frequencies"


@dataclass(frozen=True)
class FiniteClass(HypothesisClass):
    """An explicit finite list of hypotheses in a fixed, stored order.

    If a finite probe domain is declared, members must be pairwise distinct on
    it (extensional de-duplication diagnostic).
    """

    hypotheses: tuple[Hypothesis, ...]
    domain: tuple[tuple[float, ...], ...] | None = None

    family = "finite"
    vc_dim_hint = None

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

    def _n_axes(self) -> int:
        return 0

    def resolve_grid(self, grid: GridSpec | None) -> GridSpec | None:
        return None

    def size(self, grid: GridSpec | None = None) -> int:
        return len(self.hypotheses)

    def members(self, grid: GridSpec | None = None) -> Iterator[Hypothesis]:
        return iter(self.hypotheses)

    def to_json(self) -> dict:
        out = {"family": "finite", "members": [h.to_json() for h in self.hypotheses]}
        if self.domain is not None:
            out["domain"] = [list(p) for p in self.domain]
        return out

    def describe(self) -> str:
        return f"finite class of {len(self.hypotheses)}"


_CLASS_FAMILIES = {
    "thresholds": lambda d: ThresholdClass(
        lo=float(d.get("lo", 0.0)), hi=float(d.get("hi", 1.0)),
        directions=tuple(d.get("directions", ["ge"])),
        grid=GridSpec.from_json(d["grid"]) if "grid" in d else None,
        resolution=int(d.get("resolution", 41)),
    ),
    "intervals": lambda d: IntervalClass(
        lo=float(d.get("lo", 0.0)), hi=float(d.get("hi", 1.0)),
        grid=GridSpec.from_json(d["grid"]) if "grid" in d else None,
        resolution=int(d.get("resolution", 25)),
    ),
    "interval_unions": lambda d: IntervalUnionClass(
        k=int(d.get("k", 2)), lo=float(d.get("lo", 0.0)), hi=float(d.get("hi", 1.0)),
        grid=GridSpec.from_json(d["grid"]) if "grid" in d else None,
        resolution=int(d.get("resolution", 13)),
    ),
    "rectangles": lambda d: RectangleClass(
        bounds=tuple((float(a), float(b)) for a, b in d.get("bounds", [[0, 1], [0, 1]])),
        grid=GridSpec.from_json(d["grid"]) if "grid" in d else None,
        resolution=int(d.get("resolution", 7)),
    ),
    "halfspaces2d": lambda d: HalfspaceClass2D(
        offset_lo=float(d.get("offset_lo", -2.0)), offset_hi=float(d.get("offset_hi", 2.0)),
        grid=GridSpec.from_json(d["grid"]) if "grid" in d else None,
        n_angles=int(d.get("n_angles", 24)), n_offsets=int(d.get("n_offsets", 33)),
    ),
    "sine": lambda d: SineClass(
        alpha_lo=float(d.get("alpha_lo", 0.1)), alpha_hi=float(d.get("alpha_hi", 100.0)),
        grid=GridSpec.from_json(d["grid"]) if "grid" in d else None,
        resolution=int(d.get("resolution", 50)),
    ),
    "finite": lambda d: FiniteClass(
        hypotheses=tuple(hypothesis_from_json(m) for m in d["members"]),
        domain=tuple(tuple(float(c) for c in p) for p in d["domain"]) if "domain" in d else None,
    ),
}


def class_from_json(data: dict) -> HypothesisClass:
    fam = data.get("family")
    if fam not in _CLASS_FAMILIES:
        raise ValueError(f"unknown class family {fam!r}")
    return _CLASS_FAMILIES[fam](data)


def enumerate_class(
    H: HypothesisClass,
    grid: GridSpec | None = None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> list[Hypothesis]:
    """Materialize H's members in canonical order under an enumeration budget.

    The order is deterministic and byte-stable across runs for equal inputs.
    Exceeding the budget raises EnumerationBudgetError carrying the required
    size and the budget.
    """
    size = H.size(grid)
    if size is not None and size > budget:
        raise EnumerationBudgetError(size, budget)
    members: list[Hypothesis] = []
    for h in H.members(grid):
        members.append(h)
        if len(members) > budget:
            raise EnumerationBudgetError(None, budget)
    return members


# ---------------------------------------------------------------------------
# Extensional comparison and weighted sequences
# ---------------------------------------------------------------------------


def extensionally_equal(h1: Hypothesis, h2: Hypothesis, probe: np.ndarray) -> bool:
    """True when both hypotheses agree on every probe point."""
    probe = np.asarray(probe, dtype=float)
    return bool(np.array_equal(h1.labels(probe), h2.labels(probe)))


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
class WeightedClassSequence:
    """A finite ordered sequence of hypothesis classes with positive weights.

    Weights sum to at most 1 (tolerance 1e-12); default weights halve with
    each position and are renormalized over the finite prefix.
    """

    classes: tuple[HypothesisClass, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
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

    @classmethod
    def with_default_weights(cls, classes: Sequence[HypothesisClass]) -> "WeightedClassSequence":
        n = len(classes)
        raw = [2.0 ** -(i + 1) for i in range(n)]
        total = sum(raw)
        return cls(tuple(classes), tuple(w / total for w in raw))

    def to_json(self) -> dict:
        return {"classes": [c.to_json() for c in self.classes], "weights": list(self.weights)}

    @classmethod
    def from_json(cls, data: dict) -> "WeightedClassSequence":
        classes = tuple(class_from_json(c) for c in data["classes"])
        if data.get("weights") is None:
            return cls.with_default_weights(classes)
        return cls(classes, tuple(float(w) for w in data["weights"]))
