"""Restrictions, shattering tests, exact VC dimension search, sine witnesses.

The dimension search is exact over a finite point pool: it enumerates the
class on a grid, walks subset sizes in increasing order, and stops at the
first size with no shattered subset (shattering is downward closed, so this
is sound).  A grid can only under-approximate a continuous family, so pool
and grid presets are tuned so the lower bounds are tight for the shipped
families.

Subsets are tested by packed codes.  A member's labels on a k-subset, read as
a k-bit number with the subset's first point as the high bit, are its pattern
code, so code order is lexicographic labeling order.  The subsets of one size
are taken in ``itertools.combinations`` order, in blocks of at most
``CODE_BLOCK_CELLS`` member x subset codes (a 256 KB intp matrix, at least
one subset per block), and one ``np.bincount`` per block counts every code of
every subset in it: a subset is shattered when all 2^k counts are non-zero.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    Hypothesis,
    HypothesisClass,
    SineSign,
    enumerate_class,
    hypothesis_from_json,
    label_matrix,
)

DEFAULT_SUBSET_BUDGET = 2_000_000
MAX_SINE_POINTS = 8
# At most this many member x subset pattern codes per block of the subset
# search; a fixed constant, so the search adds little to the label matrix's
# memory however large the class.
CODE_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class Dichotomy:
    """A finite ordered point set together with one realized labeling of it."""

    points: tuple[tuple[float, ...], ...]
    labeling: tuple[int, ...]

    def __post_init__(self):
        if len(self.points) != len(self.labeling):
            raise ValueError("points and labeling must have equal length")
        if len(set(self.points)) != len(self.points):
            raise ValueError("dichotomy points must be pairwise distinct")
        if any(b not in (0, 1) for b in self.labeling):
            raise ValueError("labeling bits must be 0 or 1")


@dataclass(frozen=True)
class VcReport:
    """Result of a dimension search over a finite pool.

    ``value`` is the largest shattered-subset size found; it is exact when
    ``exact`` is true, otherwise only a lower bound (the subset budget ran
    out).  ``witness`` is a shattered set of that size and ``certificate``
    maps each of its 2^k labelings to a realizing hypothesis; replaying every
    certificate hypothesis on the witness must reproduce its labeling.
    """

    value: int
    exact: bool
    witness: tuple[tuple[float, ...], ...]
    certificate: tuple[tuple[Dichotomy, Hypothesis], ...]
    pool_size: int
    subsets_tested: int

    def marker(self) -> str:
        return str(self.value) if self.exact else f">= {self.value} (budget exhausted)"

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "exact": self.exact,
            "marker": self.marker(),
            "witness": [list(p) for p in self.witness],
            "certificate": [
                {"labeling": list(d.labeling), "hypothesis": h.to_json()}
                for d, h in self.certificate
            ],
            "pool_size": self.pool_size,
            "subsets_tested": self.subsets_tested,
        }

    @classmethod
    def from_json(cls, data: dict) -> "VcReport":
        witness = tuple(tuple(float(c) for c in p) for p in data["witness"])
        cert = tuple(
            (Dichotomy(witness, tuple(int(b) for b in e["labeling"])),
             hypothesis_from_json(e["hypothesis"]))
            for e in data["certificate"]
        )
        return cls(int(data["value"]), bool(data["exact"]), witness, cert,
                   int(data["pool_size"]), int(data["subsets_tested"]))


def _points_matrix(X) -> np.ndarray:
    pts = np.asarray(X, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"point set must be an (n, d) matrix, got shape {pts.shape}")
    if len(np.unique(pts, axis=0)) != len(pts):
        raise ValueError("point set must have pairwise distinct points")
    return pts


def restriction(
    H: HypothesisClass,
    X,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> set[tuple[int, ...]]:
    """The set of labelings of X realized by the enumerated class.

    Always a set of |X|-bit vectors of size at most 2^|X|.
    """
    pts = _points_matrix(X)
    if len(pts) == 0:
        raise ValueError("restriction needs a nonempty point set")
    L = label_matrix(enumerate_class(H, budget=budget), pts)
    return {tuple(int(v) for v in row) for row in np.unique(L, axis=0)}


def shatters(
    H: HypothesisClass,
    X,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> bool:
    """True iff every labeling of X is realized (trivially true for empty X)."""
    if np.asarray(X, dtype=float).size == 0:
        return True
    pts = _points_matrix(X)
    members = enumerate_class(H, budget=budget)
    # More labelings than members cannot all be realized; below this bound the
    # pattern codes of the whole point set fit in an intp.
    if 2 ** len(pts) > len(members):
        return False
    L = label_matrix(members, pts)
    return _first_shattered(L, iter([tuple(range(len(pts)))]), len(pts))[1] is not None


def _first_shattered(
    L: np.ndarray,
    combos: Iterator[tuple[int, ...]],
    k: int,
) -> tuple[int, tuple[int, ...] | None, np.ndarray | None]:
    """The first k-subset in ``combos`` whose columns of the label matrix L
    show all 2^k patterns.

    Returns (subsets scanned, the subset, first) where first[code] is the
    earliest member realizing the pattern with that code; the subset and
    first are None when no subset in ``combos`` is shattered.
    """
    n_members = L.shape[0]
    patterns = 1 << k
    step = max(1, CODE_BLOCK_CELLS // n_members)
    scanned = 0
    while True:
        block = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, step)),
                            dtype=np.intp).reshape(-1, k)
        if len(block) == 0:
            return scanned, None, None
        codes = np.zeros((n_members, len(block)), dtype=np.intp)
        for j in range(k):
            codes <<= 1
            codes |= L[:, block[:, j]]
        offsets = np.arange(len(block), dtype=np.intp) * patterns
        counts = np.bincount((codes + offsets).ravel(), minlength=len(block) * patterns)
        hits = np.flatnonzero(counts.reshape(len(block), patterns).all(axis=1))
        if len(hits):
            i = int(hits[0])
            first = np.empty(patterns, dtype=np.intp)
            # Written in reverse member order, so the earliest member wins.
            first[codes[::-1, i]] = np.arange(n_members - 1, -1, -1)
            return scanned + i + 1, tuple(int(c) for c in block[i]), first
        scanned += len(block)


def vc_dimension(
    H: HypothesisClass,
    pool,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
    enum_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> VcReport:
    """Largest size of a pool subset shattered by the enumerated class.

    Searches subset sizes in increasing order, each size's subsets in
    ``itertools.combinations`` order, by the packed-code blocks of the module
    docstring: the first shattered subset of a size is its witness, and each
    labeling's certificate is the earliest enumerated member realizing it.
    At most ``subset_budget`` subsets are tested in all; if it cuts a size
    short, the reported value is a lower bound and ``exact`` is false.
    """
    pts = _points_matrix(pool)
    if len(pts) == 0:
        raise ValueError("the point pool must be nonempty")
    members = enumerate_class(H, budget=enum_budget)
    L = label_matrix(members, pts)

    # |restriction| <= |enumerated H| caps the reachable subset size.
    max_k = min(len(pts), int(math.floor(math.log2(len(members)))) if len(members) > 1 else 0)

    best_combo: tuple[int, ...] = ()
    best_first = np.empty(0, dtype=np.intp)  # value 0 has an empty certificate
    tested = 0
    exact = True

    for k in range(1, max_k + 1):
        combos = itertools.islice(itertools.combinations(range(len(pts)), k),
                                  max(0, subset_budget - tested))
        scanned, combo, first = _first_shattered(L, combos, k)
        tested += scanned
        if combo is None:
            exact = scanned == math.comb(len(pts), k)
            break
        best_combo, best_first = combo, first

    witness = tuple(tuple(float(c) for c in pts[i]) for i in best_combo)
    certificate = tuple(
        (Dichotomy(witness, labeling), members[int(hyp_idx)])
        for labeling, hyp_idx in zip(itertools.product((0, 1), repeat=len(best_combo)),
                                     best_first)
    )
    return VcReport(
        value=len(best_combo),
        exact=exact,
        witness=witness,
        certificate=certificate,
        pool_size=len(pts),
        subsets_tested=tested,
    )


def verify_certificate(report: VcReport) -> bool:
    """Replay every certificate hypothesis on the witness points."""
    if report.value == 0:
        return not report.witness
    pts = np.asarray(report.witness, dtype=float)
    if len(report.certificate) != 2 ** report.value:
        return False
    seen = set()
    for dichotomy, h in report.certificate:
        realized = tuple(int(v) for v in h.labels(pts))
        if realized != dichotomy.labeling:
            return False
        seen.add(realized)
    return len(seen) == 2 ** report.value


# ---------------------------------------------------------------------------
# Sign-of-sine shattering witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SineWitnessReport:
    """Shattering witness for the sign-of-sine family on k geometric points.

    Reports "shatters k points" for the tested k only; no claim is made
    beyond the verified labelings.  ``failed`` lists labelings whose
    closed-form frequency did not replay (empty on success).
    """

    points: tuple[float, ...]
    entries: tuple[tuple[tuple[int, ...], float], ...]
    failed: tuple[tuple[int, ...], ...]

    @property
    def complete(self) -> bool:
        return not self.failed

    def to_json(self) -> dict:
        return {
            "k": len(self.points),
            "points": list(self.points),
            "complete": self.complete,
            "entries": [{"labeling": list(lab), "alpha": alpha} for lab, alpha in self.entries],
            "failed": [list(lab) for lab in self.failed],
        }


def sine_shatter_witness(k: int) -> SineWitnessReport:
    """Realize all 2^k labelings of the k points x_i = 10^-i by sign-of-sine
    hypotheses.

    The frequency pi * (1 + sum of 10^i over the points labelled 0) places
    sin(alpha x_i) strictly on the requested side of zero for every i.  Each
    frequency is replayed under the boundary convention, and a labeling it
    does not realize is reported in ``failed``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > MAX_SINE_POINTS:
        raise ValueError(f"k={k} exceeds the maximum {MAX_SINE_POINTS}")
    pts = tuple(10.0 ** -(i + 1) for i in range(k))
    labelings = list(itertools.product((0, 1), repeat=k))
    alphas = [math.pi * (1 + sum(10 ** i for i, y in enumerate(labeling, start=1) if y == 0))
              for labeling in labelings]
    replayed = label_matrix([SineSign(alpha) for alpha in alphas], np.asarray(pts)[:, None])
    realized = (replayed == np.asarray(labelings)).all(axis=1).tolist()
    return SineWitnessReport(
        points=pts,
        entries=tuple((lab, alpha) for lab, alpha, ok in zip(labelings, alphas, realized) if ok),
        failed=tuple(lab for lab, ok in zip(labelings, realized) if not ok),
    )
