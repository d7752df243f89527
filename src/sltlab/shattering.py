"""Restrictions, shattering tests, exact VC dimension search, sine witnesses.

The dimension search is exact over a finite point pool: it labels the
class's members on the pool from their stacked parameter rows
(``StackedMembers.of``), building member objects only for the certificate,
walks subset sizes in increasing order, and stops at the first size with no
shattered subset (shattering is downward closed, so this is sound).  A grid
can only under-approximate a continuous family, so pool and grid presets are
tuned so the lower bounds are tight for the shipped families.

The subsets of one size are taken in ``itertools.combinations`` order, in
blocks, and each block is tested in one of two ways, which find the same
first shattered subset:

- Packed codes.  A member's labels on a k-subset, read as a k-bit number
  with the subset's first point as the high bit, are its pattern code, so
  code order is lexicographic labeling order.  A block holds at most
  ``CODE_BLOCK_CELLS`` member x subset codes (a 256 KB intp matrix, at least
  one subset per block), and one ``np.bincount`` per block counts every code
  of every subset in it: a subset is shattered when all 2^k counts are
  non-zero.
- Member bitsets.  Each pool point has two bitsets of W = ceil(members / 64)
  uint64 words, the members labelling it 1 and the members labelling it 0,
  with the pad bits past the last member 0 in both.  A k-subset is shattered
  exactly when all 2^k ANDs of one bitset per point are non-zero.  A block's
  ANDs are built a point at a time, as a (2^j, W, subsets) array of at most
  ``CODE_BLOCK_CELLS`` words, and a subset leaves the block once one of its
  ANDs is zero.

One cost comparison per subset size k picks the test: bitsets when
BITSET_WORD_COST * 2^k * W <= members * k, the words a subset ANDs, at 3
codes a word, against the codes it packs.  The bitset cost grows as 2^k.  The
constant 3 comes from per-subset timings of both tests on random 24-point
label matrices (Python 3.11, numpy 2.4, 2-core Xeon), where bitsets were
faster for

    members              100   400   1365   5000   20 000   50 000
    bitsets faster for   k<=6  k<=7  k<=7   k<=6   k<=7     k<=8

(k <= 6 is every size 100 members can shatter) and 1.5-11 times slower from
k = 9 on; the rule picks bitsets for k <= 7 at 400 members and more.  Either
way, the certificate of the shattered subset is read from its codes.
"""

from __future__ import annotations

import functools
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
    StackedMembers,
    hypothesis_from_json,
    label_matrix,
)

DEFAULT_SUBSET_BUDGET = 2_000_000
MAX_SINE_POINTS = 8
# At most this many member x subset pattern codes per block of the subset
# search; a fixed constant, so the search adds little to the label matrix's
# memory however large the class.
CODE_BLOCK_CELLS = 1 << 15
# Cost of one bitset word against one packed code, in the rule of the module
# docstring that picks a size's subset test.
BITSET_WORD_COST = 3


class PointSetError(ValueError):
    """A point set or pool that cannot be searched: not an (n, d) matrix,
    empty, with a non-finite coordinate or with a repeated point."""


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
        raise PointSetError(f"point set must be an (n, d) matrix, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        bad = pts[~np.isfinite(pts)][0]
        raise PointSetError(f"point set coordinates must be finite, got {bad}")
    if len(np.unique(pts, axis=0)) != len(pts):
        raise PointSetError("point set must have pairwise distinct points")
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
        raise PointSetError("restriction needs a nonempty point set")
    L = label_matrix(StackedMembers.of(H, budget=budget), pts)
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
    members = StackedMembers.of(H, budget=budget)
    # More labelings than members cannot all be realized; below this bound the
    # pattern codes of the whole point set fit in an intp.
    if 2 ** len(pts) > len(members):
        return False
    L = label_matrix(members, pts)
    return _first_shattered(L, iter([tuple(range(len(pts)))]), len(pts))[1] is not None


def _prefers_bitsets(n_members: int, k: int) -> bool:
    """The rule of the module docstring: test k-subsets by member bitsets when
    BITSET_WORD_COST * 2^k * W words cost no more than members * k codes."""
    return BITSET_WORD_COST * (1 << k) * -(-n_members // 64) <= n_members * k


def _member_bitsets(L: np.ndarray) -> np.ndarray:
    """(2, W, points) uint64 bitsets over the members of the label matrix L:
    the W words [b, :, p] hold one bit per member, set when that member
    labels point p with b.  The pad bits past the last member are 0 in both."""
    n_members, n_pts = L.shape
    by_point = np.ascontiguousarray(L.T)
    octets = np.zeros((2, n_pts, 8 * -(-n_members // 64)), dtype=np.uint8)
    octets[:, :, :-(-n_members // 8)] = np.packbits(np.stack([by_point == 0, by_point == 1]),
                                                    axis=2, bitorder="little")
    return np.ascontiguousarray(octets.view(np.uint64).transpose(0, 2, 1))


def _first_hit_by_bitsets(bits: np.ndarray, block: np.ndarray) -> int:
    """Index of the first subset (row of ``block``) whose 2^k ANDs of one
    member bitset per point are all non-zero, or -1.  The ANDs are built a
    point at a time, with the subsets on the last axis, and a subset leaves
    the block once one of its ANDs is zero."""
    k, words = block.shape[1], bits.shape[1]
    rows = np.arange(len(block))
    acc = bits.take(block[:, 0], axis=2)
    for j in range(1, k + 1):
        alive = acc.any(axis=1).all(axis=0)
        if not alive.all():
            rows, acc = rows[alive], acc.compress(alive, axis=2)
        if j == k or len(rows) == 0:
            break
        acc = (acc[:, None] & bits.take(block[rows, j], axis=2)).reshape(-1, words, len(rows))
    return int(rows[0]) if len(rows) else -1


def _pattern_codes(L: np.ndarray, block: np.ndarray) -> np.ndarray:
    """(members, subsets) pattern codes of each member of L on each subset
    (row of ``block``)."""
    codes = np.zeros((L.shape[0], len(block)), dtype=np.intp)
    for j in range(block.shape[1]):
        codes <<= 1
        codes |= L[:, block[:, j]]
    return codes


def _first_hit_by_codes(L: np.ndarray, block: np.ndarray) -> int:
    """Index of the first subset (row of ``block``) whose member codes show
    all 2^k patterns, or -1, by one ``np.bincount`` over the block."""
    patterns = 1 << block.shape[1]
    offsets = np.arange(len(block), dtype=np.intp) * patterns
    counts = np.bincount((_pattern_codes(L, block) + offsets).ravel(),
                         minlength=len(block) * patterns)
    hits = np.flatnonzero(counts.reshape(len(block), patterns).all(axis=1))
    return int(hits[0]) if len(hits) else -1


def _first_realizers(L: np.ndarray, combo: tuple[int, ...]) -> np.ndarray:
    """first[code] = the earliest member of L realizing the pattern with that
    code on the columns ``combo``."""
    n_members = L.shape[0]
    codes = _pattern_codes(L, np.array([combo], dtype=np.intp))[:, 0]
    first = np.empty(1 << len(combo), dtype=np.intp)
    # Written in reverse member order, so the earliest member wins.
    first[codes[::-1]] = np.arange(n_members - 1, -1, -1)
    return first


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
    if _prefers_bitsets(n_members, k):
        bits = _member_bitsets(L)
        step = max(1, CODE_BLOCK_CELLS // ((1 << k) * bits.shape[1]))
        first_hit = functools.partial(_first_hit_by_bitsets, bits)
    else:
        step = max(1, CODE_BLOCK_CELLS // n_members)
        first_hit = functools.partial(_first_hit_by_codes, L)
    scanned = 0
    while True:
        block = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, step)),
                            dtype=np.intp).reshape(-1, k)
        if len(block) == 0:
            return scanned, None, None
        i = first_hit(block)
        if i >= 0:
            combo = tuple(int(c) for c in block[i])
            return scanned + i + 1, combo, _first_realizers(L, combo)
        scanned += len(block)


def vc_dimension(
    H: HypothesisClass,
    pool,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
    enum_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> VcReport:
    """Largest size of a pool subset shattered by the enumerated class.

    Searches subset sizes in increasing order, each size's subsets in
    ``itertools.combinations`` order, by the blocks of the module docstring:
    the first shattered subset of a size is its witness, and each labeling's
    certificate is the earliest enumerated member realizing it.  At most
    ``subset_budget`` subsets are tested in all; if it cuts a size
    short, the reported value is a lower bound and ``exact`` is false.
    """
    pts = _points_matrix(pool)
    if len(pts) == 0:
        raise PointSetError("the point pool must be nonempty")
    members = StackedMembers.of(H, budget=enum_budget)
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
