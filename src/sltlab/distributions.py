"""Seeded generative distributions over instance-label pairs.

A distribution couples an instance marginal, a labeling mechanism (a target
hypothesis or an explicit conditional table on a finite support), and a
symmetric label-flip noise rate below one half.  Sampling is i.i.d. and fully
determined by a SeedSpec: each trial's PCG64 state is derived by hashing its
seed, and one bit generator is reset to that state before the trial is drawn,
so no state carries over between trials and any trial can be rebuilt on its
own.  ``draw_blocks`` derives the states of all of a run's trials in one
vectorised pass and then draws the trials block by block, each block
labelled in one pass; ``draw_sample`` is its one-trial case.  Past its share
of that seeding pass, a trial costs one state reset and, on a uniform box,
one generator call for its instances and noise flips; the box map is applied
once per block.

Exact risk is one rule per hypothesis type, applied to a (type, key) run of
stacked parameter rows; ``true_risk`` is its one-member case.  It is closed
form on a finite support, for threshold, interval and union runs on a 1-d
uniform box and for box and halfplane runs on a 2-d one.  On a finite support
each row keeps its own probability sum, as numpy sums a subset pairwise in an
order set by its length.  Everything else goes through the Monte Carlo
estimator, an explicit, distinct code path.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    LABEL_BLOCK_CELLS,
    Halfspace,
    Hypothesis,
    HypothesisClass,
    Interval,
    IntervalUnion,
    JsonFields,
    LabeledSample,
    Rectangle,
    StackedMembers,
    Threshold,
    _check_points,
    _reject_nan,
    check_keys,
    from_tagged,
    hypothesis_from_json,
    read_key,
    real_number,
)

HOEFFDING_CONF = 0.95


class AnalyticRiskUnavailable(RuntimeError):
    """No closed-form risk for this marginal/labeler/hypothesis combination."""


# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------


@functools.lru_cache
def _stream_hash(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "little")


# numpy's SeedSequence (numpy/random/bit_generator.pyx): the hash and mix
# constants, XSHIFT and DEFAULT_POOL_SIZE.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT, _POOL = 16, 4
# PCG64's multiplier, PCG_DEFAULT_MULTIPLIER_HIGH << 64 | PCG_DEFAULT_MULTIPLIER_LOW
# (numpy/random/src/pcg64/pcg64.h).
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k < n: the constants of a SeedSequence
    hash chain, whose step k xors with constant k and multiplies by k + 1."""
    c = np.full(n, mult, dtype=np.uint32)
    c[0] = init
    return np.cumprod(c, dtype=np.uint32)


def _pcg64_states(seeds: Sequence[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """(state, inc) of np.random.PCG64(np.random.SeedSequence(row)) for each
    row (master_seed, stream hash, trial) of 64-bit ints, all rows at once."""
    T = len(seeds)
    # The entropy: each int as little-endian 32-bit words, its high word
    # dropped when zero, so 3 to 6 words; zeros pad it to the pool size.
    words = np.fromiter(itertools.chain.from_iterable(seeds), dtype="<u8", count=3 * T)
    words = words.view("<u4").reshape(T, 6)
    dropped = words == 0
    dropped[:, 0::2] = False
    shift = np.cumsum(dropped, axis=1)
    n_words = 6 - shift[:, -1:]
    dest = np.arange(6) - shift
    dest[dropped] = 6  # a spare column takes the dropped words
    entropy = np.zeros((T, 7), dtype=np.uint32)
    entropy[np.arange(T)[:, None], dest] = words
    a = _hash_constants(_INIT_A, _MULT_A, 25)

    def hashmix(x, k, n):  # hash steps k..k+n-1, one per column
        x = x ^ a[k:k + n]
        x *= a[k + 1:k + n + 1]
        x ^= x >> _XSHIFT
        return x

    def mix(x, y):
        x = x * _MIX_MULT_L
        x -= y * _MIX_MULT_R
        x ^= x >> _XSHIFT
        return x

    # mix_entropy: hash the first pool-size words into the pool, mix each
    # pool word into every other, then mix in each word past the pool.
    pool = hashmix(entropy[:, :_POOL], 0, _POOL)
    k = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src:src + 1], k, _POOL - 1))
        k += _POOL - 1
    for src in range(_POOL, int(n_words.max(initial=0))):
        pool = np.where(n_words > src, mix(pool, hashmix(entropy[:, src:src + 1], k, _POOL)),
                        pool)
        k += _POOL
    # generate_state(4, np.uint64): the cycled pool hashed into eight words,
    # read as little-endian 64-bit (seed high, seed low, inc high, inc low).
    b = _hash_constants(_INIT_B, _MULT_B, 9)
    out = pool[:, [0, 1, 2, 3, 0, 1, 2, 3]] ^ b[:8]
    out *= b[1:]
    out ^= out >> _XSHIFT
    states = []
    for s_hi, s_lo, i_hi, i_lo in np.ascontiguousarray(out, dtype="<u4").view("<u8").tolist():
        # pcg64_set_seed: srandom, i.e. two LCG steps from state 0 with the
        # seed added in between.
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _check_trial(trial: int) -> None:
    if trial < 0:
        raise ValueError("trial index must be nonnegative")
    if trial >= 2 ** 64:
        raise ValueError("trial index must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus a named sub-stream and trial index.

    The generator is a pure function of (master_seed, stream, trial); deriving
    the same triple twice yields identical draws.  A SeedSpec unpacks to its
    row (master_seed, stream hash, trial), the form ``draw_blocks`` reads.
    """

    master_seed: int
    stream: str = "root"
    trial: int = 0

    def __post_init__(self):
        if not (0 <= self.master_seed < 2 ** 64):
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        _check_trial(self.trial)

    def __iter__(self) -> Iterator[int]:
        return iter((self.master_seed, _stream_hash(self.stream), self.trial))

    def derive(self, stream: str, trial: int = 0) -> "SeedSpec":
        return SeedSpec(self.master_seed, stream, trial)

    def rows(self, stream: str, trials: Sequence[int]) -> list[tuple[int, int, int]]:
        """The rows of self.derive(stream, t) for each t in trials, in order;
        the stream is hashed once and the trials checked as ``derive`` does."""
        if len(trials):
            _check_trial(min(trials))
            _check_trial(max(trials))
        h = _stream_hash(stream)
        return [(self.master_seed, h, t) for t in trials]

    def generator(self) -> np.random.Generator:
        """The draws of np.random.default_rng(np.random.SeedSequence(
        [master_seed, stream hash, trial]))."""
        return next(_generators(_pcg64_states([self])))


def _generators(states: Sequence[tuple[int, int]]) -> Iterator[np.random.Generator]:
    """One generator, reset in turn to each PCG64 (state, inc) of
    ``_pcg64_states``; one state dict serves every reset."""
    bit_gen = np.random.PCG64(0)  # its state is replaced before any draw
    rng = np.random.Generator(bit_gen)
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    pcg = state["state"]
    for pcg["state"], pcg["inc"] in states:
        bit_gen.state = state
        yield rng


# ---------------------------------------------------------------------------
# Instance marginals
# ---------------------------------------------------------------------------


class Marginal(JsonFields):
    json_tag_key = "type"
    type: str = ""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill the (m, dim) rows of out with m i.i.d. instances."""
        raise NotImplementedError

    def support(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(points, probabilities) for finite marginals, else None."""
        return None


@dataclass(frozen=True)
class UniformBox(Marginal):
    """Uniform distribution on an axis-aligned box."""

    bounds: tuple[tuple[float, float], ...] = ((0.0, 1.0),)

    type = "uniform_box"

    def __post_init__(self):
        self._check_counts("instance dimension", bounds=self.dim)
        for lo, hi in self.bounds:
            if not (lo < hi):
                raise ValueError(f"box side [{lo}, {hi}] must have positive length")
            if not math.isfinite(hi - lo):
                raise ValueError(f"box side [{lo}, {hi}] must have finite length")
        low = np.array([lo for lo, _ in self.bounds], dtype=float)
        span = np.array([hi for _, hi in self.bounds], dtype=float) - low
        volume = math.prod(span.tolist())  # the divisor of an exact risk
        if not 0.0 < volume < math.inf:
            raise ValueError(f"{self.type}: bounds: volume must be positive and finite, "
                             f"got {volume}")
        low.flags.writeable = span.flags.writeable = False
        object.__setattr__(self, "_low", low)
        object.__setattr__(self, "_span", span)
        object.__setattr__(self, "_volume", volume)

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def sample(self, rng, out):
        rng.random(out=out)
        self.place(out)

    def place(self, out: np.ndarray) -> None:
        """Map the doubles of out, drawn uniform on [0, 1), onto the box in
        place, one instance per row of dim columns.  This gives the doubles
        of rng.uniform(low, low + span, size=(m, dim)) without its per-call
        broadcasting and range checks, whatever the number of rows."""
        out *= self._span
        out += self._low


@dataclass(frozen=True)
class FiniteUniform(Marginal):
    """Uniform distribution over an explicit finite point list."""

    points: tuple[tuple[float, ...], ...]

    type = "finite_uniform"

    def __post_init__(self):
        if not self.points:
            raise ValueError("need at least one support point")
        _check_points(self.type, self.points)

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def sample(self, rng, out):
        out[:] = np.asarray(self.points, dtype=float)[
            rng.integers(0, len(self.points), size=len(out))]

    def support(self):
        n = len(self.points)
        return np.asarray(self.points, dtype=float), np.full(n, 1.0 / n)


@dataclass(frozen=True)
class PointMasses(Marginal):
    """Mixture of point masses with explicit probabilities summing to 1."""

    points: tuple[tuple[float, ...], ...]
    probs: tuple[float, ...]

    type = "point_masses"

    def __post_init__(self):
        if len(self.points) != len(self.probs):
            raise ValueError("points and probs must have equal length")
        if not self.points:
            raise ValueError("need at least one support point")
        _reject_nan(f"{self.type} probs", *self.probs, finite=True)
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be nonnegative")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {sum(self.probs)}")
        _check_points(self.type, self.points)

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def sample(self, rng, out):
        out[:] = np.asarray(self.points, dtype=float)[
            rng.choice(len(self.points), size=len(out), p=np.asarray(self.probs))]

    def support(self):
        return np.asarray(self.points, dtype=float), np.asarray(self.probs, dtype=float)


_MARGINAL_TYPES = {t.type: t for t in (UniformBox, FiniteUniform, PointMasses)}


def marginal_from_json(data: dict) -> Marginal:
    return from_tagged(data, "type", _MARGINAL_TYPES, "marginal type")


# ---------------------------------------------------------------------------
# Labelers and the distribution itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionalTable(JsonFields):
    """Explicit P(label=1 | x) on a finite list of points."""

    points: tuple[tuple[float, ...], ...]
    p1: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) != len(self.p1):
            raise ValueError("points and p1 must have equal length")
        _check_points("conditional table", self.points)
        if any(not (0.0 <= q <= 1.0) for q in self.p1):
            raise ValueError("conditional probabilities must lie in [0, 1]")
        object.__setattr__(self, "_map", dict(zip(self.points, self.p1)))

    def prob1(self, X: np.ndarray) -> np.ndarray:
        """P(label=1 | x) per row of X; each distinct row is looked up once.

        Rows are grouped by their bytes, so -0.0 and 0.0 form two groups that
        both find the table's entry for 0.0, as a per-row lookup would."""
        X = np.ascontiguousarray(X)
        row_bytes = X.view(np.dtype((np.void, X.dtype.itemsize * X.shape[1]))).reshape(-1)
        _, first, inverse = np.unique(row_bytes, return_index=True, return_inverse=True)
        q = [self._map.get(tuple(X[i])) for i in first]
        missing = np.array([v is None for v in q], dtype=bool)[inverse]
        if missing.any():
            key = tuple(X[np.argmax(missing)])
            raise ValueError(f"conditional table has no entry for instance {key}")
        return np.array(q, dtype=float)[inverse]


@dataclass(frozen=True)
class DataDistribution:
    """Instance marginal + labeling mechanism + symmetric flip noise < 1/2."""

    marginal: Marginal
    labeler: Hypothesis | ConditionalTable
    noise: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.noise < 0.5):
            raise ValueError(f"noise rate must lie in [0, 0.5), got {self.noise}")
        if isinstance(self.labeler, Hypothesis):
            if self.labeler.dim != self.marginal.dim:
                raise ValueError(
                    f"labeler dimension {self.labeler.dim} does not match "
                    f"marginal dimension {self.marginal.dim}"
                )
        else:
            sup = self.marginal.support()
            if sup is None:
                raise ValueError("a conditional-table labeler needs a finite marginal")
            pts, _ = sup
            have = set(self.labeler.points)
            missing = [tuple(p) for p in pts.tolist() if tuple(p) not in have]
            if missing:
                raise ValueError(f"conditional table is missing support points {missing[:3]}")

    @property
    def dim(self) -> int:
        return self.marginal.dim

    def to_json(self) -> dict:
        if isinstance(self.labeler, Hypothesis):
            labeler = {"hypothesis": self.labeler.to_json()}
        else:
            labeler = {"table": self.labeler.to_json()}
        return {"marginal": self.marginal.to_json(), "labeler": labeler, "noise": self.noise}

    @classmethod
    def from_json(cls, data: dict) -> "DataDistribution":
        where = "distribution: "
        check_keys(data, ("marginal", "labeler", "noise"), where)
        return cls(read_key(data, "marginal", marginal_from_json, where),
                   read_key(data, "labeler", _labeler_from_json, where),
                   read_key(data, "noise", real_number, where, cls.noise))


def _labeler_from_json(data: dict) -> Hypothesis | ConditionalTable:
    check_keys(data, ("hypothesis", "table"))
    if len(data) != 1:
        raise ValueError("must hold one of 'hypothesis' or 'table'")
    if "hypothesis" in data:
        return read_key(data, "hypothesis", hypothesis_from_json)
    return read_key(data, "table", ConditionalTable.from_json)


def draw_blocks(
    D: DataDistribution, m: int, rows: Sequence[Sequence[int]], step: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The samples of rows[0:step], rows[step:2 * step], and so on, the last
    block possibly shorter, as (X, y) of shapes (T, m, dim) and (T, m):
    sample t holds m i.i.d. pairs in draw order, fully determined by rows[t],
    the (master_seed, stream hash, trial) of a SeedSpec (``SeedSpec.rows``;
    a SeedSpec is its own row).

    The PCG64 states of all the rows are derived in one pass, in O(len(rows))
    memory, before the first block is drawn.  One generator is reset to each
    row's state in turn and draws, in order, the instances, the base labels
    (table labelers only) and the noise flips.  A uniform box's instances are
    doubles of [0, 1) like the rest, so each trial fills its row of one buffer
    with one call, and the box map is then applied to the whole block in
    place; other marginals draw their instances with their own ``sample``
    first.  Each block is labelled in one call and checked once for finite
    coordinates.
    """
    if step < 1:
        raise ValueError(f"block step must be at least 1, got {step}")
    states = _pcg64_states(rows)
    for start in range(0, len(states), step):
        yield _draw(D, m, states[start:start + step])


def _draw(
    D: DataDistribution, m: int, states: Sequence[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """One block of ``draw_blocks`` from the PCG64 (state, inc) of each row."""
    if m < 1:
        raise ValueError(f"sample size must be at least 1, got {m}")
    T, d = len(states), D.dim
    box = isinstance(D.marginal, UniformBox)
    table = not isinstance(D.labeler, Hypothesis)
    k = m * d if box else 0  # instance doubles drawn with the rest
    width = k + m * table + m * (D.noise > 0.0)
    U = np.empty((T, width))
    X = None if box else np.empty((T, m, d))
    for t, rng in enumerate(_generators(states)):
        if not box:
            D.marginal.sample(rng, X[t])
        if width:
            rng.random(out=U[t])
    if box:
        points = U[:, :k].reshape(T * m, d)  # a copy when flips part the trials' instances
        D.marginal.place(points)
    else:
        points = X.reshape(T * m, d)
    X = points.reshape(T, m, d)
    if not np.isfinite(points).all():
        raise ValueError("sample instances must have finite coordinates")
    if table:
        y = (U[:, k:k + m] < D.labeler.prob1(points).reshape(T, m)).astype(np.uint8)
    else:
        y = D.labeler.labels(points).astype(np.uint8).reshape(T, m)
    if D.noise > 0.0:
        y ^= U[:, width - m:] < D.noise
    return X, y


def draw_sample(D: DataDistribution, m: int, seed: SeedSpec) -> LabeledSample:
    """m i.i.d. pairs in draw order, fully determined by the seed: the
    one-trial case of ``draw_blocks``."""
    X, y = next(draw_blocks(D, m, [seed], 1))
    return LabeledSample(X[0], y[0])


# ---------------------------------------------------------------------------
# Exact risk: one rule per hypothesis type, on a run of parameter rows
# ---------------------------------------------------------------------------

# The parts each row of a 1-d run labels 1, before they are clipped to the
# box: (starts, ends), one column per part.
_INTERVAL_PARTS = {
    Threshold: lambda key, P: (P, np.inf) if key == "ge" else (-np.inf, P),
    **dict.fromkeys((Interval, IntervalUnion), lambda key, P: (P[:, 0::2], P[:, 1::2])),
}


def _clipped_parts(run: tuple, lo: float, hi: float) -> list[np.ndarray]:
    """[starts, ends]: the parts each row of a 1-d run labels 1 inside
    [lo, hi], one column per part, empty where start > end."""
    _, _, (typ, key), P, _ = run
    if typ not in _INTERVAL_PARTS:
        raise AnalyticRiskUnavailable(
            f"no interval decomposition for hypothesis kind {typ.__name__}")
    starts, ends = _INTERVAL_PARTS[typ](key, P)
    return np.broadcast_arrays(np.maximum(starts, lo), np.minimum(ends, hi))


def _lengths(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Per row, the lengths of the parts [start, end] added left to right, a
    column at a time; an empty or one-point part adds 0.0."""
    total = np.zeros(len(starts))
    for a, b in zip(starts.T, ends.T):
        total += np.subtract(b, a, out=np.zeros(len(a)), where=a < b)
    return total


def _clip_halfplane(poly: list[tuple[float, float]], w, b) -> list[tuple[float, float]]:
    """Clip a convex polygon to {p : w . p + b >= 0} (Sutherland-Hodgman)."""
    if not poly:
        return []
    out: list[tuple[float, float]] = []
    n = len(poly)
    for i in range(n):
        cur, nxt = poly[i], poly[(i + 1) % n]
        g_cur = w[0] * cur[0] + w[1] * cur[1] + b
        g_nxt = w[0] * nxt[0] + w[1] * nxt[1] + b
        if g_cur >= 0.0:
            out.append(cur)
            if g_nxt < 0.0:
                t = g_cur / (g_cur - g_nxt)
                out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
        elif g_nxt >= 0.0:
            t = g_cur / (g_cur - g_nxt)
            out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
    return out


def _poly_area(poly: list[tuple[float, float]]) -> float:
    if len(poly) < 3:
        return 0.0
    s = 0.0
    for i in range(len(poly)):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % len(poly)]
        s += x1 * y2 - x2 * y1
    return abs(s) / 2.0


def _convex_intersection_area(P, Q) -> float:
    if not P or not Q:
        return 0.0
    poly = P
    n = len(Q)
    for i in range(n):
        x1, y1 = Q[i]
        x2, y2 = Q[(i + 1) % n]
        # inside of a CCW edge: cross((v2 - v1), (p - v1)) >= 0
        w = (-(y2 - y1), x2 - x1)
        b = -(w[0] * x1 + w[1] * y1)
        poly = _clip_halfplane(poly, w, b)
        if not poly:
            return 0.0
    return _poly_area(poly)


def _rectangle_region(row: list[float], box: list[tuple[float, float]]):
    poly = box
    for j, axis in enumerate(((1.0, 0.0), (0.0, 1.0))):
        poly = _clip_halfplane(poly, axis, -row[2 * j])
        poly = _clip_halfplane(poly, (-axis[0], -axis[1]), row[2 * j + 1])
    return poly


# The convex polygon a parameter row of a 2-d run labels 1 inside the box.
_CONVEX_REGIONS = {
    Rectangle: _rectangle_region,
    Halfspace: lambda row, box: _clip_halfplane(box, row[:-1], row[-1]),
}


def _convex_region(typ: type):
    if typ not in _CONVEX_REGIONS:
        raise AnalyticRiskUnavailable(f"no convex region for hypothesis kind {typ.__name__} in 2d")
    return _CONVEX_REGIONS[typ]


def _run_risks(D: DataDistribution, run: tuple) -> np.ndarray:
    """The exact risk on D of each member of one (start, stop, (type, key),
    P, first member) run of a StackedMembers, from its parameter rows P.

    Raises ValueError when the run's dimension is not D's, and
    AnalyticRiskUnavailable when D has no closed form for the run's type.
    """
    _, _, (typ, _), P, h = run
    if h.dim != D.dim:
        raise ValueError(f"hypothesis dimension {h.dim} does not match distribution {D.dim}")
    sup = D.marginal.support()
    if sup is not None:
        pts, probs = sup
        labels = np.empty((len(P), len(pts)), dtype=bool)
        h._label_stack(labels, P, pts)
        if isinstance(D.labeler, ConditionalTable):
            q = D.labeler.prob1(pts)
            q_eff = q * (1.0 - D.noise) + (1.0 - q) * D.noise
            return np.array([np.dot(probs, row)
                             for row in np.where(labels, 1.0 - q_eff, q_eff)])
        rho = np.array([np.sum(probs[row]) for row in labels != D.labeler.labels(pts)])
    elif D.dim == 1:  # a marginal without a support is a UniformBox
        lo, hi = D.marginal.bounds[0]
        (a, b), (l_a, l_b) = (_clipped_parts(r, lo, hi)
                              for r in (run, *StackedMembers([D.labeler])._runs))
        # the meets of h's parts (outer) with the labeler's (inner)
        meets = (np.maximum(a[:, :, None], l_a).reshape(len(P), -1),
                 np.minimum(b[:, :, None], l_b).reshape(len(P), -1))
        rho = (_lengths(a, b) + _lengths(l_a, l_b)
               - 2.0 * _lengths(*meets)) / D.marginal._volume
    elif D.dim == 2:
        (x0, x1), (y0, y1) = D.marginal.bounds
        box = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        region = _convex_region(typ)
        (_, _, (l_typ, _), L, _), = StackedMembers([D.labeler])._runs
        Q = _convex_region(l_typ)(L[0].tolist(), box)
        area_q, total = _poly_area(Q), D.marginal._volume
        rho = np.array([
            (_poly_area(R) + area_q - 2.0 * _convex_intersection_area(R, Q)) / total
            for R in (region(row, box) for row in P.tolist())])
    else:
        raise AnalyticRiskUnavailable(
            f"uniform-box geometry is implemented for 1 and 2 dimensions, not {D.marginal.dim}")
    return D.noise + (1.0 - 2.0 * D.noise) * rho


def true_risk(D: DataDistribution, h: Hypothesis) -> float:
    """Exact probability that h mislabels a fresh draw from D: the one-member
    case of the per-run rule of ``member_risks``.

    Raises AnalyticRiskUnavailable (never a numeric stand-in) when the
    combination has no closed form; callers must then use mc_risk.
    """
    return float(_run_risks(D, StackedMembers([h])._runs[0])[0])


def hoeffding_band(n: int) -> float:
    """Half-width of the two-sided Hoeffding band, at confidence HOEFFDING_CONF,
    for a mean of n 0/1 draws."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return math.sqrt(math.log(2.0 / (1.0 - HOEFFDING_CONF)) / (2.0 * n))


def mc_risk(
    D: DataDistribution, h: Hypothesis, n: int, seed: SeedSpec
) -> tuple[float, float]:
    """Monte Carlo risk estimate over n fresh draws, with its Hoeffding band."""
    S = draw_sample(D, n, seed)
    est = float(np.count_nonzero(h.labels(S.X) != S.y)) / n
    return est, hoeffding_band(n)


def member_risks(
    D: DataDistribution,
    members: Sequence[Hypothesis],
    mc_n: int | None = None,
    seed: SeedSpec | None = None,
    stream: str = "",
    indices: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(risks, mc) of each member in order: its exact risk when D has a
    closed form for it, else its ``mc_risk`` estimate over mc_n draws from
    seed.derive(stream, indices[j]) for member j (indices default to 0, 1, ...);
    the boolean mask mc marks the members estimated by Monte Carlo.  Each run
    of the stacked members is risked exactly by one call of its type's rule,
    so a member object is built only for a member that needs Monte Carlo.

    The Monte Carlo samples are drawn through ``draw_blocks``, at most
    LABEL_BLOCK_CELLS // mc_n seeds (at least one) per block, so the seeds
    of all the Monte Carlo members are derived in one pass.  Without both
    mc_n and seed, a missing closed form raises AnalyticRiskUnavailable.
    """
    stacked = members if isinstance(members, StackedMembers) else StackedMembers(members)
    indices = range(len(stacked)) if indices is None else indices
    risks = np.empty(len(stacked))
    mc = np.zeros(len(stacked), dtype=bool)
    for run in stacked._runs:
        try:
            risks[run[0]:run[1]] = _run_risks(D, run)
        except AnalyticRiskUnavailable:
            if mc_n is None or seed is None:
                raise
            mc[run[0]:run[1]] = True
    todo = np.flatnonzero(mc).tolist()
    if not todo:
        return risks, mc
    rows = seed.rows(stream, [indices[j] for j in todo])
    samples = itertools.chain.from_iterable(
        zip(*block) for block in draw_blocks(D, mc_n, rows, max(1, LABEL_BLOCK_CELLS // mc_n)))
    for j, (Xt, yt) in zip(todo, samples):
        risks[j] = float(np.count_nonzero(members[j].labels(Xt) != yt)) / mc_n
    return risks, mc


def min_risk_in_class(
    D: DataDistribution,
    H: HypothesisClass,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    mc_n: int | None = None,
    seed: SeedSpec | None = None,
) -> tuple[Hypothesis, float]:
    """Risk minimizer over the enumerated class, ties broken by canonical order.

    Uses exact risk when available; members without an analytic route fall
    back to Monte Carlo with the declared sample count ``mc_n`` (a seed is
    then required and each member gets an independently derived stream).
    """
    members = StackedMembers.of(H, budget=budget)
    risks, _ = member_risks(D, members, mc_n, seed, "min-risk-member")
    best = int(np.argmin(risks))
    return members[best], float(risks[best])
