import dataclasses
import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sltlab import core, jsonio
from sltlab.core import (
    DimensionMismatchError,
    EnumerationBudgetError,
    FiniteClass,
    GridSpec,
    Halfspace,
    HalfspaceClass2D,
    Interval,
    IntervalClass,
    IntervalUnion,
    IntervalUnionClass,
    LabeledSample,
    LookupTable,
    Rectangle,
    RectangleClass,
    SineClass,
    SineSign,
    StackedMembers,
    Threshold,
    ThresholdClass,
    WeightedClassSequence,
    class_from_json,
    empirical_error,
    empirical_error_count,
    enumerate_class,
    error_counts,
    find_extensional_duplicates,
    hypothesis_from_json,
    label_matrix,
    predict,
    trial_error_counts,
)
from sltlab.distributions import ConditionalTable, FiniteUniform, PointMasses


class TestPredict:
    def test_threshold_example(self):
        h = Threshold(0.5, "ge")
        assert predict(h, 0.7) == 1
        assert predict(h, 0.3) == 0

    def test_boundary_ties_map_to_one(self):
        assert predict(Threshold(0.5, "ge"), 0.5) == 1
        assert predict(Threshold(0.5, "le"), 0.5) == 1
        assert predict(Interval(0.2, 0.8), 0.2) == 1
        assert predict(Interval(0.2, 0.8), 0.8) == 1
        assert predict(Halfspace((1.0, 1.0), -1.0), (0.5, 0.5)) == 1
        assert predict(Rectangle(((0.0, 1.0),)), 1.0) == 1
        assert predict(SineSign(1.0), 0.0) == 1  # sin(0) == 0, tie goes to 1

    def test_sine_example(self):
        assert predict(SineSign(math.pi), 0.5) == 1
        assert predict(SineSign(math.pi), 1.5) == 0

    def test_dimension_mismatch_names_both(self):
        with pytest.raises(DimensionMismatchError, match="dimension 1.*dimension 2"):
            predict(Threshold(0.5), (0.1, 0.2))

    def test_purity_repeated_calls(self):
        h = Halfspace((0.3, -0.7), 0.1)
        x = (0.11, 0.42)
        first = predict(h, x)
        assert all(predict(h, x) == first for _ in range(1000))

    def test_nonfinite_instance_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            predict(Threshold(0.5), float("nan"))


class TestEmpiricalError:
    def test_perfect_fit(self):
        S = LabeledSample.from_pairs([(0.2, 0), (0.7, 1)])
        assert empirical_error(Threshold(0.5), S) == 0.0

    def test_one_of_four(self):
        S = LabeledSample.from_pairs([(0.2, 0), (0.7, 1), (0.6, 0), (0.9, 1)])
        assert empirical_error(Threshold(0.5), S) == 0.25

    def test_empty_sample_rejected(self):
        S = LabeledSample.from_pairs([], dim=1)
        with pytest.raises(ValueError, match="empty"):
            empirical_error(Threshold(0.5), S)

    def test_recount_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 1, size=(100, 1))
        y = rng.integers(0, 2, size=100).astype(np.uint8)
        S = LabeledSample(X, y)
        h = Interval(0.25, 0.66)
        # independent recount, pair by pair through the scalar path
        manual = sum(1 for x, lab in S.pairs() if predict(h, x) != lab) / 100
        assert empirical_error(h, S) == manual

    def test_all_wrong_is_one(self):
        S = LabeledSample.from_pairs([(0.2, 1), (0.7, 0)])
        assert empirical_error(Threshold(0.5), S) == 1.0

    @given(st.permutations(list(range(12))))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, order):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, size=(12, 1))
        y = rng.integers(0, 2, size=12).astype(np.uint8)
        S = LabeledSample(X, y)
        P = LabeledSample(X[order], y[order])
        h = Threshold(0.4)
        assert empirical_error(h, S) == empirical_error(h, P)


def reference_labels(h, X: np.ndarray) -> np.ndarray:
    """The per-member ``labels`` bodies each hypothesis type had before the
    types declared one stacked rule, kept as the reference."""
    if type(h) is Threshold:
        if h.direction == "ge":
            return (X[:, 0] >= h.theta).astype(np.uint8)
        return (X[:, 0] <= h.theta).astype(np.uint8)
    if type(h) is Interval:
        x = X[:, 0]
        return ((x >= h.lo) & (x <= h.hi)).astype(np.uint8)
    if type(h) is IntervalUnion:
        x = X[:, 0]
        out = np.zeros(len(x), dtype=np.uint8)
        for lo, hi in h.intervals:
            out |= ((x >= lo) & (x <= hi)).astype(np.uint8)
        return out
    if type(h) is Rectangle:
        inside = np.ones(len(X), dtype=bool)
        for j, (lo, hi) in enumerate(h.bounds):
            inside &= (X[:, j] >= lo) & (X[:, j] <= hi)
        return inside.astype(np.uint8)
    if type(h) is Halfspace:
        return (X @ np.asarray(h.weights) + h.bias >= 0.0).astype(np.uint8)
    if type(h) is SineSign:
        return (np.sin(h.alpha * X[:, 0]) >= 0.0).astype(np.uint8)
    table = dict(zip(h.points, h.point_labels))
    return np.fromiter(
        (table.get(tuple(row), h.default) for row in X), dtype=np.uint8, count=len(X)
    )


def reference_counts(members, X: np.ndarray, y: np.ndarray) -> list[int]:
    return [int(np.count_nonzero(reference_labels(h, X) != y)) for h in members]


# Parameters and instances share one coarse lattice, so boundary ties (a
# point on a threshold, an interval end or a box edge) are frequent.
LATTICE = st.sampled_from([i / 8 for i in range(-2, 11)])


@st.composite
def sorted_lattice(draw, n):
    return sorted(draw(st.lists(LATTICE, min_size=n, max_size=n)))


@st.composite
def line_hypotheses(draw):
    kind = draw(st.sampled_from(["threshold", "interval", "union", "sine", "lookup",
                                 "rectangle", "halfspace"]))
    if kind == "threshold":
        return Threshold(draw(LATTICE), draw(st.sampled_from(["ge", "le"])))
    if kind == "interval":
        return Interval(*draw(sorted_lattice(2)))
    if kind == "union":
        ends = sorted(draw(st.sets(LATTICE, min_size=0, max_size=6)))
        ends = ends[:len(ends) // 2 * 2]
        return IntervalUnion(tuple(zip(ends[::2], ends[1::2])))
    if kind == "sine":
        return SineSign(draw(st.floats(0.1, 100.0)))
    if kind == "rectangle":
        return Rectangle((tuple(draw(sorted_lattice(2))),))
    if kind == "halfspace":
        return Halfspace((draw(LATTICE),), draw(LATTICE))
    points = draw(st.lists(LATTICE, min_size=1, max_size=5, unique=True))
    labels = draw(st.lists(st.integers(0, 1), min_size=len(points), max_size=len(points)))
    return LookupTable(tuple((p,) for p in points), tuple(labels), draw(st.integers(0, 1)))


@st.composite
def plane_hypotheses(draw):
    kind = draw(st.sampled_from(["rectangle", "halfspace", "lookup"]))
    if kind == "rectangle":
        return Rectangle((tuple(draw(sorted_lattice(2))), tuple(draw(sorted_lattice(2)))))
    if kind == "halfspace":
        return Halfspace((draw(LATTICE), draw(LATTICE)), draw(LATTICE))
    points = draw(st.lists(st.tuples(LATTICE, LATTICE), min_size=1, max_size=5, unique=True))
    labels = draw(st.lists(st.integers(0, 1), min_size=len(points), max_size=len(points)))
    return LookupTable(tuple(points), tuple(labels), draw(st.integers(0, 1)))


@st.composite
def members_and_points(draw):
    """A mixed member list (plain, a FiniteClass enumeration or stacked) and
    points to label: lattice points, which fall on thresholds, interval ends
    and box edges, and on the line also points where a sine member is 0."""
    dim = draw(st.sampled_from([1, 2]))
    strategy = line_hypotheses() if dim == 1 else plane_hypotheses()
    members = draw(st.lists(strategy, min_size=1, max_size=12))
    rows = draw(st.lists(st.tuples(*[LATTICE] * dim), min_size=1, max_size=20))
    rows += [(j * math.pi / h.alpha,) for h in members if type(h) is SineSign
             for j in draw(st.lists(st.integers(-3, 30), max_size=3))]
    form = draw(st.sampled_from(["list", "finite", "stacked"]))
    if form == "finite":
        members = enumerate_class(FiniteClass(tuple(members)))
    elif form == "stacked":
        members = StackedMembers(members)
    return members, np.array(rows, dtype=float)


# Unions with one and with two intervals, and threshold directions, side by side.
MIXED_KEYS = ([IntervalUnion(((0.0, 0.25),)), IntervalUnion(((0.0, 0.25), (0.5, 0.75))),
               Threshold(0.5), Threshold(0.5, "le"), Threshold(0.25), IntervalUnion(())],
              np.array([[i / 8] for i in range(-1, 10)]))


def halfspace_meshgrid(g: int) -> np.ndarray:
    """The g x g lattice on [-2, 2]^2; many of its points lie on the 45-degree
    lines of HalfspaceClass2D through the origin."""
    xs = np.linspace(-2, 2, g)
    return np.stack([a.ravel() for a in np.meshgrid(xs, xs)], axis=1)


class TestLabelMatrix:
    @settings(max_examples=300, deadline=None)
    @given(members_and_points())
    @example(MIXED_KEYS)
    def test_rows_equal_member_labels(self, case):
        members, X = case
        L = label_matrix(members, X)
        assert L.dtype == np.uint8 and L.shape == (len(members), len(X))
        for row, h in zip(L, members):
            expected = reference_labels(h, X)
            labels = h.labels(X)
            assert labels.dtype == np.uint8
            assert row.tolist() == labels.tolist() == expected.tolist()

    def test_halfspace_lattices_equal_the_reference(self):
        # A product of the whole stack, or an elementwise one, rounds some of
        # these points to the other side of the line.
        members = enumerate_class(HalfspaceClass2D())
        for g in range(2, 40):
            X = halfspace_meshgrid(g)
            expected = [reference_labels(h, X).tolist() for h in members]
            assert label_matrix(members, X).tolist() == expected
            assert [h.labels(X).tolist() for h in members] == expected
            y = (X.sum(axis=1) >= 0).astype(np.uint8)
            assert trial_error_counts(members, X[None], y[None])[0].tolist() == \
                reference_counts(members, X, y)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0, 2 * math.pi), min_size=1, max_size=8),
           st.lists(st.floats(-2, 2), min_size=1, max_size=8), st.integers(0, 2 ** 32 - 1))
    def test_halfplane_products_equal_per_member_products(self, angles, offsets, seed):
        # Halfspace._label_stack relies on the batched product giving the
        # bits of each member's own X @ w + b, also on points of its line.
        H = HalfspaceClass2D(grid=GridSpec((angles, offsets)))
        P = StackedMembers.of(H)._runs[0][3]
        rng = np.random.default_rng(seed)
        along = np.stack([-P[:, 1], P[:, 0]], axis=1)  # unit direction of each line
        t = rng.uniform(-3, 3, (len(P), 4, 1))
        on_lines = (-P[:, None, 2:] * P[:, None, :2] + t * along[:, None]).reshape(-1, 2)
        X = np.concatenate([on_lines, rng.uniform(-3, 3, (20, 2))])
        per_member = np.stack([X @ p[:-1] + p[-1] for p in P])
        assert bits(np.matmul(X, P[:, :-1, None])[..., 0] + P[:, -1:]) == bits(per_member)
        expected = (per_member >= 0).astype(np.uint8).tolist()
        assert label_matrix(StackedMembers.of(H), X).tolist() == expected
        assert [h.labels(X).tolist() for h in H.members()] == expected

    @settings(max_examples=100, deadline=None)
    @given(members_and_points(), st.integers(1, 40), st.data())
    def test_error_counts_in_small_blocks(self, case, cells, data):
        members, X = case
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(X), max_size=len(X))))
        S = LabeledSample(X, y)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "LABEL_BLOCK_CELLS", cells)
            counts = error_counts(members, S)
        assert counts.tolist() == reference_counts(members, X, y)
        assert counts.tolist() == [empirical_error_count(h, S) for h in members]

    @settings(max_examples=100, deadline=None)
    @given(members_and_points(), st.integers(1, 3), st.integers(1, 60), st.data())
    def test_trial_error_counts_equal_per_trial_counts(self, case, trials, cells, data):
        # Few cells split the members into blocks in the middle of the trial
        # set; each row must still equal that trial's own counts.
        members, X = case
        m = len(X)
        rows = st.lists(st.integers(0, m - 1), min_size=m, max_size=m)
        XT = np.stack([X[data.draw(rows)] for _ in range(trials)])
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=trials * m,
                                        max_size=trials * m)), dtype=np.uint8)
        y = y.reshape(trials, m)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "LABEL_BLOCK_CELLS", cells)
            counts = trial_error_counts(members, XT, y)
            one_row = [error_counts(members, LabeledSample(XT[t], y[t])).tolist()
                       for t in range(trials)]
        expected = [reference_counts(members, XT[t], y[t]) for t in range(trials)]
        assert counts.shape == (trials, len(members))
        assert counts.tolist() == one_row == expected

    def test_error_counts_across_blocks_of_a_large_sample(self):
        members = (enumerate_class(ThresholdClass(directions=("ge", "le"), resolution=3))
                   + enumerate_class(IntervalClass(resolution=3))
                   + [SineSign(7.0), IntervalUnion(((0.1, 0.2), (0.6, 0.9)))])
        m = core.LABEL_BLOCK_CELLS // 3 + 1  # two members per block
        rng = np.random.default_rng(0)
        S = LabeledSample(rng.uniform(0, 1, (m, 1)), rng.integers(0, 2, m))
        counts = error_counts(members, S)
        assert counts.tolist() == [empirical_error_count(h, S) for h in members]

    @pytest.mark.parametrize("cells", [1, 700, core.LABEL_BLOCK_CELLS])
    @pytest.mark.parametrize("m", [1, core.COUNT_M_MAJOR - 1, core.COUNT_M_MAJOR,
                                   core.COUNT_M_MAJOR + 1, 3 * core.COUNT_M_MAJOR])
    def test_m_major_counts_equal_dense_counts(self, m, cells):
        # The layout follows m alone, so each side of COUNT_M_MAJOR is forced
        # both ways: the m-major sum against the dense one, block by block.
        members = (enumerate_class(ThresholdClass(directions=("ge", "le"), resolution=5))
                   + enumerate_class(IntervalClass(resolution=6))
                   + enumerate_class(IntervalUnionClass(k=2, resolution=5))
                   + [SineSign(7.0), Interval(0.2, 0.7)])
        rng = np.random.default_rng(m)
        trials = 7
        X = rng.choice(np.linspace(0, 1, 11), (trials, m, 1))  # ties on grid endpoints
        y = rng.integers(0, 2, (trials, m)).astype(np.uint8)
        counts = {}
        for layout, most in (("dense", 0), ("m-major", m)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(core, "LABEL_BLOCK_CELLS", cells)
                mp.setattr(core, "COUNT_M_MAJOR", most)
                counts[layout] = trial_error_counts(members, X, y)
        assert counts["m-major"].tolist() == counts["dense"].tolist() == [
            reference_counts(members, X[t], y[t]) for t in range(trials)]

    @pytest.mark.parametrize("m", [2 ** 16 - 1, 2 ** 16])
    def test_trial_error_counts_at_the_uint16_edge(self, m):
        # Trial 0 is labelled all 0 and trial 1 all 1, so the first member
        # (1 everywhere) mismatches every label of trial 0 and the second
        # (0 everywhere) every label of trial 1: counts of m, the uint16
        # maximum at m = 2^16 - 1 and one past it at m = 2^16.
        members = [Threshold(0.0), Threshold(1.5), Threshold(0.5), SineSign(7.0),
                   Interval(0.2, 0.7)]
        X = np.random.default_rng(m).uniform(0, 1, (2, m, 1))
        y = np.stack([np.zeros(m, np.uint8), np.ones(m, np.uint8)])
        counts = trial_error_counts(members, X, y)
        assert counts[0, 0] == counts[1, 1] == m
        assert counts.tolist() == [reference_counts(members, X[t], y[t]) for t in range(2)]

    def test_a_list_changed_after_evaluation_is_labelled_afresh(self):
        X = np.array([[0.1], [0.3], [0.6]])
        S = LabeledSample(X, np.array([0, 1, 1]))
        members = [Threshold(0.5), Threshold(0.2, "le")]
        label_matrix(members, X)
        error_counts(members, S)
        members.append(Interval(0.2, 0.4))
        members[0] = SineSign(3.0)
        assert label_matrix(members, X).tolist() == [h.labels(X).tolist() for h in members]
        assert error_counts(members, S).tolist() == [empirical_error_count(h, S) for h in members]

    def test_stacked_members_is_a_fixed_copy(self):
        X = np.array([[0.1], [0.3], [0.6]])
        members = [Threshold(0.5), Interval(0.2, 0.4)]
        stacked = StackedMembers(members)
        members.append(Threshold(0.1))
        members[0] = SineSign(3.0)
        assert list(stacked) == [Threshold(0.5), Interval(0.2, 0.4)] and len(stacked) == 2
        assert label_matrix(stacked, X).tolist() == [[0, 0, 1], [0, 1, 0]]
        with pytest.raises(TypeError):
            stacked[0] = SineSign(3.0)

    def test_dimension_mismatch_is_rejected(self):
        for h in TestSerialization.HYPS:  # one of each type
            d = h.dim + 1
            X = np.zeros((3, d))
            message = (f"{h.kind} hypothesis is defined on dimension {h.dim} "
                       f"but instances have dimension {d}")
            for label in (h.labels, lambda X: label_matrix([h], X)):
                with pytest.raises(DimensionMismatchError, match=re.escape(message)):
                    label(X)

    @settings(max_examples=200, deadline=None)
    @given(members_and_points())
    @example(MIXED_KEYS)
    def test_labels_are_the_one_member_stack_bit_for_bit(self, case):
        # labels applies a member's rule to its own row without building a stack.
        members, X = case
        for h in members:
            labels = h.labels(X)
            assert labels.dtype == np.uint8 and labels.shape == (len(X),)
            assert labels.tobytes() == label_matrix((h,), X)[0].tobytes()
            with pytest.raises(ValueError, match=r"expects an \(n, d\) matrix"):
                h.labels(X[0])
            with pytest.raises(DimensionMismatchError):
                h.labels(np.zeros((len(X), h.dim + 1)))


# Endpoints of the interval runs below: -0.0 next to 0.0, and both infinities.
ENDPOINTS = st.sampled_from([-math.inf, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, math.inf])


@st.composite
def endpoint_run(draw):
    """A run of one interval type on an explicit grid that may be unsorted or
    repeat values: unions of k = 0-3 parts (or intervals at k = 1) whose
    sorted endpoints are drawn from the grid, or the grid class itself."""
    grid = draw(st.lists(ENDPOINTS, min_size=1, max_size=8))
    k = draw(st.integers(0, 3))
    if draw(st.booleans()):
        if k < 2:
            return grid, enumerate_class(IntervalClass(grid=GridSpec((sorted(grid),))))
        # A union chain needs b_i < a_(i+1), so its grid repeats no value.
        axis = GridSpec((sorted(set(grid)),))
        return grid, enumerate_class(IntervalUnionClass(k=k, grid=axis))
    plain = k == 1 and draw(st.booleans())
    members = []
    for _ in range(draw(st.integers(1, 30))):
        ends = sorted(draw(st.lists(st.sampled_from(grid), min_size=2 * k, max_size=2 * k)))
        if all(b < a for b, a in zip(ends[1::2], ends[2::2])):
            parts = tuple(zip(ends[0::2], ends[1::2]))
            members.append(Interval(*parts[0]) if plain else IntervalUnion(parts))
    return grid, members


@st.composite
def endpoint_members_and_trials(draw):
    """Interval runs mixed with threshold runs and FiniteClass members, in
    one of the three member forms, and T = 1-4 samples whose points lie on
    the runs' endpoints or on the line's lattice."""
    members, ends = [], [0.0]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["intervals", "intervals", "thresholds", "finite"]))
        if kind == "intervals":
            grid, run = draw(endpoint_run())
            members += run
            ends += [v for v in grid if math.isfinite(v)]
        elif kind == "thresholds":
            direction = draw(st.sampled_from(["ge", "le"]))
            members += [Threshold(v, direction) for v in draw(st.lists(ENDPOINTS, min_size=1))]
        else:
            members += enumerate_class(FiniteClass(tuple(
                draw(st.lists(line_hypotheses(), min_size=1, max_size=4)))))
    form = draw(st.sampled_from(["list", "finite", "stacked"]))
    if form == "finite" and members:
        members = enumerate_class(FiniteClass(tuple(members)))
    elif form == "stacked":
        members = StackedMembers(members)
    T, m = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    points = st.one_of(st.sampled_from(ends), LATTICE)
    X = np.array(draw(st.lists(points, min_size=T * m, max_size=T * m))).reshape(T, m, 1)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=T * m, max_size=T * m)),
                 dtype=np.uint8).reshape(T, m)
    return members, X, y


class TestEndpointCounts:
    """Interval and union runs are counted from thresholds at their distinct
    endpoints; every count must equal the member's own."""

    @settings(max_examples=300, deadline=None)
    @given(endpoint_members_and_trials(), st.integers(1, 60))
    def test_counts_equal_per_member_counts(self, case, cells):
        members, X, y = case
        samples = [LabeledSample(X[t], y[t]) for t in range(len(X))]
        expected = [[empirical_error_count(h, S) for h in members] for S in samples]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "LABEL_BLOCK_CELLS", cells)
            counts = trial_error_counts(members, X, y)
            one_row = [error_counts(members, S).tolist() for S in samples]
        assert counts.shape == (len(X), len(members))
        assert counts.tolist() == one_row == expected

    def test_empty_union_counts_the_ones(self):
        members = [IntervalUnion(())] * 3 + [IntervalUnion(((0.0, 0.5),))]
        S = LabeledSample(np.array([[0.0], [0.5], [0.7], [0.2]]), np.array([1, 0, 1, 1]))
        assert error_counts(members, S).tolist() == [3, 3, 3, 2]

    @pytest.mark.parametrize("stack", [enumerate_class, StackedMembers.of])
    def test_wrong_dimension_names_the_interval(self, stack):
        with pytest.raises(DimensionMismatchError, match="^interval hypothesis"):
            trial_error_counts(stack(IntervalClass()), np.zeros((1, 3, 2)),
                               np.zeros((1, 3), dtype=np.uint8))


class TestNanParameters:
    """NaN orders with nothing, so it is refused where an order check would
    pass it.  The infinities stay accepted, save in a factor of a coordinate
    (a sine frequency, a halfspace weight, a halfplane angle), where inf * 0
    would be NaN, and in the points of a finite marginal, a conditional table
    or a lookup table, which are instances."""

    @pytest.mark.parametrize("build", [
        lambda v: Threshold(v),
        lambda v: Threshold(v, "le"),
        lambda v: Interval(v, 1.0),
        lambda v: Interval(0.0, v),
        lambda v: IntervalUnion(((0.0, 0.25), (0.5, v))),
        lambda v: IntervalUnion(((v, 0.25),)),
        lambda v: GridSpec(((0.0, v, 1.0),)),
        lambda v: IntervalClass(grid=GridSpec(((0.0, v),))),
        lambda v: Rectangle(((v, 1.0),)),
        lambda v: Rectangle(((0.0, 1.0), (0.0, v))),
        lambda v: Halfspace((v,), 0.0),
        lambda v: Halfspace((1.0,), v),
        lambda v: SineSign(v),
        lambda v: ThresholdClass(lo=v),
        lambda v: ThresholdClass(hi=v),
        lambda v: IntervalClass(lo=v),
        lambda v: IntervalUnionClass(lo=v),
        lambda v: IntervalUnionClass(hi=v),
        lambda v: RectangleClass(bounds=((0.0, 1.0), (v, 1.0))),
        lambda v: HalfspaceClass2D(offset_lo=v),
        lambda v: HalfspaceClass2D(offset_hi=v),
        lambda v: SineClass(alpha_lo=v),
        lambda v: FiniteUniform(((v,),)),
        lambda v: FiniteUniform(((0.0, 1.0), (1.0, v))),
        lambda v: PointMasses(((0.0,), (1.0,)), (v, 1.0)),
        lambda v: PointMasses(((v,), (1.0,)), (0.5, 0.5)),
        lambda v: ConditionalTable(((v,),), (0.5,)),
        lambda v: LookupTable(((v,),), (1,)),
    ])
    def test_nan_is_rejected(self, build):
        with pytest.raises(ValueError, match="must not be NaN"):
            build(math.nan)

    @pytest.mark.parametrize("build, message", [
        (lambda v: ThresholdClass(lo=v), "thresholds: lo"),
        (lambda v: IntervalClass(hi=v), "intervals: hi"),
        (lambda v: IntervalUnionClass(lo=v), "interval_unions: lo"),
        (lambda v: HalfspaceClass2D(offset_lo=v), "halfspaces2d: offset_lo"),
        (lambda v: SineClass(alpha_hi=v), "sine: alpha_hi"),
        (lambda v: RectangleClass(bounds=((0.0, v),)), "rectangles: bounds"),
        (lambda v: Halfspace((1.0, v), 0.0), "halfspace weights and bias"),
        (lambda v: FiniteUniform(((0.0,), (v,))), "finite_uniform points"),
        (lambda v: PointMasses(((0.0,), (1.0,)), (0.0, v)), "point_masses probs"),
        (lambda v: PointMasses(((0.0, v),), (1.0,)), "point_masses points"),
        (lambda v: ConditionalTable(((v,), (0.0,)), (0.5, 0.5)), "conditional table points"),
        (lambda v: LookupTable(((0.0,), (v,)), (1, 0)), "lookup points"),
    ])
    def test_nan_error_names_the_field(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)} must not be NaN$"):
            build(math.nan)

    @pytest.mark.parametrize("build, message", [
        (lambda v: SineSign(v), "sine alpha"),
        (lambda v: SineSign(-v), "sine alpha"),
        (lambda v: Halfspace((v, 0.0), 0.0), "halfspace weights"),
        (lambda v: Halfspace((0.0, -v), 1.0), "halfspace weights"),
        (lambda v: SineClass(grid=GridSpec(((1.0, v),))), "sine: grid frequencies"),
        (lambda v: HalfspaceClass2D(grid=GridSpec(((0.0, -v), (0.0,)))),
         "halfspaces2d: grid angles"),
        (lambda v: FiniteUniform(((v,), (0.0,))), "finite_uniform points"),
        (lambda v: PointMasses(((-v,), (0.0,)), (0.5, 0.5)), "point_masses points"),
        (lambda v: ConditionalTable(((0.0, v),), (0.5,)), "conditional table points"),
        (lambda v: LookupTable(((v,),), (1,)), "lookup points"),
    ])
    def test_infinite_factor_is_rejected(self, build, message):
        # SineSign(inf) would label x = 0 as 0 (sin(inf * 0) is NaN), where
        # the tie sin(0) = 0 gives 1; an infinite angle has no cosine.  A
        # support point at infinity could not be drawn, yet its risk was
        # summed.
        with pytest.raises(ValueError, match=f"^{re.escape(message)} must be finite$"):
            build(math.inf)

    @pytest.mark.parametrize("build, message", [
        (lambda: ThresholdClass(0.0, math.inf), "thresholds: hi must be finite"),
        (lambda: ThresholdClass(lo=-math.inf), "thresholds: lo must be finite"),
        (lambda: IntervalClass(-math.inf, 1.0), "intervals: lo must be finite"),
        (lambda: IntervalUnionClass(hi=math.inf), "interval_unions: hi must be finite"),
        (lambda: SineClass(1.0, math.inf), "sine: alpha_hi must be finite"),
        (lambda: HalfspaceClass2D(offset_hi=math.inf), "halfspaces2d: offset_hi must be finite"),
        (lambda: RectangleClass(bounds=((0.0, 1.0), (-math.inf, 1.0))),
         "rectangles: bounds must be finite"),
        (lambda: ThresholdClass(-1e308, 1e308), "thresholds: hi - lo must be finite"),
        (lambda: IntervalClass(-1e308, 1e308), "intervals: hi - lo must be finite"),
        (lambda: SineClass(-1e308, 1e308), "sine: alpha_hi - alpha_lo must be finite"),
        (lambda: HalfspaceClass2D(-1e308, 1e308), "halfspaces2d: offset_hi - offset_lo must be finite"),
        (lambda: RectangleClass(bounds=((-1e308, 1e308),)), "rectangles: bounds: hi - lo must be finite"),
    ])
    def test_range_that_spans_no_default_grid_is_rejected(self, build, message):
        # np.linspace over an infinite bound or an overflowing span is NaN.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            build()

    def test_infinite_range_with_an_explicit_grid_is_accepted(self):
        grid = GridSpec(((0.5,),))
        assert ThresholdClass(-math.inf, math.inf, grid=grid).size() == 1
        assert SineClass(1.0, math.inf, grid=grid).size() == 1
        assert RectangleClass(bounds=((-math.inf, math.inf),), grid=grid).size() == 1

    def test_infinities_are_accepted(self):
        assert Interval(-math.inf, math.inf).labels(np.array([[0.0]])).tolist() == [1]
        assert Threshold(math.inf).labels(np.array([[0.0]])).tolist() == [0]
        assert IntervalUnion(((-math.inf, 0.0), (1.0, math.inf))).labels(
            np.array([[0.5], [2.0]])).tolist() == [0, 1]
        assert GridSpec(((-math.inf, math.inf),)).axes == ((-math.inf, math.inf),)


class TestEnumeration:
    def test_threshold_grid_count(self):
        H = ThresholdClass(0.1, 0.9, ("ge", "le"), resolution=9)
        assert len(enumerate_class(H)) == 18

    def test_explicit_finite_identity(self):
        members = tuple(Threshold(t) for t in (0.1, 0.3, 0.5, 0.7, 0.9))
        H = FiniteClass(members)
        assert enumerate_class(H) == list(members)

    def test_interval_grid_count(self):
        H = IntervalClass(0.0, 1.0, resolution=10)
        assert len(enumerate_class(H)) == 55  # C(10,2) + 10

    def test_interval_union_count_matches_formula(self):
        H = IntervalUnionClass(k=2, resolution=6)
        members = enumerate_class(H)
        assert len(members) == math.comb(6 + 2, 4)
        assert len(set(members)) == len(members)

    def test_budget_exceeded(self):
        H = IntervalClass(0.0, 1.0, resolution=100)
        with pytest.raises(EnumerationBudgetError) as err:
            enumerate_class(H, budget=100)
        assert err.value.required == 5050
        assert err.value.budget == 100

    def test_byte_identical_across_runs(self):
        def snapshot():
            H = HalfspaceClass2D(n_angles=8, n_offsets=5)
            return jsonio.dumps([h.to_json() for h in enumerate_class(H)])

        assert snapshot() == snapshot()

    def test_canonical_order_is_direction_major(self):
        H = ThresholdClass(0.0, 1.0, ("ge", "le"), resolution=3)
        members = enumerate_class(H)
        assert [((m.direction), m.theta) for m in members] == [
            ("ge", 0.0), ("ge", 0.5), ("ge", 1.0),
            ("le", 0.0), ("le", 0.5), ("le", 1.0),
        ]


def reference_members(H):
    """The members each grid family yielded, one validated object at a time,
    before the families declared their members as parameter rows; kept as
    the reference.  H may be built without its checks (``unchecked``)."""
    axes = (H.default_grid() if H.grid is None else H.grid).axes
    if type(H) is ThresholdClass:
        return [Threshold(theta, d) for d in H.directions for theta in axes[0]]
    pairs = [[(axis[i], axis[j]) for i in range(len(axis)) for j in range(i, len(axis))]
             for axis in axes]
    if type(H) is IntervalClass:
        return [Interval(lo, hi) for lo, hi in pairs[0]]
    if type(H) is RectangleClass:
        return [Rectangle(tuple(combo)) for combo in itertools.product(*pairs)]
    if type(H) is HalfspaceClass2D:
        return [Halfspace((math.cos(a), math.sin(a)), -o) for a in axes[0] for o in axes[1]]
    if type(H) is SineClass:
        return [SineSign(alpha) for alpha in axes[0]]
    axis = axes[0]

    def chains(start, remaining):
        if remaining == 0:
            yield ()
            return
        for i in range(start, len(axis)):
            for j in range(i, len(axis)):
                for rest in chains(j + 1, remaining - 1):
                    yield ((axis[i], axis[j]),) + rest

    return [IntervalUnion(ivs) for ivs in chains(0, H.k)]


# Grid axis values: repeats and any order, including -0.0 and the infinities.
AXIS = st.lists(st.sampled_from([-math.inf, -0.0, 0.0, 0.125, 0.5, 0.75, 1.0, 2.5, -1.0,
                                 math.inf]), min_size=1, max_size=6)
# Ends of a default grid's range, drawn in either order and equal.
RANGE_END = st.sampled_from([-1.0, 0.0, 0.25, 1.0])


@st.composite
def grid_classes(draw):
    """(family type, constructor keywords) of a grid family of each kind:
    explicit grid axes with unsorted and repeated values and the
    infinities, or a default grid whose range may run high end first or be
    one point, with resolutions from 1; both threshold directions, unions
    with k = 1-3 and boxes with d = 1-3."""
    family = draw(st.sampled_from([ThresholdClass, IntervalClass, IntervalUnionClass,
                                   RectangleClass, HalfspaceClass2D, SineClass]))
    explicit = draw(st.booleans())
    kwargs = {}
    if family is HalfspaceClass2D:
        if explicit:
            angles = draw(st.lists(st.sampled_from(
                [j * math.pi / 6 for j in range(12)] + [math.inf]), min_size=1, max_size=5))
            return family, {"grid": GridSpec((angles, draw(AXIS)))}
        return family, {"offset_lo": draw(RANGE_END), "offset_hi": draw(RANGE_END),
                        "n_angles": draw(st.integers(1, 4)), "n_offsets": draw(st.integers(1, 4))}
    if family is RectangleClass:
        d = draw(st.integers(1, 3))
        if explicit:
            axes = tuple(draw(st.lists(st.sampled_from([-math.inf, 0.0, 0.25, 0.5, 1.0]),
                                       min_size=1, max_size=4 if d < 3 else 3)) for _ in range(d))
            return family, {"bounds": ((0.0, 1.0),) * d, "grid": GridSpec(axes)}
        return family, {"bounds": tuple((draw(RANGE_END), draw(RANGE_END)) for _ in range(d)),
                        "resolution": draw(st.integers(1, 4 if d < 3 else 3))}
    if family is ThresholdClass:
        kwargs["directions"] = draw(st.sampled_from([("ge",), ("le",), ("ge", "le"),
                                                     ("le", "ge"), ("ge", "ge")]))
    if family is IntervalUnionClass:
        kwargs["k"] = draw(st.integers(1, 3))
    if explicit:
        return family, {**kwargs, "grid": GridSpec((draw(AXIS),))}
    lo, hi = draw(RANGE_END), draw(RANGE_END)
    if family is ThresholdClass:  # a threshold range is refused high end first
        lo, hi = sorted((lo, hi))
    names = ("alpha_lo", "alpha_hi") if family is SineClass else ("lo", "hi")
    return family, {**kwargs, names[0]: lo, names[1]: hi, "resolution": draw(st.integers(1, 5))}


def unchecked(family, kwargs):
    """family(**kwargs) with its fields set but none of its checks run."""
    H = object.__new__(family)
    for f in dataclasses.fields(family):
        object.__setattr__(H, f.name, kwargs.get(f.name, f.default))
    return H


def bits(P: np.ndarray) -> list:
    return P.view(np.int64).tolist()


class TestGridRows:
    """A grid family's parameter rows against the members the per-family
    generators built."""

    @settings(max_examples=500, deadline=None)
    @given(grid_classes())
    @example((IntervalUnionClass, {"k": 3, "resolution": 2}))  # no chain fits: an empty class
    @example((IntervalUnionClass, {"k": 3, "grid": GridSpec(((0.5, 0.2),))}))  # empty too
    @example((IntervalUnionClass, {"k": 3, "lo": 1.0, "hi": 0.0, "resolution": 2}))  # and this
    @example((IntervalClass, {"lo": 1.0, "hi": 0.0, "resolution": 1}))  # one member, [1, 1]
    @example((IntervalUnionClass, {"k": 2, "lo": 0.5, "hi": 0.5, "resolution": 2}))
    @example((RectangleClass, {"bounds": ((0, 1),) * 3, "resolution": 4}))
    @example((HalfspaceClass2D, {}))
    def test_rows_equal_the_reference_members(self, case):
        # A class builds exactly when the reference builds every member.
        family, kwargs = case
        try:
            expected = reference_members(unchecked(family, kwargs))
        except ValueError:
            with pytest.raises(ValueError, match=f"^{family.family}: "):
                family(**kwargs)
            return
        H = family(**kwargs)
        stacked = StackedMembers.of(H)
        members = list(H.members())
        assert len(stacked) == len(members) == H.size() == len(expected)
        assert list(stacked) == members == enumerate_class(H) == expected
        assert [repr(h) for h in members] == [repr(h) for h in expected]
        assert [h.to_json() for h in members] == [h.to_json() for h in expected]
        reference_runs = StackedMembers(expected)._runs
        assert [run[:3] for run in stacked._runs] == [run[:3] for run in reference_runs]
        for (*_, P, first), (*_, Q, reference_first) in zip(stacked._runs, reference_runs):
            assert P.shape == Q.shape and bits(P) == bits(Q)
            assert not P.flags.writeable
            assert repr(first) == repr(reference_first)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(grid_classes(), min_size=1, max_size=4))
    def test_a_sequence_stacks_as_its_members_in_order(self, cases):
        try:
            classes = [family(**kwargs) for family, kwargs in cases]
        except ValueError:
            return
        expected = [h for H in classes for h in reference_members(H)]
        stacked = StackedMembers.of(*classes)
        assert list(stacked) == expected
        reference_runs = StackedMembers(expected)._runs
        assert [run[:3] for run in stacked._runs] == [run[:3] for run in reference_runs]
        for (*_, P, _), (*_, Q, _) in zip(stacked._runs, reference_runs):
            assert bits(P) == bits(Q)

    def test_a_class_of_objects_keeps_its_objects(self):
        table = LookupTable(((0.5,),), (1,))
        finite = FiniteClass((Threshold(1), table))
        stacked = StackedMembers.of(ThresholdClass(resolution=2), finite)
        assert list(stacked) == [Threshold(0.0), Threshold(1.0), Threshold(1), table]
        assert stacked[2].to_json() == {"kind": "threshold", "theta": 1, "direction": "ge"}
        assert stacked[3] is table

    def test_members_are_built_on_reading(self):
        H = IntervalClass(resolution=4)
        stacked = StackedMembers.of(H)
        expected = reference_members(H)
        assert [stacked[i] for i in range(-len(expected), len(expected))] == expected * 2
        with pytest.raises(IndexError):
            stacked[len(expected)]

    @pytest.mark.parametrize("build, message", [
        (lambda: IntervalClass(lo=1, hi=0), "intervals: lo must not exceed hi, got lo=1, hi=0"),
        (lambda: IntervalClass(grid=GridSpec(((0.0, 0.5, 0.2),))),
         "intervals: grid must be nondecreasing, got 0.5 then 0.2"),
        (lambda: IntervalUnionClass(k=1, grid=GridSpec(((0.5, -math.inf),))),
         "interval_unions: grid must be nondecreasing, got 0.5 then -inf"),
        (lambda: IntervalUnionClass(k=2, grid=GridSpec(((0.0, 0.2, 0.2, 0.5),))),
         "interval_unions: grid must be increasing, got 0.2 then 0.2"),
        (lambda: IntervalUnionClass(k=2, lo=0.5, hi=0.5, resolution=3),
         "interval_unions: the default grid of 3 values from lo=0.5 to hi=0.5 must be "
         "increasing, got 0.5 then 0.5"),
        (lambda: RectangleClass(bounds=((0, 1), (1, 0))),
         "rectangles: bounds: lo must not exceed hi, got lo=1, hi=0"),
        (lambda: RectangleClass(grid=GridSpec(((0.0, 1.0), (0.5, 0.2)))),
         "rectangles: grid axis 2 must be nondecreasing, got 0.5 then 0.2"),
        (lambda: RectangleClass(grid=GridSpec(((0.0, 1.0),))),
         "rectangles discretization needs 2 grid axes, got 1"),
        (lambda: HalfspaceClass2D(grid=GridSpec(((0.0, 1.0),))),
         "halfspaces2d discretization needs 2 grid axes, got 1"),
    ])
    def test_a_bad_grid_fails_when_built_naming_the_field(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_budget_is_checked_before_rows_are_built(self, monkeypatch):
        H = RectangleClass(bounds=((0, 1),) * 3, resolution=40)
        monkeypatch.setattr(RectangleClass, "_param_runs", lambda self: pytest.fail("built"))
        with pytest.raises(EnumerationBudgetError, match="requires 551368000 hypotheses"):
            StackedMembers.of(H)


# Finite-class parameters: the lattice, -0.0, and whole numbers as ints below
# 2^53 in size, which a float row holds exactly.
FINITE_VALUES = st.one_of(LATTICE, st.just(-0.0), st.integers(-3, 3),
                          st.integers(-(2 ** 53 - 1), 2 ** 53 - 1))


@st.composite
def finite_runs(draw, dim):
    """Members of one type, 1-3 of them, with one stacking key, so adjacent
    runs often differ only in key: a threshold direction, a union's k, or a
    lookup table (the same object, an equal copy or another table)."""
    kinds = (["threshold", "interval", "union", "sine", "rectangle", "halfspace", "lookup"]
             if dim == 1 else ["rectangle", "halfspace", "lookup"])
    kind, n = draw(st.sampled_from(kinds)), draw(st.integers(1, 3))
    pair = st.lists(FINITE_VALUES, min_size=2, max_size=2).map(lambda v: tuple(sorted(v)))
    if kind == "threshold":
        direction = draw(st.sampled_from(["ge", "le"]))
        return [Threshold(draw(FINITE_VALUES), direction) for _ in range(n)]
    if kind == "interval":
        return [Interval(*draw(pair)) for _ in range(n)]
    if kind == "union":
        k = draw(st.integers(0, 3))
        ends = st.sets(FINITE_VALUES, min_size=2 * k, max_size=2 * k).map(sorted)
        return [IntervalUnion(tuple(zip(e[0::2], e[1::2]))) for e in draw(st.lists(
            ends, min_size=n, max_size=n))]
    if kind == "sine":
        return [SineSign(draw(FINITE_VALUES)) for _ in range(n)]
    if kind == "rectangle":
        return [Rectangle(tuple(draw(pair) for _ in range(dim))) for _ in range(n)]
    if kind == "halfspace":
        return [Halfspace(tuple(draw(FINITE_VALUES) for _ in range(dim)), draw(FINITE_VALUES))
                for _ in range(n)]
    table = draw(plane_hypotheses().filter(lambda h: type(h) is LookupTable) if dim == 2 else
                 line_hypotheses().filter(lambda h: type(h) is LookupTable))
    tables = [table]
    for _ in range(n - 1):
        how = draw(st.sampled_from(["same", "equal", "other"]))
        tables.append(table if how == "same" else LookupTable(*dataclasses.astuple(table))
                      if how == "equal" else LookupTable(table.points, table.point_labels,
                                                         1 - table.default))
    return tables


@st.composite
def finite_classes_and_trials(draw):
    """A FiniteClass of 1-5 runs and T = 1-3 samples whose points fall on the
    members' parameters, on sine zeros and on halfplane lines."""
    dim = draw(st.sampled_from([1, 2]))
    members = sum(draw(st.lists(finite_runs(dim), min_size=1, max_size=5)), [])
    rows = draw(st.lists(st.tuples(*[LATTICE] * dim), min_size=1, max_size=8))
    if dim == 1:
        params = [v for h in members if type(h) is not LookupTable
                  for v in np.ravel(h._stack_row()[1]).tolist()]
        rows += [(v,) for v in params]
        rows += [(j * math.pi / h.alpha,) for h in members if type(h) is SineSign and h.alpha
                 for j in (-1, 1, 2)]
    for h in members:
        if type(h) is Halfspace and any(h.weights) and dim == 2:
            w = np.array(h.weights, dtype=float)
            foot = -h.bias * w / (w @ w)
            rows += [tuple(foot + t * np.array([-w[1], w[0]])) for t in (-1.0, 0.5, 3.0)]
    X = np.array(rows, dtype=float)
    T, m = draw(st.integers(1, 3)), len(X)
    XT = np.stack([X[draw(st.permutations(range(m)))] for _ in range(T)])
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=T * m, max_size=T * m)),
                 dtype=np.uint8).reshape(T, m)
    return FiniteClass(tuple(members)), XT, y


class TestFiniteRows:
    """A finite class is stacked and enumerated as rows; each member must
    label, count and serialize as the member it was built from."""

    @settings(max_examples=300, deadline=None)
    @given(finite_classes_and_trials())
    def test_rows_equal_the_members(self, case):
        H, XT, y = case
        stacked = StackedMembers.of(H)
        X = XT[0]
        assert label_matrix(stacked, X).tolist() == [h.labels(X).tolist() for h in H.hypotheses]
        assert trial_error_counts(stacked, XT, y).tolist() == [
            [int(np.count_nonzero(h.labels(Xt) != yt)) for h in H.hypotheses]
            for Xt, yt in zip(XT, y)]
        rebuilt = list(stacked)
        assert rebuilt == list(H.members()) == enumerate_class(H) == list(H.hypotheses)
        assert jsonio.dumps([h.to_json() for h in rebuilt]) == \
            jsonio.dumps([h.to_json() for h in H.hypotheses])
        assert all(r is h for r, h in zip(rebuilt, H.hypotheses) if type(h) is LookupTable)

    def test_union_parts_one_float_apart_are_refused(self):
        # 1/3 and 1/3 + 1e-30 round to one float, where the row's parts touch.
        with pytest.raises(ValueError, match="^intervals must be disjoint and sorted$"):
            IntervalUnion(((0.0, Fraction(1, 3)), (Fraction(1, 3) + Fraction(1, 10 ** 30), 1.0)))

    def test_other_parameter_values_come_back_as_nearest_floats(self):
        # Only a float, or an int below 2^53 in size, survives a float row.
        given = (Threshold(Fraction(1, 3)), Threshold(2 ** 53 + 1), Threshold(1))
        back = list(FiniteClass(given).members())
        assert back == [Threshold(1 / 3), Threshold(float(2 ** 53)), Threshold(1.0)]
        assert [b == g for b, g in zip(back, given)] == [False, False, True]
        assert [jsonio.dumps(b.to_json()) == jsonio.dumps(g.to_json())
                for b, g in zip(back, given)] == [False, False, True]


class TestSerialization:
    HYPS = [
        Threshold(0.25, "le"),
        Interval(0.1, 0.9),
        IntervalUnion(((0.1, 0.2), (0.5, 0.8))),
        Rectangle(((0.0, 0.5), (-1.0, 1.0))),
        Halfspace((0.6, -0.8), 0.1),
        SineSign(12.5),
        LookupTable(((0.0,), (1.0,)), (1, 0), default=1),
    ]

    @pytest.mark.parametrize("h", HYPS, ids=lambda h: type(h).__name__)
    def test_hypothesis_round_trip(self, h):
        back = hypothesis_from_json(json.loads(jsonio.dumps(h.to_json())))
        assert back == h

    def test_class_round_trip(self):
        for H in (
            ThresholdClass(0, 1, ("ge",), grid=GridSpec(((0.1, 0.9),))),
            IntervalClass(0, 1, resolution=7),
            RectangleClass(((0, 1), (0, 1)), resolution=3),
            HalfspaceClass2D(n_angles=4, n_offsets=3),
            FiniteClass((Threshold(0.5),)),
        ):
            back = class_from_json(json.loads(jsonio.dumps(H.to_json())))
            assert enumerate_class(back) == enumerate_class(H)

    def test_sample_json_round_trip(self):
        S = LabeledSample.from_pairs([(0.123456789012345678, 1), (0.7, 0)])
        back = LabeledSample.from_json(json.loads(jsonio.dumps(S.to_json())))
        assert np.array_equal(back.X, S.X)
        assert np.array_equal(back.y, S.y)

    def test_sample_json_without_dim_uses_pairs(self):
        S = LabeledSample.from_json({"pairs": [[[0.1, 0.2], 1]]})
        assert S.dim == 2 and S.m == 1
        with pytest.raises(ValueError, match="explicit dimension"):
            LabeledSample.from_json({"pairs": []})
        with pytest.raises(ValueError, match="declared dim=3"):
            LabeledSample.from_json({"dim": 3, "pairs": [[[0.1], 1]]})

    def test_sample_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        S = LabeledSample(rng.uniform(-3, 3, size=(20, 3)),
                          rng.integers(0, 2, size=20).astype(np.uint8))
        path = tmp_path / "sample.csv"
        S.to_csv(path)
        back = LabeledSample.from_csv(path)
        assert np.array_equal(back.X, S.X)
        assert np.array_equal(back.y, S.y)

    def test_csv_bad_label_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,label\n0.1,0\n0.2,1\n0.3,2\n")
        with pytest.raises(ValueError, match="line 4.*got '2'"):
            LabeledSample.from_csv(path)

    def test_csv_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,label\n0.1,0.2,0\n0.3,1\n")
        with pytest.raises(ValueError, match="line 3"):
            LabeledSample.from_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_csv_non_finite_feature_names_line(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,label\n0.1,0\n{value},1\n")
        with pytest.raises(ValueError, match="line 3: feature values must be finite"):
            LabeledSample.from_csv(path)

    def test_csv_header_required(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            LabeledSample.from_csv(path)


class TestSampleInvariants:
    def test_order_preserved(self):
        S = LabeledSample.from_pairs([(0.9, 1), (0.1, 0), (0.5, 1)])
        assert [float(x[0]) for x, _ in S.pairs()] == [0.9, 0.1, 0.5]
        assert S.m == 3

    def test_arrays_read_only(self):
        S = LabeledSample.from_pairs([(0.1, 0)])
        with pytest.raises(ValueError):
            S.X[0, 0] = 5.0

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            LabeledSample(np.zeros((2, 1)), np.array([0, 2]))

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            LabeledSample.from_pairs([(0.1, 0), ((0.1, 0.2), 1)])


class TestExtensionalEquality:
    def test_duplicates_found_on_probe(self):
        probe = np.array([[0.2], [0.5], [0.8]])
        a, b = Threshold(0.4), Threshold(0.45)  # identical on the probe
        dupes = find_extensional_duplicates([a, b, Threshold(0.6)], probe)
        assert dupes == [(0, 1)]

    def test_finite_class_domain_dedup(self):
        domain = ((0.2,), (0.5,), (0.8,))
        with pytest.raises(ValueError, match="agree on every declared domain point"):
            FiniteClass((Threshold(0.4), Threshold(0.45)), domain=domain)
        FiniteClass((Threshold(0.4), Threshold(0.6)), domain=domain)  # distinct: fine


class TestWeightedClassSequence:
    def test_default_weights_renormalized(self):
        classes = [ThresholdClass(resolution=3)] * 4
        seq = WeightedClassSequence(tuple(classes))
        assert abs(sum(seq.weights) - 1.0) < 1e-12
        assert seq.weights[0] == 2 * seq.weights[1]

    def test_weight_sum_checked(self):
        with pytest.raises(ValueError, match="sum"):
            WeightedClassSequence((ThresholdClass(), ThresholdClass()), (0.9, 0.9))

    def test_positive_weights_required(self):
        with pytest.raises(ValueError, match="positive"):
            WeightedClassSequence((ThresholdClass(),), (0.0,))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            WeightedClassSequence((ThresholdClass(),), (0.5, 0.5))
