import itertools
import json
import math
import re

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
    the reference."""
    axes = H.resolve_grid().axes
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


# Grid axis values: repeats and any order, including -0.0.
AXIS = st.lists(st.sampled_from([-0.0, 0.0, 0.125, 0.5, 0.75, 1.0, 2.5, -1.0]),
                min_size=1, max_size=6)


@st.composite
def grid_classes(draw):
    """A grid family of each kind on explicit grid axes: unsorted and
    repeated values, both threshold directions, unions with k = 1-3 and
    boxes with d = 1-3."""
    family = draw(st.sampled_from(["thresholds", "intervals", "unions", "rectangles",
                                   "halfspaces", "sine"]))
    if family == "thresholds":
        directions = draw(st.sampled_from([("ge",), ("le",), ("ge", "le"), ("le", "ge"),
                                           ("ge", "ge")]))
        return ThresholdClass(directions=directions, grid=GridSpec((draw(AXIS),)))
    if family == "intervals":
        return IntervalClass(grid=GridSpec((draw(AXIS),)))
    if family == "unions":
        return IntervalUnionClass(k=draw(st.integers(1, 3)), grid=GridSpec((draw(AXIS),)))
    if family == "rectangles":
        d = draw(st.integers(1, 3))
        axes = tuple(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1,
                                   max_size=4 if d < 3 else 3)) for _ in range(d))
        return RectangleClass(bounds=((0.0, 1.0),) * d, grid=GridSpec(axes))
    if family == "halfspaces":
        angles = draw(st.lists(st.sampled_from([j * math.pi / 6 for j in range(12)]),
                               min_size=1, max_size=5))
        return HalfspaceClass2D(grid=GridSpec((angles, draw(AXIS))))
    return SineClass(grid=GridSpec((draw(AXIS),)))


def bits(P: np.ndarray) -> list:
    return P.view(np.int64).tolist()


class TestGridRows:
    """A grid family's parameter rows against the members the per-family
    generators built."""

    @settings(max_examples=400, deadline=None)
    @given(grid_classes())
    @example(IntervalUnionClass(k=3, resolution=2))  # no chain fits: an empty class
    @example(RectangleClass(bounds=((0, 1),) * 3, resolution=4))
    @example(HalfspaceClass2D())
    def test_rows_equal_the_reference_members(self, H):
        try:
            expected, error = reference_members(H), None
        except ValueError as exc:
            error = str(exc)
        if error is not None:
            # The first member that cannot be built fails before any is built.
            for build in (StackedMembers.of, enumerate_class, lambda H: next(H.members())):
                with pytest.raises(ValueError) as info:
                    build(H)
                assert str(info.value) == error
            return
        stacked = StackedMembers.of(H)
        members = list(H.members())
        assert len(stacked) == len(members) == H.size() == len(expected)
        assert list(stacked) == members == enumerate_class(H) == expected
        assert [repr(h) for h in members] == [repr(h) for h in expected]
        assert [h.to_json() for h in members] == [h.to_json() for h in expected]
        reference_runs = core._label_runs(expected)
        assert [run[:3] for run in stacked._runs] == [run[:3] for run in reference_runs]
        for (*_, P, first), (*_, Q, reference_first) in zip(stacked._runs, reference_runs):
            assert P.shape == Q.shape and bits(P) == bits(Q)
            assert not P.flags.writeable
            assert repr(first) == repr(reference_first)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(grid_classes(), min_size=1, max_size=4))
    def test_a_sequence_stacks_as_its_members_in_order(self, classes):
        try:
            expected = [h for H in classes for h in reference_members(H)]
        except ValueError:
            return
        stacked = StackedMembers.of(*classes)
        assert list(stacked) == expected
        reference_runs = core._label_runs(expected)
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

    def test_budget_is_checked_before_rows_are_built(self, monkeypatch):
        H = RectangleClass(bounds=((0, 1),) * 3, resolution=40)
        monkeypatch.setattr(RectangleClass, "_param_runs", lambda self: pytest.fail("built"))
        with pytest.raises(EnumerationBudgetError, match="requires 551368000 hypotheses"):
            StackedMembers.of(H)


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
