"""Every lookup of a row in a table and every grouping of equal rows goes
through one numpy grouping (core._first_equal).  Each rewritten function is
compared here with the per-row dict code it replaced, kept frozen below:
lookup-table labels, ConditionalTable.prob1, the support check of a
conditional-table distribution, the memorizer and the extensional duplicate
check.  Points and rows are drawn from a few values that include -0.0
against 0.0 and integers, with rows off the table, empty tables, repeated
instances and label ties."""

from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sltlab import jsonio
from sltlab.core import (
    FiniteClass,
    LabeledSample,
    LookupTable,
    StackedMembers,
    find_extensional_duplicates,
    label_matrix,
)
from sltlab.distributions import ConditionalTable, DataDistribution, FiniteUniform
from sltlab.experiments import all_functions_class
from sltlab.learners import memorizer


def reference_labels(h: LookupTable, X) -> list[int]:
    table = dict(zip(h.points, h.point_labels))
    return [table.get(tuple(row), h.default) for row in X]


def reference_prob1(table: ConditionalTable, X) -> np.ndarray:
    entries = dict(zip(table.points, table.p1))
    out = np.empty(len(X), dtype=float)
    for i, row in enumerate(X):
        key = tuple(row)
        if key not in entries:
            raise ValueError(f"conditional table has no entry for instance {key}")
        out[i] = entries[key]
    return out


def reference_support_check(table: ConditionalTable, pts: np.ndarray) -> None:
    have = set(table.points)
    missing = [tuple(p) for p in pts.tolist() if tuple(p) not in have]
    if missing:
        raise ValueError(f"conditional table is missing support points {missing[:3]}")


def reference_memorizer(S: LabeledSample, default: int) -> LookupTable:
    counts: dict[tuple, list[int]] = defaultdict(lambda: [0, 0])
    order: list[tuple] = []
    for x, y in S.pairs():
        key = tuple(float(v) for v in x)
        if key not in counts:
            order.append(key)
        counts[key][y] += 1
    labels = []
    for key in order:
        zeros, ones = counts[key]
        labels.append(default if zeros == ones else int(ones > zeros))
    if not order:
        raise ValueError("the sample must be nonempty")
    return LookupTable(tuple(order), tuple(labels), default)


def reference_duplicates(hypotheses, probe) -> list[tuple[int, int]]:
    seen: dict[bytes, int] = {}
    dupes = []
    for idx, row in enumerate(label_matrix(hypotheses, probe)):
        key = row.tobytes()
        if key in seen:
            dupes.append((seen[key], idx))
        else:
            seen[key] = idx
    return dupes


def outcome(f, *args):
    """("ok", value) or ("error", message) of f(*args)."""
    try:
        return "ok", f(*args)
    except ValueError as exc:
        return "error", str(exc)


# Few values, so rows often repeat, hit a point or miss it; -0.0 and 0.0 are
# one point, and so are the int 2 and the float 2.0.
COORD = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2, 2.0, 3])
LABEL = st.integers(0, 1)


def point_lists(dim, min_size=0, max_size=5):
    # unique compares points as dict keys do, as the constructors do
    return st.lists(st.tuples(*[COORD] * dim), min_size=min_size, max_size=max_size,
                    unique=True)


@st.composite
def rows_near(draw, points, dim):
    """An (n, dim) matrix of rows that repeat the points, with each zero's
    sign drawn again, and rows off the table; float or integer dtype."""
    def near(p):
        return tuple(-0.0 if v == 0 and draw(st.booleans()) else v for v in p)
    pool = st.sampled_from([near(p) for p in points]) if points else st.nothing()
    rows = draw(st.lists(pool | st.tuples(*[COORD] * dim), max_size=12))
    X = np.array(rows, dtype=float).reshape(len(rows), dim)
    if draw(st.booleans()) and np.array_equal(X, np.round(X)):
        X = X.astype(np.int64)
    return X


@st.composite
def tables_and_rows(draw):
    dim = draw(st.integers(1, 2))
    points = draw(point_lists(dim))
    dim = dim if points else 1  # an empty table is on the line
    labels = draw(st.lists(LABEL, min_size=len(points), max_size=len(points)))
    return LookupTable(tuple(points), tuple(labels), draw(LABEL)), draw(rows_near(points, dim))


@st.composite
def conditional_tables_and_rows(draw):
    dim = draw(st.integers(1, 2))
    points = draw(point_lists(dim))
    p1 = draw(st.lists(st.sampled_from([0.0, 0.25, 1 / 3, 1]), min_size=len(points),
                       max_size=len(points)))
    return ConditionalTable(tuple(points), tuple(p1)), draw(rows_near(points, dim)), dim


@st.composite
def samples(draw):
    dim = draw(st.integers(1, 2))
    rows = draw(st.lists(st.tuples(*[COORD] * dim), min_size=1, max_size=20))
    labels = draw(st.lists(LABEL, min_size=len(rows), max_size=len(rows)))
    return LabeledSample(np.array(rows, dtype=float), np.array(labels)), draw(LABEL)


class TestAgainstPerRowDicts:
    @settings(max_examples=300, deadline=None)
    @given(tables_and_rows())
    def test_lookup_labels(self, case):
        h, X = case
        expected = reference_labels(h, X)
        assert h.labels(X).tolist() == expected
        assert label_matrix([h, h], X).tolist() == [expected, expected]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_tables_on_one_domain_stack_and_come_back(self, data):
        h, X = data.draw(tables_and_rows())
        n = len(h.points)
        others = data.draw(st.lists(st.tuples(st.lists(LABEL, min_size=n, max_size=n), LABEL),
                                    max_size=4))
        # tables on equal points whose zeros carry other signs: the same
        # points to a lookup, but other JSON bytes
        flipped = tuple(tuple(-v if v == 0 else v for v in p) for p in h.points)
        members = [h] + [LookupTable(points, tuple(labels), default)
                         for points in (h.points, flipped) for labels, default in others]
        stacked = StackedMembers.of(FiniteClass(tuple(members)))
        assert label_matrix(stacked, X).tolist() == [reference_labels(g, X) for g in members]
        rebuilt = list(stacked)
        assert rebuilt == members
        assert jsonio.dumps([g.to_json() for g in rebuilt]) == \
            jsonio.dumps([g.to_json() for g in members])

    @settings(max_examples=300, deadline=None)
    @given(conditional_tables_and_rows())
    def test_prob1(self, case):
        table, X, _ = case
        got, expected = outcome(table.prob1, X), outcome(reference_prob1, table, X)
        assert got[0] == expected[0]
        if got[0] == "ok":
            assert got[1].tobytes() == expected[1].tobytes()
        else:
            assert got[1] == expected[1]

    @settings(max_examples=300, deadline=None)
    @given(conditional_tables_and_rows(), st.data())
    def test_support_check(self, case, data):
        table, _, dim = case
        support = data.draw(point_lists(data.draw(st.sampled_from([dim, 3 - dim])), 1, 6))
        marginal = FiniteUniform(tuple(support))
        got = outcome(DataDistribution, marginal, table)
        expected = outcome(reference_support_check, table, marginal.support()[0])
        assert got[0] == expected[0]
        if got[0] == "error":
            assert got[1] == expected[1]

    @settings(max_examples=300, deadline=None)
    @given(samples())
    def test_memorizer(self, case):
        S, default = case
        got, expected = memorizer(S, default), reference_memorizer(S, default)
        assert got == expected
        # the first-seen coordinates, so the same sign of each zero
        assert jsonio.dumps(got.to_json()) == jsonio.dumps(expected.to_json())

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_duplicates(self, data):
        h, X = data.draw(tables_and_rows())
        n = len(h.points)
        # few labels over few points, so members often agree on the probe
        members = [h] + [LookupTable(h.points, tuple(labels), default) for labels, default in
                         data.draw(st.lists(st.tuples(st.lists(LABEL, min_size=n, max_size=n),
                                                      LABEL), max_size=6))]
        assert find_extensional_duplicates(members, X) == reference_duplicates(members, X)


class TestGrouping:
    def test_every_function_on_a_domain_is_one_run(self):
        H = all_functions_class(np.arange(5.0)[:, None])
        stacked = StackedMembers.of(H)
        assert len(stacked._runs) == 1
        assert list(stacked) == list(H.hypotheses)

    def test_a_zero_of_another_sign_starts_a_run(self):
        members = (LookupTable(((0.0,),), (1,)), LookupTable(((-0.0,),), (0,)),
                   LookupTable(((-0.0,),), (1,)))
        stacked = StackedMembers(members)
        assert [run[:2] for run in stacked._runs] == [(0, 1), (1, 3)]
        assert [jsonio.dumps(h.to_json()) for h in stacked] == \
            [jsonio.dumps(h.to_json()) for h in members]
        assert label_matrix(stacked, np.array([[0.0], [-0.0], [1.0]])).tolist() == \
            [[1, 1, 0], [0, 0, 0], [1, 1, 0]]

    def test_duplicates_name_the_first_equal_member(self):
        domain = ((0.0,), (1.0,))
        members = [LookupTable(domain, labels) for labels in ((0, 1), (1, 1), (0, 1), (0, 1))]
        assert find_extensional_duplicates(members, np.array(domain)) == [(0, 2), (0, 3)]
        assert find_extensional_duplicates(members, np.empty((0, 1))) == [(0, 1), (0, 2), (0, 3)]

    def test_memorizer_ties_take_the_default(self):
        S = LabeledSample(np.array([[0.0], [-0.0], [1.0], [1.0], [1.0]]), [0, 1, 1, 0, 1])
        assert memorizer(S, 1) == LookupTable(((0.0,), (1.0,)), (1, 1), 1)
        assert memorizer(S, 0) == LookupTable(((0.0,), (1.0,)), (0, 1), 0)
        with pytest.raises(ValueError, match="^the sample must be nonempty$"):
            memorizer(LabeledSample(np.empty((0, 1)), []))

    @pytest.mark.parametrize("points", [
        ((Fraction(1, 3),), (1 / 3,)),
        ((2 ** 53,), (2 ** 53 + 1,)),
        ((0.0, 1), (-0.0, 1.0)),
    ])
    def test_points_equal_as_floats_are_one_point(self, points):
        # a lookup could never tell them apart
        with pytest.raises(ValueError, match="^lookup points must be distinct$"):
            LookupTable(points, (0, 1))
        with pytest.raises(ValueError, match="^conditional table points must be distinct$"):
            ConditionalTable(points, (0.5, 0.5))
