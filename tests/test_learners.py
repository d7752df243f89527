import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sltlab import core
from sltlab.core import (
    FiniteClass,
    GridSpec,
    IntervalClass,
    LabeledSample,
    Threshold,
    ThresholdClass,
    WeightedClassSequence,
    empirical_error,
    enumerate_class,
    predict,
)
from sltlab.distributions import DataDistribution, SeedSpec, UniformBox, draw_sample
from sltlab.learners import erm, memorizer, srm, srm_penalty
from sltlab.presets import CLASSES

UNIT = UniformBox(((0.0, 1.0),))


def random_case(rng):
    """A random enumerable class and sample for oracle checks."""
    if rng.random() < 0.5:
        H = ThresholdClass(0.0, 1.0, ("ge", "le") if rng.random() < 0.5 else ("ge",),
                           resolution=int(rng.integers(5, 40)))
    else:
        H = IntervalClass(0.0, 1.0, resolution=int(rng.integers(4, 16)))
    m = int(rng.integers(5, 120))
    X = rng.uniform(0, 1, size=(m, 1))
    y = rng.integers(0, 2, size=m).astype(np.uint8)
    return H, LabeledSample(X, y)


def reference_erm(H, S):
    """Earliest member with the fewest mismatches, one member and one pair at a time."""
    best, best_count = None, None
    for h in enumerate_class(H):
        count = sum(predict(h, x) != y for x, y in S.pairs())
        if best_count is None or count < best_count:
            best, best_count = h, count
    return best, best_count


# Grid and sample points share one coarse lattice, so boundary ties and tied
# minimizers are frequent.
LATTICE = st.sampled_from([i / 8 for i in range(9)])


@st.composite
def erm_cases(draw):
    axis = tuple(sorted(draw(st.sets(LATTICE, min_size=1, max_size=6))))
    kind = draw(st.sampled_from(["thresholds", "intervals", "finite"]))
    if kind == "thresholds":
        directions = draw(st.sampled_from([("ge",), ("le",), ("ge", "le"), ("le", "ge")]))
        H = ThresholdClass(directions=directions, grid=GridSpec((axis,)))
    elif kind == "intervals":
        H = IntervalClass(grid=GridSpec((axis,)))
    else:
        members = draw(st.lists(st.builds(Threshold, LATTICE, st.sampled_from(["ge", "le"])),
                                min_size=1, max_size=8))
        H = FiniteClass(tuple(members))
    pairs = draw(st.lists(st.tuples(LATTICE, st.integers(0, 1)), min_size=1, max_size=30))
    return H, LabeledSample.from_pairs(pairs)


def reference_srm(seq, S, delta, vc_dims):
    """Each class's earliest minimizer, one class at a time; a later position
    replaces the pick only at a strictly lower objective."""
    best = None
    for pos, (cls, w, d) in enumerate(zip(seq.classes, seq.weights, vc_dims), start=1):
        h, count = reference_erm(cls, S)
        err = count / S.m
        obj = err + srm_penalty(d, w, delta, S.m)
        if best is None or obj < best[3]:
            best = (pos, h, err, obj)
    return best


@st.composite
def srm_cases(draw):
    """A class sequence over the lattice with the sample of one erm case.
    Repeated classes with equal weights and dimensions tie across positions."""
    classes, dims = [], []
    for _ in range(draw(st.integers(1, 4))):
        if classes and draw(st.booleans()):
            classes.append(classes[-1])
            dims.append(dims[-1])
        else:
            classes.append(draw(erm_cases())[0])
            dims.append(draw(st.integers(1, 3)))
    S = draw(erm_cases())[1]
    weights = None if draw(st.booleans()) else (1.0 / len(classes),) * len(classes)
    seq = WeightedClassSequence(tuple(classes), weights)
    return seq, S, draw(st.sampled_from([0.05, 0.1, 0.5])), tuple(dims)


class TestErm:
    @settings(max_examples=300, deadline=None)
    @given(erm_cases())
    def test_matches_reference_erm(self, case):
        H, S = case
        out = erm(H, S)
        h, count = reference_erm(H, S)
        assert out.hypothesis == h
        assert out.empirical_error == count / S.m

    def test_realizable_sample_fit_exactly(self):
        D = DataDistribution(UNIT, Threshold(0.47), noise=0.0)
        H = ThresholdClass(0.0, 1.0, ("ge",), resolution=101)
        S = draw_sample(D, 400, SeedSpec(0))
        out = erm(H, S)
        assert out.empirical_error == 0.0

    def test_tie_broken_by_canonical_order(self):
        # both grid members fit the single pair equally well; earlier theta wins
        S = LabeledSample.from_pairs([(0.9, 1), (0.1, 0)])
        H = ThresholdClass(0.0, 1.0, ("ge",), grid=GridSpec(((0.3, 0.6),)))
        outs = {erm(H, S).hypothesis for _ in range(100)}
        assert outs == {Threshold(0.3)}
        # independent scan agrees there is a tie
        errors = [empirical_error(h, S) for h in enumerate_class(H)]
        assert errors[0] == errors[1]

    def test_optimality_oracle_random_cases(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            H, S = random_case(rng)
            out = erm(H, S)
            for h in enumerate_class(H):
                assert empirical_error(h, S) >= out.empirical_error - 1e-15

    def test_constant_shift_preserves_argmin(self):
        # minimizing error + c over the class returns the same member for any c
        rng = np.random.default_rng(5)
        H, S = random_case(rng)
        out = erm(H, S)
        for c in (0.0, 0.37, 2.5):
            best = min(enumerate_class(H), key=lambda h: empirical_error(h, S) + c)
            assert empirical_error(best, S) + c == pytest.approx(
                out.empirical_error + c, abs=1e-15
            )

    def test_empty_sample_rejected(self):
        H = ThresholdClass(resolution=5)
        with pytest.raises(ValueError, match="nonempty"):
            erm(H, LabeledSample.from_pairs([], dim=1))

    def test_reported_error_matches_recomputation(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            H, S = random_case(rng)
            out = erm(H, S)
            assert out.empirical_error == empirical_error(out.hypothesis, S)

    def test_intervals_are_counted_from_endpoint_thresholds(self, monkeypatch):
        # The 561 intervals of a 33-value grid are counted from one "ge" and
        # one "le" threshold row per grid value, 66 rows in all.
        labelled = []

        def fill_labels(out, runs, X, start):
            for a, b, (typ, _), *_ in runs:
                labelled.extend([typ] * (min(b, start + len(out)) - max(a, start)))
            fill(out, runs, X, start)

        H = CLASSES["intervals"]
        S = draw_sample(DataDistribution(UNIT, Threshold(0.5), 0.2), 200, SeedSpec(3, "erm"))
        fill = core._fill_labels
        monkeypatch.setattr(core, "_fill_labels", fill_labels)
        out = erm(H, S)
        monkeypatch.undo()
        assert H.size() == 561 and labelled == [Threshold] * 66
        assert out.empirical_error == min(empirical_error(h, S) for h in enumerate_class(H))


TIED_GRID = GridSpec(((0.25, 0.5),))


class TestSrm:
    # the pinned example ties inside each class and across the two positions
    @settings(max_examples=300, deadline=None)
    @example((WeightedClassSequence((ThresholdClass(grid=TIED_GRID),) * 2, (0.5, 0.5)),
              LabeledSample.from_pairs([(0.9, 1), (0.1, 0)]), 0.1, (1, 1)))
    @given(srm_cases())
    def test_matches_reference_srm(self, case):
        seq, S, delta, dims = case
        out = srm(seq, S, delta, vc_dims=dims)
        assert (out.class_index, out.hypothesis, out.empirical_error, out.objective) == \
            reference_srm(seq, S, delta, dims)

    def test_single_class_equals_erm(self):
        H = ThresholdClass(0.0, 1.0, ("ge",), resolution=21)
        seq = WeightedClassSequence((H,), (1.0,))
        D = DataDistribution(UNIT, Threshold(0.5), noise=0.1)
        S = draw_sample(D, 80, SeedSpec(3))
        a, b = erm(H, S), srm(seq, S, delta=0.1)
        assert a.hypothesis == b.hypothesis
        assert b.class_index == 1

    def test_nested_grids_select_first_class_at_large_m(self):
        grids = [
            (0.0, 0.5, 1.0),
            (0.0, 0.25, 0.5, 0.75, 1.0),
            tuple(i / 8 for i in range(9)),
        ]
        seq = WeightedClassSequence(
            tuple(ThresholdClass(0.0, 1.0, ("ge",), grid=GridSpec((g,))) for g in grids)
        )
        D = DataDistribution(UNIT, Threshold(0.5), noise=0.1)
        S = draw_sample(D, 3000, SeedSpec(11))
        out = srm(seq, S, delta=0.1)
        assert out.class_index == 1

    def test_objective_recomputable_to_1e12(self):
        from sltlab.presets import SEQUENCES

        seq = SEQUENCES["nested-thresholds"]
        D = DataDistribution(UNIT, Threshold(0.5), noise=0.1)
        S = draw_sample(D, 60, SeedSpec(21))
        out = srm(seq, S, delta=0.1)
        pen = srm_penalty(
            out.penalty_config["vc_dims"][out.class_index - 1],
            seq.weights[out.class_index - 1],
            0.1,
            S.m,
            C=out.penalty_config["C"],
        )
        assert abs(out.objective - (out.empirical_error + pen)) < 1e-12

    def test_dominance_oracle(self):
        # reported objective is minimal over every enumerated (class, member)
        from sltlab.presets import SEQUENCES

        seq = SEQUENCES["nested-thresholds"]
        D = DataDistribution(UNIT, Threshold(0.5), noise=0.2)
        S = draw_sample(D, 45, SeedSpec(31))
        out = srm(seq, S, delta=0.1)
        for pos, (cls, w) in enumerate(zip(seq.classes, seq.weights), start=1):
            pen = srm_penalty(cls.vc_dim_hint, w, 0.1, S.m, C=2.0)
            for h in enumerate_class(cls):
                assert empirical_error(h, S) + pen >= out.objective - 1e-12
        # the selected member really belongs to the reported class position
        assert out.hypothesis in enumerate_class(seq.classes[out.class_index - 1])

    def test_penalty_guard(self):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            srm_penalty(1, 2.0, 0.6, 100)  # w * delta >= 1
        with pytest.raises(ValueError, match="C must be positive"):
            srm_penalty(1, 1.0, 0.1, 100, C=0.0)

    def test_delta_range_checked(self):
        seq = WeightedClassSequence((ThresholdClass(resolution=3),), (1.0,))
        S = LabeledSample.from_pairs([(0.5, 1)])
        with pytest.raises(ValueError, match="delta"):
            srm(seq, S, delta=1.0)

    def test_unknown_dimension_needs_explicit_dims(self):
        H = FiniteClass((Threshold(0.2), Threshold(0.8)))
        seq = WeightedClassSequence((H,), (1.0,))
        S = LabeledSample.from_pairs([(0.5, 1), (0.1, 0)])
        with pytest.raises(ValueError, match="vc_dims"):
            srm(seq, S, delta=0.1)
        out = srm(seq, S, delta=0.1, vc_dims=(1,))
        assert out.class_index == 1

    def test_deterministic(self):
        from sltlab.presets import SEQUENCES

        seq = SEQUENCES["nested-thresholds"]
        D = DataDistribution(UNIT, Threshold(0.5), noise=0.1)
        S = draw_sample(D, 64, SeedSpec(77))
        a = srm(seq, S, delta=0.1)
        b = srm(seq, S, delta=0.1)
        assert a == b


class TestMemorizer:
    def test_full_coverage_zero_error(self):
        pts = [(float(i), i % 2) for i in range(10)]
        S = LabeledSample.from_pairs(pts)
        h = memorizer(S)
        assert empirical_error(h, S) == 0.0

    def test_unseen_gets_default(self):
        S = LabeledSample.from_pairs([(0.0, 1)])
        assert predict(memorizer(S, default=0), 5.0) == 0
        assert predict(memorizer(S, default=1), 5.0) == 1

    def test_tie_gets_default(self):
        S = LabeledSample.from_pairs([(2.0, 0), (2.0, 1)])
        assert predict(memorizer(S, default=0), 2.0) == 0
        assert predict(memorizer(S, default=1), 2.0) == 1

    def test_majority_wins(self):
        S = LabeledSample.from_pairs([(3.0, 1), (3.0, 1), (3.0, 0)])
        assert predict(memorizer(S, default=0), 3.0) == 1
