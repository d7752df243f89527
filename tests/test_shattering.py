import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sltlab import jsonio, shattering
from sltlab.core import (
    FiniteClass,
    GridSpec,
    LookupTable,
    RectangleClass,
    SineSign,
    ThresholdClass,
    enumerate_class,
    label_matrix,
)
from sltlab.presets import CLASSES, POOLS
from sltlab.shattering import (
    MAX_SINE_POINTS,
    Dichotomy,
    PointSetError,
    VcReport,
    restriction,
    shatters,
    sine_shatter_witness,
    vc_dimension,
    verify_certificate,
)


def pts(*values):
    arr = np.asarray(values, dtype=float)
    return arr[:, None] if arr.ndim == 1 else arr


class TestRestriction:
    def test_both_directions_one_point(self):
        H = ThresholdClass(0.0, 1.0, ("ge", "le"), resolution=21)
        assert restriction(H, pts(0.5)) == {(0,), (1,)}

    def test_one_direction_misses_ten(self):
        H = ThresholdClass(0.0, 1.0, ("ge",), resolution=41)
        assert restriction(H, pts(0.3, 0.7)) == {(0, 0), (0, 1), (1, 1)}

    def test_counting_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            X = rng.uniform(0, 1, size=(k, 1))
            r = restriction(CLASSES["intervals"], X)
            assert len(r) <= 2 ** k

    def test_permutation_of_points_permutes_patterns(self):
        X = pts(0.2, 0.5, 0.8)
        r = restriction(CLASSES["intervals"], X)
        perm = [2, 0, 1]
        r_perm = restriction(CLASSES["intervals"], X[perm])
        assert r_perm == {tuple(pattern[i] for i in perm) for pattern in r}

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            restriction(CLASSES["intervals"], np.empty((0, 1)))

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            restriction(CLASSES["intervals"], pts(0.5, 0.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("search", [restriction, shatters, vc_dimension])
    def test_non_finite_points_rejected(self, search, bad):
        for X in (pts(bad, 0.5), pts(bad, bad), pts(bad)):
            with pytest.raises(PointSetError, match=f"must be finite, got {bad}"):
                search(CLASSES["intervals"], X)


class TestShatters:
    def test_intervals_cannot_do_one_zero_one(self):
        assert not shatters(CLASSES["intervals"], pts(0.2, 0.5, 0.8))

    def test_intervals_shatter_pairs(self):
        assert shatters(CLASSES["intervals"], pts(0.3, 0.7))

    def test_empty_set_trivially_shattered(self):
        assert shatters(CLASSES["intervals"], np.empty((0, 1)))

    def test_downward_closure(self):
        rng = np.random.default_rng(13)
        checked = 0
        for _ in range(40):
            X = rng.uniform(0.02, 0.98, size=(rng.integers(2, 4), 1))
            if len(np.unique(X)) < len(X) or not shatters(CLASSES["intervals"], X):
                continue
            checked += 1
            for size in range(1, len(X)):
                for combo in itertools.combinations(range(len(X)), size):
                    assert shatters(CLASSES["intervals"], X[list(combo)])
        assert checked >= 5


class TestVcDimension:
    def test_finite_class_log_bound(self):
        rng = np.random.default_rng(5)
        domain = tuple((float(i),) for i in range(6))
        members = []
        seen = set()
        while len(members) < 8:
            labs = tuple(int(v) for v in rng.integers(0, 2, size=6))
            if labs not in seen:
                seen.add(labs)
                members.append(LookupTable(domain, labs))
        H = FiniteClass(tuple(members))
        rep = vc_dimension(H, np.asarray(domain))
        assert rep.value <= 3  # 2^d <= |H| = 8

    def test_class_monotonicity_on_nested_grids(self):
        pool = POOLS["thresholds"]
        coarse = ThresholdClass(0, 1, ("ge",), grid=GridSpec(((0.0, 0.5, 1.0),)))
        fine = ThresholdClass(0, 1, ("ge",), grid=GridSpec(((0.0, 0.25, 0.5, 0.75, 1.0),)))
        assert vc_dimension(coarse, pool).value <= vc_dimension(fine, pool).value

    def test_budget_truncation_reports_lower_bound(self):
        rep = vc_dimension(CLASSES["intervals"], POOLS["intervals"], subset_budget=25)
        assert not rep.exact
        assert rep.marker().startswith(">=")
        assert rep.marker().endswith("(budget exhausted)")

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            vc_dimension(CLASSES["intervals"], np.empty((0, 1)))

    def test_certificate_soundness_detects_corruption(self):
        rep = vc_dimension(CLASSES["intervals"], POOLS["intervals"])
        assert verify_certificate(rep)
        bad_pair = (rep.certificate[0][0], SineSign(1.0))
        corrupted = VcReport(
            rep.value, rep.exact, rep.witness,
            (bad_pair,) + rep.certificate[1:],
            rep.pool_size, rep.subsets_tested,
        )
        assert not verify_certificate(corrupted)

    def test_report_json_round_trip_replays(self):
        rep = vc_dimension(CLASSES["thresholds"], POOLS["thresholds"])
        back = VcReport.from_json(json.loads(jsonio.dumps(rep.to_json())))
        assert back.value == rep.value
        assert verify_certificate(back)

    def test_both_direction_thresholds_reach_two(self):
        # brute force: adding the mirrored direction raises the dimension to 2
        rep = vc_dimension(CLASSES["thresholds-both"], POOLS["thresholds-both"])
        assert rep.value == 2
        assert verify_certificate(rep)


def interval_mid_pool(seed: int) -> np.ndarray:
    """26 of the midpoints between neighbouring points of the intervals
    preset's grid, chosen and ordered by the seed."""
    axis = np.array(CLASSES["intervals"].resolve_grid().axes[0])
    mids = (axis[:-1] + axis[1:]) / 2
    return mids[np.random.default_rng([seed, 1]).choice(len(mids), size=26, replace=False)][:, None]


BOX_3D = RectangleClass(bounds=((0, 1),) * 3, resolution=5)
BOX_3D_POOL = [[0.5, 0.5, 0.1], [0.5, 0.5, 0.9], [0.5, 0.1, 0.5], [0.5, 0.9, 0.5],
               [0.1, 0.5, 0.5], [0.9, 0.5, 0.5], [0.3, 0.3, 0.3], [0.7, 0.7, 0.7]]

# sha256 of the report JSON as written when every grid member was built as
# an object and halfplanes were labelled one product per member.
VC_REPORT_DIGESTS = {
    "thresholds": "827b9127ae480651d47d2ffb3b818fb8efb8905f701f79ac6835930820b0b8f3",
    "thresholds-both": "86a92e03c917158ccf665b3989b1ccf8d8661b293cd720e8320e36a5dd67d87a",
    "intervals": "f65f52835a64be75a95e553b4dcc56f2373954217f095c9c997be28fe4cdfca4",
    "interval-unions-2": "30b5716182e77640570b181a322f08f0e8f5c12c5a491c1a0d2e02ea589bddc3",
    "rectangles2d": "0ffd6289cd641ee301c0f5d7209f321e57eae87e1c08e641de36e146c1fbe9c9",
    "halfspaces2d": "6c03d380159a86cbe7333d91035af97208076254a8506cdcf0ae92d18349f1c5",
    "intervals-26-0": "8b5126526c53e6580d35653e5d9a8faa7fb3625596ebeb679dddd896f325783c",
    "intervals-26-71": "8b062b1aa626ad9404d16849f88d6fedb786b358be765c6c399d854383b2a242",
    "box-3d": "3be006c8baf2b85e07b982a5ce885d37310ecfac27d3a42d1174b92eb05f6eed",
}


@pytest.mark.parametrize("name", sorted(VC_REPORT_DIGESTS))
def test_report_bytes_are_pinned(name):
    if name == "box-3d":
        H, pool = BOX_3D, BOX_3D_POOL
    elif name.startswith("intervals-26-"):
        H, pool = CLASSES["intervals"], interval_mid_pool(int(name.rsplit("-", 1)[1]))
    else:
        H, pool = CLASSES[name], POOLS[name]
    report = vc_dimension(H, pool)
    assert hashlib.sha256(jsonio.dumps(report.to_json()).encode()).hexdigest() == \
        VC_REPORT_DIGESTS[name]
    if name == "box-3d":
        assert (H.size(), report.value) == (3375, 6)


def reference_search(L: np.ndarray, subset_budget: int):
    """The per-subset ``np.unique`` search that the packed codes replaced, on
    a (members, points) label matrix: (value, exact, subsets tested, witness
    indices, {labeling: earliest realizing member})."""
    n_members, n_pts = L.shape
    max_k = min(n_pts, int(math.floor(math.log2(n_members))) if n_members > 1 else 0)
    best_combo, best_first, tested, exact = (), {}, 0, True
    k = 1
    while k <= max_k:
        found = None
        for combo in itertools.combinations(range(n_pts), k):
            if tested >= subset_budget:
                exact = False
                break
            tested += 1
            patterns, first_idx = np.unique(L[:, combo], axis=0, return_index=True)
            if len(patterns) == 2 ** k:
                found = (combo, {tuple(int(b) for b in p): int(i)
                                 for p, i in zip(patterns, first_idx)})
                break
        if found is None:
            break
        best_combo, best_first = found
        k += 1
    return len(best_combo), exact, tested, best_combo, best_first


def assert_search_matches_reference(H, pool, L, subset_budget, per_block):
    """vc_dimension, by member bitsets and then by packed codes, against the
    reference search on the label matrix L of H's members on the pool.  The
    block cap holds ``per_block`` subsets' codes, and so, for bitsets, a
    number of subsets that falls as 2^k grows."""
    members = enumerate_class(H)
    value, exact, tested, combo, first = reference_search(L, subset_budget)
    for bitsets in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(shattering, "CODE_BLOCK_CELLS", len(members) * per_block)
            mp.setattr(shattering, "_prefers_bitsets", lambda n_members, k: bitsets)
            rep = vc_dimension(H, pool, subset_budget=subset_budget)
        assert (rep.value, rep.exact, rep.subsets_tested) == (value, exact, tested)
        assert rep.witness == tuple(tuple(float(c) for c in pool[i]) for i in combo)
        assert [(d.labeling, h) for d, h in rep.certificate] == [
            (labeling, members[i]) for labeling, i in sorted(first.items())]
        assert verify_certificate(rep)


def tagged_class(L: np.ndarray) -> FiniteClass:
    """Lookup tables labelling the points 0, 1, ... as the rows of L.  Hidden
    points past them spell each member's index, so members with equal labels
    on those points are still different hypotheses."""
    n_members, n_pts = L.shape
    tags = max(1, (n_members - 1).bit_length())
    domain = tuple((float(v),) for v in range(n_pts + tags))
    return FiniteClass(tuple(
        LookupTable(domain, tuple(int(b) for b in row) + tuple((i >> t) & 1 for t in range(tags)))
        for i, row in enumerate(L)))


@st.composite
def label_matrices(draw):
    """A random 0/1 (members, points) matrix whose rows repeat, so that the
    earliest realizing member is what the certificate must pick."""
    n_pts = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=n_pts, max_size=n_pts),
                         min_size=1, max_size=10))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=24))
    return np.array([rows[i] for i in picks], dtype=np.uint8)


class TestPackedSearchAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(label_matrices(), st.integers(-2, 70), st.integers(1, 7))
    def test_random_label_matrices(self, L, subset_budget, per_block):
        pool = np.arange(L.shape[1], dtype=float)[:, None]
        assert_search_matches_reference(tagged_class(L), pool, L, subset_budget, per_block)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["thresholds-both", "intervals", "rectangles2d", "halfspaces2d"]),
           st.data(), st.integers(1, 400), st.integers(1, 7))
    def test_random_pools_of_preset_classes(self, name, data, subset_budget, per_block):
        H, full = CLASSES[name], POOLS[name]
        rows = data.draw(st.lists(st.integers(0, len(full) - 1), min_size=1, max_size=8,
                                  unique=True))
        pool = full[rows]
        L = label_matrix(enumerate_class(H), pool)
        assert_search_matches_reference(H, pool, L, subset_budget, per_block)
        assert shatters(H, pool) == (len(restriction(H, pool)) == 2 ** len(pool))

    @pytest.mark.parametrize("n_members", [63, 64, 65])
    @pytest.mark.parametrize("missing", list(itertools.product((0, 1), repeat=3)))
    def test_pad_bits_never_realize_a_pattern(self, n_members, missing):
        # Members cycle through every labeling of 3 points but one, so no
        # 3-subset is shattered; a set pad bit past the last member would
        # realize the missing labeling in either bitset.
        patterns = [p for p in itertools.product((0, 1), repeat=3) if p != missing]
        L = np.array([patterns[i % len(patterns)] for i in range(n_members)], dtype=np.uint8)
        H, pool = tagged_class(L), np.arange(3, dtype=float)[:, None]
        assert_search_matches_reference(H, pool, L, 100, 2)
        assert shattering._member_bitsets(L).shape[1] == -(-n_members // 64)
        assert not shatters(H, pool)
        assert shatters(H, pool[:2])

    @pytest.mark.parametrize("k", [9, 10])
    def test_codes_decide_large_subsets(self, k):
        # 2^k + 1 members on k points: every labeling once plus a repeat, and
        # then every labeling but the first, plus two repeats.
        assert not shattering._prefers_bitsets(2 ** k + 1, k)
        every = np.array(list(itertools.product((0, 1), repeat=k)), dtype=np.uint8)
        pool = np.arange(k, dtype=float)[:, None]
        full = np.vstack([every, every[:1]])
        assert shatters(tagged_class(full), pool)
        short = np.vstack([every[1:], every[1:3]])
        assert not shatters(tagged_class(short), pool)
        rep = vc_dimension(tagged_class(short), pool)
        assert (rep.value, rep.exact) == (k - 1, True)
        assert verify_certificate(rep)


class TestDichotomy:
    def test_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            Dichotomy(((0.0,),), (0, 1))
        with pytest.raises(ValueError, match="distinct"):
            Dichotomy(((0.0,), (0.0,)), (0, 1))


class TestSineWitness:
    def test_k1_both_labelings(self):
        rep = sine_shatter_witness(1)
        assert rep.complete
        assert {lab for lab, _ in rep.entries} == {(0,), (1,)}

    def test_k3_all_eight(self):
        rep = sine_shatter_witness(3)
        assert rep.complete
        assert len(rep.entries) == 8
        assert rep.points == (0.1, 0.01, 0.001)

    def test_k6_all_64_verified(self):
        rep = sine_shatter_witness(6)
        assert rep.complete
        X = np.asarray(rep.points)[:, None]
        for labeling, alpha in rep.entries:
            assert tuple(int(v) for v in SineSign(alpha).labels(X)) == labeling

    def test_k_above_cap_rejected(self):
        with pytest.raises(ValueError, match="maximum"):
            sine_shatter_witness(9)

    @pytest.mark.parametrize("k", range(1, MAX_SINE_POINTS + 1))
    def test_closed_form_is_complete_and_replays(self, k):
        rep = sine_shatter_witness(k)
        assert rep.complete and rep.failed == ()
        assert rep.points == tuple(10.0 ** -i for i in range(1, k + 1))
        assert [lab for lab, _ in rep.entries] == list(itertools.product((0, 1), repeat=k))
        X = np.asarray(rep.points)[:, None]
        for labeling, alpha in rep.entries:
            assert alpha == math.pi * (1 + sum(10 ** i for i, y in enumerate(labeling, 1)
                                               if y == 0))
            assert tuple(int(v) for v in SineSign(alpha).labels(X)) == labeling
