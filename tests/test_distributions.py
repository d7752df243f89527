import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sltlab import distributions, jsonio
from sltlab.core import (
    GridSpec,
    Halfspace,
    Interval,
    IntervalUnion,
    LookupTable,
    Rectangle,
    SineSign,
    Threshold,
    ThresholdClass,
    empirical_error,
)
from sltlab.distributions import (
    AnalyticRiskUnavailable,
    ConditionalTable,
    DataDistribution,
    FiniteUniform,
    PointMasses,
    SeedSpec,
    UniformBox,
    _pcg64_states,
    draw_blocks,
    draw_sample,
    hoeffding_band,
    mc_risk,
    member_risks,
    min_risk_in_class,
    true_risk,
)

UNIT = UniformBox(((0.0, 1.0),))
U64 = 2 ** 64


# 0, one 32-bit word, two words, and the edges between: the SeedSequence
# entropy of a row (master, stream hash, trial) is 3 to 6 words long
SEED_INTS = st.one_of(st.sampled_from([0, 1, 2 ** 32 - 1, 2 ** 32, U64 - 1]),
                      st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, U64 - 1))


class TestSeedSpec:
    def test_pure_derivation(self):
        a = SeedSpec(99).derive("stream", 3)
        b = SeedSpec(99).derive("stream", 3)
        assert a.generator().random(5).tolist() == b.generator().random(5).tolist()

    def test_streams_and_trials_independent(self):
        base = SeedSpec(99)
        r1 = base.derive("a", 0).generator().random(4)
        r2 = base.derive("b", 0).generator().random(4)
        r3 = base.derive("a", 1).generator().random(4)
        assert not np.array_equal(r1, r2)
        assert not np.array_equal(r1, r3)

    def test_master_seed_range_checked(self):
        with pytest.raises(ValueError, match="64-bit"):
            SeedSpec(-1)
        with pytest.raises(ValueError, match="64-bit"):
            SeedSpec(2 ** 64)

    def test_trial_range_checked(self):
        with pytest.raises(ValueError, match="64-bit"):
            SeedSpec(0, "s", U64)
        with pytest.raises(ValueError, match="64-bit"):
            SeedSpec(0).derive("s", U64)
        assert SeedSpec(0, "s", U64 - 1).trial == U64 - 1

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(SEED_INTS, SEED_INTS, SEED_INTS), min_size=1, max_size=8))
    @example([(0, 0, 0), (5, 2 ** 40, 0), (2 ** 40, 2 ** 40, 0), (2 ** 40, 2 ** 40, 2 ** 40)])
    def test_block_states_equal_numpy_seeding(self, rows):
        # the example block holds rows of 3, 4, 5 and 6 entropy words
        expected = []
        for row in rows:
            state = np.random.PCG64(np.random.SeedSequence(list(row))).state["state"]
            expected.append((state["state"], state["inc"]))
        assert _pcg64_states(rows) == expected

    @pytest.mark.parametrize("seed", [
        SeedSpec(0), SeedSpec(99, "stream", 3), SeedSpec(2 ** 40 + 1, "x", 2 ** 33),
        SeedSpec(U64 - 1, "pac-trial", U64 - 1),
    ])
    def test_generator_draws_equal_numpy_seeding(self, seed):
        stream = int.from_bytes(hashlib.sha256(seed.stream.encode()).digest()[:8], "little")
        ref = np.random.default_rng(np.random.SeedSequence([seed.master_seed, stream, seed.trial]))
        got = seed.generator()
        assert got.random(5).tolist() == ref.random(5).tolist()
        assert got.integers(0, 1000, size=7).tolist() == ref.integers(0, 1000, size=7).tolist()
        p = [0.1, 0.2, 0.3, 0.4]
        assert got.choice(4, size=9, p=p).tolist() == ref.choice(4, size=9, p=p).tolist()


class TestDrawSample:
    def test_noiseless_realizable(self):
        D = DataDistribution(UNIT, Threshold(0.42), noise=0.0)
        S = draw_sample(D, 300, SeedSpec(1))
        assert empirical_error(D.labeler, S) == 0.0

    def test_same_seed_identical_serialization(self):
        D = DataDistribution(UNIT, Threshold(0.42), noise=0.2)
        a = draw_sample(D, 50, SeedSpec(5, "x", 3))
        b = draw_sample(D, 50, SeedSpec(5, "x", 3))
        assert jsonio.dumps(a.to_json()) == jsonio.dumps(b.to_json())

    def test_finite_uniform_frequencies_within_4_sigma(self):
        points = ((0.0,), (1.0,), (2.0,), (3.0,))
        D = DataDistribution(FiniteUniform(points), Threshold(1.5), noise=0.0)
        S = draw_sample(D, 10_000, SeedSpec(2))
        sigma = math.sqrt(0.25 * 0.75 / 10_000)
        for p in (0.0, 1.0, 2.0, 3.0):
            freq = np.mean(S.X[:, 0] == p)
            assert abs(freq - 0.25) <= 4 * sigma

    def test_invalid_m_rejected(self):
        D = DataDistribution(UNIT, Threshold(0.5))
        with pytest.raises(ValueError, match="at least 1"):
            draw_sample(D, 0, SeedSpec(0))

    def test_noise_flip_rate(self):
        D = DataDistribution(UNIT, Threshold(0.5), noise=0.3)
        S = draw_sample(D, 20_000, SeedSpec(3))
        clean = D.labeler.labels(S.X)
        flip_rate = np.mean(clean != S.y)
        assert abs(flip_rate - 0.3) < 4 * math.sqrt(0.3 * 0.7 / 20_000)

    def test_conditional_table_labeler(self):
        points = ((0.0,), (1.0,))
        D = DataDistribution(
            FiniteUniform(points),
            ConditionalTable(points, (0.9, 0.2)),
            noise=0.0,
        )
        S = draw_sample(D, 20_000, SeedSpec(4))
        at0 = S.y[S.X[:, 0] == 0.0]
        assert abs(np.mean(at0) - 0.9) < 0.02


def one_block(D, m, rows):
    """Every row drawn as the one block of draw_blocks."""
    (block,) = draw_blocks(D, m, rows, len(rows))
    return block


def reference_draw(D, m, seed):
    """(X, y) of one seed by the plain per-seed rule: default_rng, the box
    through rng.uniform and the noise through np.where."""
    stream = int.from_bytes(hashlib.sha256(seed.stream.encode()).digest()[:8], "little")
    rng = np.random.default_rng(np.random.SeedSequence([seed.master_seed, stream, seed.trial]))
    M = D.marginal
    if isinstance(M, UniformBox):
        X = rng.uniform([lo for lo, _ in M.bounds], [hi for _, hi in M.bounds], size=(m, M.dim))
    elif isinstance(M, FiniteUniform):
        X = np.asarray(M.points, dtype=float)[rng.integers(0, len(M.points), size=m)]
    else:
        X = np.asarray(M.points, dtype=float)[
            rng.choice(len(M.points), size=m, p=np.asarray(M.probs))]
    if isinstance(D.labeler, ConditionalTable):
        y = (rng.random(m) < D.labeler.prob1(X)).astype(np.uint8)
    else:
        y = D.labeler.labels(X)
    if D.noise > 0.0:
        flips = rng.random(m) < D.noise
        y = np.where(flips, 1 - y, y).astype(np.uint8)
    return X, y


LINE_POINTS = ((0.0,), (0.25,), (0.5,), (1.0,))
BLOCK_CASES = {
    "box-1d": (UNIT, Threshold(0.42)),
    "box-2d": (UniformBox(((0.0, 1.0), (-2.0, 3.0))), Halfspace((1.0, -0.5), 0.1)),
    "finite-uniform": (FiniteUniform(LINE_POINTS), Interval(0.2, 0.6)),
    "point-masses": (PointMasses(LINE_POINTS, (0.1, 0.2, 0.3, 0.4)), Threshold(0.3, "le")),
    "table": (FiniteUniform(LINE_POINTS), ConditionalTable(LINE_POINTS, (0.9, 0.2, 0.5, 0.0))),
}


class TestDrawBlock:
    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_rows_equal_per_seed_draws(self, case, noise):
        marginal, labeler = BLOCK_CASES[case]
        D = DataDistribution(marginal, labeler, noise=noise)
        seeds = [SeedSpec(17).derive("block", t) for t in (0, 1, 2, 5, 40)]
        X, y = one_block(D, 23, seeds)
        assert X.shape == (5, 23, D.dim) and y.shape == (5, 23) and y.dtype == np.uint8
        for t, seed in enumerate(seeds):
            S = draw_sample(D, 23, seed)
            rX, ry = reference_draw(D, 23, seed)
            assert np.array_equal(X[t], rX) and np.array_equal(y[t], ry)
            assert np.array_equal(S.X, rX) and np.array_equal(S.y, ry)

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_rows_equal_per_seed_draws_across_masters_and_streams(self, case):
        marginal, labeler = BLOCK_CASES[case]
        D = DataDistribution(marginal, labeler, noise=0.3)
        seeds = [SeedSpec(17, "block", 2), SeedSpec(2 ** 40 + 3, "other", 2 ** 33),
                 SeedSpec(0, "block", 0), SeedSpec(U64 - 1, "pac-trial", U64 - 1),
                 SeedSpec(17, "other", 2)]
        X, y = one_block(D, 23, seeds)
        for t, seed in enumerate(seeds):
            rX, ry = reference_draw(D, 23, seed)
            assert np.array_equal(X[t], rX) and np.array_equal(y[t], ry)

    def test_non_finite_instances_rejected(self):
        # A finite support refuses a point at infinity when it is built, so
        # the draw's own check is reached through a marginal of another type.
        with pytest.raises(ValueError, match="finite_uniform points must be finite"):
            FiniteUniform(((0.0,), (math.inf,)))

        class AtInfinity(distributions.Marginal):
            dim = 1

            def sample(self, rng, out):
                out[:] = math.inf

        D = DataDistribution(AtInfinity(), Threshold(0.5))
        with pytest.raises(ValueError, match="finite coordinates"):
            one_block(D, 50, [SeedSpec(0)])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_box_sample_equals_rng_uniform(self, dim):
        rng = np.random.default_rng(dim)
        for case in range(100):
            lo = rng.normal(size=dim) * 10.0 ** rng.integers(-3, 6)
            hi = lo + rng.random(dim) * 10.0 ** rng.integers(-3, 6) + 1e-9
            box = UniformBox(tuple(zip(lo.tolist(), hi.tolist())))
            expected = np.random.default_rng(case).uniform(lo, hi, size=(37, dim))
            out = np.empty((37, dim))
            box.sample(np.random.default_rng(case), out)
            assert np.array_equal(out, expected)


BOX_3D = UniformBox(((0.0, 1.0), (-2.0, 3.0), (5.0, 5.5)))
RECT_3D = Rectangle(((0.2, 0.7), (-1.0, 2.0), (5.0, 5.3)))


class TestDrawBlockRows:
    """One block drawn on the rows of SeedSpec.rows: each sample equals the plain
    per-seed draw of its SeedSpec."""

    def test_rows_are_the_derived_seeds(self):
        seed = SeedSpec(2 ** 40 + 3)
        trials = [5, 0, 2 ** 33, U64 - 1]
        assert seed.rows("pac-trial", trials) == [tuple(seed.derive("pac-trial", t))
                                                  for t in trials]
        assert seed.rows("pac-trial", range(0)) == []

    def test_rows_range_checked(self):
        with pytest.raises(ValueError, match="64-bit"):
            SeedSpec(0).rows("s", [3, U64])
        with pytest.raises(ValueError, match="nonnegative"):
            SeedSpec(0).rows("s", [3, -1])

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_box_3d_rows_with_gaps(self, noise):
        D = DataDistribution(BOX_3D, RECT_3D, noise=noise)
        seed, trials = SeedSpec(17), (0, 1, 2, 5, 40)
        X, y = one_block(D, 23, seed.rows("block", trials))
        assert X.shape == (5, 23, 3) and y.shape == (5, 23) and y.dtype == np.uint8
        for t, trial in enumerate(trials):
            rX, ry = reference_draw(D, 23, seed.derive("block", trial))
            assert np.array_equal(X[t], rX) and np.array_equal(y[t], ry)

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES) + ["box-3d"])
    def test_rows_across_masters_and_streams(self, case, noise):
        marginal, labeler = BLOCK_CASES.get(case, (BOX_3D, RECT_3D))
        D = DataDistribution(marginal, labeler, noise=noise)
        parts = [(SeedSpec(17), "block", [2, 0, 40]), (SeedSpec(2 ** 40 + 3), "other", [2 ** 33]),
                 (SeedSpec(U64 - 1), "pac-trial", [U64 - 1, 1]), (SeedSpec(17), "other", [2])]
        rows = [row for seed, stream, trials in parts for row in seed.rows(stream, trials)]
        seeds = [seed.derive(stream, t) for seed, stream, trials in parts for t in trials]
        X, y = one_block(D, 23, rows)
        for t, seed in enumerate(seeds):
            rX, ry = reference_draw(D, 23, seed)
            assert np.array_equal(X[t], rX) and np.array_equal(y[t], ry)

    @settings(max_examples=60, deadline=None)
    @given(master=SEED_INTS, trials=st.lists(SEED_INTS, min_size=1, max_size=6),
           m=st.integers(1, 40), d=st.integers(1, 4), noise=st.sampled_from([0.0, 0.25]))
    def test_box_block_equals_per_seed_draws(self, master, trials, m, d, noise):
        box = UniformBox(tuple((-1.5 * j, 2.0 ** j) for j in range(d)))
        D = DataDistribution(box, Halfspace((1.0,) * d, -0.5), noise=noise)
        seed = SeedSpec(master)
        X, y = one_block(D, m, seed.rows("prop", trials))
        assert X.shape == (len(trials), m, d) and y.shape == (len(trials), m)
        for t, trial in enumerate(trials):
            rX, ry = reference_draw(D, m, seed.derive("prop", trial))
            assert np.array_equal(X[t], rX) and np.array_equal(y[t], ry)

    @pytest.mark.parametrize("cells", [1, 700, 1 << 20])
    def test_member_risks_with_gapped_indices_equal_mc_risk(self, cells, monkeypatch):
        # every member of a 3-d box needs Monte Carlo; blocks of one, two and
        # all seeds must each give the one-seed estimate of its own index
        monkeypatch.setattr(distributions, "LABEL_BLOCK_CELLS", cells)
        D = DataDistribution(BOX_3D, RECT_3D, noise=0.2)
        members = [RECT_3D, Rectangle(((0.0, 1.0), (-2.0, 0.0), (5.0, 5.5))),
                   Halfspace((1.0, 0.5, -1.0), 4.0), RECT_3D, Rectangle(((0.5, 0.6),) * 3)]
        seed, mc_n, indices = SeedSpec(31), 350, [40, 0, 5, 2 ** 33, 2]
        risks, mc = member_risks(D, members, mc_n, seed, "risk", indices)
        assert mc.all()
        assert risks.tolist() == [mc_risk(D, h, mc_n, seed.derive("risk", i))[0]
                                  for h, i in zip(members, indices)]


class TestDrawBlocks:
    """draw_blocks seeds all its rows in one pass and yields the block that
    each run of step consecutive rows gives on its own."""

    @settings(max_examples=80, deadline=None)
    @given(case=st.sampled_from(sorted(BLOCK_CASES) + ["box-3d"]),
           noise=st.sampled_from([0.0, 0.3]), step=st.integers(1, 5),
           full=st.integers(0, 3), edge=st.sampled_from([-1, 0, 1]), m=st.integers(1, 9))
    @example(case="table", noise=0.0, step=1, full=0, edge=1, m=1)
    @example(case="box-3d", noise=0.3, step=4, full=3, edge=-1, m=7)
    def test_blocks_equal_one_block_of_each_slice(self, case, noise, step, full, edge, m):
        # full * step + edge rows: one row short of, at, or one row past a
        # block edge
        marginal, labeler = BLOCK_CASES.get(case, (BOX_3D, RECT_3D))
        D = DataDistribution(marginal, labeler, noise=noise)
        n = max(1, full * step + edge)
        rows = SeedSpec(2 ** 40 + 3).rows("blocks", [3 * t + 1 for t in range(n)])
        blocks = list(draw_blocks(D, m, rows, step))
        assert [len(y) for _, y in blocks] == [len(rows[i:i + step])
                                              for i in range(0, n, step)]
        for i, (X, y) in zip(range(0, n, step), blocks):
            bX, by = one_block(D, m, rows[i:i + step])
            assert np.array_equal(X, bX) and np.array_equal(y, by) and y.dtype == by.dtype
        X = np.concatenate([X for X, _ in blocks])
        y = np.concatenate([y for _, y in blocks])
        aX, ay = one_block(D, m, rows)
        assert np.array_equal(X, aX) and np.array_equal(y, ay)

    def test_rows_are_seeded_in_one_pass(self, monkeypatch):
        calls = []

        def counted(rows):
            calls.append(len(rows))
            return _pcg64_states(rows)

        monkeypatch.setattr(distributions, "_pcg64_states", counted)
        D = DataDistribution(BOX_3D, RECT_3D, noise=0.2)
        rows = SeedSpec(5).rows("blocks", range(10))
        assert len(list(draw_blocks(D, 4, rows, 3))) == 4
        assert calls == [10]

    def test_no_rows_no_blocks(self):
        assert list(draw_blocks(DataDistribution(UNIT, Threshold(0.5)), 5, [], 3)) == []

    def test_step_below_one_rejected(self):
        D = DataDistribution(UNIT, Threshold(0.5))
        with pytest.raises(ValueError, match="block step must be at least 1, got 0"):
            next(draw_blocks(D, 5, [SeedSpec(0)], 0))

    # Parent-pinned mismatch counts (risk * mc_n) of the Monte Carlo members;
    # the exact members keep their closed form.
    PINNED_MC_COUNTS = {
        "line": [193, None, 321, 177, None, 283, 268],
        "box-3d": [92, 215, 195, 84, 134],
    }

    @pytest.mark.parametrize("cells", [1, 900, 1 << 20])
    @pytest.mark.parametrize("case", sorted(PINNED_MC_COUNTS))
    def test_member_risks_with_gapped_indices_are_unchanged(self, case, cells, monkeypatch):
        monkeypatch.setattr(distributions, "LABEL_BLOCK_CELLS", cells)
        if case == "line":
            D = DataDistribution(UNIT, Threshold(0.4), noise=0.1)
            members = [SineSign(2.0), Threshold(0.3), SineSign(5.0), SineSign(2.0),
                       Interval(0.1, 0.6), SineSign(9.5), LookupTable(((0.5,),), (1,))]
            indices = [7, 0, 3, 2 ** 33, 5, 1, 40]
        else:
            D = DataDistribution(BOX_3D, RECT_3D, noise=0.2)
            members = [RECT_3D, Rectangle(((0.0, 1.0), (-2.0, 0.0), (5.0, 5.5))),
                       Halfspace((1.0, 0.5, -1.0), 4.0), RECT_3D, Rectangle(((0.5, 0.6),) * 3)]
            indices = [40, 0, 5, 2 ** 33, 2]
        seed, mc_n = SeedSpec(2 ** 40 + 9), 450
        risks, mc = member_risks(D, members, mc_n, seed, "pin", indices)
        pinned = self.PINNED_MC_COUNTS[case]
        assert mc.tolist() == [c is not None for c in pinned]
        for h, i, c, r in zip(members, indices, pinned, risks.tolist()):
            if c is None:
                assert r == true_risk(D, h)
            else:
                # the plain per-seed draw, apart from draw_blocks
                X, y = reference_draw(D, mc_n, seed.derive("pin", i))
                assert r == c / mc_n == np.count_nonzero(h.labels(X) != y) / mc_n


class TestTrueRisk:
    def test_labeler_itself_zero(self):
        D = DataDistribution(UNIT, Threshold(0.3), noise=0.0)
        assert true_risk(D, Threshold(0.3)) == 0.0

    def test_threshold_disagreement_measure(self):
        D = DataDistribution(UNIT, Threshold(0.3), noise=0.0)
        assert true_risk(D, Threshold(0.5)) == pytest.approx(0.2, abs=1e-12)

    def test_total_disagreement_is_one(self):
        D = DataDistribution(UNIT, Threshold(0.5, "ge"), noise=0.0)
        # mirrored threshold differs everywhere but the boundary point
        assert true_risk(D, Threshold(0.5, "le")) == pytest.approx(1.0, abs=1e-12)

    def test_noise_floor(self):
        D = DataDistribution(UNIT, Threshold(0.3), noise=0.15)
        rng = np.random.default_rng(0)
        for _ in range(50):
            h = Threshold(float(rng.uniform(0, 1)), rng.choice(["ge", "le"]))
            assert true_risk(D, h) >= 0.15 - 1e-15

    def test_noisy_risk_formula(self):
        D = DataDistribution(UNIT, Threshold(0.3), noise=0.1)
        rho = 0.2
        assert true_risk(D, Threshold(0.5)) == pytest.approx(0.1 + 0.8 * rho, abs=1e-12)

    def test_interval_union_symmetric_difference(self):
        D = DataDistribution(UNIT, IntervalUnion(((0.1, 0.3), (0.6, 0.8))), noise=0.0)
        got = true_risk(D, Interval(0.2, 0.7))
        # A = [.1,.3] u [.6,.8], B = [.2,.7]:
        # A\B = [.1,.2) u (.7,.8] (0.2), B\A = (.3,.6) (0.3)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_finite_marginal_any_hypothesis(self):
        points = ((0.0,), (1.0,), (2.0,), (3.0,))
        D = DataDistribution(PointMasses(points, (0.1, 0.2, 0.3, 0.4)),
                             Threshold(1.5), noise=0.0)
        h = LookupTable(points, (0, 1, 1, 0))
        # disagreement at x=0? labeler 0, h 0 -> no; x=1: 0 vs 1 -> yes; x=3: 1 vs 0 -> yes
        assert true_risk(D, h) == pytest.approx(0.2 + 0.4, abs=1e-12)

    def test_rectangle_geometry(self):
        box2 = UniformBox(((0.0, 1.0), (0.0, 1.0)))
        D = DataDistribution(box2, Rectangle(((0.2, 0.6), (0.2, 0.6))), noise=0.0)
        got = true_risk(D, Rectangle(((0.2, 0.6), (0.2, 1.0))))
        assert got == pytest.approx(0.4 * 0.4, abs=1e-12)

    def test_halfspace_geometry_vs_monte_carlo(self):
        box2 = UniformBox(((0.0, 1.0), (0.0, 1.0)))
        D = DataDistribution(box2, Halfspace((1.0, -1.0), 0.0), noise=0.0)
        h = Halfspace((1.0, 1.0), -1.0)
        exact = true_risk(D, h)
        est, band = mc_risk(D, h, 100_000, SeedSpec(9))
        assert abs(exact - est) <= band

    def test_unavailable_is_an_explicit_signal(self):
        D = DataDistribution(UNIT, Threshold(0.5), noise=0.0)
        with pytest.raises(AnalyticRiskUnavailable):
            true_risk(D, SineSign(3.0))
        with pytest.raises(AnalyticRiskUnavailable):
            true_risk(D, LookupTable(((0.5,),), (1,)))

    def test_conditional_table_risk(self):
        points = ((0.0,), (1.0,))
        D = DataDistribution(FiniteUniform(points),
                             ConditionalTable(points, (0.9, 0.2)), noise=0.1)
        h = Threshold(0.5, "ge")  # predicts 0 at x=0, 1 at x=1
        q0 = 0.9 * 0.9 + 0.1 * 0.1  # effective P(y=1|x=0) after flips
        q1 = 0.2 * 0.9 + 0.8 * 0.1
        expect = 0.5 * q0 + 0.5 * (1 - q1)
        assert true_risk(D, h) == pytest.approx(expect, abs=1e-12)


class TestMcRisk:
    def test_labeler_estimate_exactly_zero(self):
        D = DataDistribution(UNIT, Threshold(0.7), noise=0.0)
        est, _ = mc_risk(D, Threshold(0.7), 5000, SeedSpec(1))
        assert est == 0.0

    def test_band_formula_and_scaling(self):
        band_n = hoeffding_band(1000)
        assert band_n == pytest.approx(math.sqrt(math.log(2 / 0.05) / 2000), abs=1e-15)
        assert hoeffding_band(4000) == pytest.approx(band_n / 2, abs=1e-15)

    def test_hoeffding_coverage_over_100_seeds(self):
        D = DataDistribution(UNIT, Threshold(0.3), noise=0.0)
        h = Threshold(0.5)
        inside = 0
        for s in range(100):
            est, band = mc_risk(D, h, 1000, SeedSpec(1234, "cover", s))
            if abs(est - 0.2) <= band:
                inside += 1
        assert inside >= 90

    @pytest.mark.parametrize("cells", [1, 1500, 1 << 20])
    @pytest.mark.parametrize("D, members", [
        (DataDistribution(UNIT, Threshold(0.4), noise=0.1),
         [SineSign(2.0), Threshold(0.3), SineSign(5.0), SineSign(2.0), Interval(0.1, 0.6),
          LookupTable(((0.5,),), (1,)), SineSign(9.5)]),
        (DataDistribution(UniformBox(((0.0, 1.0), (-1.0, 1.0))), Halfspace((0.6, -0.8), 0.1),
                          noise=0.2),
         [LookupTable(((0.5, 0.0),), (1,)), Rectangle(((0.0, 0.5), (0.0, 1.0))),
          LookupTable(((0.5, 0.0),), (0,), default=1), Halfspace((1.0, 0.0), -0.5)]),
    ], ids=["line", "plane"])
    def test_member_risks_equal_per_member_risks(self, D, members, cells, monkeypatch):
        # Members without a closed form are estimated in blocks of one, two
        # and all seeds; each must equal its own one-seed estimate.
        monkeypatch.setattr(distributions, "LABEL_BLOCK_CELLS", cells)
        seed, mc_n = SeedSpec(31), 700
        indices = [7, 0, 3, 12, 5, 1, 40][:len(members)]

        def one(h, i):
            try:
                return true_risk(D, h), False
            except AnalyticRiskUnavailable:
                return mc_risk(D, h, mc_n, seed.derive("risk", i))[0], True

        expected = [one(h, i) for h, i in zip(members, indices)]
        risks, mc = member_risks(D, members, mc_n, seed, "risk", indices)
        assert risks.tolist() == [r for r, _ in expected]
        assert mc.dtype == bool and mc.tolist() == [used for _, used in expected]
        one_by_one = [member_risks(D, [h], mc_n, seed, "risk", [i])
                      for h, i in zip(members, indices)]
        assert [(float(r[0]), bool(used[0])) for r, used in one_by_one] == expected
        default, _ = member_risks(D, members, mc_n, seed, "risk")
        assert default.tolist() == [one(h, i)[0] for i, h in enumerate(members)]


class TestMinRiskInClass:
    def test_realizable_labeler_found(self):
        H = ThresholdClass(0.0, 1.0, ("ge",), resolution=21)
        D = DataDistribution(UNIT, Threshold(0.55), noise=0.0)
        h, r = min_risk_in_class(D, H)
        assert r == 0.0
        assert h == Threshold(0.55)

    def test_off_grid_labeler(self):
        grid = GridSpec((tuple(round(i / 10, 1) for i in range(11)),))
        H = ThresholdClass(0.0, 1.0, ("ge",), grid=grid)
        D = DataDistribution(UNIT, Threshold(0.31), noise=0.0)
        h, r = min_risk_in_class(D, H)
        assert h == Threshold(0.3)
        assert r == pytest.approx(0.01, abs=1e-12)

    def test_noise_lower_bounds_minimum(self):
        H = ThresholdClass(0.0, 1.0, ("ge",), resolution=11)
        D = DataDistribution(UNIT, Threshold(0.5), noise=0.2)
        _, r = min_risk_in_class(D, H)
        assert r >= 0.2 - 1e-15

    def test_mc_fallback_needs_declared_n(self):
        from sltlab.core import FiniteClass

        H = FiniteClass((SineSign(2.0), SineSign(5.0)))
        D = DataDistribution(UNIT, Threshold(0.5), noise=0.0)
        with pytest.raises(AnalyticRiskUnavailable):
            min_risk_in_class(D, H)
        h, r = min_risk_in_class(D, H, mc_n=2000, seed=SeedSpec(7))
        assert 0.0 <= r <= 1.0


class TestValidation:
    def test_noise_range(self):
        with pytest.raises(ValueError, match="0.5"):
            DataDistribution(UNIT, Threshold(0.5), noise=0.5)

    def test_dimension_match(self):
        with pytest.raises(ValueError, match="dimension"):
            DataDistribution(UNIT, Halfspace((1.0, 1.0), 0.0))

    def test_point_mass_probs_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PointMasses(((0.0,), (1.0,)), (0.5, 0.6))

    def test_table_must_cover_support(self):
        with pytest.raises(ValueError, match="missing support"):
            DataDistribution(
                FiniteUniform(((0.0,), (1.0,))),
                ConditionalTable(((0.0,),), (0.5,)),
            )

    def test_json_round_trip(self):
        D = DataDistribution(PointMasses(((0.0,), (2.0,)), (0.25, 0.75)),
                             Threshold(1.0), noise=0.05)
        import json

        back = DataDistribution.from_json(json.loads(jsonio.dumps(D.to_json())))
        assert back == D


def reference_prob1(table, X):
    """The per-row dict lookup that ConditionalTable.prob1 replaces."""
    entries = dict(zip(table.points, table.p1))
    out = np.empty(len(X), dtype=float)
    for i, row in enumerate(X):
        key = tuple(row)
        if key not in entries:
            raise ValueError(f"conditional table has no entry for instance {key}")
        out[i] = entries[key]
    return out


class TestConditionalTableProb1:
    TABLE = ConditionalTable(((0.0, 0.0), (0.0, 1.0), (1.0, 0.5), (-2.0, 3.0)),
                             (0.9, 0.2, 0.5, 1.0 / 3.0))

    def test_equals_the_per_row_lookup(self):
        rng = np.random.default_rng(3)
        points = np.array(self.TABLE.points + ((-0.0, -0.0), (-0.0, 1.0)))
        for n in (0, 1, 7, 500):
            X = points[rng.integers(0, len(points), size=n)]
            got = self.TABLE.prob1(X)
            assert got.tobytes() == reference_prob1(self.TABLE, X).tobytes()

    def test_non_contiguous_and_integer_rows(self):
        X = np.array([[0, 1], [0, 0], [0, 1]])
        assert self.TABLE.prob1(X).tolist() == reference_prob1(self.TABLE, X).tolist()
        Xf = np.array([[9.0, 0.0, 0.0], [9.0, 0.0, 1.0]])[:, 1:]
        assert self.TABLE.prob1(Xf).tolist() == [0.9, 0.2]

    @pytest.mark.parametrize("rows", [
        [(0.0, 0.0), (5.0, 5.0), (1.0, 0.5), (4.0, 4.0)],
        [(0.0, 1.0), (0.0, 1.0), (3.0, float("nan")), (-1.0, 0.0)],
        [(float("nan"), 0.0), (float("nan"), 0.0)],
    ])
    def test_names_the_first_missing_row(self, rows):
        # the first missing row in row order, not the smallest missing key
        X = np.array(rows)
        with pytest.raises(ValueError) as expected:
            reference_prob1(self.TABLE, X)
        with pytest.raises(ValueError) as got:
            self.TABLE.prob1(X)
        assert str(got.value) == str(expected.value)
