import hashlib
import math

import numpy as np
import pytest

from sltlab import jsonio
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
    draw_block,
    draw_sample,
    hoeffding_band,
    mc_risk,
    min_risk_in_class,
    true_risk,
)

UNIT = UniformBox(((0.0, 1.0),))


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
        X, y = draw_block(D, 23, seeds)
        assert X.shape == (5, 23, D.dim) and y.shape == (5, 23) and y.dtype == np.uint8
        for t, seed in enumerate(seeds):
            S = draw_sample(D, 23, seed)
            rX, ry = reference_draw(D, 23, seed)
            assert np.array_equal(X[t], rX) and np.array_equal(y[t], ry)
            assert np.array_equal(S.X, rX) and np.array_equal(S.y, ry)

    def test_non_finite_instances_rejected(self):
        D = DataDistribution(FiniteUniform(((0.0,), (math.inf,))), Threshold(0.5))
        with pytest.raises(ValueError, match="finite coordinates"):
            draw_block(D, 50, [SeedSpec(0)])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_box_sample_equals_rng_uniform(self, dim):
        rng = np.random.default_rng(dim)
        for case in range(100):
            lo = rng.normal(size=dim) * 10.0 ** rng.integers(-3, 6)
            hi = lo + rng.random(dim) * 10.0 ** rng.integers(-3, 6) + 1e-9
            box = UniformBox(tuple(zip(lo.tolist(), hi.tolist())))
            expected = np.random.default_rng(case).uniform(lo, hi, size=(37, dim))
            assert np.array_equal(box.sample(np.random.default_rng(case), 37), expected)


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
