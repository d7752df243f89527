import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sltlab.bounds import (
    BoundParams,
    accuracy_bound,
    decompose_error,
    is_eps_representative,
    sample_complexity,
)
from sltlab.core import (
    FiniteClass,
    GridSpec,
    LabeledSample,
    SineSign,
    Threshold,
    ThresholdClass,
    empirical_error,
    enumerate_class,
)
from sltlab.distributions import (
    DataDistribution,
    FiniteUniform,
    SeedSpec,
    UniformBox,
    draw_sample,
    min_risk_in_class,
    true_risk,
)
from sltlab.learners import erm

UNIT = UniformBox(((0.0, 1.0),))


class TestSampleComplexity:
    def test_reference_value(self):
        rep = sample_complexity(BoundParams(eps=0.1, delta=0.05, m=400, d=1))
        assert rep.b == pytest.approx((1 - math.log(0.05)) / 0.01, abs=1e-9)
        assert rep.b == pytest.approx(399.5732273553991, abs=1e-9)

    def test_eps_halved_quadruples(self):
        a = sample_complexity(BoundParams(eps=0.2, delta=0.1, m=10, d=3)).b
        b = sample_complexity(BoundParams(eps=0.1, delta=0.1, m=10, d=3)).b
        assert b == pytest.approx(4 * a, rel=1e-12)

    def test_dimension_increment_adds_inverse_eps_squared(self):
        a = sample_complexity(BoundParams(eps=0.1, delta=0.1, m=10, d=2)).b
        b = sample_complexity(BoundParams(eps=0.1, delta=0.1, m=10, d=3)).b
        assert b - a == pytest.approx(1 / 0.01, abs=1e-9)

    def test_bracket_ordering(self):
        rep = sample_complexity(BoundParams(eps=0.1, delta=0.1, m=10, d=1))
        assert rep.m_lower <= rep.m_upper
        assert rep.m_lower == pytest.approx(rep.b / 16, rel=1e-12)
        assert rep.m_upper == pytest.approx(64 * rep.b, rel=1e-12)

    @pytest.mark.parametrize("eps,delta", [(0.0, 0.1), (1.0, 0.1), (0.1, 0.0), (0.1, 1.0)])
    def test_parameter_ranges_rejected(self, eps, delta):
        with pytest.raises(ValueError):
            BoundParams(eps=eps, delta=delta, m=10, d=1)


class TestAccuracyBound:
    def test_reference_value(self):
        got = accuracy_bound(400, 0.05, 1, C=2.0)
        assert got == pytest.approx(2 * math.sqrt(3.9957322735539909 / 400), abs=1e-12)
        assert got == pytest.approx(0.1999, abs=5e-4)

    def test_quadrupling_m_halves(self):
        a = accuracy_bound(100, 0.1, 2)
        b = accuracy_bound(400, 0.1, 2)
        assert b == pytest.approx(a / 2, rel=1e-12)

    def test_smaller_delta_increases(self):
        assert accuracy_bound(100, 0.01, 2) > accuracy_bound(100, 0.1, 2)

    def test_mutual_consistency_with_sample_complexity(self):
        for d, eps, delta in [(1, 0.1, 0.05), (3, 0.25, 0.01), (0, 0.5, 0.2)]:
            b = sample_complexity(BoundParams(eps=eps, delta=delta, m=10, d=d)).b
            assert accuracy_bound(b, delta, d, C=1.0) == pytest.approx(eps, abs=1e-9)

    @given(st.integers(1, 10_000), st.floats(0.001, 0.999), st.integers(0, 50))
    @settings(max_examples=100, deadline=None)
    def test_positive_and_monotone_in_d(self, m, delta, d):
        lo = accuracy_bound(m, delta, d)
        hi = accuracy_bound(m, delta, d + 1)
        assert 0 < lo < hi


class TestRepresentativeness:
    def test_exhaustive_support_has_zero_deviation(self):
        points = ((0.0,), (1.0,), (2.0,), (3.0,))
        D = DataDistribution(FiniteUniform(points), Threshold(1.5), noise=0.0)
        # one copy of each support point, true labels: empirical == true measure
        S = LabeledSample.from_pairs([(p[0], 1 if p[0] >= 1.5 else 0) for p in points])
        H = ThresholdClass(0.0, 3.0, ("ge",), resolution=7)
        rep = is_eps_representative(S, H, D, eps=1e-9)
        assert rep.verdict is True
        assert rep.worst_deviation == 0.0

    def test_eps_one_always_true(self):
        D = DataDistribution(UNIT, Threshold(0.5), noise=0.2)
        S = draw_sample(D, 10, SeedSpec(0))
        rep = is_eps_representative(S, ThresholdClass(resolution=11), D, eps=1.0)
        assert rep.verdict is True

    def test_deviation_matches_independent_rescan(self):
        D = DataDistribution(UNIT, Threshold(0.4), noise=0.1)
        H = ThresholdClass(0.0, 1.0, ("ge",), resolution=17)
        S = draw_sample(D, 60, SeedSpec(5))
        rep = is_eps_representative(S, H, D, eps=0.05)
        rescan = max(
            abs(empirical_error(h, S) - true_risk(D, h)) for h in enumerate_class(H)
        )
        assert abs(rep.worst_deviation - rescan) < 1e-12

    def test_mc_route_three_verdicts(self):
        H = FiniteClass((SineSign(2.0), SineSign(7.0)))
        D = DataDistribution(UNIT, Threshold(0.5), noise=0.0)
        S = draw_sample(D, 40, SeedSpec(2))
        probe = is_eps_representative(S, H, D, eps=0.5, mc_n=400, seed=SeedSpec(3))
        dev, band = probe.worst_deviation, probe.mc_band
        sure_true = is_eps_representative(S, H, D, eps=dev + band + 0.01,
                                          mc_n=400, seed=SeedSpec(3))
        assert sure_true.verdict is True
        borderline = is_eps_representative(S, H, D, eps=max(dev, 1e-9),
                                           mc_n=400, seed=SeedSpec(3))
        assert borderline.verdict is None
        if dev - band - 0.01 > 0:
            sure_false = is_eps_representative(S, H, D, eps=dev - band - 0.01,
                                               mc_n=400, seed=SeedSpec(3))
            assert sure_false.verdict is False

    def test_mc_route_false_verdict(self):
        # labels flipped against the target put empirical errors far from the risks
        H = FiniteClass((SineSign(2.0), SineSign(7.0)))
        D = DataDistribution(UNIT, Threshold(0.5), noise=0.0)
        S = draw_sample(D, 40, SeedSpec(2))
        rep = is_eps_representative(LabeledSample(S.X, 1 - S.y), H, D, eps=0.5, mc_n=400,
                                    seed=SeedSpec(3))
        assert rep.worst_deviation - rep.mc_band > 0.5
        assert rep.verdict is False

    def test_near_optimality_of_erm_on_representative_samples(self):
        # whenever the sample is eps-representative, the empirical minimizer's
        # excess true risk is at most 2 eps
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(100):
            res = int(rng.integers(5, 25))
            H = ThresholdClass(0.0, 1.0, ("ge",), resolution=res)
            D = DataDistribution(UNIT, Threshold(float(rng.uniform(0, 1))),
                                 noise=float(rng.uniform(0, 0.3)))
            S = draw_sample(D, int(rng.integers(20, 150)), SeedSpec(int(rng.integers(1e6))))
            rep = is_eps_representative(S, H, D, eps=1.0)
            eps = rep.worst_deviation * float(rng.uniform(1.0, 1.5)) + 1e-12
            out = erm(H, S)
            _, best = min_risk_in_class(D, H)
            assert true_risk(D, out.hypothesis) - best <= 2 * eps + 1e-12
            checked += 1
        assert checked == 100


class TestDecomposition:
    def test_minimizer_has_zero_estimation(self):
        H = ThresholdClass(0.0, 1.0, ("ge",), resolution=21)
        D = DataDistribution(UNIT, Threshold(0.5), noise=0.1)
        h_star, _ = min_risk_in_class(D, H)
        dec = decompose_error(D, H, h_star)
        assert dec.estimation_error == pytest.approx(0.0, abs=1e-15)

    def test_identity(self):
        H = ThresholdClass(0.0, 1.0, ("ge",), resolution=13)
        D = DataDistribution(UNIT, Threshold(0.37), noise=0.05)
        for theta in (0.1, 0.48, 0.9):
            dec = decompose_error(D, H, Threshold(theta))
            assert abs(dec.approximation_error + dec.estimation_error - dec.total) < 1e-12

    def test_labeler_outside_class_at_known_distance(self):
        grid = GridSpec((tuple(round(i / 10, 1) for i in range(11)),))
        H = ThresholdClass(0.0, 1.0, ("ge",), grid=grid)
        D = DataDistribution(UNIT, Threshold(0.35), noise=0.0)
        h_star, approx = min_risk_in_class(D, H)
        dec = decompose_error(D, H, h_star)
        assert dec.approximation_error == pytest.approx(0.05, abs=1e-12)
        assert dec.estimation_error == pytest.approx(0.0, abs=1e-15)
        assert dec.total == pytest.approx(0.05, abs=1e-12)

    def test_estimation_nonnegative_for_members(self):
        rng = np.random.default_rng(23)
        H = ThresholdClass(0.0, 1.0, ("ge", "le"), resolution=9)
        D = DataDistribution(UNIT, Threshold(0.62), noise=0.1)
        for h in enumerate_class(H):
            dec = decompose_error(D, H, h)
            assert dec.estimation_error >= -1e-15
            assert 0.0 <= dec.total <= 1.0
