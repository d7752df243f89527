import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest

from sltlab import core, distributions, experiments, jsonio, learners
from sltlab.core import (
    DEFAULT_ENUMERATION_BUDGET,
    FiniteClass,
    LabeledSample,
    Rectangle,
    RectangleClass,
    SineSign,
    Threshold,
    WeightedClassSequence,
    enumerate_class,
)
from sltlab.distributions import (
    AnalyticRiskUnavailable,
    DataDistribution,
    FiniteUniform,
    SeedSpec,
    UniformBox,
    draw_sample,
    mc_risk,
    true_risk,
)
from sltlab.experiments import (
    all_functions_class,
    binomial_bounds,
    binomial_verdict,
    nfl_exact,
    tradeoff_sweep,
    verify_learnability,
    verify_uniform_convergence,
)
from sltlab.learners import erm, srm
from sltlab.presets import CLASSES, DISTRIBUTIONS, SEQUENCES

H = CLASSES["thresholds"]
D = DISTRIBUTIONS["uniform-threshold-noisy"]


class TestBinomialVerdict:
    def test_bounds_match_closed_forms(self):
        # k = n: lower bound solves lower^n = alpha
        lower, upper = binomial_bounds(100, 100)
        assert lower == pytest.approx(0.05 ** (1 / 100), rel=1e-12)
        assert upper == 1.0
        lower, upper = binomial_bounds(0, 50)
        assert lower == 0.0
        assert upper == pytest.approx(1 - 0.05 ** (1 / 50), rel=1e-12)

    def test_bounds_equal_the_beta_quantile_bit_for_bit(self):
        # Every trial count up to 80, and the preset counts: pac 2000, uc 500.
        from scipy.stats import beta

        alpha = 1.0 - experiments.CONFIDENCE
        for n in [*range(1, 81), 150, 500, 2000]:
            k = np.arange(n + 1)
            lower = beta.ppf(alpha, k[1:], n - k[1:] + 1)
            upper = beta.ppf(experiments.CONFIDENCE, k[:-1] + 1, n - k[:-1])
            got = np.array([binomial_bounds(int(j), n) for j in k])
            assert got[0, 0] == 0.0 and got[-1, 1] == 1.0
            assert got[1:, 0].tolist() == lower.tolist()
            assert got[:-1, 1].tolist() == upper.tolist()

    def test_three_verdicts(self):
        assert binomial_verdict(100, 100, 0.88)[0] == "pass"
        assert binomial_verdict(50, 100, 0.88)[0] == "fail"
        assert binomial_verdict(88, 100, 0.88)[0] == "indeterminate"


class TestLearnability:
    def test_eps_one_gives_frequency_one(self):
        s = verify_learnability(H, D, m=5, eps=1.0, delta=0.1, trials=40, seed=SeedSpec(1))
        assert s.success_frequency == 1.0
        assert s.verdict == "pass"

    def test_more_data_helps_across_seeds(self):
        for master in range(20):
            small = verify_learnability(H, D, m=1, eps=0.1, delta=0.1, trials=80,
                                        seed=SeedSpec(master))
            large = verify_learnability(H, D, m=500, eps=0.1, delta=0.1, trials=80,
                                        seed=SeedSpec(master))
            assert small.success_frequency < large.success_frequency

    def test_rethresholding_is_monotone_in_eps(self):
        s = verify_learnability(H, D, m=30, eps=0.05, delta=0.1, trials=150,
                                seed=SeedSpec(3), keep_records=True)
        min_risk = s.extra["min_risk_in_class"]
        freqs = [sum(r.risk <= min_risk + eps for r in s.records) / len(s.records)
                 for eps in (0.01, 0.05, 0.1, 0.2, 0.5, 1.0)]
        assert freqs == sorted(freqs)
        assert freqs[-1] == 1.0

    @pytest.mark.parametrize("cls, mc_n, kinds", [
        (H, None, {"threshold"}),
        (CLASSES["sine"], 300, {"sine"}),
        # the sine member is 1 on [0.55, 1], close to the labeler's threshold
        # at 0.5, so the picks hold both exact and Monte Carlo risks
        (FiniteClass((Threshold(0.45), SineSign(-np.pi / 0.55))), 300, {"threshold", "sine"}),
    ], ids=["exact", "monte-carlo", "mixed"])
    def test_trial_records_reconstructable(self, cls, mc_n, kinds):
        # each record rebuilt from public pieces: erm on the trial's own
        # sample, then the exact risk or a Monte Carlo one on its own stream
        seed = SeedSpec(9)
        s = verify_learnability(cls, D, m=10, eps=0.1, delta=0.1, trials=24,
                                seed=seed, mc_n=mc_n, keep_records=True)
        min_risk = s.extra["min_risk_in_class"]
        assert {r.hypothesis["kind"] for r in s.records} == kinds
        assert [r.trial for r in s.records] == list(range(24))
        for r in s.records:
            out = erm(cls, draw_sample(D, 10, seed.derive("pac-trial", r.trial)))
            try:
                risk = true_risk(D, out.hypothesis)
            except AnalyticRiskUnavailable:
                risk, _ = mc_risk(D, out.hypothesis, mc_n, seed.derive("pac-risk", r.trial))
            assert r.hypothesis == out.hypothesis.to_json()
            assert r.empirical_error == out.empirical_error
            assert r.risk == risk
            assert r.estimation == risk - min_risk
            assert r.success == (risk <= min_risk + 0.1)

    def test_one_exact_risk_per_member(self, monkeypatch):
        calls = []
        original = distributions.true_risk

        def counted(D, h):
            calls.append(h)
            return original(D, h)

        monkeypatch.setattr(distributions, "true_risk", counted)
        verify_learnability(H, D, m=20, eps=0.1, delta=0.1, trials=200, seed=SeedSpec(1))
        assert len(calls) == len(enumerate_class(H)) == 41

    def test_one_exact_risk_per_exact_member_of_a_mixed_class(self, monkeypatch):
        # only the Monte Carlo picks are risked again, on their trial's stream
        exact, sine = Threshold(0.45), SineSign(-np.pi / 0.55)
        calls = []
        original = distributions.true_risk

        def counted(D, h):
            calls.append(h)
            return original(D, h)

        monkeypatch.setattr(distributions, "true_risk", counted)
        s = verify_learnability(FiniteClass((exact, sine)), D, m=10, eps=0.1, delta=0.1,
                                trials=300, seed=SeedSpec(9), mc_n=300, keep_records=True)
        kinds = [r.hypothesis["kind"] for r in s.records]
        assert calls.count(exact) == 1 and kinds.count("threshold") > 0
        assert calls.count(sine) == 1 + kinds.count("sine") > 1

    def test_no_records_built_unless_kept(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a TrialRecord was built without keep_records")

        monkeypatch.setattr(experiments, "TrialRecord", refuse)
        s = verify_learnability(H, D, m=20, eps=0.1, delta=0.1, trials=50, seed=SeedSpec(1))
        rep = verify_uniform_convergence(H, D, [10, 20], eps=0.1, delta=0.1, trials=50,
                                         seed=SeedSpec(1))
        assert s.records is None and all(u.records is None for u in rep.summaries)

    def test_reproducible_across_runs_and_workers(self):
        kwargs = dict(m=40, eps=0.1, delta=0.1, trials=60, seed=SeedSpec(5))
        a = verify_learnability(H, D, **kwargs)
        b = verify_learnability(H, D, **kwargs)
        c = verify_learnability(H, D, **kwargs)
        assert jsonio.dumps(a.to_json()) == jsonio.dumps(b.to_json()) == jsonio.dumps(c.to_json())


class TestUniformConvergence:
    def test_eps_one_gives_frequency_one(self):
        rep = verify_uniform_convergence(H, D, [10], eps=1.0, delta=0.1, trials=30,
                                         seed=SeedSpec(2))
        assert rep.summaries[0].success_frequency == 1.0

    def test_scaling_entry_shape(self):
        rep = verify_uniform_convergence(H, D, [100, 400], eps=0.1, delta=0.1,
                                         trials=60, seed=SeedSpec(4))
        (sc,) = rep.scaling
        assert sc["m_small"] == 100 and sc["m_large"] == 400
        assert sc["sqrt_prediction"] == pytest.approx(2.0)
        assert 1.0 < sc["median_ratio"] < 4.0

    def test_zero_median_at_larger_m_has_no_ratio(self):
        one = FiniteClass((Threshold(0.5),))
        clean = DISTRIBUTIONS["uniform-threshold-clean"]
        rep = verify_uniform_convergence(one, clean, [10, 40], eps=0.1, delta=0.1,
                                         trials=20, seed=SeedSpec(0))
        assert rep.summaries[1].stats["median"] == 0.0
        assert rep.scaling[0]["median_ratio"] is None
        assert '"median_ratio": null' in jsonio.dumps(rep.to_json())

    def test_reproducible_across_workers(self):
        kwargs = dict(m_values=[50, 100], eps=0.1, delta=0.1, trials=40, seed=SeedSpec(6))
        a = verify_uniform_convergence(H, D, **kwargs)
        b = verify_uniform_convergence(H, D, **kwargs)
        assert jsonio.dumps(a.to_json()) == jsonio.dumps(b.to_json())

    def test_repeated_m_rejected(self):
        with pytest.raises(ValueError, match="sample size 40 is listed more than once"):
            verify_uniform_convergence(H, D, [20, 40, 40], eps=0.1, delta=0.1, trials=2,
                                       seed=SeedSpec(0))

    def test_sufficient_m_from_bound_bracket_passes(self):
        # upper bracket of the sample-size regime: representativeness freq >= 1 - delta
        from sltlab.bounds import BoundParams, sample_complexity

        rep_m = sample_complexity(BoundParams(eps=0.1, delta=0.1, m=10, d=1)).m_upper
        rep = verify_uniform_convergence(H, D, [int(rep_m)], eps=0.1, delta=0.1,
                                         trials=60, seed=SeedSpec(7))
        assert rep.summaries[0].success_frequency >= 0.9


class TestNflExact:
    def test_average_matches_occupancy_oracle(self):
        # independent oracle: prediction on an unseen point errs on half the
        # labelings, so the average equals (1/2) * P(point unseen) exactly
        for m in (2, 3):
            oracle = Fraction(1, 2) * Fraction(2 * m - 1, 2 * m) ** m
            for learner in ("memorizer", "erm_all_functions"):
                rep = nfl_exact(m, learner=learner)
                assert rep.average == oracle
                assert rep.average >= Fraction(1, 4)

    def test_matching_bias_labeling_has_zero_error(self):
        rep = nfl_exact(2, learner="memorizer", default_label=0)
        assert rep.best == 0
        assert rep.best_labeling == (0, 0, 0, 0)

    def test_worst_labeling_is_all_ones_for_default_zero(self):
        rep = nfl_exact(2, learner="memorizer", default_label=0)
        assert rep.worst_labeling == (1, 1, 1, 1)
        assert rep.worst == Fraction(9, 16)

    def test_default_label_symmetry(self):
        a = nfl_exact(2, learner="memorizer", default_label=0)
        b = nfl_exact(2, learner="memorizer", default_label=1)
        assert a.average == b.average
        assert b.best_labeling == (1, 1, 1, 1)

    def test_m_cap_enforced(self):
        with pytest.raises(ValueError, match="capped"):
            nfl_exact(5)

    def test_unknown_learner_rejected(self):
        with pytest.raises(ValueError, match="unknown learner"):
            nfl_exact(2, learner="oracle")

    def test_default_label_checked_for_every_learner(self):
        for learner in ("memorizer", "erm_all_functions"):
            with pytest.raises(ValueError, match="default_label must be 0 or 1"):
                nfl_exact(2, learner=learner, default_label=2)

    def test_deterministic_to_last_digit(self):
        a = nfl_exact(3, learner="erm_all_functions")
        b = nfl_exact(3, learner="erm_all_functions")
        assert a == b


def reference_nfl(m, learner, default_label):
    """The per-tuple NFL sum: one call of the real learner per (ordered tuple,
    labeling of the tuple), then a loop over every labeling function f."""
    n = 2 * m
    domain = np.arange(n, dtype=float)[:, None]
    Hall = all_functions_class(domain)

    def fit(S):
        if learner == "memorizer":
            return learners.memorizer(S, default=default_label)
        return erm(Hall, S).hypothesis

    err_totals = [0] * (2 ** n)
    cache = {}
    tuples = list(itertools.product(range(n), repeat=m))
    for idx in tuples:
        distinct = sorted(set(idx))
        for assignment in itertools.product((0, 1), repeat=len(distinct)):
            point_label = dict(zip(distinct, assignment))
            labels = tuple(point_label[j] for j in idx)
            S = LabeledSample(domain[list(idx)], np.asarray(labels, dtype=np.uint8))
            bits = fit(S).labels(domain)
            cache[(idx, labels)] = sum(int(b) << j for j, b in enumerate(bits))
        for f in range(2 ** n):
            labels = tuple((f >> j) & 1 for j in idx)
            err_totals[f] += bin(cache[(idx, labels)] ^ f).count("1")
    denom = len(tuples) * n
    per_f = [Fraction(e, denom) for e in err_totals]
    worst_f = max(range(2 ** n), key=lambda f: (per_f[f], f))
    best_f = min(range(2 ** n), key=lambda f: (per_f[f], f))

    def bits(f):
        return tuple((f >> j) & 1 for j in range(n))

    return experiments.NflReport(
        m=m, domain_size=n, learner=learner, default_label=default_label,
        average=Fraction(sum(err_totals), denom * 2 ** n),
        worst=per_f[worst_f], worst_labeling=bits(worst_f),
        best=per_f[best_f], best_labeling=bits(best_f),
    )


NFL_CASES = [(learner, default_label) for learner in experiments.NFL_LEARNERS
             for default_label in (0, 1)]


class TestNflByLabelledPointSets:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("learner, default_label", NFL_CASES)
    def test_equals_the_per_tuple_sum(self, m, learner, default_label):
        assert nfl_exact(m, learner, default_label) == reference_nfl(m, learner, default_label)

    # sha256 of jsonio.dumps(report.to_json()) at m = 4, as written by the
    # per-tuple sum; every average is 2401/8192 and every worst is 2401/4096
    M4_DIGESTS = {
        ("memorizer", 0): "16d00febeff776915c60babc3e00e0829e3079533660c4a8e9d5143d82c80a9a",
        ("memorizer", 1): "67a694a20653095a652fee5f009bed089efbeb6450de14eac12b9637a125c30a",
        ("erm_all_functions", 0):
            "aadbcebd7fd76fb595bff124567f11eed8351b9f91a6c069f8ab8042970b0133",
        ("erm_all_functions", 1):
            "2f7eb269ec5aaab845830761269643ebbd7ea4f756b81d7d9d86469270a55f81",
    }

    @pytest.mark.parametrize("learner, default_label", NFL_CASES)
    def test_m4_report_bytes_pinned(self, learner, default_label):
        report = nfl_exact(4, learner, default_label)
        assert report.average == Fraction(2401, 8192)
        assert report.worst == Fraction(2401, 4096)
        text = jsonio.dumps(report.to_json())
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == self.M4_DIGESTS[(learner, default_label)]


class TestTradeoffSweep:
    def test_approximation_constant_in_m(self):
        rep = tradeoff_sweep(SEQUENCES["nested-thresholds"], D, m_values=[10, 40],
                             trials=10, delta=0.1, master_seeds=[0, 1])
        per_class = {}
        for row in rep.rows:
            if row["learner"] == "erm":
                per_class.setdefault(row["class_index"], set()).add(
                    row["approximation_error"]
                )
        assert all(len(v) == 1 for v in per_class.values())

    def test_approximation_non_increasing_along_nesting(self):
        rep = tradeoff_sweep(SEQUENCES["nested-thresholds"], D, m_values=[20],
                             trials=5, delta=0.1, master_seeds=[0])
        approx = [r["approximation_error"] for r in rep.rows if r["learner"] == "erm"]
        assert all(a >= b - 1e-15 for a, b in zip(approx, approx[1:]))

    def test_identity_on_every_row(self):
        rep = tradeoff_sweep(SEQUENCES["nested-thresholds"], D, m_values=[15, 30],
                             trials=8, delta=0.1, master_seeds=[3])
        for row in rep.rows:
            if row["learner"] == "erm":
                lhs = row["approximation_error"] + row["mean_estimation_error"]
                assert abs(lhs - row["mean_total_risk"]) < 1e-12

    def test_srm_rows_match_the_learner(self):
        seq = SEQUENCES["nested-thresholds"]
        rep = tradeoff_sweep(seq, D, m_values=[25], trials=6, delta=0.1,
                             master_seeds=[11], keep_records=True)
        for rec in rep.records:
            S = draw_sample(D, rec["m"], SeedSpec(rec["master_seed"]).derive(
                f"tradeoff-m{rec['m']}", rec["trial"]))
            out = srm(seq, S, delta=0.1, C=2.0)
            assert out.class_index == rec["srm_pick"]
            assert abs(out.objective - rec["srm_objective"]) < 1e-12

    def test_vc_dims_length_checked(self):
        with pytest.raises(ValueError, match="vc_dims must match"):
            tradeoff_sweep(SEQUENCES["nested-thresholds"], D, m_values=[20], trials=2,
                           delta=0.1, master_seeds=[0], vc_dims=(1,))

    def test_repeated_m_rejected(self):
        with pytest.raises(ValueError, match="sample size 20 is listed more than once"):
            tradeoff_sweep(SEQUENCES["nested-thresholds"], D, m_values=[20, 20], trials=2,
                           delta=0.1, master_seeds=[0])

    def test_reproducible_across_workers(self):
        kwargs = dict(m_values=[20], trials=12, delta=0.1, master_seeds=[0, 1, 2])
        a = tradeoff_sweep(SEQUENCES["nested-thresholds"], D, **kwargs)
        b = tradeoff_sweep(SEQUENCES["nested-thresholds"], D, **kwargs)
        assert jsonio.dumps(a.to_json()) == jsonio.dumps(b.to_json())

    def test_monte_carlo_member_risks(self):
        # No member of a 3-d box has a closed form: they are risked over the
        # "tradeoff-member-risk" stream of the first master seed.
        box = UniformBox(((0.0, 1.0),) * 3)
        D3 = DataDistribution(box, Rectangle(((0.0, 0.5), (0.0, 1.0), (0.0, 0.5))), noise=0.1)
        seq = WeightedClassSequence((RectangleClass(((0.0, 1.0),) * 3, resolution=2),
                                     RectangleClass(((0.0, 1.0),) * 3, resolution=3)))
        with pytest.raises(AnalyticRiskUnavailable):
            tradeoff_sweep(seq, D3, m_values=[20], trials=2, delta=0.1, master_seeds=[5, 6])
        rep = tradeoff_sweep(seq, D3, m_values=[20], trials=2, delta=0.1, master_seeds=[5, 6],
                             mc_n=300)
        stacked, ends = learners.stack_sequence(seq, DEFAULT_ENUMERATION_BUDGET)
        risks, mc = distributions.member_risks(D3, stacked, 300, SeedSpec(5),
                                               "tradeoff-member-risk")
        assert mc.all()
        approx = [r["approximation_error"] for r in rep.rows if r["learner"] == "erm"]
        assert approx == [risks[a:b].min() for a, b in zip(ends[:-1], ends[1:])]
        assert rep.config["mc_n"] == 300

    def test_config_has_mc_n_only_when_set(self):
        kwargs = dict(m_values=[20], trials=2, delta=0.1, master_seeds=[0])
        exact = tradeoff_sweep(SEQUENCES["nested-thresholds"], D, **kwargs)
        unused = tradeoff_sweep(SEQUENCES["nested-thresholds"], D, mc_n=50, **kwargs)
        assert "mc_n" not in exact.config and unused.config["mc_n"] == 50
        assert exact.rows == unused.rows


# A finite support, so that many members tie on every sample and the harness
# must pick the first of them, as per-trial ERM does.
TIES = DataDistribution(FiniteUniform(tuple((i / 10,) for i in range(10))),
                        Threshold(0.45), noise=0.2)


@pytest.fixture(params=[1, 7, None], ids=["1-trial", "7-trials", "default"])
def trials_per_block(request, monkeypatch):
    """Runs the harnesses with blocks of this many trials (None: the default
    block size) by setting LABEL_BLOCK_CELLS for a class of n members and
    samples of m rows."""
    def setup(n, m):
        if request.param is not None:
            monkeypatch.setattr(experiments, "LABEL_BLOCK_CELLS", request.param * n * m)
    return setup


class TestTrialBlocks:
    def test_learnability_records_equal_per_trial_erm(self, trials_per_block):
        m, n = 12, len(enumerate_class(H))
        trials_per_block(n, m)
        s = verify_learnability(H, TIES, m=m, eps=0.1, delta=0.1, trials=40,
                                seed=SeedSpec(4), keep_records=True)
        ties = 0
        for r in s.records:
            S = draw_sample(TIES, m, SeedSpec(4).derive("pac-trial", r.trial))
            counts = core.error_counts(enumerate_class(H), S)
            ties += int(np.sum(counts == counts.min()) > 1)
            out = erm(H, S)
            assert r.hypothesis == out.hypothesis.to_json()
            assert r.empirical_error == out.empirical_error
        assert [r.trial for r in s.records] == list(range(40))
        assert ties == 40

    def test_uc_records_equal_per_trial_deviations(self, trials_per_block):
        m_values = [8, 20]
        trials_per_block(len(enumerate_class(H)), m_values[0])
        rep = verify_uniform_convergence(H, TIES, m_values, eps=0.2, delta=0.1, trials=30,
                                         seed=SeedSpec(6), keep_records=True)
        members = enumerate_class(H)
        risks = np.array([distributions.true_risk(TIES, h) for h in members])
        for m, summary in zip(m_values, rep.summaries):
            assert [r.trial for r in summary.records] == list(range(30))
            for r in summary.records:
                S = draw_sample(TIES, m, SeedSpec(6).derive(f"uc-trial-m{m}", r.trial))
                dev = float(np.max(np.abs(core.error_counts(members, S) / m - risks)))
                assert r.sup_deviation == dev and r.success == (dev <= 0.2)

    def test_tradeoff_records_equal_per_trial_srm(self, trials_per_block):
        seq = SEQUENCES["nested-thresholds"]
        trials_per_block(sum(c.size() for c in seq.classes), 15)
        rep = tradeoff_sweep(seq, TIES, m_values=[15, 9], trials=20, delta=0.1,
                             master_seeds=[3, 2], C=2.0, keep_records=True)
        # master seed major, then m, then trial, each in the order given
        assert [(r["master_seed"], r["m"], r["trial"]) for r in rep.records] == [
            (s, m, t) for s in (3, 2) for m in (15, 9) for t in range(20)]
        for rec in rep.records:
            S = draw_sample(TIES, rec["m"], SeedSpec(rec["master_seed"]).derive(
                f"tradeoff-m{rec['m']}", rec["trial"]))
            out = srm(seq, S, delta=0.1, C=2.0)
            assert out.class_index == rec["srm_pick"]
            assert out.objective == rec["srm_objective"]
            for c, cls in enumerate(seq.classes, start=1):
                fit = erm(cls, S).hypothesis
                assert distributions.true_risk(TIES, fit) == rec[f"risk_class_{c}"]


@pytest.fixture
def enumerations(monkeypatch):
    """The classes stacked by StackedMembers.of, which enumerate_class and
    every sltlab module that labels a class's members call."""
    calls = []
    original = core.StackedMembers.of.__func__

    def counted(cls, *classes, **kwargs):
        calls.extend(classes)
        return original(cls, *classes, **kwargs)

    monkeypatch.setattr(core.StackedMembers, "of", classmethod(counted))
    return calls


class TestEnumeratesOncePerRun:
    def test_learnability(self, enumerations):
        verify_learnability(H, D, m=20, eps=0.1, delta=0.1, trials=30, seed=SeedSpec(1))
        assert enumerations == [H]

    def test_uniform_convergence(self, enumerations):
        verify_uniform_convergence(H, D, [20, 40], eps=0.1, delta=0.1, trials=30,
                                   seed=SeedSpec(1))
        assert enumerations == [H]

    def test_tradeoff(self, enumerations):
        seq = SEQUENCES["nested-thresholds"]
        tradeoff_sweep(seq, D, m_values=[10, 20], trials=10, delta=0.1, master_seeds=[0, 1])
        assert enumerations == list(seq.classes)

    def test_srm_labels_the_sequence_once(self, enumerations, monkeypatch):
        seq = SEQUENCES["nested-thresholds"]
        S = draw_sample(D, 50, SeedSpec(2))
        calls = []

        def counted(members, sample):
            calls.append(len(members))
            return core.error_counts(members, sample)

        monkeypatch.setattr(learners, "error_counts", counted)
        srm(seq, S, delta=0.1)
        assert enumerations == list(seq.classes)
        assert calls == [sum(c.size() for c in seq.classes)]


@pytest.fixture
def seedings(monkeypatch):
    """The row count of each _pcg64_states call, the one seeding pass of a
    draw_blocks call."""
    calls = []
    original = distributions._pcg64_states

    def counted(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(distributions, "_pcg64_states", counted)
    return calls


class TestSeedsOncePerRun:
    """Blocks of one trial: each run of trials is still seeded in one pass."""

    @pytest.fixture(autouse=True)
    def one_trial_blocks(self, monkeypatch):
        monkeypatch.setattr(experiments, "LABEL_BLOCK_CELLS", 1)
        monkeypatch.setattr(distributions, "LABEL_BLOCK_CELLS", 1)

    def test_learnability(self, seedings):
        verify_learnability(H, D, m=20, eps=0.1, delta=0.1, trials=30, seed=SeedSpec(1))
        assert seedings == [30]

    def test_learnability_monte_carlo(self, seedings):
        cls = FiniteClass((Threshold(0.3), SineSign(2.0), SineSign(5.0)))
        s = verify_learnability(cls, D, m=20, eps=0.1, delta=0.1, trials=30, seed=SeedSpec(1),
                                mc_n=50, keep_records=True)
        again = sum(r.hypothesis["kind"] == "sine" for r in s.records)
        # the class's Monte Carlo members, the trials, then the sine picks
        assert seedings == [2, 30] + ([again] if again else [])

    def test_uniform_convergence(self, seedings):
        verify_uniform_convergence(H, D, [20, 40], eps=0.1, delta=0.1, trials=30,
                                   seed=SeedSpec(1))
        assert seedings == [30, 30]

    def test_tradeoff(self, seedings):
        tradeoff_sweep(SEQUENCES["nested-thresholds"], D, m_values=[10, 20], trials=10,
                       delta=0.1, master_seeds=[0, 1])
        assert seedings == [20, 20]
