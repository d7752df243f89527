"""Monte Carlo and exact-enumeration harnesses for the core guarantees:
learnability of a class by its empirical-error minimizer, uniform convergence
of empirical errors, the exact average-case failure of data-only learners on
a tiny domain, and the approximation/estimation trade-off sweep.

Trials run in blocks, in index order.  Each trial draws from its own
generator derived from (master seed, stream, trial index), so any single
trial can be rebuilt on its own; a block of trials is drawn, labelled and
fitted in one pass, sized so that its member x trial x sample-row label cells
fill at most LABEL_BLOCK_CELLS.  A harness keeps its results as per-trial
arrays in trial order and aggregates over them; per-trial records are built
from those arrays only when ``keep_records`` asks for them.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .bounds import DEFAULT_C
from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    LABEL_BLOCK_CELLS,
    FiniteClass,
    HypothesisClass,
    LookupTable,
    StackedMembers,
    WeightedClassSequence,
    trial_error_counts,
)
from .distributions import (
    DataDistribution,
    SeedSpec,
    draw_blocks,
    member_risks,
)
from .learners import (
    DEFAULT_LABEL,
    class_dims,
    fit_sequence,
    srm_penalty,
    stack_sequence,
)

VERDICT_SLACK = 0.02
CONFIDENCE = 0.95


def binomial_bounds(successes: int, trials: int):
    """Exact one-sided Clopper-Pearson bounds on a binomial proportion, each at
    confidence CONFIDENCE."""
    if not (0 <= successes <= trials) or trials < 1:
        raise ValueError("need 0 <= successes <= trials with trials >= 1")
    # The beta quantile beta.ppf(q, a, b) is betaincinv(a, b, q), bit for bit.
    # It is imported here, from scipy.special: scipy itself takes about half a
    # second to import and only the harness verdicts need it, and scipy.stats,
    # which holds beta.ppf, would add about another half second and 45 MB.
    from scipy.special import betaincinv

    alpha = 1.0 - CONFIDENCE
    lower = 0.0 if successes == 0 else float(
        betaincinv(successes, trials - successes + 1, alpha)
    )
    upper = 1.0 if successes == trials else float(
        betaincinv(successes + 1, trials - successes, CONFIDENCE)
    )
    return lower, upper


def binomial_verdict(successes: int, trials: int, threshold: float):
    """(verdict, lower, upper): pass when confidently above the threshold,
    fail when confidently below, indeterminate when the bounds straddle it."""
    lower, upper = binomial_bounds(successes, trials)
    if lower >= threshold:
        return "pass", lower, upper
    if upper < threshold:
        return "fail", lower, upper
    return "indeterminate", lower, upper


@dataclass(frozen=True)
class TrialRecord:
    """One independent draw; reconstructable from (config, master seed, trial).
    Built from a harness's per-trial arrays only when records are kept."""

    trial: int
    risk: float | None
    estimation: float | None
    empirical_error: float | None
    success: bool | None = None
    sup_deviation: float | None = None
    class_index: int | None = None
    hypothesis: dict | None = None

    def csv_row(self) -> dict:
        """The fields in declaration order, the hypothesis as compact JSON."""
        row = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.hypothesis is not None:
            row["hypothesis"] = json.dumps(self.hypothesis, separators=(",", ":"))
        return row


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregate of one harness run plus the decision it reached; ``records``
    is None unless the run kept its per-trial records."""

    kind: str
    config: dict
    trials: int
    successes: int
    threshold: float
    ci_lower: float
    ci_upper: float
    verdict: str
    stats: dict
    extra: dict
    records: tuple[TrialRecord, ...] | None = None

    @property
    def success_frequency(self) -> float:
        return self.successes / self.trials

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "config": self.config,
            "trials": self.trials,
            "successes": self.successes,
            "success_frequency": self.success_frequency,
            "threshold": self.threshold,
            "ci_lower": self.ci_lower,
            "ci_upper": self.ci_upper,
            "verdict": self.verdict,
            "stats": self.stats,
            "extra": self.extra,
        }

    def csv_row(self) -> dict:
        row = {
            "kind": self.kind,
            "m": self.config.get("m"),
            "eps": self.config.get("eps"),
            "delta": self.config.get("delta"),
            "trials": self.trials,
            "successes": self.successes,
            "success_frequency": self.success_frequency,
            "threshold": self.threshold,
            "ci_lower": self.ci_lower,
            "ci_upper": self.ci_upper,
            "verdict": self.verdict,
        }
        row.update({k: self.stats.get(k) for k in ("mean", "median", "q05", "q95")})
        return row


def _check_harness(eps: float, delta: float, trials: int) -> None:
    """Reject a harness argument out of range before any work starts."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not (0.0 < eps):
        raise ValueError("eps must be positive")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def _per_trial(D: DataDistribution, m: int, rows: Sequence[tuple[int, int, int]], n: int,
               fn: Callable) -> list[np.ndarray]:
    """fn(X, y) over samples of m rows drawn from the seed rows (see
    ``SeedSpec.rows``), its per-trial outputs concatenated in row order.  The
    rows are seeded in one pass and drawn by ``draw_blocks``, each block
    holding as many trials as fit n members x m rows into LABEL_BLOCK_CELLS
    (at least one)."""
    step = max(1, LABEL_BLOCK_CELLS // max(n * m, 1))
    parts = [fn(X, y) for X, y in draw_blocks(D, m, rows, step)]
    return [np.concatenate(outputs) for outputs in zip(*parts)]


def check_distinct_sizes(m_values: Sequence[int]) -> None:
    """Reject a sample size listed more than once: its results would be
    pooled under one m."""
    for i, m in enumerate(m_values):
        if m in m_values[:i]:
            raise ValueError(f"sample size {m} is listed more than once")


def _summary(
    kind: str, H: HypothesisClass, D: DataDistribution, m: int, eps: float, delta: float,
    seed: SeedSpec, success: np.ndarray, statistic: np.ndarray, extra: dict,
    records: list[TrialRecord] | None,
) -> ExperimentSummary:
    """One harness run at sample size m from its per-trial arrays: the exact
    binomial verdict of the successes against 1 - delta - VERDICT_SLACK, and
    the mean and quantiles of the statistic."""
    trials, successes = len(success), int(np.count_nonzero(success))
    threshold = 1.0 - delta - VERDICT_SLACK
    verdict, lower, upper = binomial_verdict(successes, trials, threshold)
    return ExperimentSummary(
        kind=kind,
        config={
            "class": H.to_json(), "distribution": D.to_json(),
            "m": m, "eps": eps, "delta": delta, "trials": trials,
            "master_seed": seed.master_seed,
        },
        trials=trials,
        successes=successes,
        threshold=threshold,
        ci_lower=lower,
        ci_upper=upper,
        verdict=verdict,
        stats={
            "mean": float(np.mean(statistic)),
            "median": float(np.median(statistic)),
            "q05": float(np.quantile(statistic, 0.05)),
            "q95": float(np.quantile(statistic, 0.95)),
        },
        extra=extra,
        records=None if records is None else tuple(records),
    )


# ---------------------------------------------------------------------------
# Learnability
# ---------------------------------------------------------------------------


def verify_learnability(
    H: HypothesisClass,
    D: DataDistribution,
    m: int,
    eps: float,
    delta: float,
    trials: int,
    seed: SeedSpec,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    mc_n: int | None = None,
    keep_records: bool = False,
) -> ExperimentSummary:
    """Frequency of the selected member's risk landing within eps of the best
    risk in the class, judged against 1 - delta by an exact binomial rule.

    The decision threshold is 1 - delta - 0.02; the slack absorbs Monte Carlo
    noise at the boundary, and the verdict is "indeterminate" whenever the
    one-sided confidence bounds straddle the threshold.

    Each trial picks the first member with fewest mismatches on its sample
    (the one ``erm`` picks).  A pick's risk is read from the class's risk
    vector, unless that member needed Monte Carlo; then ``member_risks`` risks
    the pick over its trial's own "pac-risk" stream.
    """
    _check_harness(eps, delta, trials)
    members = StackedMembers.of(H, budget=budget)
    risks, mc = member_risks(D, members, mc_n, seed, "min-risk-member")
    min_risk = float(risks.min())

    def pick(X, y):
        counts = trial_error_counts(members, X, y)
        return np.argmin(counts, axis=1), counts.min(axis=1)

    picked, errors = _per_trial(D, m, seed.rows("pac-trial", range(trials)), len(members), pick)
    pick_risks = risks[picked]
    again = np.flatnonzero(mc[picked]).tolist()
    if again:
        pick_risks[again], _ = member_risks(D, [members[picked[t]] for t in again], mc_n, seed,
                                            "pac-risk", again)
    records = [
        TrialRecord(trial=t, risk=risk, estimation=risk - min_risk, empirical_error=e / m,
                    success=risk <= min_risk + eps, hypothesis=members[i].to_json())
        for t, (i, e, risk) in enumerate(zip(picked.tolist(), errors.tolist(),
                                             pick_risks.tolist()))
    ] if keep_records else None
    return _summary("learnability", H, D, m, eps, delta, seed, pick_risks <= min_risk + eps,
                    pick_risks - min_risk,
                    {"min_risk_in_class": min_risk, "statistic": "estimation_error"}, records)


# ---------------------------------------------------------------------------
# Uniform convergence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UcReport:
    """Per-sample-size summaries plus the observed scaling of median sup
    deviation (expected to shrink like one over the square root of m)."""

    summaries: tuple[ExperimentSummary, ...]
    scaling: tuple[dict, ...]

    def to_json(self) -> dict:
        return {
            "summaries": [s.to_json() for s in self.summaries],
            "scaling": list(self.scaling),
        }


def verify_uniform_convergence(
    H: HypothesisClass,
    D: DataDistribution,
    m_values: Sequence[int],
    eps: float,
    delta: float,
    trials: int,
    seed: SeedSpec,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    mc_n: int | None = None,
    keep_records: bool = False,
) -> UcReport:
    """Frequency of eps-representative samples and median sup deviation per m.

    The same binomial verdict rule as the learnability harness applies at
    each m; consecutive m pairs additionally report the ratio of median
    deviations next to the square-root prediction (None when the larger m's
    median deviation is 0).
    """
    _check_harness(eps, delta, trials)
    check_distinct_sizes(m_values)
    members = StackedMembers.of(H, budget=budget)
    risks, _ = member_risks(D, members, mc_n, seed, "uc-member-risk")

    summaries = []
    for m in m_values:
        # per trial, the sup over the class of |empirical error - true risk|
        (devs,) = _per_trial(
            D, m, seed.rows(f"uc-trial-m{m}", range(trials)), len(members),
            lambda X, y: (np.max(np.abs(trial_error_counts(members, X, y) / m - risks), axis=1),))
        success = devs <= eps
        records = [TrialRecord(trial=t, risk=None, estimation=None, empirical_error=None,
                               success=ok, sup_deviation=dev)
                   for t, (dev, ok) in enumerate(zip(devs.tolist(), success.tolist()))
                   ] if keep_records else None
        summaries.append(_summary("uniform_convergence", H, D, m, eps, delta, seed, success, devs,
                                  {"statistic": "sup_deviation", "n_hypotheses": len(members)},
                                  records))

    scaling = []
    for a, b in itertools.pairwise(range(len(m_values))):
        ma, mb = m_values[a], m_values[b]
        med_a = summaries[a].stats["median"]
        med_b = summaries[b].stats["median"]
        scaling.append({
            "m_small": ma,
            "m_large": mb,
            "median_ratio": med_a / med_b if med_b > 0 else None,
            "sqrt_prediction": math.sqrt(mb / ma),
        })
    return UcReport(tuple(summaries), tuple(scaling))


# ---------------------------------------------------------------------------
# Exact no-free-lunch enumeration
# ---------------------------------------------------------------------------

NFL_MAX_M = 4
NFL_LEARNERS = ("memorizer", "erm_all_functions")
DEFAULT_NFL_LEARNER = "memorizer"


@dataclass(frozen=True)
class NflReport:
    """Exact rational average (over all labelings) of the expected risk of a
    data-only learner on a uniform 2m-point domain, with per-labeling extremes.

    Enumeration is exhaustive and exactly weighted; no sampling is involved,
    so every value is a deterministic equality.
    """

    m: int
    domain_size: int
    learner: str
    default_label: int
    average: Fraction
    worst: Fraction
    worst_labeling: tuple[int, ...]
    best: Fraction
    best_labeling: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "domain_size": self.domain_size,
            "n_labelings": 2 ** self.domain_size,
            "learner": self.learner,
            "default_label": self.default_label,
            "average_expected_error": str(self.average),
            "average_expected_error_float": float(self.average),
            "worst_expected_error": str(self.worst),
            "worst_expected_error_float": float(self.worst),
            "worst_labeling": list(self.worst_labeling),
            "best_expected_error": str(self.best),
            "best_expected_error_float": float(self.best),
            "best_labeling": list(self.best_labeling),
        }


def all_functions_class(domain: np.ndarray) -> FiniteClass:
    """Every labeling of the domain as a lookup table, in integer order:
    member r labels point j with bit j of r."""
    n = len(domain)
    points = tuple(tuple(float(c) for c in row) for row in domain)
    members = tuple(
        LookupTable(points, tuple((r >> j) & 1 for j in range(n)), default=0)
        for r in range(2 ** n)
    )
    return FiniteClass(members, domain=points)


def nfl_exact(
    m: int, learner: str = DEFAULT_NFL_LEARNER, default_label: int = DEFAULT_LABEL
) -> NflReport:
    """Exact average expected risk of a data-only learner over every noiseless
    labeling of a uniform 2m-point domain.

    The sum runs over all 2^(2m) labeling functions f and all (2m)^m equally
    likely ordered instance tuples.  After seeing f on the set s of distinct
    points of a tuple, each learner predicts f on s and a fixed ``fill`` on
    every unseen point: the memorizer fills with ``default_label``, and
    ``erm_all_functions`` with 0, because the first all-functions member in
    integer order that fits the sample is f & s, whose unseen bits are clear.
    So f's error on a tuple is the number of unseen points where f differs
    from the fill, and each s is weighted by the number of ordered tuples
    whose points are exactly s.  All arithmetic is in integers and exact
    fractions.  Requires m <= 4.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if m > NFL_MAX_M:
        raise ValueError(
            f"m={m} needs {2 ** (2 * m)} labelings over {(2 * m) ** m} tuples; "
            f"the exact enumeration is capped at m={NFL_MAX_M}"
        )
    if learner not in NFL_LEARNERS:
        raise ValueError(f"unknown learner {learner!r}; expected one of {NFL_LEARNERS}")
    if default_label not in (0, 1):
        raise ValueError(f"default_label must be 0 or 1, got {default_label!r}")
    n = 2 * m
    fill = (1 << n) - 1 if learner == "memorizer" and default_label else 0
    tuples = np.array(list(itertools.product(range(n), repeat=m)))
    tuple_counts = np.bincount(np.bitwise_or.reduce(1 << tuples, axis=1), minlength=2 ** n)
    sets = np.flatnonzero(tuple_counts)
    popcount = np.array([bin(v).count("1") for v in range(2 ** n)])
    # err_totals[f] = sum over instance tuples of |{j unseen : fill_j != f_j}|
    unseen_errors = popcount[(np.arange(2 ** n) ^ fill) & ~sets[:, None]]
    err_totals = (tuple_counts[sets] @ unseen_errors).tolist()

    denom = len(tuples) * n
    per_f = [Fraction(e, denom) for e in err_totals]
    total = Fraction(sum(err_totals), denom * 2 ** n)
    worst_f = max(range(2 ** n), key=lambda f: (per_f[f], f))
    best_f = min(range(2 ** n), key=lambda f: (per_f[f], f))

    def bits(f: int) -> tuple[int, ...]:
        return tuple((f >> j) & 1 for j in range(n))

    return NflReport(
        m=m,
        domain_size=n,
        learner=learner,
        default_label=default_label,
        average=total,
        worst=per_f[worst_f],
        worst_labeling=bits(worst_f),
        best=per_f[best_f],
        best_labeling=bits(best_f),
    )


# ---------------------------------------------------------------------------
# Bias-complexity trade-off sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TradeoffReport:
    """Tidy per-(learner, class, m) table of mean decomposed risks."""

    rows: tuple[dict, ...]
    config: dict
    records: tuple[dict, ...] | None = None

    def to_json(self) -> dict:
        return {"config": self.config, "rows": list(self.rows)}


def tradeoff_sweep(
    seq: WeightedClassSequence,
    D: DataDistribution,
    m_values: Sequence[int],
    trials: int,
    delta: float,
    master_seeds: Sequence[int],
    C: float = DEFAULT_C,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    vc_dims: tuple[int, ...] | None = None,
    keep_records: bool = False,
    mc_n: int | None = None,
) -> TradeoffReport:
    """Mean approximation/estimation/total risk of the per-class minimizer for
    each (class, m), pooled over master seeds, plus one penalized-selection
    row per m over the full sequence.

    Each block of trials labels every member of the sequence once per trial;
    ``fit_sequence`` gives both the per-class fits and the penalized pick of
    each trial, as in ``srm``.  A member without a closed-form risk is
    risked by ``member_risks`` over mc_n draws of the "tradeoff-member-risk"
    stream of the first master seed; without mc_n it raises
    AnalyticRiskUnavailable.
    """
    if trials < 1 or not master_seeds:
        raise ValueError("need at least one trial and one master seed")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    check_distinct_sizes(m_values)
    n_classes = len(seq)
    dims = class_dims(seq, vc_dims)
    stacked, ends = stack_sequence(seq, budget)
    member_risk = member_risks(D, stacked, mc_n, SeedSpec(master_seeds[0]),
                               "tradeoff-member-risk")[0]
    approx = np.array([member_risk[a:b].min() for a, b in zip(ends[:-1], ends[1:])])

    rows: list[dict] = []
    runs = []  # per m: each class's fit risk, the pick and its objective, per trial
    for m in m_values:
        pens = np.array([srm_penalty(d, w, delta, m, C=C) for d, w in zip(dims, seq.weights)])
        # pooled over master seeds, master-major then trial
        seeds = [row for master in master_seeds
                 for row in SeedSpec(master).rows(f"tradeoff-m{m}", range(trials))]
        fits, errors, picks = _per_trial(
            D, m, seeds, len(stacked),
            lambda X, y: fit_sequence(trial_error_counts(stacked, X, y), ends, m, pens))
        risks, at = member_risk[fits], np.arange(len(seeds))
        objectives = errors[at, picks] + pens[picks]
        runs.append((risks, picks, objectives))
        for c in range(n_classes):
            rows.append({
                "learner": "erm",
                "class_index": c + 1,
                "vc_dim": dims[c],
                "m": m,
                "approximation_error": float(approx[c]),
                "mean_estimation_error": float(np.mean(risks[:, c] - approx[c])),
                "mean_total_risk": float(np.mean(risks[:, c])),
                "mean_objective": None,
                "pick_freqs": None,
                "trials": len(seeds),
            })
        freqs = {str(c + 1): np.count_nonzero(picks == c) / len(seeds) for c in range(n_classes)}
        rows.append({
            "learner": "srm",
            "class_index": None,
            "vc_dim": None,
            "m": m,
            "approximation_error": None,
            "mean_estimation_error": None,
            "mean_total_risk": float(np.mean(risks[at, picks])),
            "mean_objective": float(np.mean(objectives)),
            "pick_freqs": ";".join(f"{k}:{v:.6f}" for k, v in sorted(freqs.items())),
            "trials": len(seeds),
        })

    records = tuple(
        {
            "master_seed": master, "m": m, "trial": t,
            **{f"risk_class_{c + 1}": r for c, r in enumerate(risks[k].tolist())},
            "srm_pick": int(picks[k]) + 1,
            "srm_risk": float(risks[k, picks[k]]),
            "srm_objective": float(objectives[k]),
        }
        for a, master in enumerate(master_seeds)
        for m, (risks, picks, objectives) in zip(m_values, runs)
        for t, k in enumerate(range(a * trials, (a + 1) * trials))
    ) if keep_records else None
    config = {
        "sequence": seq.to_json(),
        "distribution": D.to_json(),
        "m_values": list(m_values),
        "trials": trials,
        "delta": delta,
        "C": C,
        "master_seeds": list(master_seeds),
        "vc_dims": dims,
    }
    if mc_n is not None:
        config["mc_n"] = mc_n
    return TradeoffReport(tuple(rows), config, records)
