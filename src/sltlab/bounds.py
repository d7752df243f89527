"""Quantitative sample-complexity and accuracy bounds, representativeness
checks, and the approximation/estimation decomposition of total risk.

All logarithms are natural; every report echoes the constants it used, since
the underlying guarantees only fix them up to unspecified multiplicative
factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    Hypothesis,
    HypothesisClass,
    JsonFields,
    LabeledSample,
    enumerate_class,
    error_counts,
)
from .distributions import (
    DataDistribution,
    SeedSpec,
    hoeffding_band,
    member_risks,
    min_risk_in_class,
)

DEFAULT_C = 2.0
DEFAULT_C1 = 1.0 / 16.0
DEFAULT_C2 = 64.0
LOG_BASE = "e"


@dataclass(frozen=True)
class BoundParams:
    """Inputs to the quantitative bounds; constants are configuration."""

    eps: float
    delta: float
    m: int
    d: int
    C: float = DEFAULT_C
    C1: float = DEFAULT_C1
    C2: float = DEFAULT_C2

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m}")
        if self.d < 0:
            raise ValueError(f"d must be nonnegative, got {self.d}")
        if min(self.C, self.C1, self.C2) <= 0:
            raise ValueError("constants C, C1, C2 must be positive")


@dataclass(frozen=True)
class BoundReport:
    """Computed bound values with the inputs echoed."""

    b: float
    m_lower: float
    m_upper: float
    eps_uc: float
    params: BoundParams

    def to_json(self) -> dict:
        p = self.params
        return {
            "b": self.b,
            "m_lower": self.m_lower,
            "m_upper": self.m_upper,
            "eps_uc": self.eps_uc,
            "inputs": {
                "d": p.d, "eps": p.eps, "delta": p.delta, "m": p.m,
                "C": p.C, "C1": p.C1, "C2": p.C2, "log_base": LOG_BASE,
            },
        }

    def csv_row(self) -> dict:
        p = self.params
        return {
            "d": p.d, "eps": p.eps, "delta": p.delta, "m": p.m,
            "b": self.b, "m_lower": self.m_lower, "m_upper": self.m_upper,
            "eps_uc": self.eps_uc, "C": p.C, "C1": p.C1, "C2": p.C2, "log_base": LOG_BASE,
        }


def sample_complexity(params: BoundParams) -> BoundReport:
    """Base quantity b = (d - ln delta) / eps^2 and its bracket [C1 b, C2 b].

    The bracket is the sample-size regime in which both the learnability and
    uniform-convergence guarantees hold; eps_uc is the accuracy bound at the
    echoed sample size m.
    """
    b = (params.d - math.log(params.delta)) / params.eps ** 2
    return BoundReport(
        b=b,
        m_lower=params.C1 * b,
        m_upper=params.C2 * b,
        eps_uc=accuracy_bound(params.m, params.delta, params.d, params.C),
        params=params,
    )


def accuracy_bound(m: float, delta: float, d: int, C: float = DEFAULT_C) -> float:
    """Uniform accuracy at sample size m: C * sqrt((d - ln delta) / m)."""
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if d < 0:
        raise ValueError(f"d must be nonnegative, got {d}")
    if C <= 0:
        raise ValueError("C must be positive")
    return C * math.sqrt((d - math.log(delta)) / m)


@dataclass(frozen=True)
class RepresentativenessReport:
    """Worst empirical-vs-true deviation over a class on one sample.

    ``verdict`` is None ("indeterminate") only on the Monte Carlo route, when
    the worst deviation lands within one estimation band of the target eps.
    """

    verdict: bool | None
    eps: float
    worst_deviation: float
    worst_hypothesis: Hypothesis
    n_hypotheses: int
    mc_band: float | None = None

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "eps": self.eps,
            "worst_deviation": self.worst_deviation,
            "worst_hypothesis": self.worst_hypothesis.to_json(),
            "n_hypotheses": self.n_hypotheses,
            "mc_band": self.mc_band,
        }


def is_eps_representative(
    S: LabeledSample,
    H: HypothesisClass,
    D: DataDistribution,
    eps: float,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    mc_n: int | None = None,
    seed: SeedSpec | None = None,
) -> RepresentativenessReport:
    """Whether every enumerated member's empirical error is within eps of its
    true risk, with the maximizing member and its deviation.

    Exact risks give a boolean verdict.  If any member needs Monte Carlo, all
    deviations carry a shared Hoeffding band and the verdict goes to None
    whenever the worst deviation is within one band of eps.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if S.m == 0:
        raise ValueError("empirical error is undefined for an empty sample")
    members = enumerate_class(H, budget=budget)
    emp = error_counts(members, S) / S.m
    risks, mc = member_risks(D, members, mc_n, seed, "representative-member")
    used_mc = bool(mc.any())
    devs = np.abs(emp - risks)
    worst = int(np.argmax(devs))
    worst_dev = float(devs[worst])
    band = hoeffding_band(mc_n) if used_mc else None
    if not used_mc:
        verdict: bool | None = worst_dev <= eps
    elif worst_dev + band <= eps:
        verdict = True
    elif worst_dev - band > eps:
        verdict = False
    else:
        verdict = None
    return RepresentativenessReport(
        verdict=verdict,
        eps=eps,
        worst_deviation=worst_dev,
        worst_hypothesis=members[worst],
        n_hypotheses=len(members),
        mc_band=band,
    )


@dataclass(frozen=True)
class ErrorDecomposition(JsonFields):
    """Total risk split into the class's best risk and the excess over it."""

    approximation_error: float
    estimation_error: float
    total: float
    minimizer: Hypothesis


def decompose_error(
    D: DataDistribution,
    H: HypothesisClass,
    h_hat: Hypothesis,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    mc_n: int | None = None,
    seed: SeedSpec | None = None,
) -> ErrorDecomposition:
    """approximation = best risk in the class, estimation = total - approximation.

    The identity approximation + estimation == total holds by construction;
    estimation is nonnegative whenever h_hat is one of the enumerated members.
    """
    minimizer, approx = min_risk_in_class(D, H, budget=budget, mc_n=mc_n, seed=seed)
    risks, _ = member_risks(D, [h_hat], mc_n, seed, "decompose-hhat")
    total = float(risks[0])
    return ErrorDecomposition(
        approximation_error=approx,
        estimation_error=total - approx,
        total=total,
        minimizer=minimizer,
    )
