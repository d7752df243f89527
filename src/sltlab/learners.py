"""Inductive principles: empirical risk minimization, its penalized variant
over a weighted class sequence, and a memorizing baseline.

Both learners are deterministic: ties are broken by canonical enumeration
order (and by lower class position first for the penalized variant), so any
output is reproducible bit for bit.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import DEFAULT_C, accuracy_bound
from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    Hypothesis,
    HypothesisClass,
    JsonFields,
    LabeledSample,
    LookupTable,
    StackedMembers,
    WeightedClassSequence,
    error_counts,
)

DEFAULT_LABEL = 0


@dataclass(frozen=True)
class LearnerOutput(JsonFields):
    """A selected hypothesis with its empirical error and, for the penalized
    learner, the 1-based class position and penalized objective value."""

    hypothesis: Hypothesis
    empirical_error: float
    class_index: int | None = None
    objective: float | None = None
    penalty_config: dict | None = None


def erm(
    H: HypothesisClass,
    S: LabeledSample,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> LearnerOutput:
    """First member of the enumerated class with minimal error on S.

    Mismatches are compared as integer counts, so ties are exact and the
    returned member is the earliest minimizer in canonical order.
    """
    if S.m == 0:
        raise ValueError("empirical risk minimization needs a nonempty sample")
    members = StackedMembers.of(H, budget=budget)
    counts = error_counts(members, S)
    best = int(np.argmin(counts))
    return LearnerOutput(members[best], int(counts[best]) / S.m)


def srm_penalty(d: int, weight: float, delta: float, m: int, C: float = DEFAULT_C) -> float:
    """Class-dependent accuracy penalty C * sqrt((d - ln(w * delta)) / m).

    Natural logarithm throughout.  The weighted confidence split w * delta
    must land strictly inside (0, 1).
    """
    wd = weight * delta
    if not (0.0 < wd < 1.0):
        raise ValueError(f"weight * delta must lie in (0, 1), got {wd}")
    return accuracy_bound(m, wd, d, C)


def class_dims(seq: WeightedClassSequence, vc_dims: tuple[int, ...] | None = None) -> list[int]:
    """Each class's dimension: ``vc_dims`` when given, else its ``vc_dim_hint``."""
    if vc_dims is not None and len(vc_dims) != len(seq):
        raise ValueError("vc_dims must match the number of classes")
    dims: list[int] = []
    for pos, cls in enumerate(seq.classes, start=1):
        d = vc_dims[pos - 1] if vc_dims is not None else cls.vc_dim_hint
        if d is None:
            raise ValueError(
                f"class at position {pos} has no known finite dimension; pass vc_dims"
            )
        dims.append(int(d))
    return dims


def stack_sequence(seq: WeightedClassSequence, budget: int) -> tuple[StackedMembers, np.ndarray]:
    """Every member of seq in one StackedMembers, class by class in canonical
    order, and the class ends: class c owns stacked[ends[c]:ends[c + 1]]."""
    ends = np.cumsum([0] + [cls.size() for cls in seq.classes])
    return StackedMembers.of(*seq.classes, budget=budget), ends


def fit_sequence(
    counts: np.ndarray, ends: np.ndarray, m: int, penalties: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fits, errors, pick) from the (..., N) mismatch counts of samples of m
    rows on a stacked sequence, per sample (leading index): fits[..., c] is
    class c's first member with fewest mismatches (the one erm picks) as a
    stacked index, errors[..., c] its empirical error, and pick the first
    position (0-based) minimizing error plus penalty."""
    fits = np.stack([a + np.argmin(counts[..., a:b], axis=-1)
                     for a, b in zip(ends[:-1], ends[1:])], axis=-1)
    errors = np.take_along_axis(counts, fits, axis=-1) / m
    return fits, errors, np.argmin(errors + np.asarray(penalties), axis=-1)


def srm(
    seq: WeightedClassSequence,
    S: LabeledSample,
    delta: float,
    C: float = DEFAULT_C,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    vc_dims: tuple[int, ...] | None = None,
) -> LearnerOutput:
    """Minimize empirical error plus the class penalty over the whole sequence.

    Each class position n (1-based) contributes its best-fitting member at
    objective  L_S(h) + penalty(d_n, w_n) ; ties go to the lower position and
    then to canonical order inside the class.  Every member of the sequence
    is labelled on S once, and ``fit_sequence`` makes the pick.  Dimensions
    come from ``vc_dims`` when given, else from each class's ``vc_dim_hint``.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if S.m == 0:
        raise ValueError("the sample must be nonempty")
    dims = class_dims(seq, vc_dims)
    penalties = [srm_penalty(d, w, delta, S.m, C=C) for d, w in zip(dims, seq.weights)]
    stacked, ends = stack_sequence(seq, budget)
    fits, errors, pick = fit_sequence(error_counts(stacked, S), ends, S.m, penalties)
    pick = int(pick)
    config = {
        "C": C,
        "delta": delta,
        "weights": list(seq.weights),
        "vc_dims": dims,
        "penalties": penalties,
    }
    return LearnerOutput(
        stacked[fits[pick]], float(errors[pick]), class_index=pick + 1,
        objective=float(errors[pick] + penalties[pick]), penalty_config=config,
    )


def memorizer(S: LabeledSample, default: int = DEFAULT_LABEL) -> LookupTable:
    """Majority label at each sampled instance, the default elsewhere.

    An instance seen equally often with both labels also gets the default.
    Intended for finite domains where exact instance matches recur.
    """
    if default not in (0, 1):
        raise ValueError("default label must be 0 or 1")
    counts: dict[tuple, list[int]] = defaultdict(lambda: [0, 0])
    order: list[tuple] = []
    for x, y in S.pairs():
        key = tuple(float(v) for v in x)
        if key not in counts:
            order.append(key)
        counts[key][y] += 1
    points = []
    labels = []
    for key in order:
        zeros, ones = counts[key]
        label = default if zeros == ones else int(ones > zeros)
        points.append(key)
        labels.append(label)
    if not points:
        raise ValueError("the sample must be nonempty")
    return LookupTable(tuple(points), tuple(labels), default)
