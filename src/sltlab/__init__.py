"""sltlab: a desk-scale laboratory for binary-classification learning theory.

Builds and verifies, at laptop scale: empirical and true risk, empirical
risk minimization and its penalized multi-class variant, shattering and
brute-force dimension search, sample-complexity and accuracy bounds,
representativeness checks, exact no-free-lunch enumeration, and Monte Carlo
harnesses for the learnability and uniform-convergence guarantees.
"""

__version__ = "0.1.0"

from .core import (
    DimensionMismatchError,
    EnumerationBudgetError,
    FiniteClass,
    GridSpec,
    Halfspace,
    HalfspaceClass2D,
    Hypothesis,
    HypothesisClass,
    Interval,
    IntervalClass,
    IntervalUnion,
    IntervalUnionClass,
    LabeledSample,
    LookupTable,
    Rectangle,
    RectangleClass,
    SineClass,
    SineSign,
    Threshold,
    ThresholdClass,
    WeightedClassSequence,
    empirical_error,
    enumerate_class,
    predict,
)
from .distributions import (
    AnalyticRiskUnavailable,
    ConditionalTable,
    DataDistribution,
    FiniteUniform,
    PointMasses,
    SeedSpec,
    UniformBox,
    draw_sample,
    mc_risk,
    min_risk_in_class,
    true_risk,
)
from .learners import LearnerOutput, erm, memorizer, srm
from .bounds import (
    BoundParams,
    BoundReport,
    accuracy_bound,
    decompose_error,
    is_eps_representative,
    sample_complexity,
)
from .shattering import (
    VcReport,
    restriction,
    shatters,
    sine_shatter_witness,
    vc_dimension,
    verify_certificate,
)
from .experiments import (
    ExperimentSummary,
    NflReport,
    TradeoffReport,
    TrialRecord,
    nfl_exact,
    tradeoff_sweep,
    verify_learnability,
    verify_uniform_convergence,
)
