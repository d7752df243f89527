"""Named presets: classes with validated pools and grids, distributions,
class sequences, and ready-to-run command configurations.

Every acceptance scenario ships as a named, versioned preset so the whole
verification suite is runnable as a list of CLI invocations.  Pool and grid
choices are tuned so the brute-force searches are tight for each family.
"""

from __future__ import annotations

import json

import numpy as np

from .core import (
    GridSpec,
    HalfspaceClass2D,
    HypothesisClass,
    IntervalClass,
    IntervalUnionClass,
    RectangleClass,
    SineClass,
    Threshold,
    ThresholdClass,
    WeightedClassSequence,
    _check_points,
    _json_cast,
    class_from_json,
    read_key,
)
from .distributions import DataDistribution, FiniteUniform, UniformBox

PRESET_VERSION = 1


def _nested_threshold_grids() -> list[tuple[float, ...]]:
    g1 = (0.1, 0.9)
    g2 = (0.0, 0.1, 0.5, 0.9, 1.0)
    g3 = tuple(sorted(set(g2) | {0.25, 0.75}))
    g4 = tuple(sorted(set(g3) | {0.125, 0.375, 0.625, 0.875}))
    g5 = tuple(sorted(set(g4) | {0.0625, 0.1875, 0.3125, 0.4375,
                                 0.5625, 0.6875, 0.8125, 0.9375}))
    return [g1, g2, g3, g4, g5]


def _make_classes() -> dict[str, HypothesisClass]:
    return {
        "thresholds": ThresholdClass(0.0, 1.0, ("ge",), resolution=41),
        "thresholds-both": ThresholdClass(0.0, 1.0, ("ge", "le"), resolution=41),
        "intervals": IntervalClass(0.0, 1.0, resolution=33),
        "interval-unions-2": IntervalUnionClass(k=2, lo=0.0, hi=1.0, resolution=13),
        "rectangles2d": RectangleClass(
            bounds=((-1.5, 1.5), (-1.5, 1.5)),
            grid=GridSpec(((-1.5, -0.5, 0.5, 1.5), (-1.5, -0.5, 0.5, 1.5))),
        ),
        "halfspaces2d": HalfspaceClass2D(offset_lo=-2.0, offset_hi=2.0,
                                         n_angles=16, n_offsets=25),
        "sine": SineClass(alpha_lo=0.5, alpha_hi=200.0, resolution=64),
    }


CLASSES = _make_classes()

# Finite point pools over which the dimension search runs, per class preset.
POOLS: dict[str, np.ndarray] = {
    "thresholds": np.array([[i / 21.0] for i in range(1, 21)]),
    "thresholds-both": np.array([[i / 21.0] for i in range(1, 21)]),
    "intervals": np.array([[i / 21.0] for i in range(1, 21)]),
    "interval-unions-2": np.array([[i / 21.0] for i in range(1, 21)]),
    "rectangles2d": np.array([
        [0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [-1.0, 0.0],
        [0.5, 0.5], [-0.5, 0.5], [0.5, -0.5], [-0.5, -0.5],
        [0.0, 0.0], [0.25, -0.4],
    ]),
    "halfspaces2d": np.array([
        [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
        [0.3, 0.3], [-0.5, 0.5], [0.7, -0.2], [-0.3, -0.6],
    ]),
}


def _make_distributions() -> dict[str, DataDistribution]:
    return {
        "uniform-threshold-clean": DataDistribution(
            UniformBox(((0.0, 1.0),)), Threshold(0.5, "ge"), noise=0.0
        ),
        "uniform-threshold-noisy": DataDistribution(
            UniformBox(((0.0, 1.0),)), Threshold(0.5, "ge"), noise=0.1
        ),
        "uniform-threshold030-clean": DataDistribution(
            UniformBox(((0.0, 1.0),)), Threshold(0.3, "ge"), noise=0.0
        ),
        "finite4-uniform": DataDistribution(
            FiniteUniform(((0.0,), (1.0,), (2.0,), (3.0,))), Threshold(2.0, "ge"), noise=0.0
        ),
    }


DISTRIBUTIONS = _make_distributions()


def _make_sequences() -> dict[str, WeightedClassSequence]:
    nested = [
        ThresholdClass(0.0, 1.0, ("ge",), grid=GridSpec((g,)))
        for g in _nested_threshold_grids()
    ]
    return {
        "nested-thresholds": WeightedClassSequence(tuple(nested)),
    }


SEQUENCES = _make_sequences()


# ---------------------------------------------------------------------------
# Ready-to-run command configurations
# ---------------------------------------------------------------------------

RUN_PRESETS: dict[str, dict] = {
    "bounds-reference-point": {
        "command": "bounds",
        "d": 1, "eps": 0.1, "delta": 0.05, "m": 400,
    },
    "vc-thresholds": {"command": "vcdim", "class": "thresholds"},
    "vc-intervals": {"command": "vcdim", "class": "intervals"},
    "vc-rectangles2d": {"command": "vcdim", "class": "rectangles2d"},
    "vc-halfspaces2d": {"command": "vcdim", "class": "halfspaces2d"},
    "sine-shatter-k6": {"command": "vcdim", "class": "sine", "sine_k": 6},
    "pac-thresholds": {
        "command": "pac",
        "class": "thresholds", "dist": "uniform-threshold-noisy",
        "m": 500, "eps": 0.1, "delta": 0.1, "trials": 2000, "seed": 20250809,
    },
    "uc-thresholds-scaling": {
        "command": "uc",
        "class": "thresholds", "dist": "uniform-threshold-noisy",
        "m_values": [400, 1600], "eps": 0.1, "delta": 0.1, "trials": 500,
        "seed": 20250809,
    },
    "nfl-m2-memorizer": {"command": "nfl", "m": 2, "learner": "memorizer"},
    "nfl-m3-memorizer": {"command": "nfl", "m": 3, "learner": "memorizer"},
    "nfl-m2-erm": {"command": "nfl", "m": 2, "learner": "erm_all_functions"},
    "nfl-m3-erm": {"command": "nfl", "m": 3, "learner": "erm_all_functions"},
    "tradeoff-nested-thresholds": {
        "command": "tradeoff",
        "sequence": "nested-thresholds", "dist": "uniform-threshold-noisy",
        "m_values": [30], "trials": 150, "delta": 0.1, "C": 2.0,
        "seeds": list(range(20)),
    },
    "erm-thresholds-demo": {
        "command": "erm",
        "class": "thresholds", "dist": "uniform-threshold-noisy",
        "m": 200, "seed": 7,
    },
    "srm-nested-thresholds-demo": {
        "command": "srm",
        "sequence": "nested-thresholds", "dist": "uniform-threshold-noisy",
        "m": 200, "delta": 0.1, "C": 2.0, "seed": 7,
    },
    "risk-threshold-demo": {
        "command": "risk",
        "dist": "uniform-threshold030-clean",
        "hypothesis": json.dumps({"kind": "threshold", "theta": 0.5, "direction": "ge"}),
    },
}


def preset_names() -> list[str]:
    return sorted(RUN_PRESETS)


def _resolve(spec: str, opener: str, read, table: dict, unknown: str):
    """read(json.loads(spec)) if spec is inline JSON opening with opener, else
    the entry of table named spec."""
    if spec.lstrip().startswith(opener):
        return read(json.loads(spec))
    if spec not in table:
        raise ValueError(f"{unknown} {spec!r}; choose from {sorted(table)}")
    return table[spec]


def resolve_class(spec: str) -> HypothesisClass:
    """A class preset name or an inline JSON family description."""
    return _resolve(spec, "{", class_from_json, CLASSES, "unknown class preset")


def resolve_pool(spec: str) -> np.ndarray:
    """A pool preset name, or inline JSON read as every JSON point list is."""
    return _resolve(spec, "[", lambda data: _check_points("pool", read_key(
        {"pool": data}, "pool", _json_cast(tuple[tuple[float, ...], ...]))),
        POOLS, "no point pool named")


def resolve_distribution(spec: str) -> DataDistribution:
    return _resolve(spec, "{", DataDistribution.from_json, DISTRIBUTIONS,
                    "unknown distribution preset")


def resolve_sequence(spec: str) -> WeightedClassSequence:
    return _resolve(spec, "{", WeightedClassSequence.from_json, SEQUENCES,
                    "unknown sequence preset")
