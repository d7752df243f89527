"""The JSON schema of hypotheses, classes, marginals, distributions and
sequences: pinned bytes, round trips, and precise errors for bad input."""

import inspect
import json
import pathlib
import re

import pytest

from sltlab import bounds, distributions, experiments, jsonio, learners, shattering
from sltlab.bounds import ErrorDecomposition
from sltlab.core import (
    FiniteClass,
    GridSpec,
    Halfspace,
    HalfspaceClass2D,
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
    class_from_json,
    enumerate_class,
    hypothesis_from_json,
)
from sltlab.distributions import (
    ConditionalTable,
    DataDistribution,
    FiniteUniform,
    PointMasses,
    UniformBox,
    marginal_from_json,
)
from sltlab.learners import LearnerOutput

README = pathlib.Path(__file__).parents[1] / "README.md"

# jsonio.dumps(x.to_json()) of each instance below, recorded before the
# hand-written to_json methods were replaced by the field-driven codec
# (the learner outputs and the error decomposition in a later change)
RECORDED = json.loads(pathlib.Path(__file__).with_name("model_schema.json").read_text())

GRID1 = GridSpec(((0.1, 0.5, 0.9),))
GRID2 = GridSpec(((0.0, 1.0), (-1.0, 0.0, 1.0)))

HYPOTHESES = {
    "threshold-ge": Threshold(0.25),
    "threshold-le": Threshold(0.75, "le"),
    "interval": Interval(0.1, 0.9),
    "interval_union": IntervalUnion(((0.1, 0.2), (0.5, 0.8))),
    "rectangle": Rectangle(((0.0, 0.5), (-1.0, 1.0))),
    "halfspace": Halfspace((0.6, -0.8), 0.1),
    "sine": SineSign(12.5),
    "lookup": LookupTable(((0.0,), (1.0,)), (1, 0), default=1),
}

CLASSES = {
    "thresholds-default": ThresholdClass(),
    "thresholds": ThresholdClass(lo=0.0, hi=2.0, directions=("ge", "le"), resolution=5),
    "thresholds-grid": ThresholdClass(lo=0.0, hi=1.0, directions=("le",), grid=GRID1),
    "intervals": IntervalClass(lo=-1.0, hi=1.0, resolution=7),
    "intervals-grid": IntervalClass(grid=GRID1),
    "interval_unions": IntervalUnionClass(k=3, lo=0.0, hi=1.0, resolution=9),
    "interval_unions-grid": IntervalUnionClass(k=1, grid=GRID1),
    "rectangles": RectangleClass(bounds=((-1.0, 1.0), (0.0, 2.0)), resolution=3),
    "rectangles-grid": RectangleClass(grid=GRID2),
    "halfspaces2d": HalfspaceClass2D(offset_lo=-1.0, offset_hi=1.0, n_angles=4, n_offsets=3),
    "halfspaces2d-grid": HalfspaceClass2D(grid=GRID2),
    "sine": SineClass(alpha_lo=0.5, alpha_hi=200.0, resolution=64),
    "sine-grid": SineClass(grid=GRID1),
    "finite": FiniteClass((Threshold(0.5), Interval(0.2, 0.4))),
    "finite-domain": FiniteClass((Threshold(0.5), Threshold(0.25, "le")),
                                 domain=((0.0,), (0.3,), (1.0,))),
}

MARGINALS = {
    "uniform_box": UniformBox(((0.0, 1.0), (-2.0, 2.0))),
    "finite_uniform": FiniteUniform(((0.0,), (1.0,), (2.0,))),
    "point_masses": PointMasses(((0.0,), (1.0,)), (0.25, 0.75)),
}

OTHERS = {
    "grid": (GRID2, GridSpec.from_json),
    "distribution-hypothesis": (
        DataDistribution(UniformBox(((0.0, 1.0),)), Threshold(0.5), noise=0.1),
        DataDistribution.from_json),
    "distribution-table": (
        DataDistribution(FiniteUniform(((0.0,), (1.0,))),
                         ConditionalTable(((0.0,), (1.0,)), (0.25, 1.0))),
        DataDistribution.from_json),
    "sequence": (
        WeightedClassSequence((ThresholdClass(grid=GRID1), IntervalClass(resolution=4))),
        WeightedClassSequence.from_json),
    "learner-output-erm": (LearnerOutput(Interval(0.0, 2 / 3), 0.4), LearnerOutput.from_json),
    "learner-output-srm": (
        LearnerOutput(Threshold(0.25), 0.2, class_index=1, objective=1.9223356702111722,
                      penalty_config={"C": 2.0, "delta": 0.1, "weights": [2 / 3, 1 / 3],
                                      "vc_dims": [1, 2],
                                      "penalties": [1.7223356702111723, 2.0786913925183135]}),
        LearnerOutput.from_json),
    "error-decomposition": (
        ErrorDecomposition(0.125, 1 / 3, 0.125 + 1 / 3, Interval(0.25, 0.75)),
        ErrorDecomposition.from_json),
}

CASES = {
    **{k: (v, hypothesis_from_json) for k, v in HYPOTHESES.items()},
    **{k: (v, class_from_json) for k, v in CLASSES.items()},
    **{k: (v, marginal_from_json) for k, v in MARGINALS.items()},
    **OTHERS,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_to_json_bytes_pinned(name):
    assert jsonio.dumps(CASES[name][0].to_json()) == RECORDED[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_from_json_inverts_to_json(name):
    value, reader = CASES[name]
    assert reader(json.loads(jsonio.dumps(value.to_json()))) == value


def test_recorded_cases_all_covered():
    assert set(RECORDED) == set(CASES)


PARAMETRIC = (ThresholdClass, IntervalClass, IntervalUnionClass, RectangleClass,
              HalfspaceClass2D, SineClass)
UNIT_DIST = {"marginal": {"type": "uniform_box"},
             "labeler": {"hypothesis": {"kind": "threshold", "theta": 0.5}}}


@pytest.mark.parametrize("cls", PARAMETRIC, ids=lambda c: c.family)
def test_omitted_class_keys_take_the_field_defaults(cls):
    assert class_from_json({"family": cls.family}) == cls()
    assert class_from_json({"family": cls.family, "grid": None}) == cls()


def test_omitted_keys_elsewhere_take_the_field_defaults():
    assert hypothesis_from_json({"kind": "threshold", "theta": 0.5}) == Threshold(0.5, "ge")
    lookup = hypothesis_from_json({"kind": "lookup", "points": [[0.0]], "labels": [1]})
    assert lookup.default == 0
    assert marginal_from_json({"type": "uniform_box"}) == UniformBox()
    D = DataDistribution.from_json(UNIT_DIST)
    assert D == DataDistribution(UniformBox(((0.0, 1.0),)), Threshold(0.5), noise=0.0)
    classes = [{"family": "thresholds"}, {"family": "intervals"}]
    default = WeightedClassSequence((ThresholdClass(), IntervalClass()))
    assert WeightedClassSequence.from_json({"classes": classes}) == default
    assert WeightedClassSequence.from_json({"classes": classes, "weights": None}) == default


def test_explicit_grid_is_the_enumerated_grid():
    H = class_from_json({"family": "thresholds", "directions": ["ge", "le"],
                         "grid": {"axes": [[0.25, 0.75]]}})
    assert enumerate_class(H) == [Threshold(0.25), Threshold(0.75),
                                  Threshold(0.25, "le"), Threshold(0.75, "le")]
    with pytest.raises(ValueError, match="needs 2 grid axes, got 1"):
        enumerate_class(HalfspaceClass2D(grid=GRID1))


@pytest.mark.parametrize("reader, data, message", [
    (class_from_json, {"family": "thresholds", "resoluton": 5},
     "thresholds: unknown key 'resoluton'"),
    (class_from_json, {"family": "thresholds", "resolution": "x"}, "thresholds: resolution: "),
    (class_from_json, {"family": "thresholds", "grid": {}}, "thresholds: grid: missing 'axes'"),
    (class_from_json, {"family": "sine", "grid": {"axes": [[1.0]], "step": 1}},
     "sine: grid: unknown key 'step'"),
    (class_from_json, {"family": "rectangles", "bounds": [[0, 1, 2]]},
     "rectangles: bounds: expected 2 values, got 3"),
    (class_from_json, {"family": "intervals", "lo": [0]}, "intervals: lo: "),
    (class_from_json, {"family": "finite"}, "finite: missing 'members'"),
    (class_from_json, {"family": "finite", "members": [{"kind": "interval", "lo": 0.1}]},
     "finite: members: interval: missing 'hi'"),
    (class_from_json, {"family": "circles"}, "unknown class family 'circles'"),
    (class_from_json, ["thresholds"], "expected a JSON object"),
    (hypothesis_from_json, {"kind": "interval", "lo": 0.1}, "interval: missing 'hi'"),
    (hypothesis_from_json, {"kind": "threshold", "theta": 0.5, "dir": "le"},
     "threshold: unknown key 'dir'"),
    (hypothesis_from_json, {"kind": "halfspace", "weights": 1.0, "bias": 0.0},
     "halfspace: weights: expected a list, got 1.0"),
    (hypothesis_from_json, {"kind": ["threshold"]}, "unknown hypothesis kind ['threshold']"),
    (marginal_from_json, {"type": "uniform_box", "bound": [[0, 1]]},
     "uniform_box: unknown key 'bound'"),
    (marginal_from_json, {"type": "point_masses", "points": [[0.0]]},
     "point_masses: missing 'probs'"),
    (DataDistribution.from_json, {**UNIT_DIST, "nosie": 0.2},
     "distribution: unknown key 'nosie'"),
    (DataDistribution.from_json, {"marginal": {"type": "uniform_box"}},
     "distribution: missing 'labeler'"),
    (DataDistribution.from_json, {**UNIT_DIST, "noise": "high"}, "distribution: noise: "),
    (DataDistribution.from_json,
     {**UNIT_DIST, "labeler": {"hypothesis": {"kind": "sine", "alpha": 1.0},
                               "table": {"points": [[0.0]], "p1": [0.5]}}},
     "distribution: labeler: must hold one of 'hypothesis' or 'table'"),
    (DataDistribution.from_json,
     {"marginal": {"type": "finite_uniform", "points": [[0.0]]},
      "labeler": {"table": {"points": [[0.0]]}}},
     "distribution: labeler: table: missing 'p1'"),
    (WeightedClassSequence.from_json, {"classes": [{"family": "intervals"}], "wieghts": [1.0]},
     "unknown key 'wieghts'"),
    (WeightedClassSequence.from_json, {"weights": [1.0]}, "missing 'classes'"),
    (GridSpec.from_json, {}, "missing 'axes'"),
    (class_from_json, {"family": "thresholds", "resolution": 5.7},
     "thresholds: resolution: expected a whole number, got 5.7"),
    (class_from_json, {"family": "halfspaces2d", "n_angles": float("inf")},
     "halfspaces2d: n_angles: expected a whole number, got inf"),
    (hypothesis_from_json, {"kind": "lookup", "points": [[0.0]], "labels": [0.5]},
     "lookup: labels: expected a whole number, got 0.5"),
    (LabeledSample.from_json, {"m": 1}, "sample: missing 'pairs'"),
    (LabeledSample.from_json, {"pairs": [], "dim": 1, "size": 0}, "sample: unknown key 'size'"),
    (LabeledSample.from_json, {"pairs": [[[0.5], 1]], "m": 2},
     "sample: declared m=2 but 1 pairs given"),
    (LabeledSample.from_json, {"pairs": [[[0.5], 1, 0]]}, "sample: pairs: "),
    (class_from_json, {"family": "thresholds", "resolution": True},
     "thresholds: resolution: expected a whole number, got True"),
    (class_from_json, {"family": "thresholds", "resolution": "5"},
     "thresholds: resolution: expected a whole number, got '5'"),
    (hypothesis_from_json, {"kind": "threshold", "theta": float("nan")},
     "threshold: theta: expected a finite number, got nan"),
    (hypothesis_from_json, {"kind": "threshold", "theta": True},
     "threshold: theta: expected a finite number, got True"),
    (hypothesis_from_json, {"kind": "threshold", "theta": "0.5"},
     "threshold: theta: expected a finite number, got '0.5'"),
    (class_from_json, {"family": "intervals", "lo": float("-inf")},
     "intervals: lo: expected a finite number, got -inf"),
    (DataDistribution.from_json, {**UNIT_DIST, "noise": True},
     "distribution: noise: expected a finite number, got True"),
    (hypothesis_from_json, {"kind": "threshold", "theta": 0.5, "direction": ["ge"]},
     "threshold: direction: expected a string, got ['ge']"),
    (class_from_json, {"family": "thresholds", "directions": [1]},
     "thresholds: directions: expected a string, got 1"),
    (DataDistribution.from_json,
     {**UNIT_DIST, "marginal": {"type": "uniform_box", "bounds": [[-1e308, 1e308]]}},
     "distribution: marginal: box side [-1e+308, 1e+308] must have finite length"),
    (lambda bounds: UniformBox(bounds), ((0.0, float("inf")),),
     "box side [0.0, inf] must have finite length"),
    (lambda bounds: UniformBox(bounds), ((0.0, 1.0), (float("-inf"), 0.0)),
     "box side [-inf, 0.0] must have finite length"),
    (marginal_from_json, {"type": "uniform_box", "bounds": []},
     "uniform_box: bounds: instance dimension must be at least 1, got 0"),
    (marginal_from_json, {"type": "finite_uniform", "points": [[]]},
     "finite_uniform: points: instance dimension must be at least 1, got 0"),
    (marginal_from_json, {"type": "point_masses", "points": [[]], "probs": [1.0]},
     "point_masses: points: instance dimension must be at least 1, got 0"),
    (hypothesis_from_json, {"kind": "rectangle", "bounds": []},
     "rectangle: bounds: instance dimension must be at least 1, got 0"),
    (class_from_json, {"family": "rectangles", "bounds": []},
     "rectangles: bounds: instance dimension must be at least 1, got 0"),
    (hypothesis_from_json, {"kind": "halfspace", "weights": [], "bias": 0.0},
     "halfspace: weights: instance dimension must be at least 1, got 0"),
    (hypothesis_from_json, {"kind": "lookup", "points": [[]], "labels": [1]},
     "lookup: points: instance dimension must be at least 1, got 0"),
    (class_from_json, {"family": "thresholds", "resolution": 0},
     "thresholds: resolution: must be at least 1, got 0"),
    (class_from_json, {"family": "intervals", "resolution": -1},
     "intervals: resolution: must be at least 1, got -1"),
    (class_from_json, {"family": "interval_unions", "k": 0},
     "interval_unions: k: must be at least 1, got 0"),
    (class_from_json, {"family": "interval_unions", "resolution": 0},
     "interval_unions: resolution: must be at least 1, got 0"),
    (class_from_json, {"family": "rectangles", "resolution": 0},
     "rectangles: resolution: must be at least 1, got 0"),
    (class_from_json, {"family": "halfspaces2d", "n_angles": 0},
     "halfspaces2d: n_angles: must be at least 1, got 0"),
    (class_from_json, {"family": "halfspaces2d", "n_offsets": -2},
     "halfspaces2d: n_offsets: must be at least 1, got -2"),
    (class_from_json, {"family": "sine", "resolution": 0},
     "sine: resolution: must be at least 1, got 0"),
    # a count is checked even where an explicit grid leaves it unused
    (class_from_json, {"family": "thresholds", "resolution": 0, "grid": {"axes": [[0.5]]}},
     "thresholds: resolution: must be at least 1, got 0"),
    # every point list holds distinct finite points of one dimension
    (hypothesis_from_json, {"kind": "lookup", "points": [[0.0], [0.0]], "labels": [1, 0]},
     "lookup points must be distinct"),
    (hypothesis_from_json, {"kind": "lookup", "points": [[0.0], [-0.0]], "labels": [0, 1]},
     "lookup points must be distinct"),
    (DataDistribution.from_json,
     {"marginal": {"type": "finite_uniform", "points": [[0.0], [1.0]]},
      "labeler": {"table": {"points": [[0.0], [0.0], [1.0]], "p1": [0.1, 0.9, 0.5]}}},
     "distribution: labeler: table: conditional table points must be distinct"),
    (lambda points: ConditionalTable(points, (0.5, 0.5)), ((0.0,), (1.0, 2.0)),
     "conditional table points must share one dimension, got [1, 2]"),
    (lambda points: ConditionalTable(points, (0.5,)), ((),),
     "conditional table: points: instance dimension must be at least 1, got 0"),
    # a box's exact risk divides by its volume
    (marginal_from_json, {"type": "uniform_box", "bounds": [[-1.0, -0.5], [0.0, 5e-324]]},
     "uniform_box: bounds: volume must be positive and finite, got 0.0"),
    (lambda bounds: UniformBox(bounds), ((-1e300, 1e300), (-1e300, 1e300)),
     "uniform_box: bounds: volume must be positive and finite, got inf"),
])
def test_bad_input_names_tag_and_key(reader, data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        reader(data)


def test_whole_number_floats_cast_to_int():
    for resolution in (5, 5.0):
        H = class_from_json({"family": "thresholds", "resolution": resolution})
        assert H == ThresholdClass(resolution=5) and type(H.resolution) is int


@pytest.mark.parametrize("fn", [
    learners.erm, learners.srm, distributions.min_risk_in_class, bounds.is_eps_representative,
    bounds.decompose_error, experiments.verify_learnability,
    experiments.verify_uniform_convergence, experiments.tradeoff_sweep, shattering.restriction,
    shattering.shatters, shattering.vc_dimension, enumerate_class,
    ThresholdClass.size, ThresholdClass.members, ThresholdClass.resolve_grid,
], ids=lambda f: f.__qualname__)
def test_the_class_grid_is_the_only_grid(fn):
    assert "grid" not in inspect.signature(fn).parameters


def _readme_schema_examples() -> list:
    """Every JSON value in the README's "File schemas" section, in order."""
    text = README.read_text()
    section = text[text.index("## File schemas"):]
    section = section[:section.index("\n## ", 1)]
    decoder = json.JSONDecoder()
    values = []
    for block in re.findall(r"```json\n(.*?)```", section, flags=re.S):
        pos = 0
        while block[pos:].strip():
            pos += len(block[pos:]) - len(block[pos:].lstrip())
            value, pos = decoder.raw_decode(block, pos)
            values.append(value)
    return values


def _read_example(data: dict):
    for key, reader in (("kind", hypothesis_from_json), ("family", class_from_json),
                        ("type", marginal_from_json), ("marginal", DataDistribution.from_json),
                        ("classes", WeightedClassSequence.from_json),
                        ("pairs", LabeledSample.from_json)):
        if key in data:
            return reader(data)
    raise AssertionError(f"no reader for README example {data}")


def test_readme_schema_examples_parse():
    examples = _readme_schema_examples()
    assert len(examples) >= 20
    for data in examples:
        value = _read_example(data)
        if "pairs" not in data:
            assert _read_example(json.loads(jsonio.dumps(value.to_json()))) == value


@pytest.mark.parametrize("cls", PARAMETRIC, ids=lambda c: c.family)
def test_readme_lists_every_key_and_default_of_each_family(cls):
    listed = [d for d in _readme_schema_examples() if d.get("family") == cls.family]
    assert any(set(d) == set(cls().to_json()) and class_from_json(d) == cls() for d in listed)
