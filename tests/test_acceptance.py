"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines and timings.
"""

import hashlib
import json
import math
import pathlib
from fractions import Fraction

import numpy as np

from sltlab import jsonio
from sltlab.bounds import BoundParams, accuracy_bound, sample_complexity
from sltlab.cli import merge_config, run
from sltlab.core import (
    IntervalClass,
    SineSign,
    Threshold,
    ThresholdClass,
    empirical_error_count,
    enumerate_class,
)
from sltlab.distributions import (
    DataDistribution,
    SeedSpec,
    UniformBox,
    draw_sample,
    true_risk,
)
from sltlab.experiments import (
    nfl_exact,
    tradeoff_sweep,
    verify_learnability,
    verify_uniform_convergence,
)
from sltlab.learners import erm
from sltlab.presets import (
    CLASSES,
    DISTRIBUTIONS,
    POOLS,
    RUN_PRESETS,
    SEQUENCES,
    preset_names,
)
from sltlab.shattering import sine_shatter_witness, vc_dimension, verify_certificate
from tests.conftest import criterion

UNIT = UniformBox(((0.0, 1.0),))


def test_c1_vc_dimensions_by_brute_force():
    import time

    expected = {
        "thresholds": 1,
        "intervals": 2,
        "rectangles2d": 4,
        "halfspaces2d": 3,
    }
    with criterion(1, "vc dimensions with replayable certificates", 4 * 10.0):
        for name, value in expected.items():
            start = time.perf_counter()
            report = vc_dimension(CLASSES[name], POOLS[name])
            elapsed = time.perf_counter() - start
            assert report.exact, name
            assert report.value == value, (name, report.value)
            assert verify_certificate(report), name
            assert elapsed < 10.0, (name, elapsed)


def test_c2_sine_class_shatters_every_tested_k():
    with criterion(2, "sign-of-sine shatters k=1..6", 30.0):
        for k in range(1, 7):
            report = sine_shatter_witness(k)
            assert report.complete, (k, report.failed)
            assert len(report.entries) == 2 ** k
            X = np.asarray(report.points)[:, None]
            for labeling, alpha in report.entries:
                replay = tuple(int(v) for v in SineSign(alpha).labels(X))
                assert replay == labeling, (k, labeling, alpha)


def _random_class(rng):
    if rng.random() < 0.55:
        dirs = ("ge", "le") if rng.random() < 0.4 else ("ge",)
        return ThresholdClass(0.0, 1.0, dirs, resolution=int(rng.integers(8, 300)))
    return IntervalClass(0.0, 1.0, resolution=int(rng.integers(5, 40)))


def test_c3_erm_optimality_oracle_500_cases():
    rng = np.random.default_rng(20250809)
    with criterion(3, "erm never beaten by exhaustive rescan (500 cases)", 60.0):
        for case in range(500):
            if case == 0:
                # one case near the class-size cap (9870 members < 10^4)
                H = IntervalClass(0.0, 1.0, resolution=140)
            else:
                H = _random_class(rng)
            m = int(rng.integers(10, 1001))
            D = DataDistribution(
                UNIT, Threshold(float(rng.uniform(0, 1))), noise=float(rng.uniform(0, 0.4))
            )
            S = draw_sample(D, m, SeedSpec(case, "c3"))
            out = erm(H, S)
            best = round(out.empirical_error * m)
            for h in enumerate_class(H):  # independent exhaustive rescan
                assert empirical_error_count(h, S) >= best, (case, h)


def test_c4_representative_samples_give_near_optimal_erm():
    rng = np.random.default_rng(423)
    with criterion(4, "representativeness implies near-optimality (500 cases)", 60.0):
        for case in range(500):
            if rng.random() < 0.6:
                H = ThresholdClass(0.0, 1.0, ("ge",), resolution=int(rng.integers(5, 60)))
            else:
                H = IntervalClass(0.0, 1.0, resolution=int(rng.integers(4, 16)))
            D = DataDistribution(
                UNIT, Threshold(float(rng.uniform(0, 1))), noise=float(rng.uniform(0, 0.3))
            )
            S = draw_sample(D, int(rng.integers(15, 400)), SeedSpec(case, "c4"))
            members = enumerate_class(H)
            risks = np.array([true_risk(D, h) for h in members])
            emp = np.array([empirical_error_count(h, S) / S.m for h in members])
            deviation = float(np.max(np.abs(emp - risks)))
            eps = min(deviation * float(rng.uniform(1.0, 1.5)) + 1e-12, 1.0)
            # the sample is eps-representative by construction
            out = erm(H, S)
            estimation = true_risk(D, out.hypothesis) - float(np.min(risks))
            assert estimation <= 2 * eps + 1e-12, (case, estimation, eps)


def test_c5_learnability_regime_passes_binomial_verdict():
    cfg = RUN_PRESETS["pac-thresholds"]
    with criterion(5, "learnability harness on the threshold preset", 60.0):
        summary = verify_learnability(
            CLASSES[cfg["class"]], DISTRIBUTIONS[cfg["dist"]],
            m=cfg["m"], eps=cfg["eps"], delta=cfg["delta"], trials=cfg["trials"],
            seed=SeedSpec(cfg["seed"]),
        )
        assert summary.verdict == "pass", (summary.success_frequency, summary.ci_lower)


def test_c6_uniform_convergence_sqrt_scaling():
    cfg = RUN_PRESETS["uc-thresholds-scaling"]
    with criterion(6, "sup-deviation halves from m=400 to m=1600", 120.0):
        report = verify_uniform_convergence(
            CLASSES[cfg["class"]], DISTRIBUTIONS[cfg["dist"]],
            m_values=cfg["m_values"], eps=cfg["eps"], delta=cfg["delta"],
            trials=cfg["trials"], seed=SeedSpec(cfg["seed"]),
        )
        (scale,) = report.scaling
        assert scale["m_small"] == 400 and scale["m_large"] == 1600
        assert 1.5 <= scale["median_ratio"] <= 2.5, scale


def test_c7_nfl_exact_enumeration():
    with criterion(7, "exact no-free-lunch averages for m=2,3", 10.0):
        frozen = {2: Fraction(9, 32), 3: Fraction(125, 432)}
        for m, oracle in frozen.items():
            for learner in ("memorizer", "erm_all_functions"):
                first = nfl_exact(m, learner=learner)
                second = nfl_exact(m, learner=learner)
                assert first == second  # deterministic to the last digit
                assert first.average >= Fraction(1, 4), (m, learner, first.average)
                assert first.average == oracle, (m, learner, first.average)


def test_c8_bias_complexity_tradeoff_and_srm_dominance():
    cfg = RUN_PRESETS["tradeoff-nested-thresholds"]
    with criterion(8, "decomposition identity, monotone trade-off, srm dominance", 120.0):
        report = tradeoff_sweep(
            SEQUENCES[cfg["sequence"]], DISTRIBUTIONS[cfg["dist"]],
            m_values=cfg["m_values"], trials=cfg["trials"], delta=cfg["delta"],
            master_seeds=cfg["seeds"], C=cfg["C"],
        )
        erm_rows = [r for r in report.rows if r["learner"] == "erm"]
        srm_rows = [r for r in report.rows if r["learner"] == "srm"]
        assert len(cfg["seeds"]) >= 20
        for row in erm_rows:
            identity = row["approximation_error"] + row["mean_estimation_error"]
            assert abs(identity - row["mean_total_risk"]) < 1e-12, row
        approx = [r["approximation_error"] for r in erm_rows]
        estimation = [r["mean_estimation_error"] for r in erm_rows]
        assert all(a >= b for a, b in zip(approx, approx[1:])), approx
        assert all(a <= b for a, b in zip(estimation, estimation[1:])), estimation
        largest_total = erm_rows[-1]["mean_total_risk"]
        assert srm_rows[0]["mean_total_risk"] <= largest_total, (srm_rows, largest_total)


def test_c9_bound_arithmetic():
    with criterion(9, "bound arithmetic at the reference point", 5.0):
        report = sample_complexity(BoundParams(eps=0.1, delta=0.05, m=400, d=1))
        assert abs(report.b - (1 - math.log(0.05)) / 0.01) < 1e-9
        assert abs(accuracy_bound(report.b, 0.05, 1, C=1.0) - 0.1) < 1e-9


# sha256 of every output file (manifest excepted) of one run of each preset.
# Outputs must not change between commits unless a change means them to, and
# then this table is regenerated along with it.
PRESET_DIGESTS = pathlib.Path(__file__).with_name("preset_digests.json")


def test_c10_every_preset_is_byte_deterministic(tmp_path):
    recorded = json.loads(PRESET_DIGESTS.read_text())
    with criterion(10, "preset reruns byte-identical, any worker count", 120.0):
        assert sorted(recorded) == preset_names()
        for name in preset_names():
            cfg = RUN_PRESETS[name]
            variants = [{}, {}]
            if cfg["command"] in ("pac", "uc", "tradeoff"):
                variants.append({"workers": 3})
            outputs = []
            for i, extra in enumerate(variants):
                outdir = tmp_path / f"{name}-{i}"
                merged = merge_config(cfg["command"], name, None,
                                      {"out": str(outdir), **extra})
                run(merged)
                files = sorted(p.name for p in outdir.iterdir() if p.name != "manifest.json")
                outputs.append({f: (outdir / f).read_bytes() for f in files})
                # manifest digests must match the files they describe
                manifest = json.loads((outdir / "manifest.json").read_text())
                for fname, digest in manifest["outputs"].items():
                    assert jsonio.sha256_file(outdir / fname) == digest, (name, fname)
            first = outputs[0]
            digests = {f: hashlib.sha256(data).hexdigest() for f, data in first.items()}
            assert digests == recorded[name], name
            for other in outputs[1:]:
                assert other.keys() == first.keys(), name
                for fname in first:
                    assert other[fname] == first[fname], (name, fname)
