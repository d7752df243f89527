"""Tests of the benchmark's own parts, at tiny sizes.

    python3 -m pytest perfbench

Each checker must accept the program's output and reject a deliberately
perturbed copy of it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sltlab import cli  # noqa: E402


def run_op(op, outdir: Path, **extra) -> dict:
    cfg = cli.merge_config(op.command, op.preset, None,
                           {**op.overrides, **extra, "out": str(outdir)})
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(cfg) == 0
    return cfg


def edit_json(path: Path, change) -> None:
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def op_named(ops, name):
    return next(op for op in ops if op.name == name)


def test_clopper_pearson_matches_beta_quantiles():
    from scipy.stats import beta

    for s, n in [(0, 10), (3, 10), (10, 10), (480, 500), (2000, 2000)]:
        lower, upper = checks.clopper_pearson(s, n)
        ref_lower = 0.0 if s == 0 else beta.ppf(0.05, s, n - s + 1)
        ref_upper = 1.0 if s == n else beta.ppf(0.95, s + 1, n - s)
        assert lower == pytest.approx(ref_lower, abs=1e-10)
        assert upper == pytest.approx(ref_upper, abs=1e-10)


def test_pac_check(tmp_path):
    op = workloads.harness_ops(0, 1)[0]
    cfg = run_op(op, tmp_path, trials=40, m=100)
    assert op.check(tmp_path, cfg) == []
    edit_json(tmp_path / "summary.json", lambda d: d["stats"].update(mean=d["stats"]["mean"] + 1e-3))
    assert any("mean" in p for p in op.check(tmp_path, cfg))


def test_pac_check_rejects_wrong_fraction(tmp_path):
    op = workloads.harness_ops(0, 1)[0]
    cfg = run_op(op, tmp_path, trials=40, m=100)

    def drop_one(d):
        d["successes"] -= 1
        d["success_frequency"] = d["successes"] / d["trials"]

    edit_json(tmp_path / "summary.json", drop_one)
    problems = op.check(tmp_path, cfg)
    assert any("successes" in p for p in problems)
    assert any("Clopper-Pearson" in p for p in problems)


def test_uc_check(tmp_path):
    op = workloads.harness_ops(0, 1)[1]
    cfg = run_op(op, tmp_path, trials=60)
    assert op.check(tmp_path, cfg) == []
    edit_json(tmp_path / "uc_report.json",
              lambda d: d["scaling"][0].update(median_ratio=3.0))
    problems = op.check(tmp_path, cfg)
    assert any("outside [1.5, 2.5]" in p for p in problems)


def test_tradeoff_check(tmp_path):
    op = workloads.harness_ops(0, 1)[2]
    cfg = run_op(op, tmp_path, seeds=[0, 1])
    assert op.check(tmp_path, cfg) == []

    def move_pick(d):
        srm = d["rows"][-1]
        freqs = dict(item.split(":") for item in srm["pick_freqs"].split(";"))
        freqs["1"], freqs["2"] = freqs["2"], freqs["1"]
        srm["pick_freqs"] = ";".join(f"{k}:{v}" for k, v in sorted(freqs.items()))

    edit_json(tmp_path / "tradeoff.json", move_pick)
    assert any("pick frequency" in p for p in op.check(tmp_path, cfg))


def test_tradeoff_check_rejects_broken_identity(tmp_path):
    op = workloads.harness_ops(0, 1)[2]
    cfg = run_op(op, tmp_path, seeds=[0, 1])
    edit_json(tmp_path / "tradeoff.json",
              lambda d: d["rows"][1].update(mean_total_risk=d["rows"][1]["mean_total_risk"] + 1e-6))
    assert any("approximation + estimation" in p for p in op.check(tmp_path, cfg))


@pytest.mark.parametrize("name", ["vc-rectangles2d", "vc-halfspaces2d", "vc-intervals-wide"])
def test_vc_check_flipped_certificate_bit(tmp_path, name):
    ops = workloads.exact_ops(0)
    op = op_named(ops, name)
    extra = {}
    if name == "vc-intervals-wide":
        extra["pool"] = json.dumps(workloads.interval_pool(0, size=8).tolist())
        op = workloads.Op(op.name, op.command, op.preset, op.overrides,
                          workloads._check_vc(workloads.interval_pool(0, size=8), 2, "vc"))
    cfg = run_op(op, tmp_path, **extra)
    assert op.check(tmp_path, cfg) == []

    def flip(d):
        d["certificate"][1]["labeling"][0] ^= 1

    edit_json(tmp_path / "vc_report.json", flip)
    problems = op.check(tmp_path, cfg)
    assert any("labels the witness" in p for p in problems)
    assert any("distinct labelings" in p for p in problems)


def test_vc_check_rejects_wrong_dimension(tmp_path):
    op = op_named(workloads.exact_ops(0), "vc-halfspaces2d")
    cfg = run_op(op, tmp_path)
    edit_json(tmp_path / "vc_report.json", lambda d: d.update(value=4, marker="4"))
    assert any("expected exactly 3" in p for p in op.check(tmp_path, cfg))


def test_sine_check(tmp_path):
    op = op_named(workloads.exact_ops(0), "sine-shatter-k6")
    cfg = run_op(op, tmp_path, sine_k=3)
    assert op.check(tmp_path, cfg) == []
    edit_json(tmp_path / "sine_witness.json",
              lambda d: d["entries"][0].update(alpha=d["entries"][-1]["alpha"]))
    assert any("realizes" in p for p in op.check(tmp_path, cfg))


@pytest.mark.parametrize("name", ["nfl-m3-memorizer", "nfl-m3-erm"])
def test_nfl_check(tmp_path, name):
    op = op_named(workloads.exact_ops(0), name)
    cfg = run_op(op, tmp_path, m=2)
    assert op.check(tmp_path, cfg) == []
    edit_json(tmp_path / "nfl_report.json", lambda d: d.update(average_expected_error="1/4"))
    assert any("average 1/4" in p for p in op.check(tmp_path, cfg))


@pytest.fixture
def small_large_sample(tmp_path):
    workdir = tmp_path / "inputs"
    workdir.mkdir()
    return workloads.large_sample_ops(3, workdir, rows=600, srm_m=400)


@pytest.mark.parametrize("index", [0, 1])
def test_erm_check_wrong_pick(tmp_path, small_large_sample, index):
    op = small_large_sample[index]
    cfg = run_op(op, tmp_path / "out")
    out = tmp_path / "out" / "learner_output.json"
    assert op.check(tmp_path / "out", cfg) == []
    h = json.loads(out.read_text())["hypothesis"]
    key = "theta" if h["kind"] == "threshold" else "lo"
    edit_json(out, lambda d: d["hypothesis"].update({key: d["hypothesis"][key] / 2}))
    assert any("brute force picks" in p for p in op.check(tmp_path / "out", cfg))


def test_erm_check_wrong_error(tmp_path, small_large_sample):
    op = small_large_sample[0]
    cfg = run_op(op, tmp_path)
    edit_json(tmp_path / "learner_output.json",
              lambda d: d.update(empirical_error=d["empirical_error"] + 1 / 600))
    assert any("empirical error" in p for p in op.check(tmp_path, cfg))


def test_srm_check(tmp_path, small_large_sample):
    op = small_large_sample[2]
    cfg = run_op(op, tmp_path)
    assert op.check(tmp_path, cfg) == []
    edit_json(tmp_path / "learner_output.json",
              lambda d: d.update(objective=d["objective"] + 1e-6))
    assert any("objective" in p for p in op.check(tmp_path, cfg))


def test_srm_check_rejects_altered_sample(tmp_path, small_large_sample):
    op = small_large_sample[2]
    cfg = run_op(op, tmp_path)
    lines = (tmp_path / "sample.csv").read_text().splitlines()
    lines[1] = lines[1][:-1] + ("0" if lines[1].endswith("1") else "1")
    (tmp_path / "sample.csv").write_text("\n".join(lines) + "\n")
    assert op.check(tmp_path, cfg) == ["srm: sample.csv is not the drawn sample"]


def test_csv_sample_depends_only_on_seed():
    a = workloads.make_csv_sample(5, 100)
    b = workloads.make_csv_sample(5, 100)
    c = workloads.make_csv_sample(6, 100)
    assert all(np.array_equal(u, v) for u, v in zip(a, b))
    assert not np.array_equal(a[0], c[0])


def test_tracer_counts_spans_and_restores_functions(tmp_path):
    from sltlab import experiments, learners

    op = workloads.harness_ops(0, 2)[0]
    erm_before = experiments.erm
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert experiments.erm is not erm_before and learners.erm is not erm_before
        run_op(op, tmp_path, trials=40, m=100)
        layers = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert experiments.erm is erm_before
    assert layers["learners.erm.calls"] == 40
    assert layers["distributions.draw_sample.rows"] == 40 * 100
    assert layers["core.enumerate_class.members"] == 41 * 41  # min-risk search + 40 trials
    assert layers["learners.erm.labels_per_call"] > 1
    assert layers["cli.run.self_s"] > 0
    assert layers["experiments.verify_learnability.self_s"] > 0
    # Every span on the main thread sits under a cli root.
    roots = sum(s[3] - s[2] for s in tracer.spans if s[1] in ("cli.run", "cli.merge_config"))
    assert layers["trace.blocking_self_s"] == pytest.approx(roots, rel=1e-6)


def test_calibrate_runs_whole_units_for_the_asked_time():
    wall, cpu, units = speed.calibrate(0.0)
    assert units == 1 and wall > 0 and cpu > 0
    wall, cpu, units = speed.calibrate(2.5 * wall)
    assert units >= 2 and cpu > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in tracing.PER_LAYER]
    assert [(m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(unit, better) for _, unit, better in tracing.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
