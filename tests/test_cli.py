import csv
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import sltlab
from sltlab import cli, core, jsonio
from sltlab.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_OK,
    ConfigError,
    main,
    merge_config,
    run,
    validate_config,
)
from sltlab.core import LabeledSample, Rectangle, hypothesis_from_json
from sltlab.distributions import (DataDistribution, SeedSpec, UniformBox, draw_sample, mc_risk,
                                  true_risk)
from sltlab.presets import RUN_PRESETS, preset_names, resolve_distribution
from sltlab.shattering import VcReport, verify_certificate

# sha256 of records.csv for each harness preset at --trials 20 --records,
# recorded before the reports stopped embedding their records
RECORD_DIGESTS = json.loads(
    pathlib.Path(__file__).with_name("records_digests.json").read_text())

# every subcommand's long options; a table edit must not drop or rename one
COMMON_OPTIONS = {"--config", "--help", "--no-records", "--out", "--preset", "--records",
                  "--seed", "--workers"}
COMMAND_OPTIONS = {
    "bounds": {"--C", "--C1", "--C2", "--d", "--delta", "--eps", "--m"},
    "vcdim": {"--class", "--enum-budget", "--pool", "--sine-k", "--subset-budget"},
    "risk": {"--dist", "--hypothesis", "--mc-n"},
    "erm": {"--budget", "--class", "--data", "--dist", "--m"},
    "srm": {"--C", "--budget", "--data", "--delta", "--dist", "--m", "--sequence"},
    "pac": {"--budget", "--class", "--delta", "--dist", "--eps", "--m", "--mc-n", "--trials"},
    "uc": {"--budget", "--class", "--delta", "--dist", "--eps", "--m-values", "--mc-n",
           "--trials"},
    "nfl": {"--default-label", "--learner", "--m"},
    "tradeoff": {"--C", "--budget", "--delta", "--dist", "--m-values", "--mc-n", "--seeds",
                 "--sequence", "--trials"},
}

# a class sequence whose second class, the sign-of-sine family, has no dimension hint
SINE_SEQUENCE = '{"classes": [{"family": "thresholds"}, {"family": "sine"}]}'
# Intervals whose members cannot all be built: a backward range, and an
# unsorted grid axis.
BACKWARD_INTERVALS = '{"family": "intervals", "lo": 1, "hi": 0}'
UNSORTED_INTERVALS = '{"family": "intervals", "grid": {"axes": [[0.5, 0.2, 0.9]]}}'
# Unions of three intervals on a two-value grid: no chain fits, so no members.
EMPTY_UNIONS = '{"family": "interval_unions", "k": 3, "resolution": 2}'
# A JSON integer of 401 digits, beyond the float range.
HUGE_INT = "1" + "0" * 400
# a sample CSV whose record on line 7 has the label 2, and a path with no file
BAD_LABEL_CSV = pathlib.Path(__file__).parent / "data" / "bad_label.csv"
MISSING_CSV = pathlib.Path(__file__).parent / "data" / "missing.csv"
OLD_SINE_BUDGET_CONFIG = pathlib.Path(__file__).parent / "data" / "old_sine_budget.json"
# a config file whose eps is a JSON integer of 401 digits, beyond the float range
HUGE_EPS_CONFIG = pathlib.Path(__file__).parent / "data" / "huge_eps.json"
# one thresholds class whose weight times a delta of 1e-100 underflows to 0
TINY_WEIGHT_SEQUENCE = '{"classes": [{"family": "thresholds"}], "weights": [1e-300]}'
RECTANGLES_3D = '{"family": "rectangles", "bounds": [[0, 1], [0, 1], [0, 1]], "resolution": 3}'
BOX_3D = ('{"marginal": {"type": "uniform_box", "bounds": [[0, 1], [0, 1], [0, 1]]}, '
          '"labeler": {"hypothesis": {"kind": "rectangle", '
          '"bounds": [[0, 0.5], [0, 1], [0, 0.5]]}}, "noise": 0.1}')
SEQUENCE_3D = f'{{"classes": [{RECTANGLES_3D}]}}'
# the second class, thresholds, is 1-d
MIXED_SEQUENCE_3D = f'{{"classes": [{RECTANGLES_3D}, {{"family": "thresholds"}}]}}'
RECTANGLES_2D_SEQUENCE = ('{"classes": [{"family": "rectangles", '
                          '"bounds": [[0, 1], [0, 1]], "resolution": 3}]}')


class TestConfigValidation:
    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="config.bogus"):
            validate_config({"command": "bounds", "d": 1, "eps": 0.1,
                             "delta": 0.05, "bogus": 1})

    def test_missing_required_named(self):
        with pytest.raises(ConfigError, match="missing.*eps"):
            validate_config({"command": "bounds", "d": 1, "delta": 0.05})

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="unknown or missing command"):
            validate_config({"command": "train"})

    def test_workers_below_one_named(self):
        assert validate_config({"command": "nfl", "m": 2, "workers": 3})["workers"] == 3
        with pytest.raises(ConfigError, match="config.workers: must be at least 1"):
            merge_config("pac", "pac-thresholds", None, {"workers": 0})

    def test_old_sine_budget_key_is_unknown(self):
        with pytest.raises(ConfigError, match="config.sine_budget: unknown key"):
            merge_config("vcdim", "sine-shatter-k6", None, {"sine_budget": 20000})

    def test_preset_command_mismatch(self):
        with pytest.raises(ConfigError, match="belongs to command"):
            merge_config("bounds", "pac-thresholds", None, {})

    def test_env_seed_fallback(self, monkeypatch):
        monkeypatch.setenv("SLT_LAB_SEED", "777")
        cfg = merge_config("nfl", None, None, {"m": 2})
        assert cfg["seed"] == 777
        monkeypatch.delenv("SLT_LAB_SEED")
        cfg = merge_config("nfl", None, None, {"m": 2})
        assert cfg["seed"] == 0
        monkeypatch.setenv("SLT_LAB_SEED", "-1")
        with pytest.raises(ConfigError, match=r"config\.seed: must lie in \[0, 2\^64\)"):
            merge_config("nfl", None, None, {"m": 2})

    def test_seed_range_is_inclusive(self):
        cfg = merge_config("tradeoff", "tradeoff-nested-thresholds", None, {"seeds": "3..5"})
        assert cfg["seeds"] == [3, 4, 5]
        with pytest.raises(ConfigError, match="config.seeds: must list at least one value"):
            merge_config("tradeoff", "tradeoff-nested-thresholds", None, {"seeds": "5..3"})

    @pytest.mark.parametrize("text, message", [
        (None, r"config: cannot read .*cfg\.json: \[Errno 2\]"),
        ("{", r"config: .*cfg\.json is not valid JSON: "),
        ("[1, 2]", r"config: .*cfg\.json must hold a JSON object$"),
        ('{"command": "pac"}', r"config\.command: file says 'pac', flags say 'bounds'$"),
    ])
    def test_config_file_errors_named(self, tmp_path, text, message):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            merge_config("bounds", "bounds-reference-point", str(path), {})

    def test_every_preset_resolves(self):
        for name in preset_names():
            command = RUN_PRESETS[name]["command"]
            cfg = merge_config(command, name, None, {})
            assert cfg["command"] == command

    def test_import_leaves_scipy_unloaded(self):
        # scipy costs about half a second of start-up; only verdicts load it
        src = os.path.dirname(os.path.dirname(sltlab.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        probe = ("import sys, sltlab.cli; "
                 "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                              capture_output=True, text=True)
        assert done.stdout.strip() == "[]"

    def test_pac_run_leaves_scipy_stats_unloaded(self, tmp_path):
        # The verdict's beta quantile comes from scipy.special; scipy.stats
        # would add about half a second and 45 MB to every harness run.
        src = os.path.dirname(os.path.dirname(sltlab.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        probe = ("import sys, sltlab.cli; "
                 "code = sltlab.cli.main(sys.argv[1:]); "
                 "print(code, 'scipy.special' in sys.modules, 'scipy.stats' in sys.modules)")
        argv = ["pac", "--preset", "pac-thresholds", "--trials", "30", "--out", str(tmp_path)]
        done = subprocess.run([sys.executable, "-c", probe, *argv], env=env, check=True,
                              capture_output=True, text=True)
        assert done.stdout.splitlines()[-1] == "0 True False"

    @pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
    def test_long_options_pinned(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed = set(re.findall(r"--[A-Za-z][\w-]*", capsys.readouterr().out))
        assert listed == COMMON_OPTIONS | COMMAND_OPTIONS[command]

    def test_precedence_preset_then_file_then_flags(self, tmp_path, capsys):
        preset = RUN_PRESETS["uc-thresholds-scaling"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"m_values": [30, 60], "eps": 0.2, "delta": 0.2,
                                    "trials": 3, "records": True}))
        from_file = merge_config("uc", "uc-thresholds-scaling", str(path), {})
        assert from_file["m_values"] == [30, 60] and from_file["eps"] == 0.2
        assert from_file["records"] is True
        assert from_file["m_values"] != preset["m_values"] and preset["eps"] != 0.2
        out = tmp_path / "run"
        main(["uc", "--preset", "uc-thresholds-scaling", "--config", str(path),
              "--m-values", "20,40", "--eps", "0.3", "--no-records", "--out", str(out)])
        cfg = json.load(open(out / "manifest.json"))["config"]
        assert cfg["class"] == preset["class"] and cfg["dist"] == preset["dist"]
        assert cfg["delta"] == 0.2 and cfg["trials"] == 3
        assert cfg["m_values"] == [20, 40] and cfg["eps"] == 0.3 and cfg["records"] is False
        assert not (out / "records.csv").exists()

    def test_manifest_lists_defaults_used(self, tmp_path):
        from sltlab.core import DEFAULT_ENUMERATION_BUDGET
        from sltlab.shattering import DEFAULT_SUBSET_BUDGET

        main(["vcdim", "--preset", "vc-intervals", "--out", str(tmp_path)])
        cfg = json.load(open(tmp_path / "manifest.json"))["config"]
        assert cfg["subset_budget"] == DEFAULT_SUBSET_BUDGET
        assert cfg["enum_budget"] == DEFAULT_ENUMERATION_BUDGET
        assert "sine_budget" not in cfg
        assert "pool" not in cfg and "sine_k" not in cfg

    def test_help_lists_every_preset(self, capsys):
        with pytest.raises(SystemExit) as exits:
            main(["--help"])
        assert exits.value.code == 0
        text = capsys.readouterr().out
        for name in preset_names():
            assert name in text


class TestExitCodes:
    def test_bounds_ok(self, capsys):
        assert main(["bounds", "--d", "1", "--eps", "0.1", "--delta", "0.05"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "399.573" in out

    def test_usage_error_is_one(self, capsys):
        assert main(["bounds", "--d", "1", "--eps", "2.0", "--delta", "0.05"]) == EXIT_CONFIG

    def test_failing_verdict_is_two(self, capsys):
        code = main([
            "pac", "--class", "thresholds", "--dist", "uniform-threshold-noisy",
            "--m", "5", "--eps", "0.001", "--delta", "0.1", "--trials", "60",
            "--seed", "1",
        ])
        assert code == EXIT_FAIL

    def test_unknown_preset_is_one(self, capsys):
        assert main(["pac", "--preset", "nope"]) == EXIT_CONFIG

    def test_unknown_class_preset_message_is_plain(self, capsys):
        assert main(["erm", "--preset", "erm-thresholds-demo", "--class", "nope"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "sltlab: error: config.class: unknown class preset 'nope';")

    def test_key_error_is_a_program_bug_not_a_config_error(self, monkeypatch, tmp_path):
        # Only named errors become config errors: any other exception a
        # runner raises propagates, and the output directories it created go.
        for error in (KeyError("m"), ValueError("bug"), OSError("bug")):
            def broken(cfg, error=error):
                raise error

            monkeypatch.setitem(cli._RUNNERS, "nfl", broken)
            with pytest.raises(type(error)):
                run({"command": "nfl", "m": 2})
            with pytest.raises(type(error)):
                run({"command": "nfl", "m": 2, "out": str(tmp_path / "new" / "out")})
            assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("argv, key", [
        (["bounds", "--d", "1", "--eps", "0", "--delta", "0.05"], "eps"),
        (["bounds", "--d", "1", "--eps", "0.1", "--delta", "0"], "delta"),
        (["bounds", "--d", "1", "--eps", "0.1x", "--delta", "0.05"], "config.eps"),
        (["vcdim", "--preset", "vc-intervals", "--subset-budget", "0"], "config.subset_budget"),
        (["vcdim", "--preset", "vc-intervals", "--enum-budget", "0"], "config.enum_budget"),
        # sine_budget is no longer a vcdim key: a config file that still sets it is refused
        (["vcdim", "--preset", "sine-shatter-k6", "--config", str(OLD_SINE_BUDGET_CONFIG)],
         "config.sine_budget"),
        (["erm", "--preset", "erm-thresholds-demo", "--budget", "0"], "config.budget"),
        (["nfl", "--m", "two"], "config.m"),
        (["nfl", "--m", "2", "--learner", "erm_all_functions", "--default-label", "2"],
         "default_label"),
        (["pac", "--preset", "pac-thresholds", "--seed", "1.5"], "config.seed"),
        (["uc", "--preset", "uc-thresholds-scaling", "--m-values", "0", "--trials", "2"],
         "config.m_values"),
        (["uc", "--preset", "uc-thresholds-scaling", "--m-values", "", "--trials", "2"],
         "config.m_values"),
        (["risk", "--dist", "uniform-threshold-clean",
          "--hypothesis", '{"kind": "sine", "alpha": 40.0}', "--mc-n", "0"], "config.mc_n"),
        (["tradeoff", "--preset", "tradeoff-nested-thresholds", "--trials", "0"],
         "config.trials"),
        (["tradeoff", "--preset", "tradeoff-nested-thresholds", "--seeds", "", "--trials", "2"],
         "config.seeds: must list at least one value"),
        (["erm", "--preset", "erm-thresholds-demo",
          "--class", '{"family": "thresholds", "resoluton": 5}'],
         "thresholds: unknown key 'resoluton'"),
        (["erm", "--preset", "erm-thresholds-demo",
          "--class", '{"family": "thresholds", "resolution": "x"}'], "thresholds: resolution: "),
        (["risk", "--dist", "uniform-threshold-clean",
          "--hypothesis", '{"kind": "interval", "lo": 0.2}'], "interval: missing 'hi'"),
        (["erm", "--preset", "erm-thresholds-demo", "--dist",
          '{"marginal": {"type": "uniform_box", "bounds": [[0.0, 1.0]]}, '
          '"labeler": {"hypothesis": {"kind": "threshold", "theta": 0.5}}, "nosie": 0.2}'],
         "distribution: unknown key 'nosie'"),
        (["erm", "--preset", "erm-thresholds-demo",
          "--class", '{"family": "thresholds", "grid": {}}'], "thresholds: grid: missing 'axes'"),
        (["erm", "--preset", "erm-thresholds-demo",
          "--class", '{"family": "thresholds", "resolution": 5.7}'],
         "thresholds: resolution: expected a whole number, got 5.7"),
        (["vcdim", "--class", "intervals", "--pool", "[[0, 1], [2]]"],
         "pool: row 1 has 1 coordinates, expected 2"),
        (["vcdim", "--class", "intervals", "--pool", "[[0, 1], 2]"],
         "pool: row 1 has 1 coordinates, expected 2"),
        (["pac", "--preset", "pac-thresholds", "--trials", "3", "--delta", "1.5"],
         "config.delta: must lie in (0, 1), got 1.5"),
        (["uc", "--preset", "uc-thresholds-scaling", "--trials", "3", "--eps", "-1"],
         "config.eps: must be positive, got -1.0"),
        (["uc", "--preset", "uc-thresholds-scaling", "--trials", "3", "--delta", "1.5"],
         "config.delta: must lie in (0, 1), got 1.5"),
        (["tradeoff", "--preset", "tradeoff-nested-thresholds", "--trials", "2", "--delta", "1.5"],
         "config.delta: must lie in (0, 1), got 1.5"),
        (["bounds", "--d", "1", "--eps", "0.1", "--delta", "0.05", "--C", "inf"],
         "config.C: expected a finite number, got inf"),
        (["bounds", "--d", "1", "--eps", "0.1", "--delta", "0.05", "--C", "nan"],
         "config.C: expected a finite number, got nan"),
        (["risk", "--dist", "uniform-threshold030-clean",
          "--hypothesis", '{"kind": "threshold", "theta": NaN}'],
         "threshold: theta: expected a finite number, got nan"),
        (["erm", "--preset", "erm-thresholds-demo", "--seed", "-1"],
         "config.seed: must lie in [0, 2^64), got -1"),
        (["tradeoff", "--preset", "tradeoff-nested-thresholds", "--trials", "2",
          "--seeds", f"0,{2 ** 64}"], f"config.seeds: must lie in [0, 2^64), got {2 ** 64}"),
        (["uc", "--preset", "uc-thresholds-scaling", "--m-values", "20,40,20", "--trials", "2"],
         "config.m_values: sample size 20 is listed more than once"),
        (["tradeoff", "--preset", "tradeoff-nested-thresholds", "--m-values", "20,20",
          "--trials", "2", "--seeds", "0"],
         "config.m_values: sample size 20 is listed more than once"),
        (["erm", "--class", "thresholds", "--m", "10", "--dist",
          '{"marginal": {"type": "uniform_box", "bounds": [[-1e308, 1e308]]}, '
          '"labeler": {"hypothesis": {"kind": "threshold", "theta": 0.5}}}'],
         "distribution: marginal: box side [-1e+308, 1e+308] must have finite length"),
        (["nfl", "--m", "5"], "config.m: the exact enumeration is capped at m=4, got 5"),
        (["nfl", "--m", "2", "--learner", "oracle"], "config.learner: unknown learner 'oracle'"),
        (["nfl", "--m", "2", "--default-label", "-1"], "config.default_label: must be 0 or 1"),
        (["uc", "--dist", '{"marginal": {"type": "finite_uniform", "points": [[]]}, '
          '"labeler": {"hypothesis": {"kind": "rectangle", "bounds": []}}}',
          "--class", '{"family": "finite", "members": [{"kind": "rectangle", "bounds": []}]}',
          "--m-values", "5", "--eps", "0.1", "--delta", "0.1", "--trials", "3"],
         "rectangle: bounds: instance dimension must be at least 1, got 0"),
        (["srm", "--sequence", SINE_SEQUENCE, "--dist", "uniform-threshold-noisy",
          "--m", "20", "--delta", "0.1"],
         "config.sequence: class at position 2 (sine) has no dimension hint"),
        (["tradeoff", "--sequence", SINE_SEQUENCE, "--dist", "uniform-threshold-noisy",
          "--m-values", "20", "--delta", "0.1", "--trials", "2"],
         "config.sequence: class at position 2 (sine) has no dimension hint"),
        (["erm", "--class", "thresholds", "--data", str(BAD_LABEL_CSV)],
         f"config.data: {BAD_LABEL_CSV} line 7: label must be 0 or 1, got '2'"),
        (["srm", "--preset", "srm-nested-thresholds-demo", "--data", str(MISSING_CSV)],
         f"config.data: [Errno 2] No such file or directory: {str(MISSING_CSV)!r}"),
        (["vcdim", "--class", "rectangles2d", "--pool", "[[0.1],[0.2]]"],
         "config.pool: rectangle hypothesis is defined on dimension 2 but instances have "
         "dimension 1"),
        (["vcdim", "--class", "intervals", "--pool", "nosuch"],
         "config.pool: no point pool named 'nosuch'; choose from"),
        (["vcdim", "--class", "intervals", "--pool", "[[0.1"],
         "config.pool: Expecting ',' delimiter"),
        (["vcdim", "--class", "intervals", "--pool", '[["a"]]'],
         "config.pool: could not convert string to float: 'a'"),
        (["vcdim", "--class", "intervals", "--pool", "[]"],
         "config.pool: the point pool must be nonempty"),
        (["vcdim", "--class", "intervals", "--pool", "[[0.1],[0.1]]"],
         "config.pool: point set must have pairwise distinct points"),
        (["bounds", "--preset", "bounds-reference-point", "--out", str(BAD_LABEL_CSV / "sub")],
         f"config.out: [Errno 20] Not a directory: {str(BAD_LABEL_CSV / 'sub')!r}"),
        (["vcdim", "--preset", "sine-shatter-k6", "--sine-k", "0"],
         "config.sine_k: must be at least 1, got 0"),
        (["pac", "--preset", "pac-thresholds", "--budget", "3"],
         "config.budget: enumeration requires 41 hypotheses but the budget is 3"),
        (["vcdim", "--class", "interval-unions-2", "--enum-budget", "5"],
         "config.enum_budget: enumeration requires 1365 hypotheses but the budget is 5"),
        (["vcdim", "--preset", "sine-shatter-k6", "--sine-k", "9"],
         "config.sine_k: the witness is capped at k=8, got 9"),
        (["vcdim", "--class", "sine", "--pool", "nosuch", "--sine-k", "2"],
         "config.pool: only meaningful for non-sine families"),
        (["pac", "--class", RECTANGLES_3D, "--dist", BOX_3D, "--m", "20", "--trials", "3",
          "--eps", "0.3", "--delta", "0.5"],
         "config.mc_n: required, uniform-box geometry is implemented for 1 and 2 dimensions, "
         "not 3"),
        (["uc", "--class", RECTANGLES_3D, "--dist", BOX_3D, "--m-values", "20", "--trials", "3",
          "--eps", "0.3", "--delta", "0.5"],
         "config.mc_n: required, uniform-box geometry is implemented for 1 and 2 dimensions, "
         "not 3"),
        (["tradeoff", "--sequence", SEQUENCE_3D, "--dist", BOX_3D, "--m-values", "20",
          "--trials", "2", "--delta", "0.1"],
         "config.mc_n: required, uniform-box geometry is implemented for 1 and 2 dimensions, "
         "not 3"),
        (["pac", "--class", "thresholds", "--dist", BOX_3D, "--m", "20", "--trials", "3",
          "--eps", "0.3", "--delta", "0.5", "--mc-n", "100"],
         "config.class: class thresholds has dimension 1, but config.dist has dimension 3"),
        (["uc", "--class", "rectangles2d", "--dist", "uniform-threshold-clean",
          "--m-values", "20", "--trials", "3", "--eps", "0.3", "--delta", "0.5"],
         "config.class: class rectangles has dimension 2, but config.dist has dimension 1"),
        (["tradeoff", "--sequence", MIXED_SEQUENCE_3D, "--dist", BOX_3D, "--m-values", "20",
          "--trials", "2", "--delta", "0.1", "--mc-n", "100"],
         "config.sequence: class at position 2 (thresholds) has dimension 1, but config.dist "
         "has dimension 3"),
        (["erm", "--class", "rectangles2d", "--dist", "uniform-threshold-clean", "--m", "10"],
         "config.class: class rectangles has dimension 2, but config.dist has dimension 1"),
        (["srm", "--sequence", RECTANGLES_2D_SEQUENCE, "--dist", "uniform-threshold-clean",
          "--m", "10", "--delta", "0.1"],
         "config.sequence: class at position 1 (rectangles) has dimension 2, but config.dist "
         "has dimension 1"),
        (["risk", "--dist", BOX_3D, "--hypothesis", '{"kind": "threshold", "theta": 0.5}'],
         "config.hypothesis: hypothesis threshold has dimension 1, but config.dist has "
         "dimension 3"),
        (["vcdim", "--class", "intervals", "--pool", "[[NaN],[NaN]]"],
         "config.pool: point set coordinates must be finite, got nan"),
        (["vcdim", "--class", "intervals", "--pool", "[[NaN],[0.5]]"],
         "config.pool: point set coordinates must be finite, got nan"),
        (["vcdim", "--class", "thresholds-both", "--pool", "[[Infinity],[0.5]]"],
         "config.pool: point set coordinates must be finite, got inf"),
        (["vcdim", "--class", "intervals", "--pool", "[[0.5],[-Infinity]]"],
         "config.pool: point set coordinates must be finite, got -inf"),
        (["vcdim", "--class", "nosuch"], "config.class: unknown class preset 'nosuch'"),
        (["vcdim", "--class", "{family}"],
         "config.class: Expecting property name enclosed in double quotes"),
        (["vcdim", "--class", '{"family": "intervals", "lo": 1, "hi": 0}',
          "--pool", "[[0.1],[0.3]]"],
         "config.class: intervals: lo must not exceed hi, got lo=1.0, hi=0.0"),
        # A grid on which some member cannot be built fails as the class is
        # built, naming its key, the family and the field that gives the grid.
        (["pac", "--preset", "pac-thresholds", "--class", BACKWARD_INTERVALS],
         "config.class: intervals: lo must not exceed hi, got lo=1.0, hi=0.0"),
        (["pac", "--preset", "pac-thresholds", "--class", UNSORTED_INTERVALS],
         "config.class: intervals: grid must be nondecreasing, got 0.5 then 0.2"),
        (["uc", "--preset", "uc-thresholds-scaling", "--class",
          '{"family": "rectangles", "bounds": [[0, 1]], "grid": {"axes": [[0.5, 0.2]]}}'],
         "config.class: rectangles: grid must be nondecreasing, got 0.5 then 0.2"),
        (["erm", "--preset", "erm-thresholds-demo", "--class",
          '{"family": "interval_unions", "grid": {"axes": [[0.0, 0.2, 0.2, 0.5]]}}'],
         "config.class: interval_unions: grid must be increasing, got 0.2 then 0.2"),
        (["srm", "--preset", "srm-nested-thresholds-demo", "--sequence",
          '{"classes": [{"family": "thresholds"}, ' + BACKWARD_INTERVALS + "]}"],
         "config.sequence: classes: intervals: lo must not exceed hi, got lo=1.0, hi=0.0"),
        (["tradeoff", "--preset", "tradeoff-nested-thresholds", "--sequence",
          '{"classes": [' + UNSORTED_INTERVALS + "]}"],
         "config.sequence: classes: intervals: grid must be nondecreasing, got 0.5 then 0.2"),
        # Bad inline JSON and unknown presets name their key.
        (["pac", "--preset", "pac-thresholds", "--dist", "{marginal"],
         "config.dist: Expecting property name enclosed in double quotes"),
        (["tradeoff", "--preset", "tradeoff-nested-thresholds", "--sequence", "{x"],
         "config.sequence: Expecting property name enclosed in double quotes"),
        (["pac", "--preset", "pac-thresholds", "--dist", "nosuch"],
         "config.dist: unknown distribution preset 'nosuch'"),
        (["risk", "--dist", "uniform-threshold-clean", "--hypothesis", "{x"],
         "config.hypothesis: Expecting property name enclosed in double quotes"),
        (["erm", "--preset", "erm-thresholds-demo", "--class", "nosuch"],
         "config.class: unknown class preset 'nosuch'"),
        (["srm", "--preset", "srm-nested-thresholds-demo", "--sequence", "nosuch"],
         "config.sequence: unknown sequence preset 'nosuch'"),
        (["uc", "--preset", "uc-thresholds-scaling", "--dist",
          '{"marginal": {"type": "uniform_box", "bounds": [[0, 1]]}, '
          '"labeler": {"hypothesis": {"kind": "halfspace", "w": [1]}}}'],
         "config.dist: distribution: labeler: hypothesis: halfspace: unknown key 'w'"),
        # A threshold range given high end first.
        (["pac", "--preset", "pac-thresholds", "--class",
          '{"family": "thresholds", "lo": 1, "hi": 0}'],
         "config.class: thresholds: lo must not exceed hi, got lo=1.0, hi=0.0"),
        # A class with no members, refused before any sample is drawn.
        (["erm", "--class", EMPTY_UNIONS, "--dist", "uniform-threshold-clean", "--m", "10"],
         "config.class: class interval_unions has no members"),
        (["srm", "--preset", "srm-nested-thresholds-demo", "--sequence",
          '{"classes": [{"family": "thresholds"}, ' + EMPTY_UNIONS + "]}"],
         "config.sequence: class at position 2 (interval_unions) has no members"),
        (["pac", "--preset", "pac-thresholds", "--class", EMPTY_UNIONS],
         "config.class: class interval_unions has no members"),
        (["uc", "--preset", "uc-thresholds-scaling", "--class", EMPTY_UNIONS],
         "config.class: class interval_unions has no members"),
        (["tradeoff", "--preset", "tradeoff-nested-thresholds", "--sequence",
          '{"classes": [' + EMPTY_UNIONS + "]}"],
         "config.sequence: class at position 1 (interval_unions) has no members"),
        # A JSON integer beyond the float range fails its cast, naming the key.
        (["risk", "--dist", "uniform-threshold-clean", "--hypothesis",
          '{"kind": "threshold", "theta": ' + HUGE_INT + "}"],
         "config.hypothesis: threshold: theta: int too large to convert to float"),
        (["pac", "--preset", "pac-thresholds", "--class",
          '{"family": "thresholds", "hi": ' + HUGE_INT + "}"],
         "config.class: thresholds: hi: int too large to convert to float"),
        (["pac", "--preset", "pac-thresholds", "--class",
          '{"family": "intervals", "grid": {"axes": [[0, ' + HUGE_INT + "]]}}"],
         "config.class: intervals: grid: axes: int too large to convert to float"),
        # A repeated table point, whose last entry would win a dict lookup.
        (["risk", "--dist", '{"marginal": {"type": "finite_uniform", "points": [[0], [1]]}, '
          '"labeler": {"table": {"points": [[0], [0], [1]], "p1": [0.1, 0.9, 0.5]}}}',
          "--hypothesis", '{"kind": "threshold", "theta": 0.5}'],
         "config.dist: distribution: labeler: table: conditional table points must be "
         "distinct"),
        (["risk", "--dist", '{"marginal": {"type": "finite_uniform", "points": [[0], [1]]}, '
          '"labeler": {"table": {"points": [[0], [-0.0], [1]], "p1": [0.1, 0.9, 0.5]}}}',
          "--hypothesis", '{"kind": "threshold", "theta": 0.5}'],
         "config.dist: distribution: labeler: table: conditional table points must be "
         "distinct"),
        (["risk", "--dist", "finite4-uniform", "--hypothesis",
          '{"kind": "lookup", "points": [[0], [0]], "labels": [1, 0]}'],
         "config.hypothesis: lookup points must be distinct"),
        # A 2-d box whose area underflows to 0 or overflows: its exact risk
        # divides by the area.
        (["risk", "--dist", '{"marginal": {"type": "uniform_box", '
          '"bounds": [[-1, -0.5], [0, 5e-324]]}, "labeler": {"hypothesis": {"kind": '
          '"halfspace", "weights": [1, -1], "bias": 0.1}}}',
          "--hypothesis", '{"kind": "rectangle", "bounds": [[0.2, 0.6], [0.2, 1.0]]}'],
         "config.dist: distribution: marginal: uniform_box: bounds: volume must be positive "
         "and finite, got 0.0"),
        (["risk", "--dist", '{"marginal": {"type": "uniform_box", '
          '"bounds": [[-1e300, 1e300], [-1e300, 1e300]]}, "labeler": {"hypothesis": {"kind": '
          '"halfspace", "weights": [1, -1], "bias": 0.1}}}',
          "--hypothesis", '{"kind": "halfspace", "weights": [1, 1], "bias": 0.1}'],
         "config.dist: distribution: marginal: uniform_box: bounds: volume must be positive "
         "and finite, got inf"),
        # Each range is declared with its key, not left to the library.
        (["bounds", "--d", "-1", "--eps", "0.1", "--delta", "0.05"],
         "sltlab: error: config.d: must be nonnegative, got -1\n"),
        (["bounds", "--d", "1", "--eps", "1.5", "--delta", "0.05"],
         "sltlab: error: config.eps: must lie in (0, 1), got 1.5\n"),
        (["bounds", "--d", "1", "--eps", "0.1", "--delta", "1.5"],
         "sltlab: error: config.delta: must lie in (0, 1), got 1.5\n"),
        (["bounds", "--d", "1", "--eps", "0.1", "--delta", "0.05", "--C", "-1"],
         "sltlab: error: config.C: must be positive, got -1.0\n"),
        (["bounds", "--d", "1", "--eps", "0.1", "--delta", "0.05", "--C1", "0"],
         "sltlab: error: config.C1: must be positive, got 0.0\n"),
        (["bounds", "--d", "1", "--eps", "0.1", "--delta", "0.05", "--C2", "-2"],
         "sltlab: error: config.C2: must be positive, got -2.0\n"),
        (["srm", "--preset", "srm-nested-thresholds-demo", "--C", "-1"],
         "sltlab: error: config.C: must be positive, got -1.0\n"),
        (["srm", "--preset", "srm-nested-thresholds-demo", "--delta", "0"],
         "sltlab: error: config.delta: must lie in (0, 1), got 0.0\n"),
        (["tradeoff", "--preset", "tradeoff-nested-thresholds", "--trials", "2", "--C", "0"],
         "sltlab: error: config.C: must be positive, got 0.0\n"),
        (["pac", "--preset", "pac-thresholds", "--eps", "0"],
         "sltlab: error: config.eps: must be positive, got 0.0\n"),
        (["uc", "--preset", "uc-thresholds-scaling", "--eps", "0"],
         "sltlab: error: config.eps: must be positive, got 0.0\n"),
        # A weight whose product with delta leaves (0, 1).
        (["srm", "--sequence", TINY_WEIGHT_SEQUENCE, "--dist", "uniform-threshold-noisy",
          "--m", "10", "--delta", "1e-100"],
         "sltlab: error: config.sequence: class at position 1 (thresholds) has weight 1e-300, "
         "and weight * delta must lie in (0, 1), got 0.0\n"),
        (["tradeoff", "--sequence", TINY_WEIGHT_SEQUENCE, "--dist", "uniform-threshold-noisy",
          "--m-values", "10", "--trials", "2", "--delta", "1e-100"],
         "sltlab: error: config.sequence: class at position 1 (thresholds) has weight 1e-300, "
         "and weight * delta must lie in (0, 1), got 0.0\n"),
        (["srm", "--sequence", '{"classes": [{"family": "thresholds"}], '
          '"weights": [1.000000000001]}', "--dist", "uniform-threshold-noisy",
          "--m", "10", "--delta", "0.9999999999999999"],
         "sltlab: error: config.sequence: class at position 1 (thresholds) has weight "
         "1.000000000001, and weight * delta must lie in (0, 1), got 1.0000000000009999\n"),
        # A bound that would overflow the floats, refused before it is printed.
        (["bounds", "--d", "1", "--eps", "1e-200", "--delta", "0.05"],
         "sltlab: error: config.eps: b = (d - ln delta) / eps^2 overflows the floats\n"),
        (["bounds", "--d", "1", "--eps", "1e-160", "--delta", "0.05"],
         "sltlab: error: config.eps: b = (d - ln delta) / eps^2 overflows the floats\n"),
        (["bounds", "--d", HUGE_INT, "--eps", "0.1", "--delta", "0.05"],
         "sltlab: error: config.d: d - ln delta overflows the floats\n"),
        (["bounds", "--d", "1", "--eps", "0.1", "--delta", "0.05", "--m", HUGE_INT],
         "sltlab: error: config.m: m overflows the floats\n"),
        (["bounds", "--d", "1", "--eps", "0.1", "--delta", "0.05", "--C1", "1e308"],
         "sltlab: error: config.C1: the bracket's low end C1 b overflows the floats\n"),
        (["bounds", "--d", "1", "--eps", "0.1", "--delta", "0.05", "--C2", "1e308"],
         "sltlab: error: config.C2: the bracket's high end C2 b overflows the floats\n"),
        (["bounds", "--d", "100", "--eps", "0.1", "--delta", "0.05", "--m", "1",
          "--C", "1e308"],
         "sltlab: error: config.C: the accuracy at m=1 overflows the floats\n"),
        # A JSON integer beyond the float range, from a config file.
        (["bounds", "--d", "1", "--delta", "0.05", "--config", str(HUGE_EPS_CONFIG)],
         "sltlab: error: config.eps: int too large to convert to float\n"),
    ])
    def test_bad_value_fails_before_work_naming_key(self, argv, key, capsys):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert key in captured.err

    @pytest.mark.parametrize("argv, key", [
        (["pac", "--preset", "pac-thresholds", "--class",
          '{"family": "thresholds", "lo": -1e308, "hi": 1e308}'],
         "config.class: thresholds: hi - lo must be finite, got lo=-1e+308, hi=1e+308"),
        (["vcdim", "--class", '{"family": "sine", "alpha_lo": -1e308, "alpha_hi": 1e308}'],
         "config.class: sine: alpha_hi - alpha_lo must be finite"),
    ])
    def test_range_too_wide_for_a_default_grid_names_key(self, argv, key, capsys):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"sltlab: error: {key}")

    @pytest.mark.parametrize("argv, key", [
        (["erm", "--class", "rectangles2d"],
         "config.class: class rectangles has dimension 2, but the sample in config.data has "
         "dimension 1"),
        (["srm", "--sequence", RECTANGLES_2D_SEQUENCE, "--delta", "0.1"],
         "config.sequence: class at position 1 (rectangles) has dimension 2, but the sample in "
         "config.data has dimension 1"),
    ])
    def test_sample_dimension_mismatch_names_key(self, argv, key, tmp_path, capsys):
        path = tmp_path / "line.csv"
        path.write_text("x1,label\n0.25,0\n0.75,1\n")
        assert main(argv + ["--data", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"sltlab: error: {key}\n"

    @pytest.mark.parametrize("argv", [
        ["erm", "--class", "thresholds"],
        ["srm", "--preset", "srm-nested-thresholds-demo"],
    ])
    def test_sample_without_records_names_key(self, argv, tmp_path, capsys):
        path = tmp_path / "header.csv"
        path.write_text("x1,label\n")
        assert main(argv + ["--data", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"sltlab: error: config.data: {path} holds no records\n"

    def test_bounds_overflow_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["bounds", "--d", "1", "--eps", "1e-160", "--delta", "0.05", "--m", "10"]
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().out == "" and not out.exists()
        out.mkdir()
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().out == "" and not any(out.iterdir())

    @pytest.mark.parametrize("argv", [
        ["erm", "--class", "thresholds"],
        ["srm", "--preset", "srm-nested-thresholds-demo"],
    ])
    def test_learner_reads_data(self, argv, tmp_path, capsys):
        # A sample read from --data is learned from and not written back.
        path = tmp_path / "line.csv"
        path.write_text("x1,label\n0.25,0\n0.75,1\n")
        out = tmp_path / "out"
        assert main(argv + ["--data", str(path), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("selected ")
        assert json.load(open(out / "learner_output.json"))["empirical_error"] == 0
        assert sorted(p.name for p in out.iterdir()) == ["learner_output.json", "manifest.json"]

    def test_unreadable_csv_record_names_key_and_line(self, tmp_path, capsys):
        # one feature cell longer than csv's field limit, on line 2
        path = tmp_path / "long.csv"
        path.write_text(f"x1,label\n0.{'0' * csv.field_size_limit()}1,0\n")
        assert main(["erm", "--class", "thresholds", "--data", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"sltlab: error: config.data: {path} line 2: field larger than "
                                f"field limit ({csv.field_size_limit()})\n")

    @pytest.mark.parametrize("argv, data, key", [
        (["nfl"], {"m": 2.7}, "m"),
        (["nfl"], {"m": float("inf")}, "m"),
        (["nfl", "--m", "2"], {"workers": 2.5}, "workers"),
        (["nfl", "--m", "2"], {"seed": 1.5}, "seed"),
        (["nfl", "--m", "2"], {"seed": True}, "seed"),
        (["nfl", "--m", "2"], {"default_label": True}, "default_label"),
        (["nfl", "--m", "2"], {"preset_version": 1.5}, "preset_version"),
        (["pac", "--preset", "pac-thresholds"], {"trials": True}, "trials"),
        (["bounds", "--eps", "0.1", "--delta", "0.05"], {"d": 1.5}, "d"),
        (["vcdim", "--preset", "sine-shatter-k6"], {"sine_k": 3.5}, "sine_k"),
        (["uc", "--preset", "uc-thresholds-scaling"], {"m_values": [20, True]}, "m_values"),
        (["tradeoff", "--preset", "tradeoff-nested-thresholds"], {"seeds": [0, 1.5]}, "seeds"),
    ])
    def test_config_file_integers_must_be_whole(self, tmp_path, argv, data, key, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main(argv + ["--config", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config.{key}: expected a whole number" in captured.err

    @pytest.mark.parametrize("argv, data, key", [
        (["bounds", "--d", "1", "--eps", "0.1", "--delta", "0.05"], {"C": True}, "C"),
        (["pac", "--preset", "pac-thresholds"], {"delta": float("inf")}, "delta"),
        (["srm", "--preset", "srm-nested-thresholds-demo"], {"delta": float("nan")}, "delta"),
    ])
    def test_config_file_reals_must_be_finite_numbers(self, tmp_path, argv, data, key, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main(argv + ["--config", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config.{key}: expected a finite number" in captured.err

    def test_config_file_whole_floats_cast_to_int(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"m_values": [20.0, 40], "trials": 5.0, "seed": 3.0}))
        cfg = merge_config("uc", "uc-thresholds-scaling", str(path), {})
        assert cfg["m_values"] == [20, 40] and cfg["trials"] == 5 and cfg["seed"] == 3
        assert all(type(v) is int for v in (*cfg["m_values"], cfg["trials"], cfg["seed"]))

    def test_uc_zero_median_ratio_is_na(self, tmp_path, capsys):
        one = '{"family":"finite","members":[{"kind":"threshold","theta":0.5,"direction":"ge"}]}'
        code = main(["uc", "--class", one, "--dist", "uniform-threshold-clean",
                     "--m-values", "10,40", "--eps", "0.1", "--delta", "0.1",
                     "--trials", "40", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert "median ratio m=10 vs m=40: n/a" in capsys.readouterr().out
        report = json.load(open(tmp_path / "uc_report.json"))
        assert report["scaling"][0]["median_ratio"] is None
        digests = json.load(open(tmp_path / "manifest.json"))["outputs"]
        assert jsonio.sha256_file(tmp_path / "uc_report.json") == digests["uc_report.json"]

    def test_indeterminate_verdict_is_three(self, capsys):
        # deterministic seed pinned to land the confidence bounds astride the
        # threshold (frequency 0.89 at threshold 0.88)
        code = main([
            "uc", "--class", "thresholds", "--dist", "uniform-threshold-noisy",
            "--m-values", "150", "--eps", "0.1", "--delta", "0.1",
            "--trials", "100", "--seed", "0",
        ])
        assert code == 3


class TestStacksOncePerRun:
    """A class is checked when it is built, so a learning command stacks its
    classes once, for the learner or harness, and never to check them."""

    @pytest.mark.parametrize("argv, stacked", [
        (["erm", "--preset", "erm-thresholds-demo"], ["thresholds"]),
        (["srm", "--preset", "srm-nested-thresholds-demo"], ["thresholds"] * 5),
        (["pac", "--preset", "pac-thresholds", "--trials", "20"], ["thresholds"]),
        (["uc", "--preset", "uc-thresholds-scaling", "--trials", "20"], ["thresholds"]),
        (["tradeoff", "--preset", "tradeoff-nested-thresholds", "--trials", "2",
          "--seeds", "0"], ["thresholds"] * 5),
    ])
    def test_each_learning_command_stacks_once(self, argv, stacked, monkeypatch, capsys):
        calls = []
        original = core.StackedMembers.of.__func__

        def counted(cls, *classes, **kwargs):
            calls.append([H.family for H in classes])
            return original(cls, *classes, **kwargs)

        monkeypatch.setattr(core.StackedMembers, "of", classmethod(counted))
        assert main(argv) != EXIT_CONFIG
        assert calls == [stacked]


class TestVcdimCommand:
    def test_empty_class_has_dimension_zero(self, capsys):
        assert main(["vcdim", "--class", EMPTY_UNIONS, "--pool", "[[0.1],[0.2]]"]) == EXIT_OK
        assert capsys.readouterr().out == "dimension over 2-point pool: 0\n"

    def test_intervals_report_is_replayable(self, tmp_path, capsys):
        code = main(["vcdim", "--preset", "vc-intervals", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert "2" in capsys.readouterr().out
        data = json.load(open(tmp_path / "vc_report.json"))
        report = VcReport.from_json(data)
        assert report.value == 2
        assert verify_certificate(report)

    def test_non_finite_pool_leaves_no_output(self, tmp_path, capsys):
        out = tmp_path / "vc"
        assert main(["vcdim", "--class", "thresholds-both", "--pool", "[[Infinity],[0.5]]",
                     "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sltlab: error: config.pool: ")
        assert os.listdir(tmp_path) == []

    def test_sine_witness_output(self, tmp_path):
        code = main(["vcdim", "--preset", "sine-shatter-k6", "--out", str(tmp_path)])
        assert code == EXIT_OK
        data = json.load(open(tmp_path / "sine_witness.json"))
        assert data["complete"] is True
        assert len(data["entries"]) == 64


class TestRiskCommand:
    def test_analytic_route(self, tmp_path):
        code = main(["risk", "--preset", "risk-threshold-demo", "--out", str(tmp_path)])
        assert code == EXIT_OK
        data = json.load(open(tmp_path / "risk.json"))
        assert data["method"] == "analytic"
        assert data["risk"] == pytest.approx(0.2, abs=1e-12)
        preset = RUN_PRESETS["risk-threshold-demo"]
        h = hypothesis_from_json(json.loads(preset["hypothesis"]))
        assert data["risk"].hex() == true_risk(resolve_distribution(preset["dist"]), h).hex()

    def test_monte_carlo_route_needs_declared_n(self, tmp_path):
        sine = '{"kind": "sine", "alpha": 40.0}'
        assert main(["risk", "--dist", "uniform-threshold-clean",
                     "--hypothesis", sine]) == EXIT_CONFIG
        code = main(["risk", "--dist", "uniform-threshold-clean",
                     "--hypothesis", sine, "--mc-n", "5000", "--seed", "3",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        data = json.load(open(tmp_path / "risk.json"))
        assert data["method"] == "monte_carlo"
        assert 0.0 <= data["risk"] <= 1.0
        assert data["band"] == pytest.approx((__import__("math").log(40) / 10000) ** 0.5)
        D = resolve_distribution("uniform-threshold-clean")
        h = hypothesis_from_json(json.loads(sine))
        assert data["risk"].hex() == mc_risk(D, h, 5000, SeedSpec(3, "cli-risk"))[0].hex()


class TestIngestCsv:
    def test_two_column_file(self, tmp_path):
        path = tmp_path / "data.csv"
        rows = "\n".join(f"0.{i},{i % 2}" for i in range(10))
        path.write_text("x,y\n" + rows + "\n")
        S = LabeledSample.from_csv(str(path))
        assert S.m == 10
        assert S.dim == 1

    def test_bad_label_names_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n" + "\n".join(
            f"0.{i},{2 if i == 5 else 0}" for i in range(10)) + "\n")
        with pytest.raises(ValueError, match="line 7.*'2'"):
            LabeledSample.from_csv(str(path))

    def test_round_trip_export_then_ingest(self, tmp_path):
        D = DataDistribution(UniformBox(((0.0, 1.0), (0.0, 1.0))),
                             Rectangle(((0.2, 0.8), (0.1, 0.9))), noise=0.1)
        S = draw_sample(D, 64, SeedSpec(12))
        path = tmp_path / "sample.csv"
        S.to_csv(path)
        back = LabeledSample.from_csv(str(path))
        assert np.array_equal(back.X, S.X)
        assert np.array_equal(back.y, S.y)


class TestOutputsAndManifest:
    def test_manifest_digests_verify(self, tmp_path):
        code = main(["pac", "--preset", "pac-thresholds", "--trials", "50",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        manifest = json.load(open(tmp_path / "manifest.json"))
        assert manifest["tool"] == "sltlab"
        assert manifest["config"]["preset"] == "pac-thresholds"
        assert manifest["config"]["preset_version"] == 1
        for name, digest in manifest["outputs"].items():
            assert jsonio.sha256_file(tmp_path / name) == digest

    @pytest.mark.parametrize("argv, written", [
        (["pac", "--preset", "pac-thresholds", "--trials", "20", "--records"], "records.csv"),
        (["tradeoff", "--preset", "tradeoff-nested-thresholds", "--trials", "5", "--records"],
         "records.csv"),
        (["srm", "--preset", "srm-nested-thresholds-demo"], "sample.csv"),
    ], ids=["pac-records", "tradeoff-records", "srm"])
    def test_manifest_digests_are_of_the_written_bytes(self, tmp_path, argv, written):
        main(argv + ["--out", str(tmp_path)])
        outputs = json.load(open(tmp_path / "manifest.json"))["outputs"]
        assert written in outputs
        assert {*outputs, "manifest.json"} == {p.name for p in tmp_path.iterdir()}
        for name, digest in outputs.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("preset", [
        "pac-thresholds", "uc-thresholds-scaling", "tradeoff-nested-thresholds",
    ])
    def test_records_flag_adds_per_trial_csv(self, tmp_path, preset):
        cfg = RUN_PRESETS[preset]
        main([cfg["command"], "--preset", preset, "--trials", "20",
              "--records", "--out", str(tmp_path)])
        lines = (tmp_path / "records.csv").read_text().splitlines()
        trials = 20 * len(cfg.get("m_values", [None])) * len(cfg.get("seeds", [None]))
        assert len(lines) == 1 + trials  # header + one row per trial
        manifest = json.load(open(tmp_path / "manifest.json"))
        assert manifest["outputs"]["records.csv"] == RECORD_DIGESTS[preset]

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            main(["uc", "--preset", "uc-thresholds-scaling", "--trials", "30",
                  "--out", str(out)])
        for name in ("uc_report.json", "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("argv", [
        ["vcdim", "--preset", "vc-rectangles2d"],
        ["pac", "--preset", "pac-thresholds", "--records", "--trials", "50"],
        ["srm", "--preset", "srm-nested-thresholds-demo"],
    ], ids=["vcdim", "pac-records", "srm"])
    def test_rerun_over_longer_files_rewrites_them(self, tmp_path, argv):
        # The same --out both times, since the manifest's config names it.
        main(argv + ["--out", str(tmp_path)])
        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        for name, data in first.items():
            (tmp_path / name).write_bytes(b"junk," * (len(data) // 5 + 100))
        main(argv + ["--out", str(tmp_path)])
        second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert second.keys() == first.keys()
        manifests = [json.loads(run.pop("manifest.json")) for run in (first, second)]
        assert second == first
        for manifest in manifests:
            manifest.pop("duration_seconds")
            for name, digest in manifest["outputs"].items():
                assert hashlib.sha256(second[name]).hexdigest() == digest
        assert manifests[0] == manifests[1]

    def test_outputs_confined_to_declared_directory(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out = tmp_path / "results"
        main(["nfl", "--preset", "nfl-m2-memorizer", "--out", str(out)])
        assert os.listdir(workdir) == []
        assert sorted(os.listdir(out)) == ["manifest.json", "nfl_report.json"]

    def test_failed_run_removes_the_directories_it_created(self, tmp_path, capsys):
        out = tmp_path / "runs" / "vc"
        assert main(["vcdim", "--class", "intervals", "--pool", "nosuch",
                     "--out", str(out)]) == EXIT_CONFIG
        assert "config.pool" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_failed_run_keeps_a_directory_that_existed(self, tmp_path, capsys):
        out = tmp_path / "vc"
        out.mkdir()
        assert main(["vcdim", "--class", "intervals", "--pool", "nosuch",
                     "--out", str(out)]) == EXIT_CONFIG
        assert "config.pool" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["vc"] and os.listdir(out) == []

    def test_failed_write_names_config_out(self, tmp_path, capsys):
        (tmp_path / "bounds.json").mkdir()
        assert main(["bounds", "--preset", "bounds-reference-point",
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (f"sltlab: error: config.out: [Errno 21] Is a directory: "
                       f"{str(tmp_path / 'bounds.json')!r}\n")

    def test_tradeoff_monte_carlo_on_a_3d_box(self, tmp_path, capsys):
        assert main(["tradeoff", "--sequence", SEQUENCE_3D, "--dist", BOX_3D,
                     "--m-values", "20", "--trials", "2", "--delta", "0.1", "--mc-n", "200",
                     "--out", str(tmp_path / "mc")]) == EXIT_OK
        assert json.load(open(tmp_path / "mc" / "tradeoff.json"))["config"]["mc_n"] == 200
        assert json.load(open(tmp_path / "mc" / "manifest.json"))["config"]["mc_n"] == 200
        assert main(["tradeoff", "--preset", "tradeoff-nested-thresholds",
                     "--out", str(tmp_path / "preset")]) == EXIT_OK
        for name in ("tradeoff.json", "manifest.json"):
            assert "mc_n" not in json.load(open(tmp_path / "preset" / name))["config"]


class TestRunApi:
    def test_run_validates_before_computing(self):
        with pytest.raises(ConfigError):
            run({"command": "erm", "class": "thresholds"})  # no data and no dist/m

    def test_erm_from_generated_sample(self, tmp_path):
        code = run({
            "command": "erm", "class": "thresholds",
            "dist": "uniform-threshold-clean", "m": 100, "seed": 5,
            "out": str(tmp_path),
        })
        assert code == EXIT_OK
        data = json.load(open(tmp_path / "learner_output.json"))
        assert data["empirical_error"] == 0.0
        # the generated sample is exported and matches the seeded draw exactly
        from sltlab.presets import DISTRIBUTIONS

        exported = LabeledSample.from_csv(str(tmp_path / "sample.csv"))
        again = draw_sample(DISTRIBUTIONS["uniform-threshold-clean"], 100,
                            SeedSpec(5, "cli-erm"))
        assert np.array_equal(exported.X, again.X)
        assert np.array_equal(exported.y, again.y)

    def test_srm_preset_runs(self, tmp_path):
        code = run({
            "command": "srm", "sequence": "nested-thresholds",
            "dist": "uniform-threshold-noisy", "m": 150, "delta": 0.1, "seed": 5,
            "out": str(tmp_path),
        })
        assert code == EXIT_OK
        data = json.load(open(tmp_path / "learner_output.json"))
        assert data["class_index"] in (1, 2)
        assert "penalty_config" in data
