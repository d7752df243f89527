"""Command-line front end: config parsing, presets, dataset ingestion,
experiment dispatch, and CSV/JSON emission.

Exit codes: 0 for a completed computation or a passing experiment verdict,
2 for a failing verdict, 3 for an indeterminate verdict, 1 for a usage error
or a config error, whose message names the config key (config.<key>) or file
at fault.  Any other failure is a program bug and ends in a Python traceback.
Every run that writes files also writes a manifest with sha256 digests of the
emitted outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace

from . import __version__
from . import jsonio
from .bounds import (
    DEFAULT_C,
    DEFAULT_C1,
    DEFAULT_C2,
    BoundParams,
    sample_complexity,
)
from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    DimensionMismatchError,
    EnumerationBudgetError,
    LabeledSample,
    hypothesis_from_json,
    real_number,
    whole_number,
)
from .distributions import (AnalyticRiskUnavailable, SeedSpec, draw_sample, hoeffding_band,
                            member_risks)
from .experiments import (
    DEFAULT_NFL_LEARNER,
    NFL_LEARNERS,
    NFL_MAX_M,
    check_distinct_sizes,
    nfl_exact,
    tradeoff_sweep,
    verify_learnability,
    verify_uniform_convergence,
)
from .learners import DEFAULT_LABEL, erm, srm
from .presets import (
    POOLS,
    PRESET_VERSION,
    RUN_PRESETS,
    preset_names,
    resolve_class,
    resolve_distribution,
    resolve_pool,
    resolve_sequence,
)
from .shattering import (
    DEFAULT_SUBSET_BUDGET,
    MAX_SINE_POINTS,
    PointSetError,
    sine_shatter_witness,
    vc_dimension,
)

SEED_ENV_VAR = "SLT_LAB_SEED"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FAIL = 2
EXIT_INDETERMINATE = 3


class ConfigError(Exception):
    """Invalid configuration; the message names the offending config path."""


def _whole(value) -> int:
    """whole_number of a config value; the text of a flag or of $SLT_LAB_SEED
    is parsed with int first."""
    return whole_number(int(value) if isinstance(value, str) else value)


def _real(value) -> float:
    """real_number of a config value; a flag's text is parsed with float first."""
    return real_number(float(value) if isinstance(value, str) else value)


def _int_list(value) -> list[int]:
    """A nonempty list of ints: a JSON list, "a,b,c" or an inclusive "a..b"."""
    text = str(value)
    if isinstance(value, list):
        values = [_whole(v) for v in value]
    elif ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(_whole(lo), _whole(hi) + 1))
    else:
        values = [_whole(v) for v in text.split(",") if v.strip() != ""]
    if not values:
        raise ValueError("must list at least one value")
    return values


def _within(cast, ok, rule: str):
    """cast, then a range check: a value v that fails ok(v) raises
    ValueError(f"{rule}, got {v}")."""
    def check(value):
        v = cast(value)
        if not ok(v):
            raise ValueError(f"{rule}, got {v}")
        return v
    return check


_at_least_one = _within(_whole, lambda n: n >= 1, "must be at least 1")
_nonnegative = _within(_whole, lambda n: n >= 0, "must be nonnegative")
_positive = _within(_real, lambda x: x > 0, "must be positive")
_open_unit = _within(_real, lambda x: 0 < x < 1, "must lie in (0, 1)")
_nfl_m = _within(_at_least_one, lambda m: m <= NFL_MAX_M,
                 f"the exact enumeration is capped at m={NFL_MAX_M}")
_sine_k = _within(_at_least_one, lambda k: k <= MAX_SINE_POINTS,
                  f"the witness is capped at k={MAX_SINE_POINTS}")
_label = _within(_whole, lambda v: v in (0, 1), "must be 0 or 1")
_seed = _within(_whole, lambda n: 0 <= n < 2 ** 64, "must lie in [0, 2^64)")


def _nfl_learner(value) -> str:
    if value not in NFL_LEARNERS:
        raise ValueError(f"unknown learner {value!r}; expected one of {NFL_LEARNERS}")
    return value


def _sample_sizes(value) -> list[int]:
    """A list of pairwise distinct sample sizes, each at least 1."""
    sizes = [_at_least_one(v) for v in _int_list(value)]
    check_distinct_sizes(sizes)
    return sizes


def _each_seed(value) -> list[int]:
    return [_seed(v) for v in _int_list(value)]


def _bool(value) -> bool:
    if isinstance(value, bool):
        return value
    raise TypeError(f"expected a boolean, got {value!r}")


# One declaration per config key: key -> (cast, default).  The default is
# REQUIRED, None (the key stays absent when unset) or the library constant the
# computation would use anyway, so the manifest shows every default it used.
# Every key except those in _NOT_FLAGS is also the subcommand flag --some-key.
REQUIRED = object()
_NOT_FLAGS = ("command", "preset_version")
_BUDGET = (_at_least_one, DEFAULT_ENUMERATION_BUDGET)
_DELTA = (_open_unit, REQUIRED)
_C = (_positive, DEFAULT_C)

_COMMON_KEYS = {
    "command": (str, REQUIRED), "preset": (str, None), "preset_version": (_whole, None),
    "out": (str, None), "seed": (_seed, None), "workers": (_at_least_one, None),
    "records": (_bool, False),
}

_COMMAND_KEYS: dict[str, dict] = {
    "bounds": {"d": (_nonnegative, REQUIRED), "eps": (_open_unit, REQUIRED), "delta": _DELTA,
               "m": (_at_least_one, None), "C": _C, "C1": (_positive, DEFAULT_C1),
               "C2": (_positive, DEFAULT_C2)},
    "vcdim": {"class": (str, REQUIRED), "pool": (str, None),
              "subset_budget": (_at_least_one, DEFAULT_SUBSET_BUDGET),
              "enum_budget": (_at_least_one, DEFAULT_ENUMERATION_BUDGET),
              "sine_k": (_sine_k, None)},
    "risk": {"dist": (str, REQUIRED), "hypothesis": (str, REQUIRED),
             "mc_n": (_at_least_one, None)},
    "erm": {"class": (str, REQUIRED), "data": (str, None), "dist": (str, None),
            "m": (_at_least_one, None), "budget": _BUDGET},
    "srm": {"sequence": (str, REQUIRED), "delta": _DELTA, "C": _C,
            "data": (str, None), "dist": (str, None), "m": (_at_least_one, None),
            "budget": _BUDGET},
    "pac": {"class": (str, REQUIRED), "dist": (str, REQUIRED), "m": (_at_least_one, REQUIRED),
            "eps": (_positive, REQUIRED), "delta": _DELTA,
            "trials": (_at_least_one, REQUIRED), "mc_n": (_at_least_one, None),
            "budget": _BUDGET},
    "uc": {"class": (str, REQUIRED), "dist": (str, REQUIRED),
           "m_values": (_sample_sizes, REQUIRED), "eps": (_positive, REQUIRED),
           "delta": _DELTA, "trials": (_at_least_one, REQUIRED),
           "mc_n": (_at_least_one, None), "budget": _BUDGET},
    "nfl": {"m": (_nfl_m, REQUIRED), "learner": (_nfl_learner, DEFAULT_NFL_LEARNER),
            "default_label": (_label, DEFAULT_LABEL)},
    "tradeoff": {"sequence": (str, REQUIRED), "dist": (str, REQUIRED),
                 "m_values": (_sample_sizes, REQUIRED),
                 "trials": (_at_least_one, REQUIRED),
                 "delta": _DELTA, "C": _C,
                 "seeds": (_each_seed, None), "mc_n": (_at_least_one, None),
                 "budget": _BUDGET},
}

_COMMAND_HELP = {
    "bounds": "sample-complexity and accuracy bound arithmetic",
    "vcdim": "brute-force dimension search (or sine shattering witness)",
    "risk": "exact or Monte Carlo risk of one hypothesis",
    "erm": "minimize empirical error over an enumerated class",
    "srm": "penalized selection over a weighted class sequence",
    "pac": "learnability harness with a binomial verdict",
    "uc": "uniform-convergence harness across sample sizes",
    "nfl": "exact average-case failure of data-only learners",
    "tradeoff": "approximation/estimation sweep over a class sequence",
}

_KEY_HELP = {
    "preset": "named run preset",
    "out": "output directory for JSON/CSV + manifest",
    "seed": f"master seed (fallback: ${SEED_ENV_VAR})",
    "workers": "accepted for older configs; no effect, trials run in one thread",
    "records": "emit per-trial records",
    "class": "class preset name or inline JSON",
    "pool": "pool preset name or inline JSON point list",
    "dist": "distribution preset name or inline JSON",
    "hypothesis": "inline hypothesis JSON",
    "data": "CSV sample (features then 0/1 label, header row)",
    "m_values": "comma list, e.g. 400,1600",
    "seeds": "comma list or inclusive range, e.g. 0..19",
}


def validate_config(raw: dict) -> dict:
    """Cast and check a merged config and fill in its defaults; unknown keys
    are errors, not warnings."""
    command = raw.get("command")
    if command not in _COMMAND_KEYS:
        raise ConfigError(f"config.command: unknown or missing command {command!r}")
    table = {**_COMMON_KEYS, **_COMMAND_KEYS[command]}
    out: dict = {}
    for key, value in raw.items():
        if key not in table:
            raise ConfigError(f"config.{key}: unknown key for command {command!r}")
        if value is None:
            continue
        try:
            out[key] = table[key][0](value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"config.{key}: {exc}") from exc
    missing = []
    for key, (_, default) in table.items():
        if key in out or default is None:
            continue
        if default is REQUIRED:
            missing.append(key)
        else:
            out[key] = default
    if missing:
        raise ConfigError(f"config: command {command!r} is missing {sorted(missing)}")
    return out


def merge_config(command: str, preset: str | None, config_path: str | None,
                 overrides: dict) -> dict:
    merged: dict = {"command": command}
    if preset is not None:
        if preset not in RUN_PRESETS:
            raise ConfigError(
                f"config.preset: unknown preset {preset!r}; choose from {preset_names()}"
            )
        pre = dict(RUN_PRESETS[preset])
        if pre.get("command") != command:
            raise ConfigError(
                f"config.preset: preset {preset!r} belongs to command "
                f"{pre.get('command')!r}, not {command!r}"
            )
        merged.update(pre)
        merged["preset"] = preset
        merged["preset_version"] = PRESET_VERSION
    if config_path is not None:
        try:
            with open(config_path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {config_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config: {config_path} must hold a JSON object")
        if data.get("command", command) != command:
            raise ConfigError(
                f"config.command: file says {data.get('command')!r}, flags say {command!r}"
            )
        merged.update(data)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    if merged.get("seed") is None:
        merged["seed"] = os.environ.get(SEED_ENV_VAR) or 0
    return validate_config(merged)


# ---------------------------------------------------------------------------
# Command implementations: each returns (exit_code, printable lines, files)
# where files maps filename -> payload.  run writes a LabeledSample with its
# to_csv, a list of row dicts as a CSV whose header is the rows' keys, and
# anything else as JSON.
# ---------------------------------------------------------------------------


def _finite(key: str, what: str, compute) -> float:
    """compute(), refused as config.<key> when it overflows the floats."""
    try:
        value = compute()
        if math.isfinite(value):
            return value
    except (OverflowError, ZeroDivisionError):
        pass
    raise ConfigError(f"config.{key}: {what} overflows the floats")


def _run_bounds(cfg: dict):
    params = BoundParams(eps=cfg["eps"], delta=cfg["delta"], d=cfg["d"], m=cfg.get("m", 1),
                         C=cfg["C"], C1=cfg["C1"], C2=cfg["C2"])
    # Every value printed and written is a float: before any output, refuse
    # the first key whose value makes one overflow.
    _finite("d", "d - ln delta", lambda: params.d - math.log(params.delta))
    b = _finite("eps", "b = (d - ln delta) / eps^2",
                lambda: sample_complexity(replace(params, m=1)).b)
    if "m" not in cfg:  # default: the base quantity b, rounded up
        params = replace(params, m=max(1, math.ceil(b)))
    _finite("m", "m", lambda: float(params.m))
    report = sample_complexity(params)
    _finite("C1", "the bracket's low end C1 b", lambda: report.m_lower)
    _finite("C2", "the bracket's high end C2 b", lambda: report.m_upper)
    _finite("C", f"the accuracy at m={params.m}", lambda: report.eps_uc)
    lines = [
        f"b = (d - ln delta) / eps^2 = {report.b:.6g}",
        f"sample-size bracket: [{report.m_lower:.6g}, {report.m_upper:.6g}]",
        f"accuracy at m={params.m}: {report.eps_uc:.6g}",
    ]
    files = {"bounds.json": report.to_json(), "bounds.csv": [report.csv_row()]}
    return EXIT_OK, lines, files


def _resolve(cfg: dict, key: str, resolver):
    """resolver(cfg[key]); a spec it rejects (bad inline JSON, an unknown
    preset, a bad value inside) names config.<key>."""
    try:
        return resolver(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"config.{key}: {exc}") from exc


def _run_vcdim(cfg: dict):
    H = _resolve(cfg, "class", resolve_class)
    if H.family == "sine":
        if "pool" in cfg:
            raise ConfigError("config.pool: only meaningful for non-sine families")
        k = cfg.get("sine_k", 6)
        report = sine_shatter_witness(k)
        status = "all labelings realized" if report.complete else \
            f"{len(report.failed)} labelings NOT realized"
        lines = [f"sign-of-sine shattering at k={k}: {status}"]
        return (EXIT_OK if report.complete else EXIT_FAIL, lines,
                {"sine_witness.json": report.to_json()})
    if "sine_k" in cfg:
        raise ConfigError("config.sine_k: only meaningful for the sine family")
    if "pool" not in cfg and cfg["class"] not in POOLS:
        raise ConfigError("config.pool: required when the class is not a pooled preset")
    pool = _resolve(cfg, "pool", resolve_pool) if "pool" in cfg else POOLS[cfg["class"]]
    try:
        report = vc_dimension(H, pool, subset_budget=cfg["subset_budget"],
                              enum_budget=cfg["enum_budget"])
    except (PointSetError, DimensionMismatchError) as exc:  # a pool that cannot be searched
        raise ConfigError(f"config.pool: {exc}") from exc
    lines = [f"dimension over {report.pool_size}-point pool: {report.marker()}"]
    return EXIT_OK, lines, {"vc_report.json": report.to_json()}


def _run_risk(cfg: dict):
    D = _resolve(cfg, "dist", resolve_distribution)
    h = _resolve(cfg, "hypothesis", lambda spec: hypothesis_from_json(json.loads(spec)))
    if h.dim != D.dim:
        raise ConfigError(f"config.hypothesis: hypothesis {h.kind} has dimension {h.dim}, but "
                          f"config.dist has dimension {D.dim}")
    # Without mc_n, a missing closed form raises and run names config.mc_n.
    risks, mc = member_risks(D, [h], cfg.get("mc_n"), SeedSpec(cfg["seed"]), "cli-risk")
    value = float(risks[0])
    if not mc[0]:
        payload = {"risk": value, "method": "analytic", "hypothesis": h.to_json()}
        return EXIT_OK, [f"risk = {value:.17g} (analytic)"], {"risk.json": payload}
    band = hoeffding_band(cfg["mc_n"])
    payload = {"risk": value, "method": "monte_carlo", "band": band,
               "n": cfg["mc_n"], "hypothesis": h.to_json()}
    lines = [f"risk ~= {value:.17g} +/- {band:.3g} (monte carlo, n={cfg['mc_n']})"]
    return EXIT_OK, lines, {"risk.json": payload}


def _check_classes(cfg: dict, key: str, classes, dim: int, source: str = "config.dist") -> None:
    """Reject, before any work on them, a class of config.<key> whose
    instances have another dimension than the source's, dim, or that has no
    members, then one over the enumeration budget.  A class that cannot be
    built was refused when config.<key> was read, so nothing is stacked here."""
    for pos, H in enumerate(classes, start=1):
        what = f"class at position {pos} ({H.family})" if key == "sequence" else \
            f"class {H.family}"
        if H.dim != dim:
            raise ConfigError(f"config.{key}: {what} has dimension {H.dim}, but {source} "
                              f"has dimension {dim}")
        if H.size() == 0:
            raise ConfigError(f"config.{key}: {what} has no members")
    for H in classes:
        if H.size() > cfg["budget"]:
            raise EnumerationBudgetError(H.size(), cfg["budget"])


def _sample_for(cfg: dict, stream: str, key: str, classes) -> tuple[LabeledSample, bool]:
    """(sample, generated): ingested from CSV or drawn from a distribution;
    each of the classes of config.<key> must share its dimension."""
    if "data" in cfg:
        try:
            S = LabeledSample.from_csv(cfg["data"])
        except (ValueError, OSError) as exc:
            raise ConfigError(f"config.data: {exc}") from exc
        if S.m == 0:
            raise ConfigError(f"config.data: {cfg['data']} holds no records")
        _check_classes(cfg, key, classes, S.dim, "the sample in config.data")
        return S, False
    if "dist" not in cfg or "m" not in cfg:
        raise ConfigError("config: need either data=<csv> or dist=... plus m=...")
    D = _resolve(cfg, "dist", resolve_distribution)
    _check_classes(cfg, key, classes, D.dim)
    return draw_sample(D, cfg["m"], SeedSpec(cfg["seed"], stream)), True


def _run_erm(cfg: dict):
    H = _resolve(cfg, "class", resolve_class)
    S, generated = _sample_for(cfg, "cli-erm", "class", [H])
    out = erm(H, S, budget=cfg["budget"])
    lines = [f"selected {out.hypothesis.describe()} with empirical error "
             f"{out.empirical_error:.6g} on m={S.m}"]
    files = {"learner_output.json": out.to_json()}
    if generated:
        files["sample.csv"] = S
    return EXIT_OK, lines, files


def _sequence(cfg: dict):
    """The config's class sequence.  The CLI passes no dimensions of its own,
    so every class needs a dimension hint, and each class's weight * delta
    must stay in (0, 1)."""
    seq = _resolve(cfg, "sequence", resolve_sequence)
    for pos, (cls, w) in enumerate(zip(seq.classes, seq.weights), start=1):
        what = f"class at position {pos} ({cls.family})"
        if cls.vc_dim_hint is None:
            raise ConfigError(f"config.sequence: {what} has no dimension hint")
        if not 0.0 < w * cfg["delta"] < 1.0:
            raise ConfigError(f"config.sequence: {what} has weight {w}, and weight * delta "
                              f"must lie in (0, 1), got {w * cfg['delta']}")
    return seq


def _run_srm(cfg: dict):
    seq = _sequence(cfg)
    S, generated = _sample_for(cfg, "cli-srm", "sequence", seq.classes)
    out = srm(seq, S, cfg["delta"], C=cfg["C"], budget=cfg["budget"])
    lines = [f"selected class {out.class_index} member {out.hypothesis.describe()}; "
             f"objective {out.objective:.6g}"]
    files = {"learner_output.json": out.to_json()}
    if generated:
        files["sample.csv"] = S
    return EXIT_OK, lines, files


_VERDICT_EXIT = {"pass": EXIT_OK, "fail": EXIT_FAIL, "indeterminate": EXIT_INDETERMINATE}


def _run_pac(cfg: dict):
    H, D = _resolve(cfg, "class", resolve_class), _resolve(cfg, "dist", resolve_distribution)
    _check_classes(cfg, "class", [H], D.dim)
    summary = verify_learnability(
        H, D, m=cfg["m"], eps=cfg["eps"], delta=cfg["delta"], trials=cfg["trials"],
        seed=SeedSpec(cfg["seed"]), mc_n=cfg.get("mc_n"),
        budget=cfg["budget"], keep_records=cfg["records"],
    )
    lines = [
        f"success frequency {summary.success_frequency:.4f} over {summary.trials} trials "
        f"(threshold {summary.threshold:.4f}) -> {summary.verdict}",
    ]
    files = {"summary.json": summary.to_json(), "summary.csv": [summary.csv_row()]}
    if summary.records is not None:
        files["records.csv"] = [r.csv_row() for r in summary.records]
    return _VERDICT_EXIT[summary.verdict], lines, files


def _run_uc(cfg: dict):
    H, D = _resolve(cfg, "class", resolve_class), _resolve(cfg, "dist", resolve_distribution)
    _check_classes(cfg, "class", [H], D.dim)
    report = verify_uniform_convergence(
        H, D, m_values=cfg["m_values"], eps=cfg["eps"], delta=cfg["delta"],
        trials=cfg["trials"], seed=SeedSpec(cfg["seed"]), mc_n=cfg.get("mc_n"),
        budget=cfg["budget"], keep_records=cfg["records"],
    )
    lines = []
    worst = EXIT_OK
    rows = []
    record_rows = []
    for s in report.summaries:
        lines.append(
            f"m={s.config['m']}: representative frequency {s.success_frequency:.4f}, "
            f"median sup deviation {s.stats['median']:.5f} -> {s.verdict}"
        )
        worst = max(worst, _VERDICT_EXIT[s.verdict])
        rows.append(s.csv_row())
        if s.records is not None:
            record_rows.extend({"m": s.config["m"], **r.csv_row()} for r in s.records)
    for sc in report.scaling:
        ratio = "n/a" if sc["median_ratio"] is None else f"{sc['median_ratio']:.3f}"
        lines.append(
            f"median ratio m={sc['m_small']} vs m={sc['m_large']}: "
            f"{ratio} (sqrt prediction {sc['sqrt_prediction']:.3f})"
        )
    files = {"uc_report.json": report.to_json(), "summary.csv": rows}
    if record_rows:
        files["records.csv"] = record_rows
    return worst, lines, files


def _run_nfl(cfg: dict):
    report = nfl_exact(cfg["m"], learner=cfg["learner"], default_label=cfg["default_label"])
    lines = [
        f"learner {report.learner} on a {report.domain_size}-point domain: "
        f"average expected error {report.average} = {float(report.average):.6f}, "
        f"worst {report.worst}",
    ]
    return EXIT_OK, lines, {"nfl_report.json": report.to_json()}


def _run_tradeoff(cfg: dict):
    seq, D = _sequence(cfg), _resolve(cfg, "dist", resolve_distribution)
    _check_classes(cfg, "sequence", seq.classes, D.dim)
    report = tradeoff_sweep(
        seq, D, m_values=cfg["m_values"], trials=cfg["trials"], delta=cfg["delta"],
        master_seeds=cfg.get("seeds", [cfg["seed"]]), C=cfg["C"],
        budget=cfg["budget"], keep_records=cfg["records"], mc_n=cfg.get("mc_n"),
    )
    lines = []
    for row in report.rows:
        if row["learner"] == "erm":
            lines.append(
                f"m={row['m']} class {row['class_index']}: approx "
                f"{row['approximation_error']:.4f}, est {row['mean_estimation_error']:.4f}, "
                f"total {row['mean_total_risk']:.4f}"
            )
        else:
            lines.append(f"m={row['m']} srm: total {row['mean_total_risk']:.4f}")
    files = {"tradeoff.json": report.to_json(), "tradeoff.csv": list(report.rows)}
    if report.records is not None:
        files["records.csv"] = list(report.records)
    return EXIT_OK, lines, files


_RUNNERS = {
    "bounds": _run_bounds,
    "vcdim": _run_vcdim,
    "risk": _run_risk,
    "erm": _run_erm,
    "srm": _run_srm,
    "pac": _run_pac,
    "uc": _run_uc,
    "nfl": _run_nfl,
    "tradeoff": _run_tradeoff,
}


def run(config: dict) -> int:
    """Validate and dispatch a config; write declared outputs plus a manifest.
    A runner's budget overrun or missing mc_n becomes a ConfigError naming its
    key; any other exception propagates.  A run that fails removes the output
    directories it created."""
    started = time.monotonic()
    cfg = validate_config(config)
    outdir = cfg.get("out")
    created = []  # the directories of outdir that do not exist yet, deepest first
    if outdir:
        path = os.path.abspath(outdir)
        while not os.path.exists(path):
            created.append(path)
            path = os.path.dirname(path)
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"config.out: {exc}") from exc
    try:
        code, lines, files = _RUNNERS[cfg["command"]](cfg)
    except BaseException as exc:
        for path in created:
            os.rmdir(path)
        if isinstance(exc, EnumerationBudgetError):
            key = "enum_budget" if cfg["command"] == "vcdim" else "budget"
            raise ConfigError(f"config.{key}: {exc}") from exc
        if (isinstance(exc, AnalyticRiskUnavailable) and "mc_n" not in cfg
                and "mc_n" in _COMMAND_KEYS[cfg["command"]]):
            raise ConfigError(f"config.mc_n: required, {exc}") from exc
        raise
    for line in lines:
        print(line)
    if outdir:
        try:
            digests = _write_outputs(outdir, files, cfg, started)
        except OSError as exc:
            raise ConfigError(f"config.out: {exc}") from exc
        print(f"wrote {len(digests)} output file(s) + manifest to {outdir}")
    return code


def _write_outputs(outdir: str, files: dict, cfg: dict, started: float) -> dict:
    """Write each output file and then the manifest; return the digests, each
    of the bytes its writer wrote."""
    digests = {}
    for name, payload in files.items():
        path = os.path.join(outdir, name)
        if isinstance(payload, LabeledSample):
            digests[name] = payload.to_csv(path)
        elif isinstance(payload, list):
            digests[name] = jsonio.write_csv(path, rows=payload)
        else:
            digests[name] = jsonio.dump(payload, path)
    manifest = {
        "tool": "sltlab",
        "version": __version__,
        "command": cfg["command"],
        "config": {k: v for k, v in sorted(cfg.items())},
        "duration_seconds": time.monotonic() - started,
        "outputs": digests,
    }
    jsonio.dump(manifest, os.path.join(outdir, "manifest.json"))
    return digests


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    epilog_lines = ["presets (use with --preset):"]
    for name in preset_names():
        epilog_lines.append(f"  {name}  ({RUN_PRESETS[name]['command']})")
    parser = _Parser(
        prog="sltlab",
        description="Desk-scale laboratory for binary-classification learning guarantees.",
        epilog="\n".join(epilog_lines),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"sltlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    for command, keys in _COMMAND_KEYS.items():
        p = sub.add_parser(command, help=_COMMAND_HELP[command])
        p.add_argument("--config", help="JSON config file; flags override it")
        for key, (cast, _) in {**_COMMON_KEYS, **keys}.items():
            if key not in _NOT_FLAGS:
                p.add_argument("--" + key.replace("_", "-"), dest=key, help=_KEY_HELP.get(key),
                               action=argparse.BooleanOptionalAction if cast is _bool else None)
    return parser


def main(argv=None) -> int:
    overrides = vars(_build_parser().parse_args(argv))
    command = overrides.pop("command")
    preset = overrides.pop("preset")
    config_path = overrides.pop("config")
    try:
        config = merge_config(command, preset, config_path, overrides)
        return run(config)
    except ConfigError as exc:
        print(f"sltlab: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
