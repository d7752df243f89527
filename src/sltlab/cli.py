"""Command-line front end: config parsing, presets, dataset ingestion,
experiment dispatch, and CSV/JSON emission.

Exit codes: 0 for a completed computation or a passing experiment verdict,
2 for a failing verdict, 3 for an indeterminate verdict, 1 for usage or
configuration errors.  Every run that writes files also writes a manifest
with sha256 digests of the emitted outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import __version__
from . import jsonio
from .bounds import (
    DEFAULT_C,
    DEFAULT_C1,
    DEFAULT_C2,
    BOUND_CSV_COLUMNS,
    BoundParams,
    sample_complexity,
)
from .core import EnumerationBudgetError, LabeledSample, hypothesis_from_json
from .distributions import AnalyticRiskUnavailable, SeedSpec, draw_sample, mc_risk, true_risk
from .experiments import (
    RECORD_CSV_COLUMNS,
    SUMMARY_CSV_COLUMNS,
    TRADEOFF_CSV_COLUMNS,
    nfl_exact,
    tradeoff_sweep,
    verify_learnability,
    verify_uniform_convergence,
)
from .learners import erm, srm
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
from .shattering import sine_shatter_witness, vc_dimension

SEED_ENV_VAR = "SLT_LAB_SEED"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FAIL = 2
EXIT_INDETERMINATE = 3


class ConfigError(Exception):
    """Invalid configuration; the message names the offending config path."""


def _int_list(value) -> list[int]:
    if isinstance(value, list):
        return [int(v) for v in value]
    text = str(value).strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",") if v.strip() != ""]


def _at_least_one(value) -> int:
    n = int(value)
    if n < 1:
        raise ValueError(f"must be at least 1, got {n}")
    return n


def _bool(value) -> bool:
    if isinstance(value, bool):
        return value
    raise ConfigError(f"expected a boolean, got {value!r}")


_COMMON_KEYS = {
    "command": str, "out": str, "seed": int, "workers": _at_least_one, "records": _bool,
    "preset": str, "preset_version": int,
}

_COMMAND_KEYS: dict[str, dict] = {
    "bounds": {"d": int, "eps": float, "delta": float, "m": int,
               "C": float, "C1": float, "C2": float},
    "vcdim": {"class": str, "pool": str, "subset_budget": int, "enum_budget": int,
              "sine_k": int, "sine_budget": int},
    "risk": {"dist": str, "hypothesis": str, "mc_n": int},
    "erm": {"class": str, "data": str, "dist": str, "m": int, "budget": int},
    "srm": {"sequence": str, "delta": float, "C": float, "data": str, "dist": str,
            "m": int, "budget": int},
    "pac": {"class": str, "dist": str, "m": int, "eps": float, "delta": float,
            "trials": int, "mc_n": int, "budget": int},
    "uc": {"class": str, "dist": str, "m_values": _int_list, "eps": float,
           "delta": float, "trials": int, "mc_n": int, "budget": int},
    "nfl": {"m": int, "learner": str, "default_label": int},
    "tradeoff": {"sequence": str, "dist": str, "m_values": _int_list, "trials": int,
                 "delta": float, "C": float, "seeds": _int_list, "budget": int},
}

_REQUIRED: dict[str, set] = {
    "bounds": {"d", "eps", "delta"},
    "vcdim": {"class"},
    "risk": {"dist", "hypothesis"},
    "erm": {"class"},
    "srm": {"sequence", "delta"},
    "pac": {"class", "dist", "m", "eps", "delta", "trials"},
    "uc": {"class", "dist", "m_values", "eps", "delta", "trials"},
    "nfl": {"m"},
    "tradeoff": {"sequence", "dist", "m_values", "trials", "delta"},
}


def validate_config(raw: dict) -> dict:
    """Cast and check a merged config; unknown keys are errors, not warnings."""
    command = raw.get("command")
    if command not in _COMMAND_KEYS:
        raise ConfigError(f"config.command: unknown or missing command {command!r}")
    allowed = {**_COMMON_KEYS, **_COMMAND_KEYS[command]}
    out: dict = {}
    for key, value in raw.items():
        if key not in allowed:
            raise ConfigError(f"config.{key}: unknown key for command {command!r}")
        if value is None:
            continue
        try:
            out[key] = allowed[key](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config.{key}: {exc}") from exc
    missing = _REQUIRED[command] - out.keys()
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
    if "seed" not in merged or merged["seed"] is None:
        env = os.environ.get(SEED_ENV_VAR)
        merged["seed"] = int(env) if env else 0
    return validate_config(merged)


def ingest_csv(path: str, dim: int | None = None) -> LabeledSample:
    """Load a labeled sample from the documented CSV schema, preserving order."""
    return LabeledSample.from_csv(path, dim=dim)


# ---------------------------------------------------------------------------
# Command implementations: each returns (exit_code, printable lines, files)
# where files maps filename -> (kind, payload) with kind in {json, csv}.
# ---------------------------------------------------------------------------


def _run_bounds(cfg: dict):
    b_probe = (cfg["d"] - math.log(cfg["delta"])) / cfg["eps"] ** 2
    params = BoundParams(
        eps=cfg["eps"], delta=cfg["delta"], d=cfg["d"],
        m=cfg.get("m", max(1, math.ceil(b_probe))),
        C=cfg.get("C", DEFAULT_C), C1=cfg.get("C1", DEFAULT_C1), C2=cfg.get("C2", DEFAULT_C2),
    )
    report = sample_complexity(params)
    lines = [
        f"b = (d - ln delta) / eps^2 = {report.b:.6g}",
        f"sample-size bracket: [{report.m_lower:.6g}, {report.m_upper:.6g}]",
        f"accuracy at m={params.m}: {report.eps_uc:.6g}",
    ]
    files = {
        "bounds.json": ("json", report.to_json()),
        "bounds.csv": ("csv", (BOUND_CSV_COLUMNS, [report.csv_row()])),
    }
    return EXIT_OK, lines, files


def _run_vcdim(cfg: dict):
    H = resolve_class(cfg["class"])
    if H.family == "sine":
        k = cfg.get("sine_k", 6)
        report = sine_shatter_witness(k, budget=cfg.get("sine_budget", 20_000))
        status = "all labelings realized" if report.complete else \
            f"{len(report.failed)} labelings NOT realized"
        lines = [f"sign-of-sine shattering at k={k}: {status}"]
        return (EXIT_OK if report.complete else EXIT_FAIL, lines,
                {"sine_witness.json": ("json", report.to_json())})
    if "sine_k" in cfg:
        raise ConfigError("config.sine_k: only meaningful for the sine family")
    pool_spec = cfg.get("pool", cfg["class"] if cfg["class"] in POOLS else None)
    if pool_spec is None:
        raise ConfigError("config.pool: required when the class is not a pooled preset")
    pool = resolve_pool(pool_spec)
    report = vc_dimension(
        H, pool,
        subset_budget=cfg.get("subset_budget", 2_000_000),
        enum_budget=cfg.get("enum_budget", 500_000),
    )
    lines = [f"dimension over {report.pool_size}-point pool: {report.marker()}"]
    return EXIT_OK, lines, {"vc_report.json": ("json", report.to_json())}


def _run_risk(cfg: dict):
    D = resolve_distribution(cfg["dist"])
    h = hypothesis_from_json(json.loads(cfg["hypothesis"]))
    try:
        value = true_risk(D, h)
        payload = {"risk": value, "method": "analytic", "hypothesis": h.to_json()}
        lines = [f"risk = {value:.17g} (analytic)"]
    except AnalyticRiskUnavailable as exc:
        if "mc_n" not in cfg:
            raise ConfigError(f"config.mc_n: required, {exc}") from exc
        est, band = mc_risk(D, h, cfg["mc_n"], SeedSpec(cfg["seed"], "cli-risk"))
        payload = {"risk": est, "method": "monte_carlo", "band": band,
                   "n": cfg["mc_n"], "hypothesis": h.to_json()}
        lines = [f"risk ~= {est:.17g} +/- {band:.3g} (monte carlo, n={cfg['mc_n']})"]
    return EXIT_OK, lines, {"risk.json": ("json", payload)}


def _sample_for(cfg: dict, stream: str) -> tuple[LabeledSample, bool]:
    """(sample, generated): ingested from CSV or drawn from a distribution."""
    if "data" in cfg:
        return ingest_csv(cfg["data"]), False
    if "dist" not in cfg or "m" not in cfg:
        raise ConfigError("config: need either data=<csv> or dist=... plus m=...")
    D = resolve_distribution(cfg["dist"])
    return draw_sample(D, cfg["m"], SeedSpec(cfg["seed"], stream)), True


def _run_erm(cfg: dict):
    H = resolve_class(cfg["class"])
    S, generated = _sample_for(cfg, "cli-erm")
    out = erm(H, S, budget=cfg.get("budget", 500_000))
    lines = [f"selected {out.hypothesis.describe()} with empirical error "
             f"{out.empirical_error:.6g} on m={S.m}"]
    files = {"learner_output.json": ("json", out.to_json())}
    if generated:
        files["sample.csv"] = ("sample", S)
    return EXIT_OK, lines, files


def _run_srm(cfg: dict):
    seq = resolve_sequence(cfg["sequence"])
    S, generated = _sample_for(cfg, "cli-srm")
    out = srm(seq, S, cfg["delta"], C=cfg.get("C", 2.0), budget=cfg.get("budget", 500_000))
    lines = [f"selected class {out.class_index} member {out.hypothesis.describe()}; "
             f"objective {out.objective:.6g}"]
    files = {"learner_output.json": ("json", out.to_json())}
    if generated:
        files["sample.csv"] = ("sample", S)
    return EXIT_OK, lines, files


_VERDICT_EXIT = {"pass": EXIT_OK, "fail": EXIT_FAIL, "indeterminate": EXIT_INDETERMINATE}


def _run_pac(cfg: dict):
    summary = verify_learnability(
        resolve_class(cfg["class"]), resolve_distribution(cfg["dist"]),
        m=cfg["m"], eps=cfg["eps"], delta=cfg["delta"], trials=cfg["trials"],
        seed=SeedSpec(cfg["seed"]), mc_n=cfg.get("mc_n"),
        budget=cfg.get("budget", 500_000),
        keep_records=cfg.get("records", False),
    )
    lines = [
        f"success frequency {summary.success_frequency:.4f} over {summary.trials} trials "
        f"(threshold {summary.threshold:.4f}) -> {summary.verdict}",
    ]
    public = summary.to_json()
    records = public.pop("records", None)
    files = {
        "summary.json": ("json", public),
        "summary.csv": ("csv", (SUMMARY_CSV_COLUMNS, [summary.csv_row()])),
    }
    if records is not None:
        files["records.csv"] = ("csv", (RECORD_CSV_COLUMNS,
                                        [r.csv_row() for r in summary.records]))
    return _VERDICT_EXIT[summary.verdict], lines, files


def _run_uc(cfg: dict):
    report = verify_uniform_convergence(
        resolve_class(cfg["class"]), resolve_distribution(cfg["dist"]),
        m_values=cfg["m_values"], eps=cfg["eps"], delta=cfg["delta"],
        trials=cfg["trials"], seed=SeedSpec(cfg["seed"]), mc_n=cfg.get("mc_n"),
        budget=cfg.get("budget", 500_000),
        keep_records=cfg.get("records", False),
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
        lines.append(
            f"median ratio m={sc['m_small']} vs m={sc['m_large']}: "
            f"{sc['median_ratio']:.3f} (sqrt prediction {sc['sqrt_prediction']:.3f})"
        )
    public = report.to_json()
    for s in public["summaries"]:
        s.pop("records", None)
    files = {
        "uc_report.json": ("json", public),
        "summary.csv": ("csv", (SUMMARY_CSV_COLUMNS, rows)),
    }
    if record_rows:
        files["records.csv"] = ("csv", (["m"] + RECORD_CSV_COLUMNS, record_rows))
    return worst, lines, files


def _run_nfl(cfg: dict):
    report = nfl_exact(cfg["m"], learner=cfg.get("learner", "memorizer"),
                       default_label=cfg.get("default_label", 0))
    lines = [
        f"learner {report.learner} on a {report.domain_size}-point domain: "
        f"average expected error {report.average} = {float(report.average):.6f}, "
        f"worst {report.worst}",
    ]
    return EXIT_OK, lines, {"nfl_report.json": ("json", report.to_json())}


def _run_tradeoff(cfg: dict):
    report = tradeoff_sweep(
        resolve_sequence(cfg["sequence"]), resolve_distribution(cfg["dist"]),
        m_values=cfg["m_values"], trials=cfg["trials"], delta=cfg["delta"],
        master_seeds=cfg.get("seeds", [cfg["seed"]]), C=cfg.get("C", 2.0),
        budget=cfg.get("budget", 500_000),
        keep_records=cfg.get("records", False),
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
    public = report.to_json()
    records = public.pop("records", None)
    files = {
        "tradeoff.json": ("json", public),
        "tradeoff.csv": ("csv", (TRADEOFF_CSV_COLUMNS, list(report.rows))),
    }
    if records is not None:
        cols = list(records[0].keys()) if records else ["master_seed"]
        files["records.csv"] = ("csv", (cols, list(records)))
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
    """Validate and dispatch a config; write declared outputs plus a manifest."""
    started = time.monotonic()
    cfg = validate_config(config)
    try:
        code, lines, files = _RUNNERS[cfg["command"]](cfg)
    except (ConfigError,) as exc:
        raise
    except (KeyError, ValueError, EnumerationBudgetError, AnalyticRiskUnavailable,
            OSError, json.JSONDecodeError) as exc:
        raise ConfigError(str(exc)) from exc
    for line in lines:
        print(line)
    outdir = cfg.get("out")
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        digests = {}
        for name, (kind, payload) in files.items():
            path = os.path.join(outdir, name)
            if kind == "json":
                jsonio.dump(payload, path)
            elif kind == "sample":
                payload.to_csv(path)
            else:
                columns, rows = payload
                jsonio.write_csv(path, columns, rows)
            digests[name] = jsonio.sha256_file(path)
        manifest = {
            "tool": "sltlab",
            "version": __version__,
            "command": cfg["command"],
            "config": {k: v for k, v in sorted(cfg.items())},
            "duration_seconds": time.monotonic() - started,
            "outputs": digests,
        }
        jsonio.dump(manifest, os.path.join(outdir, "manifest.json"))
        print(f"wrote {len(digests)} output file(s) + manifest to {outdir}")
    return code


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

    def add(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text, add_help=True)
        p.add_argument("--preset", help="named run preset")
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output directory for JSON/CSV + manifest")
        p.add_argument("--seed", type=int, help=f"master seed (fallback: ${SEED_ENV_VAR})")
        p.add_argument("--workers", type=int,
                       help="accepted for older configs; no effect, trials run serially")
        p.add_argument("--records", action=argparse.BooleanOptionalAction,
                       help="emit per-trial records")
        return p

    p = add("bounds", "sample-complexity and accuracy bound arithmetic")
    p.add_argument("--d", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--C", type=float)
    p.add_argument("--C1", type=float)
    p.add_argument("--C2", type=float)

    p = add("vcdim", "brute-force dimension search (or sine shattering witness)")
    p.add_argument("--class", dest="class_", help="class preset name or inline JSON")
    p.add_argument("--pool", help="pool preset name or inline JSON point list")
    p.add_argument("--subset-budget", dest="subset_budget", type=int)
    p.add_argument("--enum-budget", dest="enum_budget", type=int)
    p.add_argument("--sine-k", dest="sine_k", type=int)
    p.add_argument("--sine-budget", dest="sine_budget", type=int)

    p = add("risk", "exact or Monte Carlo risk of one hypothesis")
    p.add_argument("--dist", help="distribution preset name or inline JSON")
    p.add_argument("--hypothesis", help="inline hypothesis JSON")
    p.add_argument("--mc-n", dest="mc_n", type=int)

    p = add("erm", "minimize empirical error over an enumerated class")
    p.add_argument("--class", dest="class_")
    p.add_argument("--data", help="CSV sample (features then 0/1 label, header row)")
    p.add_argument("--dist")
    p.add_argument("--m", type=int)
    p.add_argument("--budget", type=int)

    p = add("srm", "penalized selection over a weighted class sequence")
    p.add_argument("--sequence")
    p.add_argument("--delta", type=float)
    p.add_argument("--C", type=float)
    p.add_argument("--data")
    p.add_argument("--dist")
    p.add_argument("--m", type=int)
    p.add_argument("--budget", type=int)

    p = add("pac", "learnability harness with a binomial verdict")
    p.add_argument("--class", dest="class_")
    p.add_argument("--dist")
    p.add_argument("--m", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--mc-n", dest="mc_n", type=int)
    p.add_argument("--budget", type=int)

    p = add("uc", "uniform-convergence harness across sample sizes")
    p.add_argument("--class", dest="class_")
    p.add_argument("--dist")
    p.add_argument("--m-values", dest="m_values", help="comma list, e.g. 400,1600")
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--mc-n", dest="mc_n", type=int)
    p.add_argument("--budget", type=int)

    p = add("nfl", "exact average-case failure of data-only learners")
    p.add_argument("--m", type=int)
    p.add_argument("--learner", choices=["memorizer", "erm_all_functions"])
    p.add_argument("--default-label", dest="default_label", type=int, choices=[0, 1])

    p = add("tradeoff", "approximation/estimation sweep over a class sequence")
    p.add_argument("--sequence")
    p.add_argument("--dist")
    p.add_argument("--m-values", dest="m_values")
    p.add_argument("--trials", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--C", type=float)
    p.add_argument("--seeds", help="comma list or inclusive range, e.g. 0..19")
    p.add_argument("--budget", type=int)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    overrides = {
        k.replace("class_", "class"): v
        for k, v in vars(args).items()
        if k not in ("command", "preset", "config")
    }
    try:
        config = merge_config(args.command, args.preset, args.config, overrides)
        return run(config)
    except ConfigError as exc:
        print(f"sltlab: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
