"""Benchmark workloads: the ``cli.run`` operations of one pass, the inputs
they need (made from the benchmark seed), the pass's work units and the
output check of every operation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from sltlab.distributions import SeedSpec, draw_sample
from sltlab.presets import CLASSES, DISTRIBUTIONS, POOLS, RUN_PRESETS, SEQUENCES

HARNESS_PRESETS = ("pac-thresholds", "uc-thresholds-scaling", "tradeoff-nested-thresholds")
TRADEOFF_SEEDS_PER_RUN = 20
INTERVAL_POOL_SIZE = 26
CSV_ROWS = 80_000
SRM_M = 80_000
# Labeller of the large CSV sample: 1 on [0.25, 0.75], each label flipped
# with probability 0.1.
CSV_BAND = (0.25, 0.75)
CSV_NOISE = 0.1


@dataclass(frozen=True)
class Op:
    """One ``cli.run`` call: merge_config(command, preset, None, overrides),
    then check(outdir, cfg) returns the problems found in its output."""

    name: str
    command: str
    preset: str | None
    overrides: dict
    check: Callable[[Path, dict], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    units: int  # work units per pass, fixed by the inputs alone
    unit: str
    # Worker count of the reference pass when it differs from the timed
    # passes', so every run checks byte determinism across worker counts.
    reference_workers: int | None = None


def load(outdir: Path, name: str) -> dict:
    with open(outdir / name) as fh:
        return json.load(fh)


def grid_of(H) -> np.ndarray:
    """Grid of a single-axis preset class, computed from its documented
    resolution rather than read from the program's enumeration."""
    if H.grid is not None:
        return np.array(H.grid.axes[0])
    return np.linspace(H.lo, H.hi, H.resolution)


def _sample_arrays(S) -> tuple[np.ndarray, np.ndarray]:
    return np.asarray(S.X)[:, 0], np.asarray(S.y)


def _target(cfg: dict):
    D = DISTRIBUTIONS[cfg["dist"]]
    return D, D.labeler.theta, D.noise


# ---------------------------------------------------------------------------
# Harnesses
# ---------------------------------------------------------------------------


def _check_pac(outdir: Path, cfg: dict) -> list[str]:
    D, theta_star, noise = _target(cfg)
    spec = SeedSpec(cfg["seed"])

    def redraw(t):
        return _sample_arrays(draw_sample(D, cfg["m"], spec.derive("pac-trial", t)))

    return checks.check_pac(load(outdir, "summary.json"), cfg, grid_of(CLASSES[cfg["class"]]),
                            theta_star, noise, redraw)


def _check_uc(outdir: Path, cfg: dict) -> list[str]:
    D, theta_star, noise = _target(cfg)
    spec = SeedSpec(cfg["seed"])

    def redraw(m, t):
        return _sample_arrays(draw_sample(D, m, spec.derive(f"uc-trial-m{m}", t)))

    return checks.check_uc(load(outdir, "uc_report.json"), cfg, grid_of(CLASSES[cfg["class"]]),
                           theta_star, noise, redraw)


def _check_tradeoff(outdir: Path, cfg: dict) -> list[str]:
    D, theta_star, noise = _target(cfg)
    grids = [grid_of(c) for c in SEQUENCES[cfg["sequence"]].classes]

    def redraw(seed, m, t):
        return _sample_arrays(draw_sample(D, m, SeedSpec(seed).derive(f"tradeoff-m{m}", t)))

    return checks.check_tradeoff(load(outdir, "tradeoff.json"), cfg, grids, theta_star, noise,
                                 redraw)


def harness_ops(seed: int, workers: int) -> tuple[Op, ...]:
    """The three shipped harness presets; --seed n shifts the pac and uc master
    seeds by n and gives tradeoff the seeds 20n..20n+19 (n = 0 is the preset)."""
    pac, uc, tradeoff = HARNESS_PRESETS
    first = TRADEOFF_SEEDS_PER_RUN * seed
    return (
        Op(pac, "pac", pac, {"seed": RUN_PRESETS[pac]["seed"] + seed, "workers": workers},
           _check_pac),
        Op(uc, "uc", uc, {"seed": RUN_PRESETS[uc]["seed"] + seed, "workers": workers},
           _check_uc),
        Op(tradeoff, "tradeoff", tradeoff,
           {"seeds": list(range(first, first + TRADEOFF_SEEDS_PER_RUN)), "workers": workers},
           _check_tradeoff),
    )


def harness_units() -> int:
    """Trials per pass: pac trials, uc trials per m, tradeoff trials per seed and m."""
    pac, uc, tradeoff = (RUN_PRESETS[p] for p in HARNESS_PRESETS)
    return (pac["trials"] + uc["trials"] * len(uc["m_values"])
            + tradeoff["trials"] * len(tradeoff["m_values"]) * TRADEOFF_SEEDS_PER_RUN)


# ---------------------------------------------------------------------------
# Exact search
# ---------------------------------------------------------------------------


def interval_pool(seed: int, size: int = INTERVAL_POOL_SIZE) -> np.ndarray:
    """`size` of the midpoints between neighbouring points of the intervals
    grid, chosen and ordered by the seed.  Any two of them have a grid point
    between them, so the dimension over the pool is 2 for every seed."""
    H = CLASSES["intervals"]
    grid = grid_of(H)
    mids = (grid[:-1] + grid[1:]) / 2
    rng = np.random.default_rng([seed, 1])
    return mids[rng.choice(len(mids), size=size, replace=False)][:, None]


def _check_vc(pool: np.ndarray, expected: int, where: str):
    def check(outdir: Path, cfg: dict) -> list[str]:
        return checks.check_vc(load(outdir, "vc_report.json"), pool, expected, where)
    return check


def _check_sine(outdir: Path, cfg: dict) -> list[str]:
    return checks.check_sine(load(outdir, "sine_witness.json"), cfg["sine_k"])


def _check_nfl(outdir: Path, cfg: dict) -> list[str]:
    return checks.check_nfl(load(outdir, "nfl_report.json"), cfg["m"], cfg["learner"])


def exact_ops(seed: int) -> tuple[Op, ...]:
    pool = interval_pool(seed)
    return (
        Op("vc-rectangles2d", "vcdim", "vc-rectangles2d", {},
           _check_vc(POOLS["rectangles2d"], 4, "vc rectangles2d")),
        Op("vc-halfspaces2d", "vcdim", "vc-halfspaces2d", {},
           _check_vc(POOLS["halfspaces2d"], 3, "vc halfspaces2d")),
        Op("vc-intervals-wide", "vcdim", None,
           {"class": "intervals", "pool": json.dumps(pool.tolist())},
           _check_vc(pool, 2, "vc intervals")),
        Op("sine-shatter-k6", "vcdim", "sine-shatter-k6", {}, _check_sine),
        Op("nfl-m3-memorizer", "nfl", "nfl-m3-memorizer", {}, _check_nfl),
        Op("nfl-m3-erm", "nfl", "nfl-m3-erm", {}, _check_nfl),
    )


def exact_units() -> int:
    """Cases the exact answers cover: for each dimension search, the subsets
    one larger than the dimension (all must be ruled out); the 2^k sine
    labelings; and per NFL learner, (2m)^m instance tuples times 2^(2m)
    labelings."""
    subsets = (math.comb(len(POOLS["rectangles2d"]), 5) + math.comb(len(POOLS["halfspaces2d"]), 4)
               + math.comb(INTERVAL_POOL_SIZE, 3))
    k = RUN_PRESETS["sine-shatter-k6"]["sine_k"]
    nfl = sum((2 * RUN_PRESETS[p]["m"]) ** RUN_PRESETS[p]["m"] * 4 ** RUN_PRESETS[p]["m"]
              for p in ("nfl-m3-memorizer", "nfl-m3-erm"))
    return subsets + 2 ** k + nfl


# ---------------------------------------------------------------------------
# Large samples
# ---------------------------------------------------------------------------


def make_csv_sample(seed: int, rows: int = CSV_ROWS) -> tuple[np.ndarray, np.ndarray]:
    """Instances uniform on [0, 1), labelled by CSV_BAND with CSV_NOISE flips."""
    rng = np.random.default_rng([seed, 2])
    x = rng.random(rows)
    y = (x >= CSV_BAND[0]) & (x <= CSV_BAND[1])
    y = (y ^ (rng.random(rows) < CSV_NOISE)).astype(np.uint8)
    return x, y


def write_csv_sample(path: Path, x: np.ndarray, y: np.ndarray) -> None:
    """The program's documented CSV schema; 17 significant digits round-trip."""
    with open(path, "w") as fh:
        fh.write("x1,label\n")
        fh.writelines(f"{format(float(v), '.17g')},{int(b)}\n" for v, b in zip(x, y))


def large_sample_ops(seed: int, workdir: Path, rows: int = CSV_ROWS,
                     srm_m: int = SRM_M) -> tuple[Op, ...]:
    x, y = make_csv_sample(seed, rows)
    path = workdir / "large_sample.csv"
    write_csv_sample(path, x, y)
    t_grid = grid_of(CLASSES["thresholds"])  # 'ge' thresholds only
    lo, hi = checks.interval_members(grid_of(CLASSES["intervals"]))

    def check_thresholds(outdir: Path, cfg: dict) -> list[str]:
        return checks.check_erm(load(outdir, "learner_output.json"), x, y, t_grid,
                                np.full(len(t_grid), np.inf), "threshold")

    def check_intervals(outdir: Path, cfg: dict) -> list[str]:
        return checks.check_erm(load(outdir, "learner_output.json"), x, y, lo, hi, "interval")

    def check_srm(outdir: Path, cfg: dict) -> list[str]:
        written = np.loadtxt(outdir / "sample.csv", delimiter=",", skiprows=1, ndmin=2)
        sx, sy = _sample_arrays(draw_sample(DISTRIBUTIONS[cfg["dist"]], cfg["m"],
                                            SeedSpec(cfg["seed"], "cli-srm")))
        if not (np.array_equal(written[:, 0], sx) and np.array_equal(written[:, 1], sy)):
            return ["srm: sample.csv is not the drawn sample"]
        grids = [grid_of(c) for c in SEQUENCES[cfg["sequence"]].classes]
        return checks.check_srm(load(outdir, "learner_output.json"), sx, sy, grids,
                                cfg["delta"], cfg["C"])

    data = str(path)
    return (
        Op("erm-thresholds-csv", "erm", None, {"class": "thresholds", "data": data},
           check_thresholds),
        Op("erm-intervals-csv", "erm", None, {"class": "intervals", "data": data},
           check_intervals),
        Op("srm-nested-draw", "srm", "srm-nested-thresholds-demo", {"m": srm_m, "seed": seed},
           check_srm),
    )


# ---------------------------------------------------------------------------


# harness-workers2 is not in BENCHMARK.json: its wall time follows the host's
# thread scheduling too closely to stay within a bound (see README.md).
WORKLOADS = ("harness-serial", "harness-workers2", "exact-search", "large-sample")


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload's operations, with any input files written into workdir."""
    if name == "harness-serial":
        return Workload(name, harness_ops(seed, 1), harness_units(), "trials", 2)
    if name == "harness-workers2":
        return Workload(name, harness_ops(seed, 2), harness_units(), "trials", 1)
    if name == "exact-search":
        return Workload(name, exact_ops(seed), exact_units(), "cases")
    if name == "large-sample":
        return Workload(name, large_sample_ops(seed, workdir), 2 * CSV_ROWS + SRM_M, "rows")
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
