"""Output checks made apart from the program.

Each checker takes what a ``cli.run`` call wrote (parsed JSON, or arrays the
benchmark made itself) together with the request that produced it, recomputes
the answer by its own route (closed forms, a separate numpy brute force, exact
fractions), and returns a list of problems; an empty list means the output is
correct.  The program is used only to re-draw samples through its public
``draw_sample``, so a check can re-derive per-trial ERM picks.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

CONFIDENCE = 0.95
VERDICT_SLACK = 0.02
BOUNDARY_TOL = 1e-12
VALUE_TOL = 1e-9


def close(a, b, tol=VALUE_TOL) -> bool:
    return a is not None and b is not None and abs(float(a) - float(b)) <= tol


def threshold_risk(theta, theta_star: float, noise: float):
    """Risk of 1[x >= theta] under uniform [0, 1] instances labelled by
    1[x >= theta_star] with symmetric label noise."""
    return noise + (1 - 2 * noise) * np.abs(np.asarray(theta, dtype=float) - theta_star)


def interval_errors(x: np.ndarray, y: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                    chunk: int = 64) -> np.ndarray:
    """Mistake counts of the members 1[lo_i <= x <= hi_i] on (x, y), by brute
    force in chunks of members.  A 'ge' threshold is the interval [theta, inf]."""
    yb = y.astype(bool)
    errs = np.empty(len(lo), dtype=np.int64)
    for s in range(0, len(lo), chunk):
        pred = (x >= lo[s:s + chunk, None]) & (x <= hi[s:s + chunk, None])
        errs[s:s + chunk] = np.count_nonzero(pred != yb, axis=1)
    return errs


def interval_members(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed intervals on a grid in canonical order: lower end major."""
    i, j = np.triu_indices(len(grid))
    return grid[i], grid[j]


def clopper_pearson(successes: int, trials: int, confidence: float = CONFIDENCE):
    """One-sided exact binomial bounds, by bisection on the binomial tails."""
    k = np.arange(trials + 1)
    log_comb = (math.lgamma(trials + 1) - np.array([math.lgamma(v + 1) for v in k])
                - np.array([math.lgamma(trials - v + 1) for v in k]))

    def upper_tail(p: float, s: int) -> float:  # P(X >= s)
        logs = log_comb[s:] + k[s:] * math.log(p) + (trials - k[s:]) * math.log1p(-p)
        top = logs.max()
        return float(math.exp(top) * np.exp(logs - top).sum())

    def solve(target: float, s: int) -> float:
        lo, hi = 0.0, 1.0
        for _ in range(100):
            mid = (lo + hi) / 2
            if upper_tail(mid, s) < target:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    alpha = 1.0 - confidence
    lower = 0.0 if successes == 0 else solve(alpha, successes)
    # P(X <= s) = alpha  <=>  P(X >= s + 1) = 1 - alpha
    upper = 1.0 if successes == trials else solve(1.0 - alpha, successes + 1)
    return lower, upper


def check_binomial(summary: dict, delta: float, where: str) -> list[str]:
    """Clopper-Pearson bounds bracket the frequency and the verdict follows them."""
    problems = []
    n, s = summary["trials"], summary["successes"]
    freq = s / n
    lower, upper = summary["ci_lower"], summary["ci_upper"]
    if not close(summary["success_frequency"], freq, 1e-15):
        problems.append(f"{where}: success_frequency {summary['success_frequency']} != {s}/{n}")
    if not lower <= freq <= upper:
        problems.append(f"{where}: bounds [{lower}, {upper}] do not bracket {freq}")
    ref_lower, ref_upper = clopper_pearson(s, n)
    if not (close(lower, ref_lower) and close(upper, ref_upper)):
        problems.append(f"{where}: bounds [{lower}, {upper}] != Clopper-Pearson "
                        f"[{ref_lower}, {ref_upper}]")
    threshold = 1.0 - delta - VERDICT_SLACK
    if not close(summary["threshold"], threshold, 1e-12):
        problems.append(f"{where}: threshold {summary['threshold']} != {threshold}")
    verdict = "pass" if lower >= threshold else "fail" if upper < threshold else "indeterminate"
    if summary["verdict"] != verdict:
        problems.append(f"{where}: verdict {summary['verdict']!r}, bounds say {verdict!r}")
    return problems


def check_count(reported: int, values: np.ndarray, limit: float, where: str) -> list[str]:
    """reported == #{values <= limit}, up to values within rounding of the limit."""
    strict = int(np.count_nonzero(values < limit - BOUNDARY_TOL))
    loose = int(np.count_nonzero(values <= limit + BOUNDARY_TOL))
    if not strict <= reported <= loose:
        return [f"{where}: {reported} successes, recomputation gives {strict}..{loose}"]
    return []


def check_stats(stats: dict, values: np.ndarray, where: str) -> list[str]:
    ref = {
        "mean": np.mean(values), "median": np.median(values),
        "q05": np.quantile(values, 0.05), "q95": np.quantile(values, 0.95),
    }
    return [f"{where}: {k} {stats.get(k)} != recomputed {v}"
            for k, v in ref.items() if not close(stats.get(k), v)]


def erm_threshold_picks(redraw, trials: int, grid: np.ndarray) -> np.ndarray:
    """ERM's pick index per trial; redraw(t) -> (x, y)."""
    upper = np.full(len(grid), np.inf)
    # np.argmin returns the first minimum: the earliest member wins ties.
    return np.array([np.argmin(interval_errors(*redraw(t), grid, upper))
                     for t in range(trials)], dtype=np.int64)


# ---------------------------------------------------------------------------
# Harnesses
# ---------------------------------------------------------------------------


def check_pac(summary: dict, cfg: dict, grid: np.ndarray, theta_star: float,
              noise: float, redraw) -> list[str]:
    """Learnability summary against per-trial ERM re-derived on re-drawn
    samples and closed-form threshold risks."""
    problems = []
    conf = summary["config"]
    for key in ("m", "trials"):
        if conf[key] != cfg[key]:
            problems.append(f"pac: config.{key} {conf[key]} != requested {cfg[key]}")
    if conf["master_seed"] != cfg["seed"]:
        problems.append(f"pac: master_seed {conf['master_seed']} != requested {cfg['seed']}")
    min_risk = float(threshold_risk(grid, theta_star, noise).min())
    got_min = summary["extra"]["min_risk_in_class"]
    if not close(got_min, min_risk, 1e-12):
        problems.append(f"pac: min_risk_in_class {got_min} != closed form {min_risk}")
    picks = erm_threshold_picks(redraw, cfg["trials"], grid)
    risks = threshold_risk(grid[picks], theta_star, noise)
    problems += check_count(summary["successes"], risks, min_risk + cfg["eps"], "pac")
    problems += check_stats(summary["stats"], risks - min_risk, "pac")
    problems += check_binomial(summary, cfg["delta"], "pac")
    return problems


def check_uc(report: dict, cfg: dict, grid: np.ndarray, theta_star: float,
             noise: float, redraw) -> list[str]:
    """Sup deviations re-derived per trial; the median ratio must sit near
    the square-root prediction."""
    problems = []
    risks = threshold_risk(grid, theta_star, noise)
    upper = np.full(len(grid), np.inf)
    summaries = report["summaries"]
    if [s["config"]["m"] for s in summaries] != list(cfg["m_values"]):
        return ["uc: summaries do not follow the requested m values"]
    medians = []
    for s, m in zip(summaries, cfg["m_values"]):
        devs = np.empty(cfg["trials"])
        for t in range(cfg["trials"]):
            x, y = redraw(m, t)
            devs[t] = np.max(np.abs(interval_errors(x, y, grid, upper) / m - risks))
        where = f"uc m={m}"
        problems += check_count(s["successes"], devs, cfg["eps"], where)
        problems += check_stats(s["stats"], devs, where)
        problems += check_binomial(s, cfg["delta"], where)
        medians.append(float(np.median(devs)))
    for sc, (a, b) in zip(report["scaling"], zip(medians, medians[1:])):
        if not close(sc["median_ratio"], a / b):
            problems.append(f"uc: median ratio {sc['median_ratio']} != recomputed {a / b}")
        if not 1.5 <= sc["median_ratio"] <= 2.5:
            problems.append(f"uc: median ratio {sc['median_ratio']} outside [1.5, 2.5]")
        pred = math.sqrt(sc["m_large"] / sc["m_small"])
        if not close(sc["sqrt_prediction"], pred, 1e-12):
            problems.append(f"uc: sqrt prediction {sc['sqrt_prediction']} != {pred}")
    if len(report["scaling"]) != len(medians) - 1:
        problems.append("uc: expected one scaling entry per consecutive m pair")
    return problems


def default_weights(n: int) -> list[float]:
    raw = [2.0 ** -(i + 1) for i in range(n)]
    return [w / sum(raw) for w in raw]


def srm_penalty(d: int, w: float, delta: float, m: int, C: float) -> float:
    return C * math.sqrt((d - math.log(w * delta)) / m)


def check_tradeoff(report: dict, cfg: dict, grids: list[np.ndarray], theta_star: float,
                   noise: float, redraw) -> list[str]:
    """Per-class ERM and penalized picks re-derived per trial; then the
    decomposition identity, monotone trade-off and SRM dominance."""
    problems = []
    n_classes = len(grids)
    weights = default_weights(n_classes)
    approx = [float(threshold_risk(g, theta_star, noise).min()) for g in grids]
    rows = report["rows"]
    if len(rows) != len(cfg["m_values"]) * (n_classes + 1):
        return [f"tradeoff: {len(rows)} rows for {len(cfg['m_values'])} m values"]
    for mi, m in enumerate(cfg["m_values"]):
        pens = np.array([srm_penalty(1, w, cfg["delta"], m, cfg["C"]) for w in weights])
        totals = [[] for _ in range(n_classes)]
        pick_risk, objective, picks = [], [], []
        for seed in cfg["seeds"]:
            for t in range(cfg["trials"]):
                x, y = redraw(seed, m, t)
                risks = np.empty(n_classes)
                emp = np.empty(n_classes)
                for c, g in enumerate(grids):
                    errs = interval_errors(x, y, g, np.full(len(g), np.inf))
                    i = int(np.argmin(errs))
                    risks[c] = threshold_risk(g[i], theta_star, noise)
                    emp[c] = errs[i] / m
                    totals[c].append(risks[c])
                obj = emp + pens
                pick = int(np.argmin(obj))  # lower position wins ties
                picks.append(pick)
                objective.append(obj[pick])
                pick_risk.append(risks[pick])
        n = len(picks)
        block = rows[mi * (n_classes + 1):(mi + 1) * (n_classes + 1)]
        for c, row in enumerate(block[:n_classes]):
            where = f"tradeoff m={m} class {c + 1}"
            mean_total = float(np.mean(totals[c]))
            expect = {"approximation_error": approx[c], "mean_total_risk": mean_total,
                      "mean_estimation_error": mean_total - approx[c]}
            problems += [f"{where}: {k} {row[k]} != recomputed {v}"
                         for k, v in expect.items() if not close(row[k], v)]
            if (row["learner"], row["class_index"], row["m"], row["trials"]) != ("erm", c + 1, m, n):
                problems.append(f"{where}: row header {row} out of place")
            identity = row["approximation_error"] + row["mean_estimation_error"]
            if not abs(identity - row["mean_total_risk"]) < 1e-12:
                problems.append(f"{where}: approximation + estimation != total")
        srm_row = block[n_classes]
        where = f"tradeoff m={m} srm"
        if not close(srm_row["mean_total_risk"], np.mean(pick_risk)):
            problems.append(f"{where}: mean_total_risk {srm_row['mean_total_risk']} "
                            f"!= recomputed {np.mean(pick_risk)}")
        if not close(srm_row["mean_objective"], np.mean(objective)):
            problems.append(f"{where}: mean_objective {srm_row['mean_objective']} "
                            f"!= recomputed {np.mean(objective)}")
        freqs = dict(item.split(":") for item in srm_row["pick_freqs"].split(";"))
        for c in range(n_classes):
            if not close(float(freqs.get(str(c + 1), "nan")), picks.count(c) / n, 1e-6):
                problems.append(f"{where}: pick frequency of class {c + 1} is "
                                f"{freqs.get(str(c + 1))}, recomputed {picks.count(c) / n}")
        erm_rows = block[:n_classes]
        apx = [r["approximation_error"] for r in erm_rows]
        est = [r["mean_estimation_error"] for r in erm_rows]
        if any(a < b for a, b in zip(apx, apx[1:])):
            problems.append(f"{where}: approximation error not nonincreasing {apx}")
        if any(a > b for a, b in zip(est, est[1:])):
            problems.append(f"{where}: estimation error not nondecreasing {est}")
        if srm_row["mean_total_risk"] > erm_rows[-1]["mean_total_risk"]:
            problems.append(f"{where}: penalized pick worse than the largest class")
    return problems


# ---------------------------------------------------------------------------
# Exact search
# ---------------------------------------------------------------------------


def eval_hypothesis(h: dict, pts: np.ndarray) -> np.ndarray:
    """0/1 labels of a hypothesis JSON on an (n, d) matrix, ties labelled 1."""
    kind = h["kind"]
    if kind == "threshold":
        x = pts[:, 0]
        return (x >= h["theta"]) if h["direction"] == "ge" else (x <= h["theta"])
    if kind == "interval":
        return (pts[:, 0] >= h["lo"]) & (pts[:, 0] <= h["hi"])
    if kind == "rectangle":
        inside = np.ones(len(pts), dtype=bool)
        for j, (lo, hi) in enumerate(h["bounds"]):
            inside &= (pts[:, j] >= lo) & (pts[:, j] <= hi)
        return inside
    if kind == "halfspace":
        score = np.full(len(pts), float(h["bias"]))
        for j, w in enumerate(h["weights"]):
            score = pts[:, j] * w + score
        return score >= 0.0
    raise ValueError(f"no evaluator for hypothesis kind {kind!r}")


def check_vc(report: dict, pool: np.ndarray, expected: int, where: str) -> list[str]:
    """Known dimension, and every certificate entry replayed on the witness."""
    problems = []
    v = report["value"]
    if v != expected or not report["exact"]:
        problems.append(f"{where}: dimension {report['marker']}, expected exactly {expected}")
    if report["pool_size"] != len(pool):
        problems.append(f"{where}: pool_size {report['pool_size']} != {len(pool)}")
    witness = np.asarray(report["witness"], dtype=float).reshape(len(report["witness"]), -1)
    pool_rows = {tuple(p) for p in pool.tolist()}
    if len(witness) != v or not all(tuple(p) in pool_rows for p in witness.tolist()):
        problems.append(f"{where}: witness is not {v} points of the pool")
    cert = report["certificate"]
    labelings = {tuple(e["labeling"]) for e in cert}
    if len(cert) != 2 ** v or len(labelings) != 2 ** v:
        problems.append(f"{where}: certificate has {len(labelings)} distinct labelings, "
                        f"needs {2 ** v}")
    for e in cert:
        got = tuple(int(b) for b in eval_hypothesis(e["hypothesis"], witness))
        if got != tuple(e["labeling"]):
            problems.append(f"{where}: {e['hypothesis']} labels the witness {got}, "
                            f"certificate says {tuple(e['labeling'])}")
    if report["exact"] and report["subsets_tested"] < math.comb(len(pool), v + 1):
        problems.append(f"{where}: exact with only {report['subsets_tested']} subsets tested, "
                        f"fewer than the {math.comb(len(pool), v + 1)} of size {v + 1}")
    return problems


def check_sine(report: dict, k: int) -> list[str]:
    """All 2^k labelings of x_i = 10^-i, each replayed with np.sin."""
    problems = []
    xs = np.array([10.0 ** -(i + 1) for i in range(k)])
    if report["k"] != k or report["points"] != xs.tolist():
        problems.append(f"sine: points {report['points']} != 10^-1..10^-{k}")
    labelings = {tuple(e["labeling"]) for e in report["entries"]}
    if not report["complete"] or report["failed"] or len(labelings) != 2 ** k \
            or len(report["entries"]) != 2 ** k:
        problems.append(f"sine: {len(labelings)} of {2 ** k} labelings realized")
    for e in report["entries"]:
        got = tuple(int(b) for b in np.sin(e["alpha"] * xs) >= 0.0)
        if got != tuple(e["labeling"]):
            problems.append(f"sine: alpha {e['alpha']} realizes {got}, not {tuple(e['labeling'])}")
    return problems


def check_nfl(report: dict, m: int, learner: str) -> list[str]:
    """Average expected error equals (1/2)(1 - 1/(2m))^m exactly."""
    expect = Fraction(1, 2) * (1 - Fraction(1, 2 * m)) ** m
    problems = []
    if (report["m"], report["domain_size"], report["n_labelings"], report["learner"]) != \
            (m, 2 * m, 2 ** (2 * m), learner):
        problems.append(f"nfl: header {report['m']}, {report['domain_size']}, "
                        f"{report['n_labelings']}, {report['learner']} does not match m={m}")
    if Fraction(report["average_expected_error"]) != expect:
        problems.append(f"nfl {learner}: average {report['average_expected_error']} != {expect}")
    if report["average_expected_error_float"] != float(expect):
        problems.append(f"nfl {learner}: float average {report['average_expected_error_float']}")
    return problems


# ---------------------------------------------------------------------------
# Large samples
# ---------------------------------------------------------------------------


def check_erm(output: dict, x: np.ndarray, y: np.ndarray, lo: np.ndarray, hi: np.ndarray,
              kind: str) -> list[str]:
    """Pick and empirical error against a brute force over every member."""
    errs = interval_errors(x, y, lo, hi)
    i = int(np.argmin(errs))
    if kind == "threshold":
        expect = {"kind": "threshold", "theta": lo[i], "direction": "ge"}
    else:
        expect = {"kind": "interval", "lo": lo[i], "hi": hi[i]}
    problems = []
    if output["hypothesis"] != expect:
        problems.append(f"erm {kind}: picked {output['hypothesis']}, brute force picks {expect}")
    if output["empirical_error"] != errs[i] / len(x):
        problems.append(f"erm {kind}: empirical error {output['empirical_error']} "
                        f"!= {errs[i]}/{len(x)}")
    return problems


def check_srm(output: dict, x: np.ndarray, y: np.ndarray, grids: list[np.ndarray],
              delta: float, C: float) -> list[str]:
    """Penalized pick: empirical error plus C*sqrt((d - ln(w*delta))/m), d = 1,
    lower class position first on ties."""
    m = len(x)
    weights = default_weights(len(grids))
    pens, emps, thetas = [], [], []
    for g, w in zip(grids, weights):
        errs = interval_errors(x, y, g, np.full(len(g), np.inf))
        i = int(np.argmin(errs))
        thetas.append(g[i])
        emps.append(errs[i] / m)
        pens.append(srm_penalty(1, w, delta, m, C))
    obj = [e + p for e, p in zip(emps, pens)]
    pick = int(np.argmin(obj))
    problems = []
    if output["class_index"] != pick + 1:
        problems.append(f"srm: class {output['class_index']}, recomputed {pick + 1}")
    expect_h = {"kind": "threshold", "theta": thetas[pick], "direction": "ge"}
    if output["hypothesis"] != expect_h:
        problems.append(f"srm: picked {output['hypothesis']}, recomputed {expect_h}")
    if output["empirical_error"] != emps[pick]:
        problems.append(f"srm: empirical error {output['empirical_error']} != {emps[pick]}")
    if not close(output["objective"], obj[pick], 1e-12):
        problems.append(f"srm: objective {output['objective']} != recomputed {obj[pick]}")
    got_pens = output["penalty_config"]["penalties"]
    if len(got_pens) != len(pens) or not all(close(a, b, 1e-12) for a, b in zip(got_pens, pens)):
        problems.append(f"srm: penalties {got_pens} != recomputed {pens}")
    if not close(output["objective"], output["empirical_error"] + got_pens[pick], 1e-12):
        problems.append("srm: objective != empirical error + penalty")
    return problems
