#!/usr/bin/env python3
"""Benchmark of sltlab end to end and layer by layer.

    python3 perfbench/run.py --workload harness-serial --seed 0 --seconds 20 --trace 0

One process runs one workload: it times several cold interpreter starts
(set-up), makes the workload's inputs from --seed, runs one reference pass of
``cli.run`` calls whose outputs are checked against computations made apart
from the program, then repeats timed passes for --seconds and compares every
pass's output bytes with the reference.  Calibration units (speed.py) are
timed after every set-up start and every operation, and the time metrics
are scaled by them to the reference speed.  The last line of standard
output is a JSON object with the end-to-end metrics (--trace 0) or the
per-layer metrics of a traced run (--trace 1).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# One BLAS/OpenMP thread: the program does no large linear algebra, and the
# run then starts no more threads than the workload's own workers.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy loads

import speed  # noqa: E402

SETUP_STARTS = 3
# Calibration time after each timed operation or set-up start, as a share of
# its wall time.
CAL_SHARE = 0.15
IMPORTTIME_STARTS = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_SNIPPET = (
    "import json, sys\n"
    "import sltlab.cli as cli\n"
    "for command, preset, overrides in json.loads(sys.argv[1]):\n"
    "    cli.merge_config(command, preset, None, overrides)\n"
)


def child_env() -> dict:
    path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return {**os.environ, **THREAD_ENV, "PYTHONPATH": path}


def time_setup(wl) -> list[float]:
    """Wall seconds at the reference speed of fresh interpreters importing
    sltlab.cli and resolving the workload's configs, one per start."""
    specs = json.dumps([[op.command, op.preset, op.overrides] for op in wl.ops])
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, specs], env=child_env(),
                       check=True, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        cal, _, units = speed.calibrate(CAL_SHARE * wall)
        times.append(wall * units * speed.REFERENCE_S / cal)
    return times


def import_split() -> dict[str, float]:
    """Cumulative import seconds of numpy, scipy.stats (with the scipy
    package) and the rest of sltlab.cli, from -X importtime, as medians."""
    runs = []
    for _ in range(IMPORTTIME_STARTS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sltlab.cli"],
                              env=child_env(), check=True, capture_output=True, text=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        numpy_s = cumulative.get("numpy", 0.0)
        scipy_s = cumulative.get("scipy", 0.0) + cumulative.get("scipy.stats", 0.0)
        runs.append({
            "setup.import_numpy_s": numpy_s,
            "setup.import_scipy_stats_s": scipy_s,
            "setup.import_sltlab_s": cumulative["sltlab.cli"] - numpy_s - scipy_s,
        })
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def file_digests(outdir: Path) -> dict[str, str]:
    """sha256 of every output file but the manifest, which holds a duration."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.name != "manifest.json"}


class Runner:
    """Runs passes of a workload's operations and keeps the tallies."""

    def __init__(self, cli, wl, workdir: Path):
        self.cli = cli
        self.wl = wl
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, dict[str, str]] = {}

    def run_pass(self, label: str, workers: int | None = None) -> tuple[tuple, list]:
        """((wall s, cpu s, wall s and cpu s at the reference speed),
        [(op, cfg, outdir) of ops that exited 0]) of one pass, harness ops at
        `workers` if given.  Only merge_config and run are timed, and each
        operation is scaled by the calibration units run right after it."""
        wall = cpu = wall_ref = cpu_ref = 0.0
        done = []
        sink = io.StringIO()
        for op in self.wl.ops:
            outdir = self.workdir / label / op.name
            overrides = {**op.overrides, "out": str(outdir)}
            if workers is not None and "workers" in overrides:
                overrides["workers"] = workers
            self.attempted += 1
            code = cfg = None
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stdout(sink):
                    cfg = self.cli.merge_config(op.command, op.preset, None, overrides)
                    code = self.cli.run(cfg)
            except Exception:  # one operation's crash must not end the run
                traceback.print_exc()
            op_wall = time.perf_counter() - t0
            op_cpu = time.process_time() - c0
            cal_wall, cal_cpu, units = speed.calibrate(CAL_SHARE * op_wall)
            wall += op_wall
            cpu += op_cpu
            wall_ref += op_wall * units * speed.REFERENCE_S / cal_wall
            cpu_ref += op_cpu * units * speed.REFERENCE_S / cal_cpu
            if code == 0:
                done.append((op, cfg, outdir))
            else:
                self.failed += 1
                print(f"{op.name}: exit code {code}", file=sys.stderr)
        return (wall, cpu, wall_ref, cpu_ref), done

    def compare(self, done: list, label: str) -> None:
        """Output bytes must equal the reference pass, and the manifest must
        list the same digests."""
        for op, _, outdir in done:
            digests = file_digests(outdir)
            with open(outdir / "manifest.json") as fh:
                listed = json.load(fh)["outputs"]
            if listed != digests:
                self.problems.append(f"{label} {op.name}: manifest digests differ from the files")
            if op.name not in self.reference:
                self.reference[op.name] = digests
            elif digests != self.reference[op.name]:
                self.problems.append(f"{label} {op.name}: output bytes differ from the reference")

    def timed_passes(self, seconds: float, min_passes: int, label: str,
                     after_pass=None) -> list[tuple]:
        """(wall s, cpu s, wall s and cpu s at the reference speed) of each
        pass, repeated for at least `seconds`."""
        results = []
        start = time.perf_counter()
        while len(results) < min_passes or time.perf_counter() - start < seconds:
            times, done = self.run_pass(label)
            if after_pass is not None:
                after_pass()
            self.compare(done, label)
            results.append(times)
            print(f"{self.wl.name} {label} pass {len(results)}: wall {times[0]:.4f} s, "
                  f"cpu {times[1]:.4f} s; at the reference speed wall {times[2]:.4f} s, "
                  f"cpu {times[3]:.4f} s", file=sys.stderr)
        return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sltlab" / "cli.py").is_file():
        print(f"run.py: no sltlab source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sltlab.cli as cli
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        setup = time_setup(wl)
        split = import_split() if args.trace else {}
        runner = Runner(cli, wl, workdir)

        # Warm-up and reference pass, checked in full after timing.
        _, reference = runner.run_pass("reference", wl.reference_workers)
        runner.compare(reference, "reference")

        if not args.trace:
            untraced = runner.timed_passes(args.seconds, MIN_PASSES, "pass")
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            # Half the time untraced, half traced: the difference is the
            # tracing overhead.
            untraced = runner.timed_passes(args.seconds / 2, MIN_TRACED_PASSES, "pass")
            tracer = tracing.Tracer()
            layers, last_spans = [], []

            def collect():
                layers.append(tracer.layer_metrics())
                last_spans[:] = tracer.spans
                tracer.reset()

            tracer.install()
            try:
                traced = runner.timed_passes(args.seconds / 2, MIN_TRACED_PASSES, "traced",
                                             after_pass=collect)
            finally:
                tracer.uninstall()
            tracing.dump_spans(last_spans, OUT / f"trace-{args.workload}-seed{args.seed}.json")

        for op, cfg, outdir in reference:
            try:
                found = op.check(outdir, cfg)
            except Exception as exc:  # malformed output: report it, keep the result line
                traceback.print_exc()
                found = [f"check raised {type(exc).__name__}: {exc}"]
            runner.problems += [f"{op.name}: {p}" for p in found]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in runner.problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    if args.trace:
        # Measured seconds, as the spans' self times are.
        untraced_wall = statistics.median(t[0] for t in untraced)
        traced_wall = statistics.median(t[0] for t in traced)
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name in layers[0]}
        metrics.update(split)
        metrics.update({
            "trace.untraced_wall_s": untraced_wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "speed.factor": statistics.median(t[0] / t[2] for t in untraced + traced),
        })
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        metrics = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    else:
        wall_s = statistics.median(t[2] for t in untraced)
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "units_per_s": {"value": wl.units / wall_s, "unit": "1/s"},
            "cpu_s": {"value": statistics.median(t[3] for t in untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{wl.name}: {wl.units} {wl.unit} per pass, {runner.attempted} operations, "
          f"{runner.failed} failed, {len(runner.problems)} check problems", file=sys.stderr)
    print(json.dumps({"correct": not runner.problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
