#!/usr/bin/env python3
"""Benchmark hllkit end to end and per layer.

Usage, from the root of a source checkout (no install needed; the package is
imported from ``src/``):

    python3 bench/run.py --workload error-curve --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                     # every workload, one after another

A run repeats whole rounds of its workload for ``--seconds`` seconds (and at
least enough rounds to cover its seed cycle plus one repeat), checks every
output, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` untraced and traced rounds alternate
and the metrics are the per-layer ones (spans are also written under
``.bench_out/``).  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("error-curve", "joint-table", "ingest-query")
END_TO_END = ("setup_s", "peak_rss_mb", "round_cal")

SETUP_SPAWNS = 10  # launches per run, spread evenly over its rounds
SETUP_CHILD = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import hllkit; "
    "print(repr(time.monotonic()))"
)
TAIL_ROUNDS = 4  # traced rounds whose call times feed the percentiles
MIN_TRACED_PAIRS = 4


def calibration_s() -> float:
    """Seconds for a fixed piece of work outside hllkit: interpreter loop,
    small-array numpy calls and bulk numpy, the three kinds of work the
    workloads mix.

    The shared host this benchmark was built on changes speed by 30-40% for
    seconds to minutes at a time; dividing each round's time by this kernel's
    time, measured just before and after the round, cancels most of that.
    """
    import numpy as np

    vec = np.arange(18.0) / 7 + 0.1
    bulk = np.random.default_rng(0).random(200_000)
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    for _ in range(1_500):
        float(vec @ np.log(-np.expm1(-vec)))
    for _ in range(15):
        np.sort(bulk)
    return time.perf_counter() - t0


def _import_hllkit() -> None:
    """Import hllkit from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "hllkit" / "__init__.py").is_file():
        sys.exit(f"error: no hllkit sources under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import hllkit

    if Path(hllkit.__file__).resolve().parent != (SRC / "hllkit").resolve():
        sys.exit(f"error: imported hllkit from {hllkit.__file__}, not from {SRC}")


def setup_once() -> float:
    """Wall time from launching a fresh interpreter until ``import hllkit`` returns."""
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip()) - t0


class Run:
    """Rounds of one workload, their determinism checks and their totals."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.first = {}
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.results = []

    def round(self, index: int, tracer=None):
        res = self.workload.run_round(self.seed, index, tracer, first=self.rounds == 0)
        self.rounds += 1
        self.attempted += res.attempted
        self.failed += res.failed
        self.problems += [f"round {self.rounds - 1}: {p}" for p in res.problems]
        earlier = self.first.setdefault(index, res)
        if earlier is not res and earlier.fingerprint != res.fingerprint:
            self.problems.append(
                f"round {self.rounds - 1}: outputs differ from an earlier round with the same seed"
            )
        self.results.append(res)
        return res

    def finish(self) -> None:
        cycle = self.workload.cycle
        self.problems += self.workload.pooled_checks([self.first[i].record for i in range(cycle)])
        self.problems += self.workload.run_checks(self.seed)


def run_untraced(run: Run, seconds: float) -> dict:
    cycle = run.workload.cycle
    start = time.monotonic()
    cal = [calibration_s()]
    # launches are spread over the run so that one slow spell of the host
    # does not set the median
    setup = []
    while run.rounds < cycle + 1 or time.monotonic() - start < seconds:
        run.round(run.rounds % cycle)
        cal.append(calibration_s())
        if len(setup) < SETUP_SPAWNS * (time.monotonic() - start) / seconds:
            setup.append(setup_once())
    while len(setup) < SETUP_SPAWNS:
        setup.append(setup_once())
    run.finish()
    relative = [r.program_s / ((cal[i] + cal[i + 1]) / 2) for i, r in enumerate(run.results)]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "round_cal": (statistics.fmean(relative), "cal"),
    }
    print(f"calibration seconds min {min(cal):.4f} median {statistics.median(cal):.4f} max {max(cal):.4f}")
    return metrics


def run_traced(run: Run, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    import tracing as trace

    tracer = trace.Tracer()
    cycle = run.workload.cycle
    summaries, overheads = [], []
    start = time.monotonic()
    pairs = 0
    while pairs < max(cycle, MIN_TRACED_PAIRS) or time.monotonic() - start < seconds:
        index = pairs % cycle
        seconds_by_mode = {}
        # alternate which of the pair runs first
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            if traced:
                first_span = len(tracer.start)
                tracer.install()
                try:
                    res = run.round(index, tracer)
                finally:
                    tracer.uninstall()
                summaries.append(tracer.summarize(first_span, len(tracer.start)))
            else:
                res = run.round(index)
            seconds_by_mode[traced] = res.program_s
        overheads.append(seconds_by_mode[True] - seconds_by_mode[False])
        pairs += 1
    run.finish()
    metrics, tails = trace.layer_metrics(summaries, summaries[:TAIL_ROUNDS])
    metrics["trace.overhead_s"] = statistics.median(overheads)
    tracer.write(spans_path)
    return {k: (v, trace.metric_unit(k)) for k, v in metrics.items()}, tails


def run_one(args) -> int:
    _import_hllkit()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    scratch = OUT_DIR / f"files-{tag}"
    try:
        run = Run(workloads.WORKLOADS[args.workload](scratch), args.seed)
        if args.trace:
            metrics, tails = run_traced(run, args.seconds, OUT_DIR / f"spans-{tag}.jsonl")
            for name, info in tails.items():
                print(f"tail {name}: p{info['percentile']:g} of {info['samples']} calls")
        else:
            metrics = run_untraced(run, args.seconds)
            for name, (value, unit) in run.workload.detail(run.results).items():
                print(f"detail {name} = {value!r} {unit}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    times = sorted(r.program_s for r in run.results)
    print(f"rounds {run.rounds}, attempted {run.attempted}, failed {run.failed}; "
          f"round seconds min {times[0]:.4f} median {statistics.median(times):.4f} max {times[-1]:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh interpreter; prints their lines and a table."""
    if not (SRC / "hllkit" / "__init__.py").is_file():
        sys.exit(f"error: no hllkit sources under {SRC}; run from a full checkout")
    table = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if done.returncode != 0 or not lines:
            print(f"[{name}] exited {done.returncode}")
            return 1
        table.append((name, json.loads(lines[-1])))
    print()
    print(f"{'workload':<14} {'correct':<8} {'attempted':>10} {'failed':>7}")
    for name, res in table:
        print(f"{name:<14} {str(res['correct']):<8} {res['attempted']:>10} {res['failed']:>7}")
    return 0 if all(res["correct"] for _, res in table) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
