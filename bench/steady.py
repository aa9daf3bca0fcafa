#!/usr/bin/env python3
"""Check that the benchmark is steady enough to judge a change by.

    python3 bench/steady.py                 # 10 runs per set, every workload
    python3 bench/steady.py --runs 5 --workloads ingest-query

Runs every workload in two sets of untraced runs (set A with seeds
base..base+runs-1, set B with the next ``runs`` seeds), alternating which set
runs first and the order of the workloads.  For each end-to-end metric it
reports the median and quartiles of each set and their spread
(q3 - q1) / median, and says:

* whether each spread stays within a third of the metric's bound in
  BENCHMARK.json.  setup_s's spread is printed but not judged: it is a
  launch time in plain seconds, which moves with the host's speed, and its
  bound applies to the median only,
* whether set B's median is within the bound of set A's, either way,
* whether both sets fail exactly the same share of operations,
* whether every run was correct.

It then makes two traced runs per workload with different seeds and checks
that every count (calls, failures, calls per trial) repeats exactly.  A
summary is written to ``.bench_out/steady.json``; the exit code is 0 when all
holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED_BASE = 1
TRACED_RUNS = 2
# per-layer metrics that must repeat exactly from run to run
REPEATING = (".calls", ".failures", ".calls_per_trial")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which ``second`` is worse than ``first`` (negative when better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    names = args.workloads.split(",")
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    results = {name: {"A": [], "B": []} for name in names}
    for i in range(args.runs):
        for set_id in (("A", "B") if i % 2 == 0 else ("B", "A")):
            seed = SEED_BASE + i + (args.runs if set_id == "B" else 0)
            for name in (names if i % 2 == 0 else names[::-1]):
                res = run_once(name, seed, seconds, 0)
                results[name][set_id].append(res)
                print(f"set {set_id} run {i} {name} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                      flush=True)

    ok = True
    report = {}
    print()
    print(f"{'workload':<13} {'metric':<12} {'set':<3} {'q1':>11} {'median':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for name in names:
        report[name] = {}
        for set_id in ("A", "B"):
            runs = results[name][set_id]
            if not all(r["correct"] for r in runs):
                ok = False
                print(f"{name}: set {set_id} has an incorrect run")
        shares = {s: (sum(r["failed"] for r in results[name][s]),
                      sum(r["attempted"] for r in results[name][s])) for s in ("A", "B")}
        share_a = shares["A"][0] / shares["A"][1]
        share_b = shares["B"][0] / shares["B"][1]
        if share_a != share_b:
            ok = False
            print(f"{name}: failed share differs between sets ({share_a!r} vs {share_b!r})")
        for metric, m in metrics.items():
            stats = {}
            for set_id in ("A", "B"):
                values = [r["metrics"][metric]["value"] for r in results[name][set_id]]
                q1, med, q3 = quartiles(values)
                stats[set_id] = {"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med,
                                 "values": values}
            change = worse_by(stats["A"]["median"], stats["B"]["median"], m["better"])
            verdicts = []
            for set_id in ("A", "B"):
                s = stats[set_id]
                if metric == "setup_s":
                    verdicts.append("not judged")
                else:
                    steady = s["spread"] <= m["bound"] / 3
                    verdicts.append("steady" if steady else "SPREAD")
                    ok &= steady
                print(f"{name:<13} {metric:<12} {set_id:<3} {s['q1']:>11.6g} {s['median']:>11.6g} "
                      f"{s['q3']:>11.6g} {s['spread']:>7.4f} {m['bound']:>6}  {verdicts[-1]}")
            agree = abs(change) <= m["bound"]
            ok &= agree
            print(f"{'':<13} {metric:<12} B vs A worse by {change:+.4f}: "
                  f"{'agree' if agree else 'DISAGREE'}")
            report[name][metric] = {"sets": stats, "b_worse_by": change, "agree": agree}
        report[name]["failed_share"] = {"A": share_a, "B": share_b}

    for name in names:
        traced = [run_once(name, SEED_BASE + k, seconds, 1) for k in range(TRACED_RUNS)]
        counts = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(REPEATING)}
                  for r in traced]
        same = all(c == counts[0] for c in counts)
        ok &= same and all(r["correct"] for r in traced)
        overhead = [r["metrics"]["trace.overhead_s"]["value"] for r in traced]
        print(f"{name}: {len(counts[0])} count metrics repeat exactly over {len(traced)} traced "
              f"runs: {same}; trace.overhead_s {', '.join(f'{v:.4g}' for v in overhead)}")
        report[name]["traced"] = {"counts_repeat": same, "overhead_s": overhead}

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
