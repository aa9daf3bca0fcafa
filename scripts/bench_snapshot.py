#!/usr/bin/env python3
"""Write one baseline file, BENCH_<n>.json, with this checkout's timings.

Run from anywhere; everything runs against this checkout's ``src/``:

    python3 scripts/bench_snapshot.py

It takes no options, so every BENCH_<n>.json is taken the same way and the
files stay comparable.  It records three kinds of numbers.  The benchmark's
end-to-end metrics come from ``bench/run.py --workload W`` at that script's
defaults (seed 1, 30 s, no tracing), one run per workload, kept under
``bench`` as the JSON object each run prints last (its ``setup_s`` tells a
reader whether the host was in a fast or a slow state).  Its per-layer
metrics come from one more run per workload with ``--trace 1`` and the same
seed and length, kept the same way under ``bench_traced``.  Wall times come
from timing, in fresh interpreters, both ``scripts/reproduce_*.py`` at their
paper-scale defaults and with ``--quick``, ``hllkit estimate`` on a p=16
sketch and the tier-1 test suite; every command but the test suite runs three
times and every time is kept, and each reproduce run is kept with the sha256
of the CSV it wrote.  The file goes to the repository root as
``BENCH_<n>.json`` with the smallest n not yet taken.  It names the measured
code by HEAD and by the git tree ids of ``bench/``, ``scripts/`` and ``src/``
as they stood, uncommitted edits to tracked files included: a commit holds
that code when ``git rev-parse <commit>:src`` gives the same id.  It records
the size of that code under ``src_lines``: the line count of each
``src/hllkit/*.py``, as ``wc -l`` counts them, and their total.  This script
uses the standard library only and copies nothing out of ``bench/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("error-curve", "joint-table", "ingest-query")
SCRIPTS = ("reproduce_error_curves", "reproduce_joint_table")
REPEATS = 3  # runs of each timed command but the test suite
# bench/run.py's own defaults, which this script leaves in force; recorded in
# the file so a reader need not look them up
BENCH_DEFAULTS = {"seed": 1, "seconds": 30.0, "trace": 0}
# a p=16, q=16 sketch of 200,000 uniform hashes, written with the library
WRITE_SKETCH = (
    "import sys, numpy as np; from hllkit import Sketch, SketchConfig; "
    "s = Sketch(SketchConfig(16, 16)); "
    "s.insert_many(np.random.default_rng(1).integers(0, 2**64, size=200_000, dtype=np.uint64)); "
    "open(sys.argv[1], 'wb').write(s.to_bytes())"
)


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _run(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Wall seconds and the finished process of one command run at the root."""
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True)
    return time.perf_counter() - t0, done


def _timed(label: str, argv: list[str]) -> dict:
    """Wall seconds of REPEATS runs of a command that must exit 0."""
    times = []
    for _ in range(REPEATS):
        seconds, done = _run(argv)
        if done.returncode != 0:
            sys.exit(f"error: {label} exited {done.returncode}:\n{done.stderr}")
        times.append(round(seconds, 3))
    print(f"{label}: {times} s", flush=True)
    return {"wall_s": times}


def _reproduce(script: str, tmp: str, *options: str) -> dict:
    """``_timed`` runs of ``scripts/<script>.py`` at seed 1, and the sha256 of
    the CSV the last run wrote."""
    label = " ".join((script, *options))
    csv = Path(tmp) / f"{script}.csv"
    timed = _timed(label, [sys.executable, f"scripts/{script}.py", *options,
                           "--seed", "1", "--out", str(csv)])
    timed["sha256"] = hashlib.sha256(csv.read_bytes()).hexdigest()
    print(f"{label}: sha256 {timed['sha256']}", flush=True)
    return timed


def bench_workload(name: str, trace: int = 0) -> dict:
    argv = ["bench/run.py", "--workload", name, "--trace", str(trace)]
    _, done = _run([sys.executable, *argv])
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    print(f"{name} (trace {trace}): {result['metrics']}", flush=True)
    return result


def tier1() -> dict:
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p",
            "no:cacheprovider"]
    seconds, done = _run(argv)
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    print(f"tier-1: {seconds:.1f} s, {summary}", flush=True)
    return {"wall_s": round(seconds, 2), "returncode": done.returncode, "summary": summary}


def _numpy_version() -> str:
    _, done = _run([sys.executable, "-c", "import numpy; print(numpy.__version__)"])
    return done.stdout.strip()


def _revision() -> dict:
    """HEAD and the tree ids of the measured directories; "" outside git."""
    _, head = _run(["git", "rev-parse", "HEAD"])
    # a commit object of the working tree; no ref, index or file changes
    _, stash = _run(["git", "stash", "create"])
    rev = stash.stdout.strip() or "HEAD"
    trees = {d: _run(["git", "rev-parse", f"{rev}:{d}"])[1].stdout.strip()
             for d in ("bench", "scripts", "src")}
    return {"commit": head.stdout.strip(), "trees": trees}


def _src_lines() -> dict:
    """Newlines in each src/hllkit/*.py, as ``wc -l`` counts them, and their total."""
    files = {p.name: p.read_bytes().count(b"\n")
             for p in sorted((ROOT / "src" / "hllkit").glob("*.py"))}
    return {"files": files, "total": sum(files.values())}


def _next_path() -> Path:
    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def main() -> int:
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} (no options)")
    out = _next_path()
    snapshot = {
        **_revision(),
        "src_lines": _src_lines(),
        "host": {"python": platform.python_version(), "numpy": _numpy_version(),
                 "cpus": os.cpu_count(), "machine": platform.machine()},
        "bench_defaults": BENCH_DEFAULTS,
        "bench": {name: bench_workload(name) for name in WORKLOADS},
        "bench_traced": {name: bench_workload(name, trace=1) for name in WORKLOADS},
    }
    with tempfile.TemporaryDirectory() as tmp:
        sketch = str(Path(tmp) / "p16.hll")
        _, done = _run([sys.executable, "-c", WRITE_SKETCH, sketch])
        if done.returncode != 0:
            sys.exit(f"error: could not write the p=16 sketch:\n{done.stderr}")
        snapshot["wall"] = {
            **{f"{script}_quick": _reproduce(script, tmp, "--quick") for script in SCRIPTS},
            **{script: _reproduce(script, tmp) for script in SCRIPTS},
            "estimate_p16_ml": _timed("hllkit estimate p=16 ml", [
                sys.executable, "-m", "hllkit", "estimate", "--sketch", sketch,
                "--estimator", "ml"]),
        }
    snapshot["wall"]["tier1"] = tier1()
    out.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
