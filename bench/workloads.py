"""The benchmark's three workloads.

Each workload runs in rounds.  Round r uses the sub-seed
``seed * 1000 + r % cycle``, so the first ``cycle`` rounds draw distinct
inputs (pooled for the statistical checks) and every later round repeats an
earlier one exactly (its outputs must match byte for byte).  ``run_round``
returns the seconds spent inside hllkit calls, the operations attempted and
failed, a fingerprint of the outputs, and the problems found in that round.
Input generation, file writes and checks are outside the timed calls.
"""

from __future__ import annotations

import hashlib
import io
import statistics
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import hllkit
import hllkit.cli
from hllkit import HllError, Sketch, SketchConfig

import checks
import reference as ref


def sub_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


@dataclass
class RoundResult:
    program_s: float
    attempted: int
    failed: int
    fingerprint: str
    problems: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)
    record: object = None


def _fingerprint(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _cli(argv):
    """Call ``hllkit.cli.main`` in-process; returns (exit code, stdout, seconds)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        t0 = perf_counter()
        rc = hllkit.cli.main(argv)
        dt = perf_counter() - t0
    return rc, buf.getvalue(), dt


# --------------------------------------------------------------------------
# error-curve: the paper's single-sketch error study through `hllkit simulate`
# --------------------------------------------------------------------------
class ErrorCurve:
    name = "error-curve"
    cycle = 8
    P, Q = 12, 20
    TRIALS = 20
    ESTIMATORS = ("raw", "improved", "ml")
    CARDS_SPEC = "logspace:1:10000000:22"

    def __init__(self, scratch: Path):
        self.m = 1 << self.P
        # the grid as the CSV must list it: 22 geometric points, rounded
        self.cards = [int(v) for v in np.rint(np.geomspace(1, 1e7, 22))]

    def run_round(self, seed: int, index: int, tracer=None, first=False) -> RoundResult:
        argv = [
            "simulate", "--p", str(self.P), "--q", str(self.Q),
            "--cards", self.CARDS_SPEC, "--trials", str(self.TRIALS),
            "--estimators", ",".join(self.ESTIMATORS),
            "--seed", str(sub_seed(seed, index)), "--threads", "1",
        ]
        if tracer:
            tracer.set_item(f"simulate seed={sub_seed(seed, index)}")
        rc, out, dt = _cli(argv)
        rows = checks.parse_csv(out)
        problems = [] if rc == 0 else [f"simulate exited {rc}"]
        problems += checks.check_error_curve_rows(rows, self.ESTIMATORS, self.cards, self.TRIALS)
        attempted = len(self.ESTIMATORS) * len(self.cards) * self.TRIALS
        failed = sum(int(r["failures"]) for r in rows)
        return RoundResult(dt, attempted, failed, _fingerprint(out), problems,
                           {"points": attempted - failed}, rows)

    def pooled_checks(self, records) -> list:
        return checks.check_error_curve_pooled(records, self.m)

    def run_checks(self, seed: int) -> list:
        return []

    @staticmethod
    def detail(results) -> dict:
        total = sum(r.program_s for r in results)
        return {"curve_points_per_s": (sum(r.detail["points"] for r in results) / total, "points/s")}


# --------------------------------------------------------------------------
# joint-table: the paper's overlap table through `hllkit joint-simulate`
# --------------------------------------------------------------------------
class JointTable:
    name = "joint-table"
    cycle = 8
    P, Q = 12, 16
    TRIALS = 20
    CONFIGS = ((10000, 10000, 10000), (10000, 10000, 100), (100, 100, 10000), (100000, 1000, 1000))
    LIKELIHOOD_TRIALS = 2  # redrawn pairs per configuration for the optimum check

    def __init__(self, scratch: Path):
        self.config = SketchConfig(self.P, self.Q)

    def run_round(self, seed: int, index: int, tracer=None, first=False) -> RoundResult:
        argv = [
            "joint-simulate", "--p", str(self.P), "--q", str(self.Q),
            "--configs", ";".join(",".join(map(str, c)) for c in self.CONFIGS),
            "--trials", str(self.TRIALS), "--seed", str(sub_seed(seed, index)),
            "--threads", "1",
        ]
        if tracer:
            tracer.set_item(f"joint-simulate seed={sub_seed(seed, index)}")
        rc, out, dt = _cli(argv)
        rows = checks.parse_csv(out)
        problems = [] if rc == 0 else [f"joint-simulate exited {rc}"]
        problems += checks.check_joint_rows(rows, self.CONFIGS, self.TRIALS)
        attempted = len(self.CONFIGS) * self.TRIALS
        failed = sum(int(r["failures"]) for r in rows)
        return RoundResult(dt, attempted, failed, _fingerprint(out), problems,
                           {"trials": attempted - failed}, rows)

    def pooled_checks(self, records) -> list:
        return checks.check_joint_pooled(records, self.config.m)

    def run_checks(self, seed: int) -> list:
        """Redraw the first pairs of round 0 exactly as joint-simulate draws
        them, fit them, and test the fit against the reference likelihood."""
        problems = []
        rng = hllkit.RngSeed(sub_seed(seed, 0))
        for gi, (a, b, x) in enumerate(self.CONFIGS):
            for t in range(self.LIKELIHOOD_TRIALS):
                gen = rng.generator(gi * self.TRIALS + t)
                s1, s2 = hllkit.sample_joint_pair(a, b, x, self.config, gen)
                fit = hllkit.joint_ml_estimate(s1, s2)
                counts = ref.pair_counts(s1.registers, s2.registers, self.Q)
                problems += checks.check_joint_optimum(
                    counts, (fit.a, fit.b, fit.x), self.config.m, self.Q
                )
        return problems

    @staticmethod
    def detail(results) -> dict:
        total = sum(r.program_s for r in results)
        return {"joint_trials_per_s": (sum(r.detail["trials"] for r in results) / total, "trials/s")}


# --------------------------------------------------------------------------
# ingest-query: hashed streams into real sketches, queried as they grow
# --------------------------------------------------------------------------
BATCH = 16384
NEW_PER_BATCH = 12288  # the other quarter of each batch repeats earlier ids
QUERY_EVERY = 2  # batches between queries of a growing sketch (and after the last)
QUERY_ESTIMATORS = ("raw", "original", "improved", "ml")
CHECKED_ESTIMATORS = ("original", "improved", "ml")  # raw is biased below ~5m by design
CLI_ESTIMATORS = ("improved", "ml")
KEY_SALT = 0x9E3779B97F4A7C15


def stream_batches(key: int, stream_no: int, n: int, rng: np.random.Generator):
    """Batches of hashes of n distinct ids (stream_no's own counter range),
    each batch a quarter repeats of ids already in the stream.  Yields
    (hashes, distinct ids so far)."""
    base = stream_no << 40
    done = 0
    while done < n:
        new = min(NEW_PER_BATCH, n - done)
        ids = np.arange(base + done, base + done + new, dtype=np.uint64)
        repeats = rng.integers(base, base + done + new, size=new // 3, dtype=np.uint64)
        done += new
        yield ref.mix64(np.concatenate([ids, repeats]), key), done


def repeat_batch(key: int, stream_no: int, n: int, rng: np.random.Generator) -> np.ndarray:
    base = stream_no << 40
    return ref.mix64(rng.integers(base, base + n, size=min(BATCH, n), dtype=np.uint64), key)


class IngestQuery:
    name = "ingest-query"
    cycle = 4
    SINGLE_STREAMS = (
        (12, 20, 2_000), (12, 20, 150_000), (12, 20, 1_500_000),
        (16, 16, 40_000), (16, 16, 600_000), (16, 16, 5_000_000),
    )
    # (p, q, (|A only|, |B only|, |A and B|)): sketch 1 sees A then X, sketch 2 sees B then X
    PAIRS = (
        (12, 20, (20_000, 20_000, 20_000)), (12, 20, (50_000, 50_000, 1_000)),
        (16, 16, (100_000, 50_000, 25_000)), (16, 16, (150_000, 150_000, 2_000)),
    )
    # streams whose registers are recomputed in pure Python on round 0
    REFERENCE_STREAMS = ((12, 20, 150_000), (16, 16, 40_000))

    def __init__(self, scratch: Path):
        self.scratch = scratch

    def _query(self, sketch: Sketch, cfg: SketchConfig, exact: int, label: str, acc: dict):
        """Serialize once, then per estimator decode -> histogram -> estimate."""
        values = {}
        t0 = perf_counter()
        blob = sketch.to_bytes()
        decoded = None
        for name in QUERY_ESTIMATORS:
            try:
                decoded = Sketch.from_bytes(blob)
                values[name] = getattr(hllkit, f"{name}_estimate")(decoded.histogram(), cfg)
            except HllError as exc:
                acc["failed"] += 1
                acc["problems"].append(f"{label}: {name} raised {exc!r}")
        acc["read_s"] += perf_counter() - t0
        acc["estimates"] += len(QUERY_ESTIMATORS)
        if decoded is not None and not decoded == sketch:
            acc["problems"].append(f"{label}: from_bytes(to_bytes(s)) != s")
        for name in CHECKED_ESTIMATORS:
            if name in values:
                acc["problems"] += checks.check_estimate(
                    values[name], exact, cfg.m, f"{label} {name}", original=name == "original"
                )
        acc["values"].append(tuple(values.get(n) for n in QUERY_ESTIMATORS))
        return values

    def _insert(self, sketches, hashes, acc):
        for s in sketches:
            t0 = perf_counter()
            try:
                s.insert_many(hashes)
            except HllError as exc:
                acc["failed"] += 1
                acc["problems"].append(f"insert_many raised {exc!r}")
            acc["write_s"] += perf_counter() - t0
            acc["hashes"] += len(hashes)
            acc["batches"] += 1

    def run_round(self, seed: int, index: int, tracer=None, first=False) -> RoundResult:
        ss = sub_seed(seed, index)
        key = ref.mix64_int(ss, KEY_SALT)
        acc = {"write_s": 0.0, "read_s": 0.0, "joint_s": 0.0, "cli_s": 0.0, "hashes": 0,
               "batches": 0, "estimates": 0, "pairs": 0, "cli_calls": 0, "failed": 0,
               "problems": [], "values": [], "cli_ms": []}
        finals = []
        stream_no = 0
        for p, q, n in self.SINGLE_STREAMS:
            stream_no += 1
            cfg = SketchConfig(p, q)
            label = f"p={p} n={n}"
            if tracer:
                tracer.set_item(f"stream {label} seed={ss}")
            rng = np.random.default_rng([ss, stream_no])
            sketch = Sketch(cfg)
            # the reference registers are folded in batch by batch, so the
            # check never holds a whole stream as Python ints
            want = [0] * cfg.m if first and (p, q, n) in self.REFERENCE_STREAMS else None
            values = None
            for batch, (hashes, done) in enumerate(stream_batches(key, stream_no, n, rng), 1):
                if want is not None:
                    ref.update_registers(want, hashes.tolist(), p, q)
                self._insert([sketch], hashes, acc)
                if batch % QUERY_EVERY == 0 or done == n:
                    values = self._query(sketch, cfg, done, f"{label} at {done}", acc)
            before = sketch.registers.copy()
            extra = repeat_batch(key, stream_no, n, rng)
            self._insert([sketch], extra, acc)
            acc["problems"] += checks.check_registers(sketch.registers, before, f"{label} re-inserted repeats")
            if want is not None:
                ref.update_registers(want, extra.tolist(), p, q)
                acc["problems"] += checks.check_registers(sketch.registers, want, f"{label} vs reference")
            finals.append((cfg, n, label, sketch, values))

        pairs = []
        for p, q, (a, b, x) in self.PAIRS:
            cfg = SketchConfig(p, q)
            label = f"p={p} pair {a},{b},{x}"
            if tracer:
                tracer.set_item(f"pair {label} seed={ss}")
            s1, s2, sa, sb, sx = (Sketch(cfg) for _ in range(5))
            for n, targets in ((a, (s1, sa)), (b, (s2, sb)), (x, (s1, s2, sx))):
                stream_no += 1
                rng = np.random.default_rng([ss, stream_no])
                for hashes, _ in stream_batches(key, stream_no, n, rng):
                    self._insert(targets, hashes, acc)
            t0 = perf_counter()
            try:
                m1 = sa.merge(sx)
                m2 = sb.merge(sx)
                ie = hllkit.inclusion_exclusion_estimate(s1, s2)
                fit = hllkit.joint_ml_estimate(s1, s2)
            except HllError as exc:
                acc["failed"] += 1
                acc["problems"].append(f"{label}: {exc!r}")
                fit = None
            acc["joint_s"] += perf_counter() - t0
            acc["pairs"] += 1
            if fit is None:
                continue
            if not (m1 == s1 and m2 == s2):
                acc["problems"].append(f"{label}: merge differs from the concatenated stream's sketch")
            acc["problems"] += checks.check_estimate(fit.union, a + b + x, cfg.m, f"{label} joint-ML union")
            if min(fit.a, fit.b, fit.x) < 0:
                acc["problems"].append(f"{label}: negative joint-ML rate {fit}")
            acc["values"].append((ie.a, ie.b, ie.x, fit.a, fit.b, fit.x))
            pairs.append((cfg, label, s1, s2, fit))

        outputs = self._cli_phase(ss, finals, pairs, acc, tracer)
        program_s = acc["write_s"] + acc["read_s"] + acc["joint_s"] + acc["cli_s"]
        # one pair fit counts as two estimator calls: inclusion-exclusion and joint ML
        attempted = acc["batches"] + acc["estimates"] + 2 * acc["pairs"] + acc["cli_calls"]
        detail = {k: acc[k] for k in ("write_s", "read_s", "joint_s", "hashes", "estimates", "pairs", "cli_ms")}
        return RoundResult(program_s, attempted, acc["failed"],
                           _fingerprint(acc["values"], outputs), acc["problems"], detail)

    def _cli_phase(self, ss, finals, pairs, acc, tracer):
        """`hllkit estimate` on p=16 sketch files must print the library's value."""
        self.scratch.mkdir(parents=True, exist_ok=True)
        outputs = []
        jobs = []
        for cfg, n, label, sketch, values in finals:
            if cfg.p != 16:
                continue
            path = self.scratch / f"single-{cfg.p}-{n}.hll"
            path.write_bytes(sketch.to_bytes())
            for name in CLI_ESTIMATORS:
                if name not in values:
                    continue
                want = f"{name},{cfg.p},{cfg.q},{float(values[name])!r}"
                jobs.append((label, ["estimate", "--sketch", str(path), "--estimator", name], want, True))
        for k, (cfg, label, s1, s2, fit) in enumerate(pairs):
            if cfg.p != 16:
                continue
            p1, p2 = self.scratch / f"pair{k}-1.hll", self.scratch / f"pair{k}-2.hll"
            p1.write_bytes(s1.to_bytes())
            p2.write_bytes(s2.to_bytes())
            want = (f"joint-ml,{cfg.p},{cfg.q},{float(fit.a)!r},{float(fit.b)!r},"
                    f"{float(fit.x)!r},{float(fit.union)!r}")
            jobs.append((label, ["estimate", "--sketch", str(p1), "--sketch2", str(p2),
                                 "--estimator", "joint-ml"], want, False))
        for label, argv, want, single in jobs:
            if tracer:
                tracer.set_item(f"cli {label} seed={ss}")
            rc, out, dt = _cli(argv)
            acc["cli_s"] += dt
            acc["cli_calls"] += 1
            if single:
                acc["cli_ms"].append(dt * 1e3)
            if rc != 0:
                acc["failed"] += 1
                acc["problems"].append(f"cli {' '.join(argv)} exited {rc}")
                continue
            lines = out.strip().splitlines()
            if not lines or lines[-1] != want:
                acc["problems"].append(f"cli {label}: printed {lines[-1:]} not the library's {want!r}")
            outputs.append(out)
        return outputs

    def pooled_checks(self, records) -> list:
        return []

    def run_checks(self, seed: int) -> list:
        return []

    @staticmethod
    def detail(results) -> dict:
        d = [r.detail for r in results]
        cli_ms = [v for x in d for v in x["cli_ms"]]
        return {
            "insert_hashes_per_s": (sum(x["hashes"] for x in d) / sum(x["write_s"] for x in d), "hashes/s"),
            "single_estimates_per_s": (sum(x["estimates"] for x in d) / sum(x["read_s"] for x in d), "estimates/s"),
            "joint_estimates_per_s": (sum(x["pairs"] for x in d) / sum(x["joint_s"] for x in d), "fits/s"),
            "cli_estimate_ms": (statistics.median(cli_ms), "ms"),
        }


WORKLOADS = {w.name: w for w in (ErrorCurve, JointTable, IngestQuery)}
