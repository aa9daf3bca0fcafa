"""Spans around hllkit's public functions, recorded from outside ``src/``.

:class:`Tracer` replaces each traced function where its caller looks it up
(module globals of ``hllkit.cli``, ``hllkit.sim``, ``hllkit.joint`` and
``hllkit.classic``, the shared ``SINGLE_ESTIMATORS`` table, the ``hllkit``
package namespace, and ``Sketch``/``RngSeed`` methods) with a wrapper that
records a span: name, start, end, parent span, and the workload item it
serves.  ``uninstall`` puts every original back.  Spans live in flat arrays
so that recording adds little garbage-collector work; they are written out
when the run ends.
"""

from __future__ import annotations

import array
import functools
import json
import statistics
from time import perf_counter

import hllkit
import hllkit.classic
import hllkit.cli
import hllkit.joint
import hllkit.sim
from hllkit import RngSeed, Sketch

# (namespace, attribute, span name).  A function reached through several
# lookups gets one wrapper per lookup, all with the same span name.
_MODULE_TARGETS = [
    (hllkit.cli, "main", "cli.main"),
    (hllkit.cli, "run_error_experiment", "sim.run_error_experiment"),
    (hllkit.cli, "run_joint_experiment", "sim.run_joint_experiment"),
    (hllkit.cli, "joint_ml_estimate", "joint.joint_ml_estimate"),
    (hllkit.cli, "inclusion_exclusion_estimate", "joint.inclusion_exclusion_estimate"),
    (hllkit.sim, "sample_sketch", "sim.sample_sketch"),
    (hllkit.sim, "sample_joint_pair", "sim.sample_joint_pair"),
    (hllkit.sim, "inclusion_exclusion_estimate", "joint.inclusion_exclusion_estimate"),
    (hllkit.sim, "joint_ml_estimate", "joint.joint_ml_estimate"),
    (hllkit.joint, "joint_statistic", "joint.joint_statistic"),
    (hllkit.joint, "inclusion_exclusion_estimate", "joint.inclusion_exclusion_estimate"),
    (hllkit.joint, "improved_estimate", "improved.improved_estimate"),
    (hllkit.classic, "raw_estimate", "classic.raw_estimate"),
    (hllkit, "raw_estimate", "classic.raw_estimate"),
    (hllkit, "original_estimate", "classic.original_estimate"),
    (hllkit, "improved_estimate", "improved.improved_estimate"),
    (hllkit, "ml_estimate", "ml.ml_estimate"),
    (hllkit, "joint_statistic", "joint.joint_statistic"),
    (hllkit, "inclusion_exclusion_estimate", "joint.inclusion_exclusion_estimate"),
    (hllkit, "joint_ml_estimate", "joint.joint_ml_estimate"),
]
_ESTIMATOR_TARGETS = {
    "raw": "classic.raw_estimate",
    "original": "classic.original_estimate",
    "improved": "improved.improved_estimate",
    "ml": "ml.ml_estimate",
}
_METHOD_TARGETS = [
    (Sketch, "insert_many", "sketch.insert_many"),
    (Sketch, "histogram", "sketch.histogram"),
    (Sketch, "merge", "sketch.merge"),
    (Sketch, "to_bytes", "sketch.to_bytes"),
    (Sketch, "from_bytes", "sketch.from_bytes"),
    (Sketch, "from_registers", "sketch.from_registers"),
    (RngSeed, "generator", "sim.generator"),
]


def _tag(name, args):
    """Per-call detail some metrics need: n for the sampler, batch size for
    inserts, the substream key for generators."""
    if name == "sim.sample_sketch":
        return "small" if args[0] <= args[1].m else "large"
    if name == "sketch.insert_many":
        return len(args[1])
    if name == "sim.generator":
        return (args[0].seed, args[0].stream_id, args[1])
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("l")
        self.failed = array.array("b")
        self.item_id = array.array("l")
        self.items: list[str] = []
        self.tags: dict[int, object] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording -----------------------------------------------------------
    def set_item(self, item: str) -> None:
        self.items.append(item)

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        tagged = name in ("sim.sample_sketch", "sketch.insert_many", "sim.generator")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.item_id.append(len(self.items) - 1)
            self.failed.append(0)
            self.end.append(0.0)
            if tagged:
                self.tags[idx] = _tag(name, args)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()

        return wrapper

    def install(self) -> None:
        for ns, attr, name in _MODULE_TARGETS:
            original = getattr(ns, attr)
            self._saved.append((ns, attr, original))
            setattr(ns, attr, self._wrap(name, original))
        table = hllkit.sim.SINGLE_ESTIMATORS
        for key, name in _ESTIMATOR_TARGETS.items():
            self._saved.append((table, key, table[key]))
            table[key] = self._wrap(name, table[key])
        for cls, attr, name in _METHOD_TARGETS:
            raw = cls.__dict__[attr]
            self._saved.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._saved:
            ns, attr, original = self._saved.pop()
            if isinstance(ns, dict):
                ns[attr] = original
            else:
                setattr(ns, attr, original)

    # -- analysis --------------------------------------------------------------
    def summarize(self, first: int, last: int) -> dict:
        """Aggregate spans [first, last) by name: calls, failures, self time,
        inclusive durations, and the tags of tagged spans."""
        child_time = {}
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child_time[p] = child_time.get(p, 0.0) + (self.end[i] - self.start[i])
        out = {}
        for i in range(first, last):
            name = self.names[self.name_id[i]]
            agg = out.get(name)
            if agg is None:
                agg = out[name] = {"calls": 0, "failures": 0, "self_s": 0.0, "durations": [], "tags": []}
            dur = self.end[i] - self.start[i]
            agg["calls"] += 1
            agg["failures"] += self.failed[i]
            self_s = dur - child_time.get(i, 0.0)
            agg["self_s"] += self_s
            agg["durations"].append(dur)
            if i in self.tags:
                agg["tags"].append((self.tags[i], self_s))
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        {
                            "name": self.names[self.name_id[i]],
                            "start": self.start[i],
                            "end": self.end[i],
                            "parent": self.parent[i],
                            "item": self.items[self.item_id[i]] if self.item_id[i] >= 0 else "",
                            "failed": bool(self.failed[i]),
                        }
                    )
                    + "\n"
                )


# -- per-layer metrics ---------------------------------------------------------
TAIL_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(count: int) -> float:
    """Highest percentile with at least ten samples beyond it; the median when
    there are fewer than forty samples (no percentile would be a tail)."""
    best = 50.0
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) / 100.0 >= 10.0:
            best = pct
    return best


def percentile(values, pct: float) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    pos = (len(values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def _get(summary, name):
    return summary.get(name, {"calls": 0, "failures": 0, "self_s": 0.0, "durations": [], "tags": []})


def round_layer_metrics(summary: dict) -> dict:
    """Per-round per-layer values (counts, self times) from one round's summary."""
    out = {}

    def put(name, field):
        out[f"{name}.{field}"] = _get(summary, name)[field]

    for name in ("sim.sample_sketch", "sim.generator", "sim.run_error_experiment",
                 "sketch.histogram", "sketch.from_registers", "sketch.merge",
                 "improved.improved_estimate", "ml.ml_estimate", "joint.joint_statistic",
                 "joint.inclusion_exclusion_estimate", "joint.joint_ml_estimate", "cli.main"):
        put(name, "calls")
    for name in ("sim.sample_sketch", "sim.generator", "sim.sample_joint_pair",
                 "sim.run_error_experiment", "sim.run_joint_experiment", "sketch.insert_many",
                 "sketch.histogram", "sketch.from_registers", "sketch.merge", "sketch.to_bytes",
                 "sketch.from_bytes", "classic.raw_estimate", "classic.original_estimate",
                 "improved.improved_estimate", "ml.ml_estimate", "joint.joint_statistic",
                 "joint.inclusion_exclusion_estimate", "joint.joint_ml_estimate", "cli.main"):
        put(name, "self_s")
    for name in ("ml.ml_estimate", "joint.joint_ml_estimate"):
        put(name, "failures")
    sampler = _get(summary, "sim.sample_sketch")
    out["sim.sample_sketch.small_n.self_s"] = sum(s for t, s in sampler["tags"] if t == "small")
    out["sim.sample_sketch.large_n.self_s"] = sum(s for t, s in sampler["tags"] if t == "large")
    substreams = len({t for t, _ in _get(summary, "sim.generator")["tags"]})
    out["sim.sample_sketch.calls_per_trial"] = sampler["calls"] / substreams if substreams else 0.0
    inserts = _get(summary, "sketch.insert_many")
    hashes = sum(t for t, _ in inserts["tags"])
    out["sketch.insert_many.hashes_per_s"] = hashes / inserts["self_s"] if inserts["self_s"] else 0.0
    return out


CALL_TIMINGS = (
    ("sim.sample_sketch", "call_us_p50", 1e6, False),
    ("ml.ml_estimate", "call_us_p50", 1e6, False),
    ("ml.ml_estimate", "call_us_tail", 1e6, True),
    ("joint.joint_ml_estimate", "call_ms_p50", 1e3, False),
    ("joint.joint_ml_estimate", "call_ms_tail", 1e3, True),
)


def layer_metrics(round_summaries: list[dict], tail_summaries: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics: the median over traced rounds of each per-round value,
    and call-time percentiles over the spans of ``tail_summaries``.

    Returns (metrics, tail_info) where tail_info gives, per tail metric, the
    percentile reported and the number of samples behind it.
    """
    per_round = [round_layer_metrics(s) for s in round_summaries]
    metrics = {}
    for key in per_round[0]:
        value = statistics.median(r[key] for r in per_round)
        # counts stay whole numbers whenever the rounds agree, as they should
        metrics[key] = int(value) if metric_unit(key) == "count" and value == int(value) else value
    tail_info = {}
    for name, field, scale, tail in CALL_TIMINGS:
        durations = [d for s in tail_summaries for d in _get(s, name)["durations"]]
        pct = tail_percentile(len(durations)) if tail else 50.0
        metrics[f"{name}.{field}"] = percentile(durations, pct) * scale
        if tail:
            tail_info[f"{name}.{field}"] = {"percentile": pct, "samples": len(durations)}
    return metrics, tail_info


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[-1]
    if last in ("calls", "failures"):
        return "count"
    if last == "calls_per_trial":
        return "calls/trial"
    if last == "hashes_per_s":
        return "hashes/s"
    if last.startswith("call_us"):
        return "us"
    if last.startswith("call_ms"):
        return "ms"
    return "s"
