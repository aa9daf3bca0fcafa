"""Tests of the benchmark's own reference code and checks.

Run from the repository root:  python3 -m pytest bench -q

Every check must pass on real hllkit output and reject a deliberately
wrong copy of it.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import hllkit  # noqa: E402
from hllkit import Sketch, SketchConfig  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- real program output, made once ------------------------------------------
@pytest.fixture(scope="module")
def curve_rounds():
    wl = workloads.ErrorCurve(None)
    rounds = []
    for index in range(2):
        _, out, _ = workloads._cli([
            "simulate", "--p", "12", "--q", "20", "--cards", wl.CARDS_SPEC,
            "--trials", "80", "--estimators", "raw,improved,ml", "--seed", str(index),
        ])
        rounds.append(checks.parse_csv(out))
    return rounds


@pytest.fixture(scope="module")
def joint_rounds():
    configs = workloads.JointTable.CONFIGS
    rounds = []
    for index in range(2):
        _, out, _ = workloads._cli([
            "joint-simulate", "--p", "12", "--q", "16",
            "--configs", ";".join(",".join(map(str, c)) for c in configs),
            "--trials", "60", "--seed", str(index),
        ])
        rounds.append(checks.parse_csv(out))
    return rounds


def _copy(rounds):
    return [[dict(r) for r in rows] for rows in rounds]


def _scale_row(row, factor):
    """The row hllkit would print if every estimate were multiplied by ``factor``."""
    def f(v):
        return factor * (1.0 + float(v)) - 1.0
    for col in ("mean_rel_err", "median_rel_err", *checks.QUANTILE_COLUMNS):
        row[col] = repr(f(row[col]))
    sd = factor * float(row["stddev_rel_err"])
    row["stddev_rel_err"] = repr(sd)
    t = int(row["trials"])
    mean = float(row["mean_rel_err"])
    row["rmse_rel"] = repr(math.sqrt(mean * mean + sd * sd * (t - 1) / t))


# -- reference code -------------------------------------------------------------
def test_mixer_is_bijective_on_a_range_and_matches_scalar_twin():
    ids = np.arange(0, 200_000, dtype=np.uint64)
    hashed = ref.mix64(ids, 12345)
    assert np.unique(hashed).size == ids.size
    assert [ref.mix64_int(int(i), 12345) for i in ids[:50]] == hashed[:50].tolist()


@pytest.mark.parametrize("p,q", [(12, 20), (16, 16), (4, 60)])
def test_reference_registers_equal_insert_many(p, q):
    rng = np.random.default_rng(7)
    hashes = rng.integers(0, 2**64, size=5000, dtype=np.uint64)
    # edge values: all-zero value bits (q + 1), top and bottom of the range
    edge = np.array([0, 2**64 - 1, (1 << (64 - p)) - 1, 1 << (64 - p - q)], dtype=np.uint64)
    hashes = np.concatenate([hashes, edge])
    sketch = Sketch(SketchConfig(p, q))
    sketch.insert_many(hashes)
    assert ref.reference_registers(hashes.tolist(), p, q) == sketch.registers.tolist()


def test_reference_likelihood_equals_program_likelihood():
    cfg = SketchConfig(12, 16)
    s1, s2 = hllkit.sample_joint_pair(10000, 5000, 2000, cfg, hllkit.RngSeed(3).generator(0))
    counts = ref.pair_counts(s1.registers, s2.registers, cfg.q)
    stat = hllkit.joint_statistic(s1, s2)
    for rates in ((10000.0, 5000.0, 2000.0), (300.0, 70000.0, 9.0)):
        want = hllkit.joint_log_likelihood(hllkit.JointEstimate(*rates), stat, cfg)
        got = ref.joint_log_likelihood(counts, *rates, cfg.m, cfg.q)
        assert got == pytest.approx(want, rel=1e-12)


def test_rmse_identity():
    x = np.random.default_rng(1).normal(0.3, 2.0, size=37)
    rmse = float(np.sqrt(np.mean(x * x)))
    assert ref.rmse_identity_gap(float(x.mean()), float(x.std(ddof=1)), rmse, x.size) < 1e-12
    assert ref.rmse_identity_gap(float(x.mean()), float(x.std(ddof=0)), rmse, x.size) > 1e-3


# -- error-curve checks -----------------------------------------------------------
def _curve_problems(rounds):
    wl = workloads.ErrorCurve(None)
    problems = checks.check_error_curve_pooled(rounds, wl.m)
    for rows in rounds:
        problems += checks.check_error_curve_rows(rows, wl.ESTIMATORS, wl.cards, 80)
    return problems


def test_error_curve_checks_pass_on_real_output(curve_rounds):
    assert _curve_problems(curve_rounds) == []


def test_error_curve_rejects_estimates_scaled_by_1_05(curve_rounds):
    bad = _copy(curve_rounds)
    for rows in bad:
        for row in rows:
            _scale_row(row, 1.05)
    problems = _curve_problems(bad)
    assert any("improved" in p and "mean error" in p for p in problems)
    assert any(p.startswith("ml") and "mean error" in p for p in problems)


def test_error_curve_rejects_a_row_with_failures(curve_rounds):
    bad = _copy(curve_rounds)
    bad[1][30]["failures"] = "1"
    assert any("1 failures" in p for p in _curve_problems(bad))


def test_error_curve_rejects_a_reordered_quantile_pair(curve_rounds):
    bad = _copy(curve_rounds)
    row = bad[0][40]
    assert row["q05"] != row["q25"]
    row["q05"], row["q25"] = row["q25"], row["q05"]
    assert any("quantiles out of order" in p for p in _curve_problems(bad))


def test_error_curve_rejects_a_broken_rmse(curve_rounds):
    bad = _copy(curve_rounds)
    bad[0][50]["rmse_rel"] = repr(float(bad[0][50]["rmse_rel"]) * 1.001)
    assert any("rmse identity" in p for p in _curve_problems(bad))


# -- joint-table checks -------------------------------------------------------------
def _joint_problems(rounds):
    problems = checks.check_joint_pooled(rounds, 1 << 12)
    for rows in rounds:
        problems += checks.check_joint_rows(rows, workloads.JointTable.CONFIGS, 60)
    return problems


def test_joint_checks_pass_on_real_output(joint_rounds):
    assert _joint_problems(joint_rounds) == []


def test_joint_checks_reject_a_row_with_failures(joint_rounds):
    bad = _copy(joint_rounds)
    bad[0][2]["failures"] = "3"
    assert any("3 failures" in p for p in _joint_problems(bad))


def test_joint_checks_reject_a_fit_no_better_on_the_small_intersection(joint_rounds):
    bad = _copy(joint_rounds)
    for rows in bad:
        rows[1]["rmse_ml_x"] = rows[1]["rmse_ie_x"]
    assert any("intersection ratio" in p for p in _joint_problems(bad))


@pytest.fixture(scope="module")
def fitted_pair():
    cfg = SketchConfig(12, 16)
    s1, s2 = hllkit.sample_joint_pair(10000, 10000, 10000, cfg, hllkit.RngSeed(5).generator(1))
    fit = hllkit.joint_ml_estimate(s1, s2)
    return ref.pair_counts(s1.registers, s2.registers, cfg.q), [fit.a, fit.b, fit.x], cfg


def test_joint_optimum_check_passes_on_the_fit(fitted_pair):
    counts, rates, cfg = fitted_pair
    assert checks.check_joint_optimum(counts, rates, cfg.m, cfg.q) == []


@pytest.mark.parametrize("part", [0, 1, 2])
def test_joint_optimum_check_rejects_a_fit_moved_5_percent(fitted_pair, part):
    counts, rates, cfg = fitted_pair
    moved = list(rates)
    moved[part] *= 1.05
    assert checks.check_joint_optimum(counts, moved, cfg.m, cfg.q)


# -- ingest-query checks -------------------------------------------------------------
def test_register_check_rejects_one_register_off_by_one():
    sketch = Sketch(SketchConfig(12, 20))
    hashes = ref.mix64(np.arange(50_000, dtype=np.uint64), 99)
    sketch.insert_many(hashes)
    want = ref.reference_registers(hashes.tolist(), 12, 20)
    assert checks.check_registers(sketch.registers, want, "s") == []
    want[1234] += 1
    assert checks.check_registers(sketch.registers, want, "s")


def test_estimate_check_rejects_estimates_scaled_by_1_05():
    cfg = SketchConfig(16, 16)
    sketch = Sketch(cfg)
    n = 600_000  # above the band where the original composite has extra slack
    sketch.insert_many(ref.mix64(np.arange(n, dtype=np.uint64), 5))
    for name in ("original", "improved", "ml"):
        value = getattr(hllkit, f"{name}_estimate")(sketch.histogram(), cfg)
        assert checks.check_estimate(value, n, cfg.m, name, original=name == "original") == []
        assert checks.check_estimate(1.05 * value, n, cfg.m, name, original=name == "original")


def test_ingest_round_passes_its_own_checks(tmp_path, monkeypatch):
    # a cut-down round: one stream per configuration and one pair, same code path
    wl = workloads.IngestQuery(tmp_path)
    monkeypatch.setattr(wl, "SINGLE_STREAMS", ((12, 20, 30_000), (16, 16, 70_000)))
    monkeypatch.setattr(wl, "PAIRS", ((16, 16, (30_000, 20_000, 5_000)),))
    monkeypatch.setattr(wl, "REFERENCE_STREAMS", ((12, 20, 30_000),))
    result = wl.run_round(4, 0, first=True)
    assert result.problems == []
    assert result.failed == 0
    again = wl.run_round(4, 0)
    assert again.fingerprint == result.fingerprint


# -- the benchmark's declared metrics -----------------------------------------------
def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer, _ = tracing.layer_metrics([{}], [{}])
    printed = set(layer) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == printed
    for m in spec["per_layer"]:
        assert m["unit"] == tracing.metric_unit(m["name"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
