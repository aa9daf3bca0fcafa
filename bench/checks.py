"""Correctness checks on hllkit's outputs.

Each check returns a list of problems (empty when the output is right).
The checks test properties the method must have or compare against
:mod:`reference`; none compares against a stored copy of earlier output.
The multiples below are wide enough that correct output fails them with
probability below about 1e-5 per run, yet narrow enough to reject the
faults exercised in ``test_checks.py``.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

import reference as ref

# An unbiased estimator's pooled mean error stays within this many standard
# errors of zero (plus BIAS_FLOOR_SE standard errors of one sketch, which
# covers the deterministic sub-1e-3 bias at n = 1, 2 where the spread is 0).
BIAS_SE_MULTIPLE = 5.0
BIAS_FLOOR_SE = 0.1
# Pooled spread of improved and ml at n >= 10 m, as a share of 1.04/sqrt(m).
SPREAD_RANGE = (0.9, 1.1)
# Single estimates and joint unions lie within this many 1.04/sqrt(m) of the truth.
ESTIMATE_SE_MULTIPLE = 5.0
# The original composite switches from linear counting to the raw estimate at
# raw > 2.5 m, where raw still overestimates by about 3% (the small-range bias
# the corrected estimator removes); between 2 m and 5 m it gets this much more.
ORIGINAL_SWITCHOVER_BAND = (2.0, 5.0)
ORIGINAL_SWITCHOVER_BIAS = 0.04
# Joint-ML union RMSE over the pooled trials, as a multiple of 1.04/sqrt(m).
JOINT_UNION_RMSE_MULTIPLE = 1.5
# Statistical margin on RMSE ratios: 3 standard errors of a log ratio of two
# RMSEs from t trials each, taken as uncorrelated (1/sqrt(t)), which is
# conservative for the paired, positively correlated estimates.
RATIO_MARGIN_SE = 3.0
# Likelihood fit against inclusion-exclusion on the intersection of (10000, 10000, 100).
SMALL_INTERSECTION = (10000, 10000, 100)
SMALL_INTERSECTION_MIN_RATIO = 1.5
# A +-1% move of a rate may raise the log-likelihood by at most this many nats.
# One standard error of a rate costs 0.5 nats; the fit stops on a step size
# in log-rates, so along a flat intersection it can end up to ~0.005 nats short.
LIKELIHOOD_TOLERANCE = 0.02
RMSE_IDENTITY_RTOL = 1e-9

QUANTILE_COLUMNS = ("q01", "q05", "q25", "q75", "q95", "q99")


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _float(row, key):
    return float(row[key])


def check_error_curve_rows(rows, estimators, cards, trials) -> list[str]:
    """Per-round structure of ``hllkit simulate`` output: every row present,
    no failures, ordered quantiles and the rmse identity."""
    problems = []
    want = [(e, n) for e in estimators for n in cards]
    got = [(r["estimator"], int(r["cardinality"])) for r in rows]
    if got != want:
        problems.append(f"rows {len(got)} do not match the {len(want)} (estimator, n) pairs")
    for r in rows:
        tag = f"{r['estimator']} n={r['cardinality']}"
        if int(r["trials"]) != trials:
            problems.append(f"{tag}: trials {r['trials']} != {trials}")
        if int(r["failures"]) != 0:
            problems.append(f"{tag}: {r['failures']} failures")
        qs = [_float(r, c) for c in QUANTILE_COLUMNS]
        if any(b < a for a, b in zip(qs, qs[1:])):
            problems.append(f"{tag}: quantiles out of order {qs}")
        median = _float(r, "median_rel_err")
        if not qs[2] <= median <= qs[3]:
            problems.append(f"{tag}: median {median} outside [q25, q75]")
        kept = int(r["trials"]) - int(r["failures"])
        mean, sd, rmse = (_float(r, c) for c in ("mean_rel_err", "stddev_rel_err", "rmse_rel"))
        gap = ref.rmse_identity_gap(mean, sd, rmse, kept)
        if not gap <= RMSE_IDENTITY_RTOL * max(rmse * rmse, 1e-300):
            problems.append(f"{tag}: rmse identity off by {gap:.3g}")
    return problems


def pool_rows(rounds: list[list[dict]]) -> dict:
    """Pool per-round (mean, sd, kept) of each (estimator, n) into one sample:
    returns {(estimator, n): (mean, unbiased variance, count)}."""
    pooled = {}
    for rows in rounds:
        for r in rows:
            key = (r["estimator"], int(r["cardinality"]))
            kept = int(r["trials"]) - int(r["failures"])
            pooled.setdefault(key, []).append(
                (_float(r, "mean_rel_err"), _float(r, "stddev_rel_err"), kept)
            )
    out = {}
    for key, parts in pooled.items():
        total = sum(k for _, _, k in parts)
        mean = sum(mu * k for mu, _, k in parts) / total
        ss = sum((k - 1) * sd * sd + k * (mu - mean) ** 2 for mu, sd, k in parts)
        out[key] = (mean, ss / (total - 1), total)
    return out


def check_error_curve_pooled(rounds, m: int) -> list[str]:
    """Statistical properties over rounds with distinct seeds."""
    problems = []
    se1 = ref.std_error(m)
    pooled = pool_rows(rounds)
    for name in ("improved", "ml"):
        ss = count = 0.0
        for (est, n), (mean, var, total) in sorted(pooled.items()):
            if est != name:
                continue
            limit = BIAS_SE_MULTIPLE * math.sqrt(var / total) + BIAS_FLOOR_SE * se1
            if abs(mean) > limit:
                problems.append(f"{name} n={n}: mean error {mean:.5f} beyond {limit:.5f}")
            if n >= 10 * m:
                ss += var * (total - 1)
                count += total - 1
        if count:
            ratio = math.sqrt(ss / count) / se1
            if not SPREAD_RANGE[0] <= ratio <= SPREAD_RANGE[1]:
                problems.append(
                    f"{name}: spread at n >= 10m is {ratio:.3f} x 1.04/sqrt(m), "
                    f"outside {SPREAD_RANGE}"
                )
        else:
            problems.append(f"{name}: no rows at n >= 10m")
    raw_rows = [(n, v[0]) for (est, n), v in pooled.items() if est == "raw"]
    small = [(n, mean) for n, mean in raw_rows if n <= m // 10]
    if not small:
        problems.append("raw: no rows at n <= m/10")
    for n, mean in small:
        # while most registers are zero the raw estimate sits near alpha_inf * m
        if mean < 1.0:
            problems.append(f"raw n={n}: mean error {mean:.3f} shows no small-range overestimate")
        if n <= m // 100 and abs((1.0 + mean) * n / (ref.ALPHA_INF * m) - 1.0) > 0.1:
            problems.append(f"raw n={n}: mean estimate {(1 + mean) * n:.1f} not near alpha*m")
    return problems


def check_joint_rows(rows, configs, trials) -> list[str]:
    problems = []
    got = [(int(r["card_a"]), int(r["card_b"]), int(r["card_x"])) for r in rows]
    if got != [tuple(c) for c in configs]:
        problems.append(f"joint rows {got} do not match configurations {configs}")
    for r in rows:
        if int(r["trials"]) != trials:
            problems.append(f"joint {r['card_a']},{r['card_b']},{r['card_x']}: trials {r['trials']}")
        if int(r["failures"]) != 0:
            problems.append(
                f"joint {r['card_a']},{r['card_b']},{r['card_x']}: {r['failures']} failures"
            )
    return problems


def pool_joint_rmse(rounds: list[list[dict]]) -> dict:
    """{(a, b, x): ({column: pooled rmse}, kept trials)} over rounds."""
    cols = [f"rmse_{m}_{p}" for m in ("ie", "ml") for p in "abxu"]
    acc = {}
    for rows in rounds:
        for r in rows:
            key = (int(r["card_a"]), int(r["card_b"]), int(r["card_x"]))
            kept = int(r["trials"]) - int(r["failures"])
            sums, total = acc.get(key, ({c: 0.0 for c in cols}, 0))
            for c in cols:
                sums[c] += kept * _float(r, c) ** 2
            acc[key] = (sums, total + kept)
    return {
        key: ({c: math.sqrt(s / total) for c, s in sums.items()}, total)
        for key, (sums, total) in acc.items()
    }


def check_joint_pooled(rounds, m: int) -> list[str]:
    problems = []
    se1 = ref.std_error(m)
    for key, (rmse, total) in pool_joint_rmse(rounds).items():
        tag = "joint " + ",".join(map(str, key))
        if not rmse["rmse_ml_u"] <= JOINT_UNION_RMSE_MULTIPLE * se1:
            problems.append(f"{tag}: joint-ML union rmse {rmse['rmse_ml_u']:.5f} too large")
        margin = RATIO_MARGIN_SE / math.sqrt(total)
        for part in ("x", "u"):
            ratio = rmse[f"rmse_ie_{part}"] / rmse[f"rmse_ml_{part}"]
            if ratio < 1.0 - margin:
                problems.append(
                    f"{tag}: likelihood fit less accurate on {part} "
                    f"(ratio {ratio:.3f} < {1 - margin:.3f})"
                )
        if key == SMALL_INTERSECTION:
            ratio = rmse["rmse_ie_x"] / rmse["rmse_ml_x"]
            if ratio < SMALL_INTERSECTION_MIN_RATIO:
                problems.append(f"{tag}: intersection ratio {ratio:.3f} < {SMALL_INTERSECTION_MIN_RATIO}")
    return problems


def check_joint_optimum(counts, rates, m: int, q: int) -> list[str]:
    """No +-1% move of a positive rate raises the reference log-likelihood."""
    rates = [float(v) for v in rates]
    base = ref.joint_log_likelihood(counts, *rates, m, q)
    if not math.isfinite(base):
        return [f"log-likelihood at the fit {rates} is {base}"]
    problems = []
    for i, name in enumerate("abx"):
        if rates[i] <= 0:
            continue
        for factor in (0.99, 1.01):
            moved = list(rates)
            moved[i] *= factor
            gain = ref.joint_log_likelihood(counts, *moved, m, q) - base
            if gain > LIKELIHOOD_TOLERANCE:
                problems.append(
                    f"fit {rates}: moving {name} by {factor} raises log-likelihood by {gain:.4g}"
                )
    return problems


def check_estimate(value: float, truth: int, m: int, label: str, original=False) -> list[str]:
    limit = ESTIMATE_SE_MULTIPLE * ref.std_error(m)
    lo, hi = ORIGINAL_SWITCHOVER_BAND
    if original and lo * m <= truth <= hi * m:
        limit += ORIGINAL_SWITCHOVER_BIAS
    err = value / truth - 1.0
    if not abs(err) <= limit:
        return [f"{label}: estimate {value} vs exact {truth} (error {err:+.4f}, limit {limit:.4f})"]
    return []


def check_registers(got, want, label: str) -> list[str]:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return [f"{label}: register shape {got.shape} != {want.shape}"]
    bad = np.nonzero(got != want)[0]
    if bad.size:
        i = int(bad[0])
        return [f"{label}: {bad.size} registers differ, first at {i}: {got[i]} != {want[i]}"]
    return []
