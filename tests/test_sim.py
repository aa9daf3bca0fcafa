"""Tests for the Monte-Carlo harness.

The direct register-law sampler is validated against two independent
oracles: exhaustive enumeration of all hash-bit outcomes on a tiny
configuration (exact joint distribution of the register vector), and
brute-force hash insertion at moderate size (moment comparison).
Chi-square thresholds use the Wilson-Hilferty approximation so the tests
need no stats dependency.
"""

import itertools
import math

import numpy as np
import pytest

from hllkit.errors import ZeroRegistersExhaustedError
from hllkit.improved import improved_estimate
from hllkit.sim import (
    DEFAULT_QUANTILES,
    ErrorReport,
    RngSeed,
    run_error_experiment,
    run_joint_experiment,
    sample_joint_pair,
    sample_sketch,
)
from hllkit.sketch import Sketch, SketchConfig

CFG = SketchConfig(p=8, q=16)


def chi2_critical(df: int, z: float = 3.0902) -> float:
    """Upper 0.999 chi-square quantile via the Wilson-Hilferty cube."""
    a = 2.0 / (9.0 * df)
    return df * (1.0 - a + z * math.sqrt(a)) ** 3


def chi2_stat(observed, expected):
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return float(((observed - expected) ** 2 / expected).sum())


class TestSampleSketch:
    def test_zero_elements_gives_fresh_sketch(self):
        s = sample_sketch(0, CFG, RngSeed(1).generator(0))
        assert not s.registers.any()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sample_sketch(-1, CFG, RngSeed(1).generator(0))

    def test_single_element_occupies_one_register(self):
        gen = RngSeed(2).generator(0)
        for _ in range(50):
            s = sample_sketch(1, CFG, gen)
            nz = np.nonzero(s.registers)[0]
            assert nz.size == 1
            assert 1 <= s.registers[nz[0]] <= CFG.q + 1

    def test_single_element_value_distribution(self):
        # P(K=k) = 2^-k for 1 <= k <= q, and 2^-q at q+1
        cfg = SketchConfig(p=4, q=6)
        gen = RngSeed(3).generator(0)
        draws = 20_000
        counts = np.zeros(cfg.q + 2, dtype=int)
        for _ in range(draws):
            s = sample_sketch(1, cfg, gen)
            counts[s.registers.max()] += 1
        probs = np.exp2(-np.arange(1.0, cfg.q + 1))
        probs = np.append(probs, 2.0 ** -cfg.q)
        stat = chi2_stat(counts[1:], draws * probs)
        assert stat < chi2_critical(len(probs) - 1)

    def test_tiny_instance_matches_exhaustive_enumeration(self):
        # p=2, q=2: only the top 4 hash bits matter, so all register-vector
        # probabilities for n elements follow from the 16^n equally likely
        # bit patterns
        cfg = SketchConfig(p=2, q=2)
        n = 3
        exact = {}
        weight = 1.0 / 16 ** n
        for pattern in itertools.product(range(16), repeat=n):
            s = Sketch(cfg)
            for cell in pattern:
                s.insert((cell & 0xF) << 60)
            key = bytes(s.registers)
            exact[key] = exact.get(key, 0.0) + weight
        assert abs(sum(exact.values()) - 1.0) < 1e-12

        draws = 100_000
        gen = RngSeed(4).generator(0)
        observed = {}
        for _ in range(draws):
            s = sample_sketch(n, cfg, gen)
            key = bytes(s.registers)
            observed[key] = observed.get(key, 0) + 1
        assert set(observed) <= set(exact)

        # pool register states with small expectation into one bucket
        obs, exp = [], []
        pooled_obs = pooled_exp = 0.0
        for key, prob in exact.items():
            e = prob * draws
            o = observed.get(key, 0)
            if e >= 5.0:
                obs.append(o)
                exp.append(e)
            else:
                pooled_obs += o
                pooled_exp += e
        if pooled_exp > 0:
            obs.append(pooled_obs)
            exp.append(pooled_exp)
        stat = chi2_stat(obs, exp)
        assert stat < chi2_critical(len(obs) - 1)

    def test_matches_brute_force_insertion_moments(self):
        # mean count of untouched registers, sampler vs real hash insertion
        n, draws = 1000, 2000
        seed = RngSeed(5)
        c0_direct = np.empty(draws)
        weight_direct = np.empty(draws)
        pow2 = np.exp2(-np.minimum(np.arange(CFG.q + 2), CFG.q).astype(float))
        for t in range(draws):
            h = sample_sketch(n, CFG, seed.generator(t)).histogram()
            c0_direct[t] = h.c0
            weight_direct[t] = h.counts @ pow2
        rng = np.random.default_rng(6)
        c0_brute = np.empty(draws)
        weight_brute = np.empty(draws)
        for t in range(draws):
            s = Sketch(CFG)
            s.insert_many(rng.integers(0, 2**64, size=n, dtype=np.uint64))
            h = s.histogram()
            c0_brute[t] = h.c0
            weight_brute[t] = h.counts @ pow2
        for a, b in ((c0_direct, c0_brute), (weight_direct, weight_brute)):
            se = math.sqrt(a.var(ddof=1) / draws + b.var(ddof=1) / draws)
            assert abs(a.mean() - b.mean()) <= 3.0 * se


class TestSampleJointPair:
    def test_no_exclusive_mass_gives_identical_pair(self):
        s1, s2 = sample_joint_pair(0, 0, 500, CFG, RngSeed(7).generator(0))
        assert np.array_equal(s1.registers, s2.registers)

    def test_no_shared_mass_reproduces_independent_draws(self):
        s1, s2 = sample_joint_pair(300, 400, 0, CFG, RngSeed(8).generator(0))
        gen = RngSeed(8).generator(0)
        ra = sample_sketch(300, CFG, gen).registers
        rb = sample_sketch(400, CFG, gen).registers
        assert np.array_equal(s1.registers, ra)
        assert np.array_equal(s2.registers, rb)

    def test_marginal_matches_single_sketch_distribution(self):
        draws = 2000
        seed = RngSeed(9)
        c0_pair = np.empty(draws)
        for t in range(draws):
            s1, _ = sample_joint_pair(600, 77, 400, CFG, seed.generator(t))
            c0_pair[t] = s1.histogram().c0
        other = RngSeed(10)
        c0_single = np.empty(draws)
        for t in range(draws):
            c0_single[t] = sample_sketch(1000, CFG, other.generator(t)).histogram().c0
        se = math.sqrt(
            c0_pair.var(ddof=1) / draws + c0_single.var(ddof=1) / draws
        )
        assert abs(c0_pair.mean() - c0_single.mean()) <= 3.0 * se


class TestRunErrorExperiment:
    def test_report_shape_and_invariants(self):
        reports = run_error_experiment(
            [100, 1000], 50, CFG, "improved", RngSeed(11)
        )
        assert [r.cardinality for r in reports] == [100, 1000]
        for r in reports:
            assert r.trials == 50 and r.failures == 0
            assert r.stddev_rel_err >= 0.0
            assert r.rmse_rel**2 >= r.mean_rel_err**2 - 1e-12
            probs = [p for p, _ in r.quantiles]
            vals = [v for _, v in r.quantiles]
            assert probs == list(DEFAULT_QUANTILES)
            assert vals == sorted(vals)

    def test_zero_cardinality_uses_absolute_error(self):
        (r,) = run_error_experiment([0], 10, CFG, "improved", RngSeed(12))
        assert r.mean_rel_err == 0.0 and r.rmse_rel == 0.0

    def test_same_seed_reproduces_bitwise(self):
        a = run_error_experiment([500], 40, CFG, "ml", RngSeed(13, stream_id=2))
        b = run_error_experiment([500], 40, CFG, "ml", RngSeed(13, stream_id=2))
        assert a == b

    def test_different_stream_differs(self):
        a = run_error_experiment([500], 40, CFG, "improved", RngSeed(13, stream_id=0))
        b = run_error_experiment([500], 40, CFG, "improved", RngSeed(13, stream_id=1))
        assert a != b

    def test_thread_count_does_not_change_output(self):
        one = run_error_experiment(
            [200, 2000], 60, CFG, "improved", RngSeed(14), threads=1
        )
        four = run_error_experiment(
            [200, 2000], 60, CFG, "improved", RngSeed(14), threads=4
        )
        assert one == four

    def test_workers_capped_at_trial_count(self, monkeypatch):
        import hllkit.sim as sim

        sizes = []

        class Recording(sim.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(sim, "ThreadPoolExecutor", Recording)
        run_error_experiment([200], 3, CFG, "improved", RngSeed(14), threads=16)
        run_joint_experiment([(100, 100, 100)], 2, CFG, RngSeed(14), threads=16)
        assert sizes == [3, 2]

    def test_failures_counted_not_raised(self):
        # every register is hit at this load, so the zero-register estimator
        # has nothing to work with and every trial fails
        cfg = SketchConfig(p=4, q=20)
        (r,) = run_error_experiment([20_000], 10, cfg, "linear", RngSeed(15))
        assert r.failures == 10
        assert math.isnan(r.mean_rel_err)

    def test_callable_estimator(self):
        calls = []

        def fake(hist, config):
            calls.append(1)
            return 42.0

        (r,) = run_error_experiment([10], 5, CFG, fake, RngSeed(16))
        assert len(calls) == 5
        assert r.mean_rel_err == pytest.approx(42.0 / 10 - 1.0)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            run_error_experiment([10], 5, CFG, "nope", RngSeed(17))

    def test_too_few_trials_rejected(self):
        with pytest.raises(ValueError):
            run_error_experiment([10], 1, CFG, "improved", RngSeed(18))

    def test_paired_sketches_across_estimators(self):
        # same seed => same sampled sketches regardless of estimator
        seen = {}

        def recorder(name):
            def est(hist, config):
                seen.setdefault(name, []).append(hist.counts.tobytes())
                return improved_estimate(hist, config)

            return est

        run_error_experiment([300], 8, CFG, recorder("a"), RngSeed(19))
        run_error_experiment([300], 8, CFG, recorder("b"), RngSeed(19))
        assert seen["a"] == seen["b"]


class TestRunJointExperiment:
    def test_row_shape_and_determinism(self):
        configs = [(1000, 1000, 1000), (500, 500, 50)]
        rows = run_joint_experiment(configs, 20, CFG, RngSeed(20))
        assert [(r.card_a, r.card_b, r.card_x) for r in rows] == configs
        for r in rows:
            assert r.trials == 20 and r.failures == 0
            assert len(r.rmse_ie) == len(r.rmse_ml) == len(r.improvement) == 4
            assert all(v >= 0 for v in r.rmse_ie + r.rmse_ml)
        again = run_joint_experiment(configs, 20, CFG, RngSeed(20))
        assert rows == again

    def test_thread_invariance(self):
        configs = [(2000, 2000, 200)]
        one = run_joint_experiment(configs, 24, CFG, RngSeed(21), threads=1)
        four = run_joint_experiment(configs, 24, CFG, RngSeed(21), threads=4)
        assert one == four

    def test_identical_pair_configuration(self):
        (row,) = run_joint_experiment([(0, 0, 800)], 15, CFG, RngSeed(22))
        # exclusive estimates from inclusion-exclusion cancel exactly
        assert row.rmse_ie[0] == 0.0 and row.rmse_ie[1] == 0.0
        assert row.rmse_ml[2] < 0.5

    def test_too_few_trials_rejected(self):
        with pytest.raises(ValueError):
            run_joint_experiment([(10, 10, 10)], 1, CFG, RngSeed(23))


class TestErrorReportType:
    def test_all_failed_report_is_nan(self):
        r = ErrorReport(
            cardinality=5,
            trials=3,
            mean_rel_err=float("nan"),
            median_rel_err=float("nan"),
            stddev_rel_err=float("nan"),
            rmse_rel=float("nan"),
            quantiles=(),
            failures=3,
        )
        assert r.failures == r.trials

    def test_linear_estimator_happy_path_has_no_failures(self):
        (r,) = run_error_experiment([50], 10, CFG, "linear", RngSeed(24))
        assert r.failures == 0

    def test_exhausted_zero_registers_is_the_failure_mode(self):
        cfg = SketchConfig(p=4, q=20)
        s = sample_sketch(20_000, cfg, RngSeed(25).generator(0))
        with pytest.raises(ZeroRegistersExhaustedError):
            from hllkit.classic import linear_counting_estimate

            linear_counting_estimate(s.histogram().c0, cfg.m)
