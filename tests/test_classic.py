"""Classic chain: raw harmonic mean, linear counting, large-range correction,
and the composite original method with its switchover rules."""

import math

import numpy as np
import pytest

from hllkit.classic import (
    ALPHA_INF,
    large_range_correction,
    linear_counting_estimate,
    original_estimate,
    raw_estimate,
)
from hllkit.errors import (
    OutOfDomainError,
    RangeError,
    UnsupportedConfigError,
    ZeroRegistersExhaustedError,
)
from hllkit.sketch import RegisterHistogram, Sketch, SketchConfig

CFG = SketchConfig(12, 20)


def hist_from_counts(counts):
    return RegisterHistogram(counts)


def fresh_hist(config):
    counts = np.zeros(config.q + 2, dtype=np.int64)
    counts[0] = config.m
    return RegisterHistogram(counts)


def saturated_hist(config):
    counts = np.zeros(config.q + 2, dtype=np.int64)
    counts[-1] = config.m
    return RegisterHistogram(counts)


class TestAlpha:
    def test_value(self):
        assert ALPHA_INF == 1.0 / (2.0 * math.log(2.0))
        assert abs(ALPHA_INF - 0.7213475204444817) < 1e-15


class TestRawEstimate:
    def test_fresh_sketch_floor(self):
        # all registers zero -> denominator m -> alpha_inf * m
        est = raw_estimate(fresh_hist(CFG), CFG)
        assert est == pytest.approx(ALPHA_INF * 4096, rel=1e-14)
        assert est == pytest.approx(2954.6394437405970583, rel=1e-12)

    def test_all_saturated_ceiling(self):
        est = raw_estimate(saturated_hist(CFG), CFG)
        assert est == pytest.approx(ALPHA_INF * 4096 * 2.0**21, rel=1e-12)

    def test_monte_carlo_midrange_accuracy(self):
        # 1000 sketches at n = 1e5; error law ~1.04/sqrt(m) = 1.6%, so 5% ~ 3 sigma
        rng = np.random.default_rng(2024)
        inside = 0
        trials = 1000
        for _ in range(trials):
            sk = Sketch(CFG)
            sk.insert_many(rng.integers(0, 2**64, size=100_000, dtype=np.uint64))
            est = raw_estimate(sk.histogram(), CFG)
            if abs(est / 1e5 - 1.0) <= 0.05:
                inside += 1
        assert inside >= 0.99 * trials

    def test_monotone_in_register_values(self):
        # moving one register from value k to k+1 shrinks the denominator
        rng = np.random.default_rng(5)
        counts = rng.multinomial(CFG.m, np.full(CFG.q + 2, 1.0 / (CFG.q + 2)))
        base = raw_estimate(hist_from_counts(counts), CFG)
        for k in range(CFG.q + 1):
            if counts[k] == 0:
                continue
            bumped = counts.copy()
            bumped[k] -= 1
            bumped[k + 1] += 1
            assert raw_estimate(hist_from_counts(bumped), CFG) > base

    def test_depends_only_on_histogram(self):
        a = Sketch.from_registers(SketchConfig(2, 3), [0, 1, 4, 2])
        b = Sketch.from_registers(SketchConfig(2, 3), [2, 4, 1, 0])
        cfg = SketchConfig(2, 3)
        assert raw_estimate(a.histogram(), cfg) == raw_estimate(b.histogram(), cfg)


class TestLinearCounting:
    def test_all_zero(self):
        assert linear_counting_estimate(4096, 4096) == 0.0

    def test_half_zero(self):
        assert linear_counting_estimate(2048, 4096) == pytest.approx(
            2839.1308515735360, rel=1e-12
        )

    def test_one_zero_register_left(self):
        assert linear_counting_estimate(1, 4096) == pytest.approx(
            34069.570218882432, rel=1e-12
        )

    def test_no_zero_registers(self):
        with pytest.raises(ZeroRegistersExhaustedError):
            linear_counting_estimate(0, 4096)

    def test_c0_beyond_m(self):
        with pytest.raises(RangeError):
            linear_counting_estimate(4097, 4096)

    @pytest.mark.parametrize(
        "c0, m",
        [(1.5, 16), (8.0, 16), (np.float64(8.0), 16), (1, 2.5), (8, np.float64(16.0))],
        ids=["float", "integral-float", "numpy-float", "float-m", "numpy-float-m"],
    )
    def test_non_integer_argument_rejected(self, c0, m):
        with pytest.raises(RangeError):
            linear_counting_estimate(c0, m)

    def test_numpy_integers_accepted(self):
        want = linear_counting_estimate(8, 16)
        assert linear_counting_estimate(np.int64(8), np.uint32(16)) == want

    @pytest.mark.parametrize("c0", [1, 10**400], ids=["one-zero", "all-zero"])
    def test_m_past_float_range_rejected(self, c0):
        with pytest.raises(RangeError):
            linear_counting_estimate(c0, 10**400)


class TestLargeRangeCorrection:
    def test_zero_is_fixed_point(self):
        assert large_range_correction(0.0) == 0.0

    def test_half_space(self):
        assert large_range_correction(2.0**31) == pytest.approx(
            2977044471.8195720715, rel=1e-12
        )

    def test_at_and_beyond_space_undefined(self):
        with pytest.raises(OutOfDomainError):
            large_range_correction(2.0**32)
        with pytest.raises(OutOfDomainError):
            large_range_correction(2.0**32 + 1)

    def test_negative_raw_rejected(self):
        with pytest.raises(OutOfDomainError):
            large_range_correction(-1.0)

    def test_nan_raw_rejected(self):
        with pytest.raises(OutOfDomainError):
            large_range_correction(math.nan)

    def test_expands_the_estimate(self):
        # correction inverts collision shrinkage, so it must exceed its input
        for raw in (1e6, 1e9, 4e9):
            assert large_range_correction(raw) > raw


class TestOriginalEstimate:
    def test_requires_32_relevant_bits(self):
        with pytest.raises(UnsupportedConfigError):
            original_estimate(fresh_hist(SketchConfig(12, 19)), SketchConfig(12, 19))

    def test_fresh_sketch_gives_zero(self):
        # raw ~ 2954.6 <= (5/2)m = 10240 and C0 = m -> linear counting -> 0
        assert original_estimate(fresh_hist(CFG), CFG) == 0.0

    def test_low_range_uses_linear_counting(self):
        counts = np.zeros(CFG.q + 2, dtype=np.int64)
        counts[0] = CFG.m - 100
        counts[1] = 100
        h = hist_from_counts(counts)
        assert raw_estimate(h, CFG) <= 2.5 * CFG.m
        assert original_estimate(h, CFG) == linear_counting_estimate(CFG.m - 100, CFG.m)

    def test_all_saturated_is_out_of_domain(self):
        # raw = alpha_inf * 2^33 > 2^32: the correction has no value to give
        h = saturated_hist(CFG)
        assert raw_estimate(h, CFG) > 2.0**32
        with pytest.raises(OutOfDomainError):
            original_estimate(h, CFG)

    def test_midrange_returns_raw_unchanged(self):
        rng = np.random.default_rng(77)
        sk = Sketch(CFG)
        sk.insert_many(rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64))
        h = sk.histogram()
        raw = raw_estimate(h, CFG)
        assert 2.5 * CFG.m < raw < 2.0**32 / 30.0
        assert original_estimate(h, CFG) == raw

    def test_near_saturation_overestimates(self):
        # beyond the 32-bit operating range the corrected estimate still
        # lands high; check the sign of the median relative error
        from hllkit.sim import sample_sketch

        rng = np.random.default_rng(99)
        n = 5_000_000_000
        rel = []
        for _ in range(50):
            sk = sample_sketch(n, CFG, rng)
            try:
                est = original_estimate(sk.histogram(), CFG)
            except OutOfDomainError:
                est = math.inf
            rel.append(est / n - 1.0)
        assert np.median(rel) > 0


class TestFlatRegion:
    def test_raw_median_error_small_midrange(self):
        # 2^p << n << 2^(p+q): raw estimator's median error within +/- 2/sqrt(m)
        from hllkit.sim import sample_sketch

        rng = np.random.default_rng(123)
        for n in (100_000, 1_000_000):
            rel = []
            for _ in range(400):
                sk = sample_sketch(n, CFG, rng)
                rel.append(raw_estimate(sk.histogram(), CFG) / n - 1.0)
            assert abs(np.median(rel)) <= 2.0 / math.sqrt(CFG.m)
