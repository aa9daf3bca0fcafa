"""Special functions sigma/tau/zeta and the bias-corrected estimator."""

import math

import numpy as np
import pytest

from hllkit.classic import ALPHA_INF, linear_counting_estimate, raw_estimate
from hllkit.errors import DomainError, RangeError
from hllkit.improved import _corrected, improved_estimate, sigma, tau, zeta
from hllkit.sketch import SketchConfig

# frozen from an independent 50-digit evaluation of the defining series
SIGMA_HALF = 0.8907470740377903
TAU_HALF = 0.14992949586408809
ZETA_AMPLITUDE = 9.885e-6


class TestSigma:
    def test_zero(self):
        assert sigma(0.0) == 0.0

    def test_one_diverges_to_sentinel(self):
        assert sigma(1.0) == math.inf

    def test_half(self):
        assert sigma(0.5) == pytest.approx(SIGMA_HALF, rel=1e-12)

    @pytest.mark.parametrize(
        "x", [-0.1, 1.1, 2.0, -5.0, pytest.param(10**400, id="int-past-float-range")]
    )
    def test_domain(self, x):
        with pytest.raises(DomainError):
            sigma(x)

    def test_monotone_increasing(self):
        xs = np.linspace(0.0, 0.999, 200)
        vals = [sigma(float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_tiny_argument_is_linear(self):
        # all series terms underflow; sigma(x) ~ x
        assert sigma(1e-200) == 1e-200


class TestTau:
    def test_trivial_roots(self):
        assert tau(0.0) == 0.0
        assert tau(1.0) == 0.0

    def test_half(self):
        assert tau(0.5) == pytest.approx(TAU_HALF, rel=1e-11)

    def test_half_against_sigma_zeta_identity(self):
        # independent route: tau = alpha_inf*zeta(log2(ln(1/x)))/ln(1/x) - sigma
        w = math.log(2.0)
        indirect = ALPHA_INF * zeta(math.log2(w)) / w - sigma(0.5)
        assert tau(0.5) == pytest.approx(indirect, abs=1e-10)

    @pytest.mark.parametrize("x", [-0.01, 1.01, pytest.param(10**400, id="int-past-float-range")])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            tau(x)

    @pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
    def test_terms_decay_geometrically(self, x):
        # successive series terms must settle near ratio 1/8 (well under 0.2)
        terms = []
        root, scale = x, 1.0
        for _ in range(40):
            root = math.sqrt(root)
            scale *= 0.5
            terms.append((1.0 - root) ** 2 * scale)
        for a, b in zip(terms[3:14], terms[4:15]):
            assert b / a <= 0.2

    def test_positive_inside_interval(self):
        for x in np.linspace(0.01, 0.99, 50):
            assert tau(float(x)) > 0.0

    @pytest.mark.parametrize(
        "ulps, want",
        [(1, "0x1.5555555555555p-55"), (2, "0x1.5555555555555p-54"),
         (3, "0x1.0000000000000p-53"), (4, "0x1.5555555555555p-53")],
    )
    def test_just_below_one(self, ulps, want):
        # within 4 ulps of 1 the first term no longer moves the sum 1 - x; the
        # series stops on REL_EPS one term later, at these same bits
        x = 1.0 - ulps * 2.0**-53
        assert tau(x) == float.fromhex(want)


class TestZeta:
    def test_periodic(self):
        for x in (-2.25, -0.5, 0.0, 0.37, 1.9, 12.125):
            assert zeta(x + 1.0) == pytest.approx(zeta(x), abs=1e-14)

    def test_mean_one_amplitude_on_grid(self):
        grid = np.linspace(0.0, 1.0, 1000, endpoint=False)
        assert np.max(np.abs(zeta(grid) - 1.0)) <= ZETA_AMPLITUDE

    def test_at_zero(self):
        assert 1.0 - ZETA_AMPLITUDE <= zeta(0.0) <= 1.0 + ZETA_AMPLITUDE

    def test_array_shape_preserved(self):
        out = zeta(np.zeros((3, 4)))
        assert out.shape == (3, 4)
        assert isinstance(zeta(0.3), float)

    @pytest.mark.parametrize(
        "x",
        [math.inf, -math.inf, math.nan, [0.5, math.inf], np.array([0.0, np.nan]),
         10**400, [0.5, -(10**400)]],
        ids=["inf", "-inf", "nan", "list-with-inf", "array-with-nan",
             "int-past-float-range", "list-with-int-past-float-range"],
    )
    def test_non_finite_argument_rejected(self, x):
        # as for sigma and tau: a typed error, not nan with a warning
        with pytest.raises(DomainError):
            zeta(x)


class TestIdentity:
    def test_sigma_plus_tau_matches_zeta_route(self):
        # the two series and the oscillation are linked exactly; float64
        # evaluation keeps the difference far below 1e-9
        for x in np.linspace(0.001, 0.999, 200):
            x = float(x)
            lhs = sigma(x) + tau(x)
            w = math.log(1.0 / x)
            rhs = ALPHA_INF * zeta(math.log2(w)) / w
            assert abs(lhs - rhs) <= 1e-9


class TestMassConservation:
    """The extended-histogram substitutes must re-sum to the counts they replace."""

    @pytest.mark.parametrize("m,c0", [(4096, 1), (4096, 2048), (4096, 4095), (256, 100)])
    def test_low_side_telescopes_to_c0(self, m, c0):
        y = c0 / m
        total = 0.0
        for k in range(-60, 1):
            yk = y ** (2.0**-k)
            total += m * yk * (1.0 - yk)
        assert abs(total - c0) <= 1e-6 * m

    @pytest.mark.parametrize("m,csat", [(4096, 1), (4096, 2048), (4096, 4095), (256, 7)])
    def test_high_side_telescopes_to_saturated_count(self, m, csat):
        q = 20
        z = 1.0 - csat / m
        total = 0.0
        for k in range(q + 1, q + 61):
            zk = z ** (2.0 ** (q - k))
            total += m * zk * (1.0 - zk)
        assert abs(total - csat) <= 1e-6 * m


def bitmap_hist(m, c0):
    return [c0, m - c0]


class TestImprovedEstimate:
    def test_fresh_sketch_zero(self):
        cfg = SketchConfig(12, 20)
        counts = np.zeros(cfg.q + 2, dtype=np.int64)
        counts[0] = cfg.m
        assert improved_estimate(counts, cfg) == 0.0

    def test_q_zero_equals_scaled_linear_counting(self):
        cfg = SketchConfig(12, 0)
        m = cfg.m
        for c0 in (1, 100, 2048, 4000, 4095):
            est = improved_estimate(bitmap_hist(m, c0), cfg)
            lc = linear_counting_estimate(c0, m)
            # exact form: linear counting divided by the oscillation factor
            assert est == pytest.approx(lc / zeta(math.log2(lc / m)), rel=1e-10)
            assert abs(est / lc - 1.0) <= ZETA_AMPLITUDE * (1 + 1e-4)

    @pytest.mark.parametrize("q", [0, 1, 6])
    def test_fully_saturated_is_infinite_at_every_entry_point(self, q):
        cfg = SketchConfig(4, q)
        entry_points = [
            lambda h: improved_estimate(h, cfg),
            lambda h: _corrected(h, cfg.m, cfg.q),  # the joint fit's path
        ]
        saturated = np.zeros(q + 2, dtype=np.int64)
        saturated[-1] = cfg.m
        one_short = saturated.copy()
        one_short[-1] -= 1
        one_short[-2] += 1
        for estimate in entry_points:
            assert estimate(saturated) == math.inf
            assert estimate(one_short) == improved_estimate(one_short, cfg) < math.inf

    def test_reduces_to_raw_when_ends_empty(self):
        cfg = SketchConfig(4, 6)
        counts = np.array([0, 3, 4, 4, 3, 1, 1, 0], dtype=np.int64)
        assert improved_estimate(counts, cfg) == pytest.approx(
            raw_estimate(counts, cfg), rel=1e-13
        )

    def test_monte_carlo_unbiased_at_1e4(self):
        from hllkit.sim import sample_sketch

        cfg = SketchConfig(12, 20)
        rng = np.random.default_rng(17)
        rel = np.empty(1000)
        for i in range(rel.size):
            sk = sample_sketch(10_000, cfg, rng)
            rel[i] = improved_estimate(sk.histogram(), cfg) / 10_000 - 1.0
        assert abs(rel.mean()) <= 0.005
        assert rel.std(ddof=1) <= 0.022

    def test_fresh_is_zero_and_saturated_is_infinite(self):
        cfg = SketchConfig(4, 2)
        counts = np.zeros(cfg.q + 2, dtype=np.int64)
        counts[0] = cfg.m
        assert improved_estimate(counts, cfg) == 0.0
        assert improved_estimate(counts[::-1], cfg) == math.inf

    def test_histogram_is_checked_against_its_configuration(self):
        cfg = SketchConfig(4, 2)
        with pytest.raises(RangeError):
            improved_estimate([16, 0, 0], cfg)  # 4 bins wanted
        with pytest.raises(RangeError):
            improved_estimate([15, 0, 0, 0], cfg)  # mass 15, m = 16
