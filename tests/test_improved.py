"""Special functions sigma/tau/zeta and the bias-corrected estimator."""

import math

import numpy as np
import pytest

from hllkit.classic import ALPHA_INF, linear_counting_estimate, raw_estimate
from hllkit.errors import DomainError
from hllkit.improved import ImprovedEstimator, improved_estimate, sigma, tau, zeta
from hllkit.sketch import RegisterHistogram, SketchConfig

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

    @pytest.mark.parametrize("x", [-0.1, 1.1, 2.0, -5.0])
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

    @pytest.mark.parametrize("x", [-0.01, 1.01])
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
    return RegisterHistogram([c0, m - c0])


class TestImprovedEstimate:
    def test_fresh_sketch_zero(self):
        cfg = SketchConfig(12, 20)
        counts = np.zeros(cfg.q + 2, dtype=np.int64)
        counts[0] = cfg.m
        assert improved_estimate(RegisterHistogram(counts), cfg) == 0.0

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
            ImprovedEstimator(cfg),
            ImprovedEstimator(cfg, precompute=True),
        ]
        saturated = np.zeros(q + 2, dtype=np.int64)
        saturated[-1] = cfg.m
        one_short = saturated.copy()
        one_short[-1] -= 1
        one_short[-2] += 1
        for estimate in entry_points:
            assert estimate(RegisterHistogram(saturated)) == math.inf
            assert estimate(RegisterHistogram(one_short)) == improved_estimate(
                RegisterHistogram(one_short), cfg
            ) < math.inf

    def test_reduces_to_raw_when_ends_empty(self):
        cfg = SketchConfig(4, 6)
        counts = np.array([0, 3, 4, 4, 3, 1, 1, 0], dtype=np.int64)
        h = RegisterHistogram(counts)
        assert improved_estimate(h, cfg) == pytest.approx(
            raw_estimate(h, cfg), rel=1e-13
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


class TestImprovedEstimatorTables:
    def test_precomputed_matches_direct(self):
        cfg = SketchConfig(4, 6)
        table = ImprovedEstimator(cfg, precompute=True)
        direct = ImprovedEstimator(cfg)
        rng = np.random.default_rng(23)
        for _ in range(200):
            counts = rng.multinomial(cfg.m, np.full(cfg.q + 2, 1 / (cfg.q + 2)))
            h = RegisterHistogram(counts)
            assert table(h) == pytest.approx(direct(h), rel=1e-12)
            assert direct(h) == pytest.approx(improved_estimate(h, cfg), rel=1e-15)

    def test_fresh_gives_zero_with_tables(self):
        cfg = SketchConfig(4, 2)
        table = ImprovedEstimator(cfg, precompute=True)
        counts = np.zeros(cfg.q + 2, dtype=np.int64)
        counts[0] = cfg.m
        assert table(RegisterHistogram(counts)) == 0.0
