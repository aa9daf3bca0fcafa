"""Tests for two-sketch overlap estimation.

Gradient checks use central finite differences in log-rate space as the
independent oracle; optimizer quality is checked against likelihood
monotonicity, stationarity, and small Monte-Carlo runs with known overlap.
"""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import log_likelihood
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hllkit.joint
from hllkit.errors import (
    ConfigMismatchError,
    DegenerateHistogramError,
    DomainError,
    HllError,
    NoConvergenceError,
    RangeError,
)
from hllkit.sim import RngSeed, sample_joint_pair
from hllkit.improved import improved_estimate
from hllkit.joint import (
    JointEstimate,
    _cholesky_solve,
    _joint_estimates,
    _JointTerms,
    _maximize,
    _newton_direction,
    _overlap,
    _pair_counts,
    inclusion_exclusion_estimate,
    joint_gradient,
    joint_log_likelihood,
    joint_ml_estimate,
    joint_statistic,
)
from hllkit.ml import stop_delta
from hllkit.sketch import Sketch, SketchConfig

CFG = SketchConfig(p=8, q=16)


def sketch_of(cfg, hashes):
    s = Sketch(cfg)
    s.insert_many(np.asarray(hashes, dtype=np.uint64))
    return s


def random_hashes(rng, n):
    return rng.integers(0, 2**64, size=n, dtype=np.uint64)


def overlapping_pair(rng, cfg, na, nb, nx):
    ha = random_hashes(rng, na)
    hb = random_hashes(rng, nb)
    hx = random_hashes(rng, nx)
    s1 = sketch_of(cfg, np.concatenate([ha, hx]))
    s2 = sketch_of(cfg, np.concatenate([hb, hx]))
    return s1, s2


def swapped(table: np.ndarray) -> np.ndarray:
    return table.T


class TestJointStatistic:
    def test_identical_sketches_all_equal(self):
        rng = np.random.default_rng(0)
        s = sketch_of(CFG, random_hashes(rng, 500))
        table = joint_statistic(s, s)
        assert np.array_equal(np.diag(table), s.histogram())
        assert np.array_equal(table, np.diag(np.diag(table)))  # nothing off the diagonal

    def test_fresh_against_all_ones(self):
        s1 = Sketch(CFG)
        s2 = Sketch.from_registers(CFG, np.ones(CFG.m, dtype=np.uint8))
        table = joint_statistic(s1, s2)
        assert table[0, 1] == CFG.m and table.sum() == CFG.m
        strict, equal, _ = _pair_counts(table)
        assert strict[0, 0] == CFG.m and strict[3, 1] == CFG.m  # 1 below at 0, 2 above at 1
        assert strict.sum() == 2 * CFG.m and not equal.any()

    @given(seed=st.integers(0, 2**32 - 1), na=st.integers(0, 3000),
           nb=st.integers(0, 3000), nx=st.integers(0, 3000))
    @settings(max_examples=25, deadline=None)
    def test_totals_consistent(self, seed, na, nb, nx):
        rng = np.random.default_rng(seed)
        s1, s2 = overlapping_pair(rng, CFG, na, nb, nx)
        table = joint_statistic(s1, s2)
        m = CFG.m
        assert table.dtype == np.int64 and table.shape == (CFG.q + 2, CFG.q + 2)
        assert table.sum() == m
        strict, equal, (h1, h2, union, h_min) = _pair_counts(table)
        c1_less, c2_less, c1_greater, c2_greater = strict
        assert np.array_equal(c1_less + equal + c1_greater, h1)
        assert np.array_equal(c2_less + equal + c2_greater, h2)
        assert np.array_equal(h1, s1.histogram())
        assert np.array_equal(h2, s2.histogram())
        assert np.array_equal(union, s1.merge(s2).histogram())
        assert h_min.sum() == m
        # strict inequalities pair up across orientations
        assert c1_less.sum() == c2_greater.sum()
        assert c2_less.sum() == c1_greater.sum()
        assert strict.sum() + equal.sum() == 2 * m - equal.sum()
        # a register cannot be below its partner while at the ceiling,
        # nor above its partner while at zero
        assert c1_less[CFG.q + 1] == 0 and c2_less[CFG.q + 1] == 0
        assert c1_greater[0] == 0 and c2_greater[0] == 0

    # (14, q) has m = 16384; (2, 62) is the largest q, whose 64**2 pair
    # indices are the most the uint16 bincount input holds here
    @given(pq=st.integers(2, 15).flatmap(
               lambda p: st.tuples(st.just(p), st.integers(0, 64 - p))),
           share=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    @example(pq=(14, 16), share=0.5, seed=1)
    @example(pq=(14, 0), share=0.5, seed=2)
    @example(pq=(2, 62), share=0.0, seed=3)
    @example(pq=(8, 0), share=1.0, seed=4)
    @settings(max_examples=60, deadline=None)
    def test_counts_match_pair_by_pair(self, pq, share, seed):
        p, q = pq
        cfg = SketchConfig(p, q)
        rng = np.random.default_rng(seed)
        r1 = rng.integers(0, rng.integers(1, q + 3), cfg.m)
        r2 = np.where(rng.random(cfg.m) < share, r1, rng.integers(0, q + 2, cfg.m))
        table = joint_statistic(Sketch.from_registers(cfg, r1),
                                Sketch.from_registers(cfg, r2))
        want_table = np.zeros((q + 2, q + 2), dtype=np.int64)
        want = {name: np.zeros(q + 2, dtype=np.int64) for name in
                ("c1_less", "c2_less", "c1_greater", "c2_greater", "equal", "h_min")}
        for v1, v2 in zip(r1.tolist(), r2.tolist()):
            want_table[v1, v2] += 1
            want["h_min"][min(v1, v2)] += 1
            if v1 < v2:
                want["c1_less"][v1] += 1
                want["c2_greater"][v2] += 1
            elif v1 > v2:
                want["c1_greater"][v1] += 1
                want["c2_less"][v2] += 1
            else:
                want["equal"][v1] += 1
        assert table.dtype == np.int64 and table.tolist() == want_table.tolist()
        strict, equal, hists = _pair_counts(table)
        got = dict(zip(want, [*strict, equal, hists[3]]))
        for name, counts in want.items():
            assert got[name].dtype == np.int64 and got[name].tolist() == counts.tolist(), name

    @pytest.mark.parametrize("pq", [(4, 2), (8, 16), (6, 58)])
    @pytest.mark.parametrize("seed", range(3))
    def test_table_round_trip(self, pq, seed):
        # any table of mass m is the statistic of the register pairs it lists
        cfg = SketchConfig(*pq)
        bins = cfg.q + 2
        rng = np.random.default_rng(seed)
        table = rng.multinomial(cfg.m, rng.dirichlet(np.full(bins * bins, 0.1)))
        table = table.reshape(bins, bins)
        i, j = np.indices(table.shape)
        s1 = Sketch.from_registers(cfg, np.repeat(i.ravel(), table.ravel()))
        s2 = Sketch.from_registers(cfg, np.repeat(j.ravel(), table.ravel()))
        assert np.array_equal(joint_statistic(s1, s2), table)
        assert np.array_equal(joint_statistic(s2, s1), table.T)

    @pytest.mark.parametrize(
        "fn", [joint_statistic, inclusion_exclusion_estimate, _joint_estimates]
    )
    def test_memory_is_ten_bytes_per_register(self, fn):
        # the uint16 pair indices and the intp copy that bincount makes of
        # them; the table and the fit add a few kilobytes whatever m is
        cfg = SketchConfig(20, 16)
        s1, s2 = sample_joint_pair(10**6, 10**6, 10**6, cfg, RngSeed(20).generator(0))
        tracemalloc.start()
        try:
            fn(s1, s2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * cfg.m + 16 * 1024

    def test_config_mismatch(self):
        other = Sketch(SketchConfig(p=9, q=16))
        for fn in (joint_statistic, inclusion_exclusion_estimate, joint_ml_estimate):
            with pytest.raises(ConfigMismatchError):
                fn(Sketch(CFG), other)


class TestInclusionExclusion:
    def test_exact_arithmetic(self):
        est = _overlap(100.0, 100.0, 150.0)
        assert est.a == 50.0 and est.b == 50.0 and est.x == 50.0
        assert est.union == 150.0
        assert min(est.a, est.b, est.x) >= 0
        # the corrected estimator on both sides and on their union
        rng = np.random.default_rng(1)
        s1, s2 = overlapping_pair(rng, CFG, 400, 400, 200)
        sides = (s1, s2, s1.merge(s2))
        want = _overlap(*(improved_estimate(s.histogram(), CFG) for s in sides))
        assert inclusion_exclusion_estimate(s1, s2) == want

    def test_identical_sketches_zero_exclusive(self):
        rng = np.random.default_rng(2)
        s = sketch_of(CFG, random_hashes(rng, 2000))
        est = inclusion_exclusion_estimate(s, s)
        assert est.a == 0.0 and est.b == 0.0
        assert est.x == pytest.approx(improved_estimate(s.histogram(), CFG))

    def test_negative_component_flagged(self):
        est = JointEstimate(a=10.0, b=5.0, x=-1.0)
        assert min(est.a, est.b, est.x) < 0
        assert est.union == 14.0


class TestJointLikelihood:
    def test_positive_rates_required(self):
        rng = np.random.default_rng(4)
        s1, s2 = overlapping_pair(rng, CFG, 100, 100, 100)
        stat = joint_statistic(s1, s2)
        # inf gave a silent nan, and an int past the float range a raw OverflowError
        for bad in (JointEstimate(0.0, 1.0, 1.0), JointEstimate(1.0, -2.0, 1.0),
                    JointEstimate(1.0, 1.0, 0.0), JointEstimate(math.inf, 1.0, 1.0),
                    JointEstimate(1.0, 1.0, math.nan), JointEstimate(1.0, 10**400, 1.0)):
            with pytest.raises(DomainError):
                joint_log_likelihood(bad, stat, CFG)
            with pytest.raises(DomainError):
                joint_gradient(bad, stat, CFG)

    @pytest.mark.parametrize("fn", [joint_log_likelihood, joint_gradient])
    def test_large_int_rate_read_as_float(self, fn):
        # an int rate above 2**64 built an object array, and evaluate raised TypeError
        stat = joint_statistic(*overlapping_pair(np.random.default_rng(4), CFG, 100, 100, 100))
        got = fn(JointEstimate(2**70, 1, 1), stat, CFG)
        want = fn(JointEstimate(float(2**70), 1.0, 1.0), stat, CFG)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "config",
        [SketchConfig(4, 16), SketchConfig(8, 20)],
        ids=["fewer-registers", "more-bins"],
    )
    @pytest.mark.parametrize("fn", [joint_log_likelihood, joint_gradient])
    def test_statistic_of_another_config_rejected(self, config, fn):
        rng = np.random.default_rng(4)
        stat = joint_statistic(*overlapping_pair(rng, CFG, 300, 400, 200))
        with pytest.raises(RangeError):
            fn(JointEstimate(300.0, 400.0, 200.0), stat, config)

    # each order count is indexed by sketch 1's value (the table's rows),
    # sketch 2's value (its columns) or both (its diagonal)
    _ONE_BIN_SHORT = {
        "c1_less": lambda t: t[:-1],
        "c1_greater": lambda t: t[:-1],
        "c2_less": lambda t: t[:, :-1],
        "c2_greater": lambda t: t[:, :-1],
        "c_equal": lambda t: t[:-1, :-1],
    }

    @pytest.mark.parametrize("field", list(_ONE_BIN_SHORT))
    @pytest.mark.parametrize("fn", [joint_log_likelihood, joint_gradient])
    def test_field_one_bin_short_rejected(self, field, fn):
        # a count array one bin short raised numpy's broadcast ValueError
        stat = joint_statistic(*overlapping_pair(np.random.default_rng(4), CFG, 300, 400, 200))
        bad = self._ONE_BIN_SHORT[field](stat)
        with pytest.raises(RangeError, match="shape"):
            fn(JointEstimate(300.0, 400.0, 200.0), bad, CFG)

    @pytest.mark.parametrize("fn", [joint_log_likelihood, joint_gradient])
    def test_flat_table_rejected(self, fn):
        stat = joint_statistic(*overlapping_pair(np.random.default_rng(4), CFG, 300, 400, 200))
        with pytest.raises(RangeError, match="shape"):
            fn(JointEstimate(300.0, 400.0, 200.0), stat.ravel(), CFG)

    @pytest.mark.parametrize("fn", [joint_log_likelihood, joint_gradient])
    def test_negative_count_rejected(self, fn):
        # a count of -1 balanced in the same row, so that sketch 1 keeps its
        # histogram, gave a log-likelihood
        table = joint_statistic(
            *overlapping_pair(np.random.default_rng(4), CFG, 300, 400, 200)).copy()
        table[2, 3] += table[2, 4] + 1
        table[2, 4] = -1
        with pytest.raises(RangeError, match="non-negative"):
            fn(JointEstimate(300.0, 400.0, 200.0), table, CFG)

    @pytest.mark.parametrize("fn", [joint_log_likelihood, joint_gradient])
    def test_fractional_counts_rejected(self, fn):
        # +0.5 and -0.5 that cancel in the table's mass gave a value
        table = joint_statistic(
            *overlapping_pair(np.random.default_rng(4), CFG, 300, 400, 200)).astype(float)
        i, j = np.argwhere(np.triu(table, 1))[0]  # a pair with sketch 1 below sketch 2
        table[i, j] -= 0.5
        table[j, i] += 0.5
        with pytest.raises(RangeError, match="integers"):
            fn(JointEstimate(300.0, 400.0, 200.0), table, CFG)

    @pytest.mark.parametrize("fn", [joint_log_likelihood, joint_gradient])
    def test_counts_whose_int64_sum_wraps_to_m_rejected(self, fn):
        # at (4, 2), counts of 2**63 - 1 wrapped to mass m = 16 in every
        # histogram of the five count arrays, and the log-likelihood was -3.84e19
        cfg = SketchConfig(4, 2)
        table = np.zeros((4, 4), dtype=np.int64)
        table[0, 1] = table[1, 0] = 2**63 - 1
        table[1, 1] = 18
        with pytest.raises(RangeError, match=f"mass {2**64 + 16} != m=16"):
            fn(JointEstimate(30.0, 20.0, 10.0), table, cfg)

    @pytest.mark.parametrize("fn", [joint_log_likelihood, joint_gradient])
    def test_table_like_values_give_the_same_bits(self, fn):
        table = joint_statistic(*overlapping_pair(np.random.default_rng(4), CFG, 300, 400, 200))
        est = JointEstimate(300.0, 400.0, 200.0)
        want = np.asarray(fn(est, table, CFG)).tobytes()
        for like in (table.tolist(), table.astype(float), table.astype(np.uint16)):
            assert np.asarray(fn(est, like, CFG)).tobytes() == want

    @pytest.mark.parametrize("bad", [None, "x", [[1], [2, 3]]], ids=repr)
    @pytest.mark.parametrize("fn", [joint_log_likelihood, joint_gradient])
    def test_non_table_rejected(self, fn, bad):
        with pytest.raises(RangeError):
            fn(JointEstimate(300.0, 400.0, 200.0), bad, CFG)

    def test_role_swap_symmetry(self):
        rng = np.random.default_rng(5)
        s1, s2 = overlapping_pair(rng, CFG, 1500, 700, 900)
        stat = joint_statistic(s1, s2)
        est = JointEstimate(a=1400.0, b=800.0, x=950.0)
        mirrored = JointEstimate(a=est.b, b=est.a, x=est.x)
        ll = joint_log_likelihood(est, stat, CFG)
        ll_sw = joint_log_likelihood(mirrored, swapped(stat), CFG)
        assert ll == pytest.approx(ll_sw, rel=1e-12)
        g = joint_gradient(est, stat, CFG)
        g_sw = joint_gradient(mirrored, swapped(stat), CFG)
        assert g[0] == pytest.approx(g_sw[1], rel=1e-12)
        assert g[1] == pytest.approx(g_sw[0], rel=1e-12)
        assert g[2] == pytest.approx(g_sw[2], rel=1e-12)

    def test_reduces_to_single_sketch_when_partner_fresh(self):
        # with sketch 2 untouched and vanishing partner/shared rates, the
        # remaining rate's profile matches the single-sketch log-likelihood
        rng = np.random.default_rng(6)
        s1 = sketch_of(CFG, random_hashes(rng, 3000))
        s2 = Sketch(CFG)
        stat = joint_statistic(s1, s2)
        hist = s1.histogram()
        tiny = 1e-12
        lams = [500.0, 1500.0, 3000.0, 6000.0]
        joint_vals = [
            joint_log_likelihood(JointEstimate(lam, tiny, tiny), stat, CFG)
            for lam in lams
        ]
        single_vals = [log_likelihood(lam, hist, CFG) for lam in lams]
        # equal up to a lambda-independent constant: compare differences
        base_j, base_s = joint_vals[0], single_vals[0]
        for jv, sv in zip(joint_vals[1:], single_vals[1:]):
            assert (jv - base_j) == pytest.approx(sv - base_s, abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        na, nb, nx = rng.integers(200, 5000, size=3)
        s1, s2 = overlapping_pair(rng, CFG, int(na), int(nb), int(nx))
        stat = joint_statistic(s1, s2)
        for _ in range(4):
            lam = np.exp(rng.uniform(np.log(50.0), np.log(20000.0), size=3))
            est = JointEstimate(*lam)
            g = joint_gradient(est, stat, CFG)
            phi = np.log(lam)
            h = 1e-6
            for i in range(3):
                up, dn = phi.copy(), phi.copy()
                up[i] += h
                dn[i] -= h
                fd = (
                    joint_log_likelihood(JointEstimate(*np.exp(up)), stat, CFG)
                    - joint_log_likelihood(JointEstimate(*np.exp(dn)), stat, CFG)
                ) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-7)

    @pytest.mark.parametrize("seed", range(5))
    def test_hessian_matches_finite_differences(self, seed):
        # central differences of the analytic gradient, in log-rate space
        rng = np.random.default_rng(200 + seed)
        na, nb, nx = rng.integers(200, 5000, size=3)
        s1, s2 = overlapping_pair(rng, CFG, int(na), int(nb), int(nx))
        stat = joint_statistic(s1, s2)
        terms = _JointTerms(*_pair_counts(stat), CFG)
        for _ in range(4):
            lam = np.exp(rng.uniform(np.log(50.0), np.log(20000.0), size=3))
            with np.errstate(all="ignore"):
                _, _, hess = terms.evaluate(lam)
            phi = np.log(lam)
            h = 1e-6
            for j in range(3):
                up, dn = phi.copy(), phi.copy()
                up[j] += h
                dn[j] -= h
                fd = (
                    joint_gradient(JointEstimate(*np.exp(up)), stat, CFG)
                    - joint_gradient(JointEstimate(*np.exp(dn)), stat, CFG)
                ) / (2 * h)
                for i in range(3):
                    assert hess[i][j] == pytest.approx(fd[i], rel=1e-6, abs=1e-6)

    def test_disjoint_mass_disfavored_at_large_shared_rate(self):
        # with identical sketches, raising the exclusive-a rate from an
        # already-large shared rate can only hurt the likelihood
        rng = np.random.default_rng(7)
        s = sketch_of(CFG, random_hashes(rng, 10_000))
        stat = joint_statistic(s, s)
        est = JointEstimate(a=500.0, b=500.0, x=12_000.0)
        g = joint_gradient(est, stat, CFG)
        assert g[0] < 0 and g[1] < 0
        # agree with a one-sided numerical slope
        h = 1e-5
        up = joint_log_likelihood(
            JointEstimate(est.a * math.exp(h), est.b, est.x), stat, CFG
        )
        dn = joint_log_likelihood(
            JointEstimate(est.a * math.exp(-h), est.b, est.x), stat, CFG
        )
        assert up < dn


class TestJointMl:
    def test_both_fresh(self):
        est = joint_ml_estimate(Sketch(CFG), Sketch(CFG))
        assert (est.a, est.b, est.x) == (0.0, 0.0, 0.0)

    def test_both_saturated(self):
        regs = np.full(CFG.m, CFG.q + 1, dtype=np.uint8)
        est = joint_ml_estimate(
            Sketch.from_registers(CFG, regs), Sketch.from_registers(CFG, regs)
        )
        assert (est.a, est.b) == (0.0, 0.0)
        assert math.isinf(est.x)

    def test_one_side_saturated_rejected(self):
        rng = np.random.default_rng(8)
        regs = np.full(CFG.m, CFG.q + 1, dtype=np.uint8)
        sat = Sketch.from_registers(CFG, regs)
        other = sketch_of(CFG, random_hashes(rng, 1000))
        with pytest.raises(DegenerateHistogramError):
            joint_ml_estimate(sat, other)

    def test_optimum_beats_initial_point(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            na, nb, nx = (int(v) for v in rng.integers(100, 8000, size=3))
            s1, s2 = overlapping_pair(rng, CFG, na, nb, nx)
            stat = joint_statistic(s1, s2)
            ie = inclusion_exclusion_estimate(s1, s2)
            init = JointEstimate(
                max(ie.a, 1.0), max(ie.b, 1.0), max(ie.x, 1.0)
            )
            ml = joint_ml_estimate(s1, s2)
            safe = JointEstimate(max(ml.a, 1e-9), max(ml.b, 1e-9), max(ml.x, 1e-9))
            assert joint_log_likelihood(safe, stat, CFG) >= joint_log_likelihood(
                init, stat, CFG
            ) - 1e-9

    def test_gradient_small_at_optimum(self):
        rng = np.random.default_rng(10)
        s1, s2 = overlapping_pair(rng, CFG, 3000, 2500, 2000)
        stat = joint_statistic(s1, s2)
        ml = joint_ml_estimate(s1, s2)
        g = joint_gradient(ml, stat, CFG)
        # scale of a stationarity residual: curvature ~ m times step tolerance
        tol = 5.0 * CFG.m * stop_delta(CFG.m)
        assert np.max(np.abs(g)) < tol

    def test_role_symmetry(self):
        rng = np.random.default_rng(11)
        s1, s2 = overlapping_pair(rng, CFG, 2000, 400, 1000)
        ab = joint_ml_estimate(s1, s2)
        ba = joint_ml_estimate(s2, s1)
        delta = stop_delta(CFG.m)
        assert ab.a == pytest.approx(ba.b, rel=20 * delta, abs=1.0)
        assert ab.b == pytest.approx(ba.a, rel=20 * delta, abs=1.0)
        assert ab.x == pytest.approx(ba.x, rel=20 * delta, abs=1.0)

    def test_all_components_non_negative(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            na, nb, nx = (int(v) for v in rng.integers(0, 4000, size=3))
            s1, s2 = overlapping_pair(rng, CFG, na, nb, max(nx, 1))
            ml = joint_ml_estimate(s1, s2)
            assert ml.a >= 0 and ml.b >= 0 and ml.x >= 0
            assert min(ml.a, ml.b, ml.x) >= 0

    def test_identical_sketches_monte_carlo(self):
        # shared mass should absorb nearly everything
        rng = np.random.default_rng(13)
        n = 10_000
        rel_x = []
        for _ in range(30):
            s = sketch_of(CFG, random_hashes(rng, n))
            ml = joint_ml_estimate(s, s)
            assert ml.a < 0.02 * ml.x
            assert ml.b < 0.02 * ml.x
            rel_x.append(ml.x / n - 1.0)
        assert abs(np.mean(rel_x)) < 0.03

    def test_intersection_tracks_truth(self):
        rng = np.random.default_rng(14)
        n = 5000
        rel = []
        for _ in range(40):
            s1, s2 = overlapping_pair(rng, CFG, n, n, n)
            ml = joint_ml_estimate(s1, s2)
            rel.append(ml.x / n - 1.0)
        # mean over 40 trials: noise ~ 2/sqrt(m * 40) per component
        assert abs(np.mean(rel)) < 4.0 / math.sqrt(CFG.m * 40) + 0.02


SMALL_OVERLAP_CFG = SketchConfig(12, 16)


@pytest.fixture(scope="module")
def small_overlap_fits():
    """Joint-ML fits of 300 redrawn (10000, 10000, 100) pairs, with their statistics."""
    rng = np.random.default_rng(15)
    fits = []
    for _ in range(300):
        s1, s2 = sample_joint_pair(10_000, 10_000, 100, SMALL_OVERLAP_CFG, rng)
        fits.append((joint_ml_estimate(s1, s2), joint_statistic(s1, s2)))
    return fits


class TestNewtonFit:
    def test_small_intersection_leaves_start_point(self, small_overlap_fits):
        # inclusion-exclusion often puts x below 1, so the fit starts at x = 1
        stuck = [ml.x for ml, _ in small_overlap_fits if abs(ml.x - 1.0) < 0.01]
        assert stuck == []

    def test_small_intersection_reaches_maximum(self, small_overlap_fits):
        worst = -math.inf
        for ml, stat in small_overlap_fits:
            base = joint_log_likelihood(ml, stat, SMALL_OVERLAP_CFG)
            for factor in (0.5, 2.0, 10.0, 0.99, 1.01):
                moved = JointEstimate(ml.a, ml.b, ml.x * factor)
                gain = joint_log_likelihood(moved, stat, SMALL_OVERLAP_CFG) - base
                worst = max(worst, gain)
        assert worst <= 0.02

    @pytest.mark.parametrize(
        "cards", [(0, 0, 10_000), (10_000, 0, 0), (0, 10_000, 0), (10_000, 10_000, 0)]
    )
    def test_boundary_rates_fit_in_few_evaluations(self, cards, monkeypatch):
        evaluations = self._count_evaluations(monkeypatch)
        rng = np.random.default_rng(16)
        for _ in range(20):
            s1, s2 = sample_joint_pair(*cards, SMALL_OVERLAP_CFG, rng)
            evaluations.clear()
            ml = joint_ml_estimate(s1, s2)
            assert len(evaluations) < 40
            assert ml.a >= 0 and ml.b >= 0 and ml.x >= 0

    def test_identical_sketches_fit_in_few_evaluations(self, monkeypatch):
        evaluations = self._count_evaluations(monkeypatch)
        rng = np.random.default_rng(17)
        for n in (10, 1_000, 100_000):
            s = sketch_of(CFG, random_hashes(rng, n))
            evaluations.clear()
            joint_ml_estimate(s, s)
            assert len(evaluations) < 40

    def test_iteration_cap_raises(self, monkeypatch):
        rng = np.random.default_rng(18)
        s1, s2 = overlapping_pair(rng, CFG, 3000, 2500, 2000)
        monkeypatch.setattr(hllkit.joint, "EPSILON", 1e-12)
        monkeypatch.setattr(hllkit.joint, "JOINT_MAX_ITERATIONS", 1)
        with pytest.raises(NoConvergenceError):
            joint_ml_estimate(s1, s2)

    def test_direction_when_shifted_curvature_is_indefinite(self):
        # -H has a 2x2 block with eigenvalues -1 and 3, and dropping the
        # positive g entries leaves it indefinite: the diagonal-dominance
        # shift is what gives an ascent direction
        g = [-1.0, 0.5, 1.0]
        hess = [[-1.0, -2.0, 0.0], [-2.0, -1.0, 0.0], [0.0, 0.0, -1.0]]
        neg = [[-v for v in row] for row in hess]
        assert _cholesky_solve(neg, g) is None
        shifted = [[v + max(gi, 0.0) * (i == j) for j, v in enumerate(row)]
                   for i, (row, gi) in enumerate(zip(neg, g))]
        assert _cholesky_solve(shifted, g) is None
        d = _newton_direction(g, hess)
        assert all(map(math.isfinite, d))
        assert sum(gi * di for gi, di in zip(g, d)) > 0

    def test_cholesky_rejects_each_non_positive_pivot(self):
        g = [1.0, 1.0, 1.0]
        for a in ([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                  [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                  [[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [2.0, 0.0, 1.0]],
                  [[math.nan] * 3] * 3):
            assert _cholesky_solve(a, g) is None

    class _Terms:
        """Stands in for ``_JointTerms``: an ascent gradient and ``hess`` at
        every rate, and f below its start value everywhere else."""

        def __init__(self, hess):
            self.hess, self.calls = hess, 0

        def evaluate(self, lam):
            self.calls += 1
            return (0.0 if self.calls == 1 else -1.0), [1.0, 1.0, 1.0], self.hess

    def test_nan_curvature_raises(self):
        terms = self._Terms([[math.nan] * 3] * 3)
        with pytest.raises(NoConvergenceError, match="non-finite curvature"):
            _maximize(terms, np.ones(3))
        assert terms.calls == 1

    def test_line_search_without_ascent_raises(self):
        terms = self._Terms([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
        with pytest.raises(NoConvergenceError, match="line search found no ascent"):
            _maximize(terms, np.ones(3))
        assert terms.calls == 61  # the start and 60 halved steps

    @staticmethod
    def _count_evaluations(monkeypatch):
        calls = []
        evaluate = _JointTerms.evaluate

        def counting(self, lam):
            calls.append(lam)
            return evaluate(self, lam)

        monkeypatch.setattr(_JointTerms, "evaluate", counting)
        return calls


def as_array(est: JointEstimate) -> np.ndarray:
    return np.array([est.a, est.b, est.x])


class TestSharedStatistic:
    """The inclusion-exclusion estimate read off one pair statistic equals the
    corrected estimator on both histograms and the merged one, bit for bit;
    two fully saturated sketches give the fit's (0, 0, inf) instead."""

    @pytest.mark.parametrize(
        "cfg, cards",
        [
            (CFG, (300, 300, 300)),
            (CFG, (1000, 100, 100)),
            (CFG, (0, 0, 0)),  # both untouched
            (CFG, (0, 0, 500)),  # identical pair
            (SketchConfig(4, 1), (100_000, 100_000, 100_000)),  # both saturated
            (SketchConfig(4, 2), (60, 60, 60)),  # some pairs saturated
        ],
    )
    def test_matches_public_estimators(self, cfg, cards):
        for t in range(20):
            s1, s2 = sample_joint_pair(*cards, cfg, np.random.default_rng(t))
            sides = (s1.histogram(), s2.histogram(), s1.merge(s2).histogram())
            sizes = [improved_estimate(h, cfg) for h in sides]
            try:
                ie, _ = _joint_estimates(s1, s2)
            except HllError:
                assert math.isinf(sizes[2])  # only a saturated union fails
                continue  # a failed trial scores neither method
            if math.isinf(sizes[0]) and math.isinf(sizes[1]):
                want = JointEstimate(0.0, 0.0, math.inf)
            else:
                want = _overlap(*sizes)
            assert np.array_equal(as_array(ie), as_array(want), equal_nan=True)

    def test_saturated_union_is_a_typed_error(self):
        # every pair holds one saturated register, neither side is saturated:
        # the union estimate is infinite and no finite optimum exists
        cfg = SketchConfig(2, 1)
        s1 = Sketch.from_registers(cfg, [2, 2, 0, 0])
        s2 = Sketch.from_registers(cfg, [0, 0, 2, 2])
        with pytest.raises(DegenerateHistogramError):
            inclusion_exclusion_estimate(s1, s2)
        with pytest.raises(HllError):
            joint_ml_estimate(s1, s2)

    def test_saturation_rule_matches_the_fit(self):
        # two saturated sketches give (0, 0, inf) from both methods; one
        # saturated side against a finite one is a typed error from both
        cfg = SketchConfig(4, 2)
        sat = Sketch.from_registers(cfg, np.full(cfg.m, 3, dtype=np.uint8))
        low = Sketch.from_registers(cfg, np.full(cfg.m, 1, dtype=np.uint8))
        for fn in (inclusion_exclusion_estimate, joint_ml_estimate):
            est = fn(sat, sat)
            assert (est.a, est.b, est.x) == (0.0, 0.0, math.inf)
            for pair in ((sat, low), (low, sat)):
                with pytest.raises(DegenerateHistogramError, match="saturated"):
                    fn(*pair)

    def test_saturated_union_fails_before_the_fit(self):
        # pairs whose union is fully saturated while neither side is: the
        # start point would be (inf, inf, 1), so no fit is attempted
        cfg = SketchConfig(4, 2)
        saturated = 0
        for t in range(20):
            s1, s2 = sample_joint_pair(60, 60, 60, cfg, np.random.default_rng(t))
            union = s1.merge(s2).registers
            sides = (s1.registers, s2.registers)
            if np.all(union == cfg.q + 1) and not any(
                np.all(r == cfg.q + 1) for r in sides
            ):
                saturated += 1
                with pytest.raises(DegenerateHistogramError):
                    _joint_estimates(s1, s2)
        assert saturated > 0

