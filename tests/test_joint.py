"""Tests for two-sketch overlap estimation.

Gradient checks use central finite differences in log-rate space as the
independent oracle; optimizer quality is checked against likelihood
monotonicity, stationarity, and small Monte-Carlo runs with known overlap.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hllkit.joint
from hllkit.classic import ALPHA_INF
from hllkit.errors import (
    ConfigMismatchError,
    DegenerateHistogramError,
    DomainError,
    HllError,
    NoConvergenceError,
)
from hllkit.sim import sample_joint_pair
from hllkit.improved import improved_estimate
from hllkit.joint import (
    JointEstimate,
    JointStatistic,
    _joint_estimates,
    _JointTerms,
    _overlap,
    equal_register_probability_bounds,
    inclusion_exclusion_estimate,
    joint_gradient,
    joint_log_likelihood,
    joint_ml_estimate,
    joint_statistic,
)
from hllkit.ml import log_likelihood, stop_delta
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


def swapped(stat: JointStatistic) -> JointStatistic:
    return JointStatistic(
        c1_less=stat.c2_less,
        c1_greater=stat.c2_greater,
        c2_less=stat.c1_less,
        c2_greater=stat.c1_greater,
        c_equal=stat.c_equal,
    )


class TestJointStatistic:
    def test_identical_sketches_all_equal(self):
        rng = np.random.default_rng(0)
        s = sketch_of(CFG, random_hashes(rng, 500))
        stat = joint_statistic(s, s)
        assert np.array_equal(stat.c_equal, s.histogram().counts)
        for arr in (stat.c1_less, stat.c1_greater, stat.c2_less, stat.c2_greater):
            assert not arr.any()

    def test_fresh_against_all_ones(self):
        s1 = Sketch(CFG)
        s2 = Sketch.from_registers(CFG, np.ones(CFG.m, dtype=np.uint8))
        stat = joint_statistic(s1, s2)
        assert stat.c1_less[0] == CFG.m
        assert stat.c2_greater[1] == CFG.m
        assert stat.c1_less.sum() == CFG.m and stat.c2_greater.sum() == CFG.m
        assert not stat.c1_greater.any() and not stat.c2_less.any()
        assert not stat.c_equal.any()

    @given(seed=st.integers(0, 2**32 - 1), na=st.integers(0, 3000),
           nb=st.integers(0, 3000), nx=st.integers(0, 3000))
    @settings(max_examples=25, deadline=None)
    def test_totals_consistent(self, seed, na, nb, nx):
        rng = np.random.default_rng(seed)
        s1, s2 = overlapping_pair(rng, CFG, na, nb, nx)
        stat = joint_statistic(s1, s2)
        m = CFG.m
        assert (stat.c1_less + stat.c_equal + stat.c1_greater).sum() == m
        assert (stat.c2_less + stat.c_equal + stat.c2_greater).sum() == m
        # strict inequalities pair up across orientations
        assert stat.c1_less.sum() == stat.c2_greater.sum()
        assert stat.c2_less.sum() == stat.c1_greater.sum()
        total = sum(
            int(a.sum())
            for a in (stat.c1_less, stat.c1_greater, stat.c2_less,
                      stat.c2_greater, stat.c_equal)
        )
        assert total == 2 * m - stat.c_equal.sum()
        # a register cannot be below its partner while at the ceiling,
        # nor above its partner while at zero
        assert stat.c1_less[CFG.q + 1] == 0 and stat.c2_less[CFG.q + 1] == 0
        assert stat.c1_greater[0] == 0 and stat.c2_greater[0] == 0

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
        for bad in (JointEstimate(0.0, 1.0, 1.0), JointEstimate(1.0, -2.0, 1.0),
                    JointEstimate(1.0, 1.0, 0.0)):
            with pytest.raises(DomainError):
                joint_log_likelihood(bad, stat, CFG)
            with pytest.raises(DomainError):
                joint_gradient(bad, stat, CFG)

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
        terms = _JointTerms(stat, CFG)
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
    corrected estimator on both histograms and the merged one, bit for bit."""

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
            try:
                ie, _ = _joint_estimates(s1, s2)
            except HllError:
                continue  # a failed trial scores neither method
            sides = (s1.histogram(), s2.histogram(), s1.merge(s2).histogram())
            want = _overlap(*(improved_estimate(h, cfg) for h in sides))
            assert np.array_equal(as_array(ie), as_array(want), equal_nan=True)

    def test_saturated_union_is_a_typed_error(self):
        # every pair holds one saturated register, neither side is saturated:
        # the union estimate is infinite and no finite optimum exists
        cfg = SketchConfig(2, 1)
        s1 = Sketch.from_registers(cfg, [2, 2, 0, 0])
        s2 = Sketch.from_registers(cfg, [0, 0, 2, 2])
        ie = inclusion_exclusion_estimate(s1, s2)
        assert (ie.a, ie.b, ie.x) == (math.inf, math.inf, -math.inf)
        with pytest.raises(HllError):
            joint_ml_estimate(s1, s2)

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


class TestEqualRegisterBounds:
    def test_identical_sets(self):
        lo, hi = equal_register_probability_bounds(0.0)
        assert lo == 1.0 and hi == 1.0

    def test_disjoint_sets_lower_bound_zero(self):
        lo, hi = equal_register_probability_bounds(1.0)
        assert abs(lo) < 1e-15
        assert hi == pytest.approx(1.0 + 2 * ALPHA_INF * math.log(0.5 + 1 / 16))

    def test_ordering_on_grid(self):
        for d in np.linspace(0.0, 1.0, 101):
            lo, hi = equal_register_probability_bounds(float(d))
            assert lo <= hi <= 1.0

    def test_domain_check(self):
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(DomainError):
                equal_register_probability_bounds(bad)
