"""Single-sketch maximum likelihood: likelihood shape, bracket, secant solver.

A Newton iteration on the same root function, written here from the
derivative of u/(e^u - 1), cross-checks the secant solver.
"""

import math
import warnings

import numpy as np
import pytest
from conftest import log_likelihood, random_histogram
from hypothesis import given, settings
from hypothesis import strategies as st

import hllkit.ml
from hllkit.errors import (
    DegenerateHistogramError,
    DomainError,
    NoConvergenceError,
    RangeError,
)
from hllkit.ml import (
    ML_MAX_ITERATIONS,
    _QUIET,
    Bracket,
    _root_function,
    _secant_solve,
    _u_over_expm1,
    _weights,
    ml_bracket,
    ml_estimate,
    ml_root_function,
    stop_delta,
)
from hllkit.sketch import SketchConfig

CFG = SketchConfig(12, 20)


def fresh(config):
    c = np.zeros(config.q + 2, dtype=np.int64)
    c[0] = config.m
    return c


def saturated(config):
    c = np.zeros(config.q + 2, dtype=np.int64)
    c[-1] = config.m
    return c


def _u_over_expm1_reference(u):
    """u / (e^u - 1) as one ``np.where`` over both branches, after the cap."""
    u = np.minimum(np.asarray(u, dtype=float), 800.0)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(u < 1e-4, 1.0 - u / 2.0 + u * u / 12.0, u / np.expm1(u))


# 0, subnormals, both sides of the series switch at 1e-4 (one ulp apart), the
# overflow range of e^u around the cap at 800, inf, and anything in between
U_VALUES = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, np.nextafter(1e-4, 0.0),
                     1e-4, np.nextafter(1e-4, 1.0), 709.78, 800.0, math.inf]),
    st.floats(0.0, 2.3e-308),
    st.floats(0.0, 1e-3),
    st.floats(700.0, 1000.0),
    st.floats(0.0, math.inf),
)


def _u_over_expm1_deriv(u):
    """d/du of u/(e^u - 1), stable at both ends of the range."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    small = u < 1e-4
    us = u[small]
    out[small] = -0.5 + us / 6.0
    mid = ~small & (u <= 50.0)
    um = u[mid]
    em = np.expm1(um)
    out[mid] = (em - um * (em + 1.0)) / (em * em)
    big = u > 50.0
    out[big] = (1.0 - u[big]) * np.exp(-u[big])
    return out


def _root_derivative(lam, h, config):
    c, scale, w = _weights(h, config)
    return float(c @ (scale * _u_over_expm1_deriv(lam * scale)) - w / config.m)


def newton_estimate(h, config):
    """Newton from the lower bound of the bracket, under the secant's stop rule."""
    delta = stop_delta(config.m)
    x = ml_bracket(h, config).lower
    for _ in range(ML_MAX_ITERATIONS):
        fx = ml_root_function(x, h, config)
        if fx == 0.0:
            return x
        d = _root_derivative(x, h, config)
        if d >= 0:
            return x
        x_new = x - fx / d
        if x_new <= x:
            return x
        if x_new - x < delta * x_new:
            return x_new
        x = x_new
    raise NoConvergenceError(
        f"newton did not meet the stop rule in {ML_MAX_ITERATIONS} iterations"
    )


def random_hists(n, config, seed=0, lo=1.0, hi=None):
    rng = np.random.default_rng(seed)
    hi = hi or config.m * 2.0**config.q
    out = []
    while len(out) < n:
        lam = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        h = random_histogram(rng, config, lam)
        if h[0] != config.m and h[-1] != config.m:
            out.append(h)
    return out


class TestStopRule:
    def test_delta(self):
        assert stop_delta(4096) == pytest.approx(1e-2 / 64.0, rel=1e-15)


class TestLogLikelihood:
    def test_fresh_sketch_is_minus_lambda(self):
        h = fresh(CFG)
        for lam in (0.5, 1.0, 123.456, 1e6):
            assert log_likelihood(lam, h, CFG) == pytest.approx(-lam, rel=1e-14)

    def test_concave_in_log_rate(self):
        for h in random_hists(10, CFG, seed=4):
            ts = np.linspace(math.log(10.0), math.log(1e8), 40)
            vals = np.array([log_likelihood(math.exp(t), h, CFG) for t in ts])
            second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
            assert np.all(second <= 1e-8 * (np.abs(vals[1:-1]) + 1.0))

    def test_gradient_matches_root_function(self):
        # dL/dlambda equals f(lambda)/lambda; compare against central differences
        cfg = SketchConfig(8, 16)
        for h in random_hists(8, cfg, seed=9, lo=10.0, hi=1e6):
            br = ml_bracket(h, cfg)
            for lam in (0.3 * br.lower, 3.0 * br.upper):
                step = lam * 3e-6
                fd = (
                    log_likelihood(lam + step, h, cfg)
                    - log_likelihood(lam - step, h, cfg)
                ) / (2.0 * step)
                grad = ml_root_function(lam, h, cfg) / lam
                assert fd == pytest.approx(grad, rel=1e-6, abs=1e-12)


class TestRootFunction:
    def test_value_at_zero(self):
        counts = np.zeros(CFG.q + 2, dtype=np.int64)
        counts[0] = CFG.m - 17
        counts[3] = 17
        assert ml_root_function(0.0, counts, CFG) == CFG.m - (CFG.m - 17)

    def test_rejects_negative_rate(self):
        with pytest.raises(DomainError):
            ml_root_function(-0.5, fresh(CFG), CFG)

    def test_rejects_nan_rate(self):
        with pytest.raises(DomainError):
            ml_root_function(math.nan, fresh(CFG), CFG)

    def test_rejects_int_rate_past_float_range(self):
        h = random_hists(1, CFG, seed=5)[0]
        with pytest.raises(DomainError):
            ml_root_function(10**400, h, CFG)

    def test_monotone_decreasing_and_convex(self):
        for h in random_hists(10, CFG, seed=11):
            lams = np.geomspace(1e-3, 1e9, 60)
            vals = np.array([ml_root_function(float(l), h, CFG) for l in lams])
            assert np.all(np.diff(vals) <= 1e-12)

    def test_infinite_rate_is_minus_infinity_without_warning(self):
        h = random_hists(1, CFG, seed=5)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ml_root_function(math.inf, h, CFG) == -math.inf

    @given(st.lists(U_VALUES, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_u_over_expm1_matches_the_two_branch_formula(self, values):
        # non-increasing, as a rate times the rate scales is
        u = np.sort(values)[::-1]
        with np.errstate(**_QUIET):
            assert _u_over_expm1(u).tobytes() == _u_over_expm1_reference(u).tobytes()

    @pytest.mark.parametrize("value", [0.0, 5e-324, 1e-4, 0.5, 709.0, 800.0, math.inf])
    def test_u_over_expm1_zero_dimensional(self, value):
        with np.errstate(**_QUIET):
            got = np.asarray(_u_over_expm1(np.float64(value)))
        want = _u_over_expm1_reference(np.asarray(value))
        assert got.shape == () and got.tobytes() == want.tobytes()

    def test_no_cancellation_blowup_near_zero(self):
        # tiny rates: f must approach m - C0 smoothly
        h = random_hists(1, CFG, seed=2)[0]
        target = CFG.m - h[0]
        for lam in (1e-12, 1e-9, 1e-6):
            assert ml_root_function(lam, h, CFG) == pytest.approx(target, rel=1e-6)


class TestBracket:
    def test_inverted_bracket_rejected(self):
        with pytest.raises(RangeError):
            Bracket(2.0, 1.0)

    def test_single_register_at_one(self):
        counts = np.zeros(CFG.q + 2, dtype=np.int64)
        counts[0] = CFG.m - 1
        counts[1] = 1
        br = ml_bracket(counts, CFG)
        assert br.lower == pytest.approx(4096.0 / 4095.75, rel=1e-15)
        assert br.upper == pytest.approx(4096.0 / 4095.5, rel=1e-15)

    def test_midrange_ratio_at_most_three_halves(self):
        counts = np.zeros(CFG.q + 2, dtype=np.int64)
        counts[5] = 2000
        counts[6] = 2096
        br = ml_bracket(counts, CFG)
        assert br.upper / br.lower == pytest.approx(1.5, rel=1e-12)
        rng = np.random.default_rng(3)
        for _ in range(20):
            # both histogram ends empty: the bound ratio is exactly bounded by 3/2
            inner = rng.multinomial(CFG.m, np.full(CFG.q, 1.0 / CFG.q))
            counts = np.zeros(CFG.q + 2, dtype=np.int64)
            counts[1 : CFG.q + 1] = inner
            br = ml_bracket(counts, CFG)
            assert br.upper / br.lower <= 1.5 + 1e-12

    def test_degenerate_zero(self):
        with pytest.raises(DegenerateHistogramError) as exc:
            ml_bracket(fresh(CFG), CFG)
        assert exc.value.kind == "zero"

    def test_degenerate_saturated(self):
        with pytest.raises(DegenerateHistogramError) as exc:
            ml_bracket(saturated(CFG), CFG)
        assert exc.value.kind == "saturated"

    def test_true_root_inside(self):
        for h in random_hists(25, CFG, seed=8):
            br = ml_bracket(h, CFG)
            assert ml_root_function(br.lower, h, CFG) >= -1e-9 * CFG.m
            assert ml_root_function(br.upper, h, CFG) <= 1e-9 * CFG.m


class TestMlEstimate:
    def test_fresh_gives_zero(self):
        assert ml_estimate(fresh(CFG), CFG) == 0.0

    def test_saturated_gives_infinity(self):
        assert ml_estimate(saturated(CFG), CFG) == math.inf

    def test_q_zero_equals_linear_counting(self):
        cfg = SketchConfig(12, 0)
        m = cfg.m
        delta = stop_delta(m)
        rng = np.random.default_rng(31)
        for _ in range(100):
            c0 = int(rng.integers(1, m))
            est = ml_estimate([c0, m - c0], cfg)
            exact = m * math.log(m / c0)
            assert abs(est / exact - 1.0) <= delta

    def test_result_within_bracket(self):
        for h in random_hists(50, CFG, seed=13):
            br = ml_bracket(h, CFG)
            est = ml_estimate(h, CFG)
            assert br.lower * (1 - 1e-12) <= est <= br.upper * (1 + 1e-12)

    def test_iterates_monotone_never_below_start(self):
        for h in random_hists(20, CFG, seed=19):
            br = ml_bracket(h, CFG)
            f, evaluated = _root_function(h, CFG), []

            def recording(lam):
                evaluated.append(lam)
                return f(lam)

            root = _secant_solve(recording, br.lower, float(CFG.m - h[0]), CFG.m)
            # a stalled or exact step returns the last point it evaluated
            iterates = evaluated if root == evaluated[-1] else [*evaluated, root]
            assert iterates[0] == br.lower
            assert all(b > a for a, b in zip(iterates, iterates[1:]))
            assert min(iterates) >= br.lower

    @pytest.mark.parametrize(
        "f", [lambda lam: 100.0 - lam, lambda lam: 100.0], ids=["root-at-start", "flat"]
    )
    def test_root_or_flat_at_start_returns_it(self, f):
        # f(100) = 0 is the root; f(100) = f(0) would make the secant step
        # divide by zero: either way the start point comes back after one call
        evaluated = []

        def recording(lam):
            evaluated.append(lam)
            return f(lam)

        assert _secant_solve(recording, 100.0, 100.0, CFG.m) == 100.0
        assert evaluated == [100.0]

    def test_residual_consistent_with_stop_rule(self):
        delta = stop_delta(CFG.m)
        for h in random_hists(30, CFG, seed=23):
            est = ml_estimate(h, CFG)
            resid = ml_root_function(est, h, CFG)
            slope = _root_derivative(est, h, CFG)
            assert abs(resid) <= abs(slope) * delta * est * 2.0

    def test_secant_and_newton_agree(self):
        delta = stop_delta(CFG.m)
        for h in random_hists(30, CFG, seed=29):
            sec = ml_estimate(h, CFG)
            newt = newton_estimate(h, CFG)
            assert abs(sec - newt) <= 2.0 * delta * max(sec, newt)

    def test_iteration_budget_errors_when_tiny(self, monkeypatch):
        h = random_hists(1, CFG, seed=37)[0]
        monkeypatch.setattr(hllkit.ml, "EPSILON", 1e-12)
        monkeypatch.setattr(hllkit.ml, "ML_MAX_ITERATIONS", 2)
        with pytest.raises(NoConvergenceError):
            ml_estimate(h, CFG)

    def test_monte_carlo_error_profile(self):
        from hllkit.sim import sample_sketch

        rng = np.random.default_rng(41)
        rel = np.empty(1000)
        for i in range(rel.size):
            sk = sample_sketch(10_000, CFG, rng)
            rel[i] = ml_estimate(sk.histogram(), CFG) / 10_000 - 1.0
        assert abs(rel.mean()) <= 0.005
        assert rel.std(ddof=1) <= 0.022

    def test_tracks_improved_estimate_midrange(self):
        from hllkit.improved import improved_estimate
        from hllkit.sim import sample_sketch

        rng = np.random.default_rng(43)
        for n in (1_000, 100_000, 1_000_000):
            gaps = []
            for _ in range(100):
                h = sample_sketch(n, CFG, rng).histogram()
                imp = improved_estimate(h, CFG)
                gaps.append(abs(ml_estimate(h, CFG) - imp) / imp)
            assert np.median(gaps) <= 0.05
