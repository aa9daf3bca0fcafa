"""Two-sketch estimation of set overlap from paired registers.

Registers of two mergeable sketches are counted position by position into
a (q+2)x(q+2) table of value pairs, a sufficient statistic for the three
rates (a, b, x) = (|S1 \\ S2|, |S2 \\ S1|, |S1 ∩ S2|) under the
independent-rate register model, because a register pair shares its
intersection component: position i holds K1 = max(Ka, Kx) and
K2 = max(Kb, Kx) with latent values driven by the three rates.  The paper's
five order-count vectors are derived from the table in one place, ``_pair_counts``.

Estimators provided:

* inclusion-exclusion over three single-sketch estimates (fast baseline,
  can go negative for small intersections), and
* joint maximum likelihood, maximizing the exact joint log-likelihood over
  log-rates by damped Newton ascent with the analytic 3x3 Hessian.

A strict-order register pair contributes ln(1 - exp(-u)), where u is the
sum of the rates its value depends on (a+x, b+x, a or b) scaled by
1/(m 2^min(k,q)).  The equal-value cell probability factorizes as z(S) * D
with D = (1 - X) + X(1-A)(1-B) where A, B, X are the per-rate register CDF
factors; that grouping is a sum of non-negative terms and is used
throughout to avoid cancellation.

The fit stops once the Newton decrement g·d is at most EPSILON**2 (EPSILON
from ``ml.py``), i.e. once the next step would be shorter than EPSILON
standard errors.  A Newton step with g·d at most 10 EPSILON that moves no
log-rate by more than 10 EPSILON is the last one: the fit returns its end
point without evaluating it.  The fit raises ``NoConvergenceError`` after
JOINT_MAX_ITERATIONS (500) steps.  A rate whose maximum lies at zero stops mattering on its own:
its log-rate gradient shrinks with the rate, so no freezing is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateHistogramError,
    DomainError,
    NoConvergenceError,
    real,
)
# improved_estimate is not called here, but bench/tracing.py wraps it under
# this module-level name
from .improved import _corrected, improved_estimate  # noqa: F401
from .ml import EPSILON
from .sketch import (
    Sketch,
    SketchConfig,
    config_of,
    level_weights,
    shared_config,
    tally,
    weighted_sum,
)

JOINT_MAX_ITERATIONS = 500
MAX_LOG_STEP = 4.0  # largest step in a log-rate: a factor e**4 in the rate
# Rates each strict-order count group depends on: a+x, b+x, a, b.
_INCIDENCE = np.array([[1, 0, 1], [0, 1, 1], [1, 0, 0], [0, 1, 0]], dtype=float)


@dataclass(frozen=True)
class JointEstimate:
    """Estimated exclusive cardinalities ``a``, ``b`` and intersection ``x``.

    Joint-ML results are always non-negative (the optimizer works on
    log-rates); inclusion-exclusion results may carry negative components,
    reported unclamped.
    """

    a: float
    b: float
    x: float

    @property
    def union(self) -> float:
        return self.a + self.b + self.x


def joint_statistic(s1: Sketch, s2: Sketch) -> np.ndarray:
    """The int64 pair table of two sketches: ``table[i, j]`` counts the
    register positions where sketch 1 holds value i and sketch 2 value j, for
    i, j in 0..q+1.  Every table of non-negative integers that sum to m is the
    statistic of some pair of sketches.  One ``bincount`` over all pairs
    makes it, with a temporary of 10 bytes per register."""
    bins = shared_config(s1, s2, "pair").q + 2
    # pair index i * bins + j is below bins**2 <= 4096, so it is formed in uint16
    pairs = s1.registers * np.uint16(bins)
    pairs += s2.registers
    return np.bincount(pairs, minlength=bins * bins).reshape(bins, bins)


def _pair_counts(table: np.ndarray):
    """By value 0..q+1: the registers below their partner in sketch 1 and in
    sketch 2, then above it in sketch 1 and in sketch 2, as the rows of one
    array; the pairs equal at that value; and the histograms of sketch 1,
    sketch 2, their union (the pair maximum) and their pair minimum."""
    # running sums along a row up to its diagonal count the pairs where
    # sketch 1 is at least its partner; down a column, where sketch 2 is
    rows, cols = table.cumsum(axis=1), table.cumsum(axis=0)
    equal, row_upto, col_upto = table.diagonal(), rows.diagonal(), cols.diagonal()
    h1, h2 = rows[:, -1], cols[-1]
    union = row_upto + col_upto - equal
    strict = np.array([h1 - row_upto, h2 - col_upto, row_upto - equal, col_upto - equal])
    return strict, equal, (h1, h2, union, h1 + h2 - union)


def _overlap(n1: float, n2: float, nu: float) -> JointEstimate:
    """Inclusion-exclusion: (a, b, x) from the sizes of both sides and their union."""
    return JointEstimate(a=nu - n2, b=nu - n1, x=n1 + n2 - nu)


def _inclusion_exclusion(hists, config: SketchConfig) -> JointEstimate:
    """Inclusion-exclusion from the corrected estimator on both sides and their
    union, given the histograms of ``_pair_counts``.  Two fully saturated sketches
    give (0, 0, inf), as the fit does; any other saturated side or union
    leaves a part unbounded and raises ``DegenerateHistogramError``."""
    m, q = config.m, config.q
    if hists[3][q + 1] == m:  # the smaller of every pair is saturated
        return JointEstimate(0.0, 0.0, math.inf)
    est = _overlap(*(_corrected(h, m, q) for h in hists[:3]))
    if not all(map(math.isfinite, (est.a, est.b, est.x))):
        raise DegenerateHistogramError("saturated")
    return est


def inclusion_exclusion_estimate(s1: Sketch, s2: Sketch) -> JointEstimate:
    """Overlap from three bias-corrected single-sketch estimates; components
    may be negative.  (0, 0, inf) for two fully saturated sketches, and
    ``DegenerateHistogramError`` for any other saturated side or union."""
    return _inclusion_exclusion(_pair_counts(joint_statistic(s1, s2))[2], s1.config)


class _JointTerms:
    """Count-weighted likelihood terms, stacked into a few vector expressions.

    Strict-order counts ``c`` sit on rows of the 0/1 matrix ``inc`` that pick
    the rates their value depends on, with scales ``s``; equal-pair counts
    and scales are ``eq_c``/``eq_s``; ``w`` holds the linear weights
    (1/m) sum_{k<=q} counts_k 2^-k of the three rates, over ``_pair_counts``'s ``hists``.
    """

    __slots__ = ("inc", "c", "s", "cs", "cs2", "eq_c", "eq_s", "eq_cs", "w")

    def __init__(self, strict, equal, hists, config: SketchConfig):
        q = config.q
        scale = level_weights(q) / config.m  # 1/(m 2^min(k,q)) for k = 0..q+1
        strict = strict.astype(float)
        strict[:, 0] = 0.0  # value 0 enters through the linear weights only
        group, ks = np.nonzero(strict)
        self.inc = _INCIDENCE[group]
        self.c = strict[group, ks]
        self.s = scale[ks]
        self.cs = self.c * self.s
        self.cs2 = self.cs * self.s
        ks = np.nonzero(equal[1:])[0] + 1
        self.eq_c = equal[ks].astype(float)
        self.eq_s = scale[ks]
        self.eq_cs = self.eq_c * self.eq_s
        h1, h2, _, h_min = hists
        self.w = np.array([weighted_sum(h, 0, q + 1) for h in (h1, h2, h_min)]) / config.m

    def evaluate(self, lam: np.ndarray):
        """Log-likelihood at rates ``lam``, and its gradient and Hessian in
        log-rates as Python lists.

        Call under ``np.errstate(all="ignore")``: a rate underflowing to a
        zero u gives -inf, not a warning.
        """
        # strict terms: ln(1 - e^-u) = -ln(1 + h) with h = 1/(e^u - 1)
        h = 1.0 / np.expm1((self.inc @ lam) * self.s)
        neg = np.multiply.outer(lam, -self.eq_s)  # -a s, -b s, -x s
        e = np.exp(neg)  # A, B, X
        pa, pb, px = -np.expm1(neg)  # 1 - A, 1 - B, 1 - X
        d = px + e[2] * pa * pb
        f = float(self.eq_c @ np.log(d) - self.c @ np.log1p(h) - self.w @ lam)
        ea, eb, ex = e
        # rows: D_a/D, D_b/D, D_x/D, and s A B X / D for the a-b cross term
        r = ex * self.eq_s / d
        eq = np.array([ea * pb, eb * pa, ea + eb * pa, ea * eb]) * r
        grad = (self.cs * h) @ self.inc + eq[:3] @ self.eq_c - self.w
        hess = -(self.inc.T * (self.cs2 * h * (1.0 + h))) @ self.inc
        hess -= (eq[:3] * self.eq_c) @ eq[:3].T
        sa, sb, sx, sab = (eq @ self.eq_cs).tolist()
        hess += np.array([[-sa, sab, -sa], [sab, -sb, -sb], [-sa, -sb, -sx]])
        # chain rule to phi = ln(lam): g_phi = lam g, H_phi = lam lam' H + diag(g_phi)
        lam = lam.tolist()
        g = [li * gi for li, gi in zip(lam, grad.tolist())]
        hess = hess.tolist()
        for i in range(3):
            for j in range(3):
                hess[i][j] *= lam[i] * lam[j]
            hess[i][i] += g[i]
        return f, g, hess


def _newton_direction(g, hess):
    """Solve (-H) d = g by a 3x3 Cholesky in plain floats.

    Where -H is not positive definite, a rate is climbing a likelihood that
    is near linear in that rate, and the diag(g_phi) part of the log-rate
    Hessian is what makes it convex.  The fallback shifts the diagonal to
    drop the positive g_phi entries, which turns the step into the Newton
    step in the rates taken as relative moves; if even that is not positive
    definite, the shift also makes every row diagonally dominant.
    """
    a = [[-v for v in row] for row in hess]
    d = _cholesky_solve(a, g)
    if d is None:
        for i in range(3):
            a[i][i] += max(g[i], 0.0)
        d = _cholesky_solve(a, g)
    if d is None:
        for i, row in enumerate(a):
            off = sum(abs(v) for v in row) - abs(row[i])
            row[i] = max(row[i], off) * (1.0 + 1e-9) + 1e-12
        d = _cholesky_solve(a, g)
    return d


def _cholesky_solve(a, g):
    """Solve a d = g for symmetric 3x3 ``a``; None unless ``a`` is positive definite."""
    (a11, a12, a13), (_, a22, a23), (_, _, a33) = a
    if not a11 > 0.0:
        return None
    l11 = math.sqrt(a11)
    l21, l31 = a12 / l11, a13 / l11
    t = a22 - l21 * l21
    if not t > 0.0:
        return None
    l22 = math.sqrt(t)
    l32 = (a23 - l31 * l21) / l22
    t = a33 - l31 * l31 - l32 * l32
    if not t > 0.0:
        return None
    l33 = math.sqrt(t)
    y1 = g[0] / l11
    y2 = (g[1] - l21 * y1) / l22
    y3 = (g[2] - l31 * y1 - l32 * y2) / l33
    d3 = y3 / l33
    d2 = (y2 - l32 * d3) / l22
    d1 = (y1 - l21 * d2 - l31 * d3) / l11
    return [d1, d2, d3]


def _maximize(terms: _JointTerms, lam0) -> np.ndarray:
    """Damped Newton ascent of the log-likelihood over log-rates.

    Stops once the Newton decrement g·d is at most ``EPSILON**2``.  A step
    with g·d at most 10 EPSILON that moves no log-rate by more than
    10 EPSILON (a rate by about 10.5%) is taken in full and returned
    without evaluating its end point: near the maximum the next decrement
    falls about quadratically, so that evaluation would only confirm the
    stop.  Any other step is capped at MAX_LOG_STEP in log space and
    backtracked until it meets the Armijo condition.
    """
    phi = np.log(lam0)
    lam = lam0
    f, g, hess = terms.evaluate(lam)
    tol, last = EPSILON**2, 10.0 * EPSILON
    for _ in range(JOINT_MAX_ITERATIONS):
        d = _newton_direction(g, hess)
        if d is None:
            raise NoConvergenceError(f"non-finite curvature at rates {lam}")
        slope = g[0] * d[0] + g[1] * d[1] + g[2] * d[2]
        if slope <= tol:
            return lam
        step = np.array(d)
        longest = max(abs(v) for v in d)
        if slope <= last and longest <= last:
            return np.exp(phi + step)
        alpha = min(1.0, MAX_LOG_STEP / longest)
        for _ in range(60):
            trial = phi + alpha * step
            lam_trial = np.exp(trial)
            f_trial, g_trial, h_trial = terms.evaluate(lam_trial)
            if f_trial >= f + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            raise NoConvergenceError("line search found no ascent off the optimum")
        phi, lam, f, g, hess = trial, lam_trial, f_trial, g_trial, h_trial
    raise NoConvergenceError(f"no convergence in {JOINT_MAX_ITERATIONS} iterations")


def _evaluate(est: JointEstimate, table, config: SketchConfig):
    """``_JointTerms.evaluate`` at ``est``; DomainError unless the rates are
    positive and finite floats, RangeError unless ``table`` is a (q+2)x(q+2)
    table of non-negative integers that tally the m register pairs of
    ``config``."""
    lam = np.array([real(rate, "a rate") for rate in (est.a, est.b, est.x)])
    if not (np.isfinite(lam).all() and (lam > 0).all()):
        raise DomainError(
            f"rates ({est.a}, {est.b}, {est.x}) must all be positive and finite"
        )
    config = config_of(config)
    table = tally(table, config, (config.q + 2,) * 2, "pair table")
    with np.errstate(all="ignore"):
        return _JointTerms(*_pair_counts(table), config).evaluate(lam)


def joint_log_likelihood(est: JointEstimate, table, config: SketchConfig) -> float:
    """Joint log-likelihood of the three rates given the pair table."""
    return _evaluate(est, table, config)[0]


def joint_gradient(est: JointEstimate, table, config: SketchConfig) -> np.ndarray:
    """Gradient of the joint log-likelihood in log-rate coordinates."""
    return np.array(_evaluate(est, table, config)[1])


def joint_ml_estimate(s1: Sketch, s2: Sketch) -> JointEstimate:
    """Maximum-likelihood overlap estimate from the pair table."""
    return _joint_estimates(s1, s2)[1]


def _joint_estimates(s1: Sketch, s2: Sketch):
    """Inclusion-exclusion and joint-ML estimates from one pair table;
    the inclusion-exclusion estimate is the fit's start point, and the answer
    of both for a pair that is all zero or all saturated."""
    strict, equal, hists = _pair_counts(joint_statistic(s1, s2))
    config = s1.config
    ie = _inclusion_exclusion(hists, config)  # raises if a rate is unbounded
    if equal[0] == config.m or equal[-1] == config.m:
        return ie, ie  # both untouched (0, 0, 0) or both saturated (0, 0, inf)
    lam0 = np.array([ie.a, ie.b, ie.x])
    with np.errstate(all="ignore"):
        lam = _maximize(_JointTerms(strict, equal, hists, config), np.maximum(lam0, 1.0))
    return ie, JointEstimate(a=float(lam[0]), b=float(lam[1]), x=float(lam[2]))
