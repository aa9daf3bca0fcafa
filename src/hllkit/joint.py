"""Two-sketch estimation of set overlap from paired registers.

Registers of two mergeable sketches are counted position by position into
a (q+2)x(q+2) table of value pairs, a sufficient statistic for the three
rates (a, b, x) = (|S1 \\ S2|, |S2 \\ S1|, |S1 ∩ S2|) under the
independent-rate register model, because a register pair shares its
intersection component: position i holds K1 = max(Ka, Kx) and
K2 = max(Kb, Kx) with latent values driven by the three rates.  Both
estimators read the table alone, through one reader, ``_pair_counts``.

Estimators provided:

* inclusion-exclusion over three single-sketch estimates (fast baseline,
  can go negative for small intersections), and
* joint maximum likelihood, maximizing the exact joint log-likelihood over
  log-rates by damped Newton ascent with the analytic 3x3 Hessian.

A strict-order register pair contributes ln(1 - exp(-u)), where u is the
sum of the rates its value depends on (a+x, b+x, a or b) scaled by
s = 1/(m 2^min(k,q)): u is linear in the rates through one 4x3 incidence
matrix G, so the four strict-order groups' gradient and Hessian are G applied
to two sums per group.  The equal-value cell probability factorizes as
z(S) * D with D = (1 - X) + X(1-A)(1-B) where A, B, X are the per-rate
register CDF factors; that grouping is a sum of non-negative terms and is
used throughout to avoid cancellation.  Each second derivative of D is -s
times a first one, or s^2 ABX, so the equal pairs need only D_a/D, D_b/D,
D_x/D and s ABX/D.

The fit stops once the Newton decrement g·d is at most EPSILON**2 (EPSILON
from ``ml.py``), i.e. once the next step would be shorter than EPSILON
standard errors.  A Newton step with g·d at most 10 EPSILON that moves no
log-rate by more than 10 EPSILON is the last one: the fit returns its end
point without evaluating it.  The fit raises ``NoConvergenceError`` after
JOINT_MAX_ITERATIONS (500) steps.  A rate whose maximum lies at zero stops mattering on its own:
its log-rate gradient shrinks with the rate, so no freezing is needed.

Every joint estimate comes from one entry, ``_fit_pairs``: it reads each
sketch pair into its table and inclusion-exclusion estimate, then fits all
of them in lock step on the stacked tables.  Each pair's fit is a generator
that yields the rates it needs evaluated, and one ``_JointTerms.evaluate``
per round serves every pair still asking, so numpy's per-call cost is
shared.  Every sum in the terms runs along one pair's own row, and G puts
at most two of them into any entry of the gradient or Hessian, so a pair's
fit is bit for bit the one it gets alone, whatever else shares its batch,
and a fit that raises fails that pair only.  ``joint_ml_estimate`` is a
batch of one; ``sim.run_joint_experiment`` passes a batch of draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateHistogramError,
    DomainError,
    HllError,
    NoConvergenceError,
    instance,
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


def _pair_counts(tables):
    """What the estimators read of a pair table, or of each table of a stack
    along the last two axes, by value 0..q+1: five order-count rows (below
    the partner in sketch 1, in sketch 2, above it in sketch 1, in sketch 2,
    and equal), and the histograms of sketch 1, sketch 2, their union (the
    pair maximum) and their pair minimum."""
    # running sums along a row up to its diagonal count the pairs where
    # sketch 1 is at least its partner; down a column, where sketch 2 is
    rows, cols = tables.cumsum(axis=-1), tables.cumsum(axis=-2)
    equal, row_upto, col_upto = (t.diagonal(0, -2, -1) for t in (tables, rows, cols))
    h1, h2 = rows[..., -1], cols[..., -1, :]
    union = row_upto + col_upto - equal
    h_min = h1 + h2 - union
    counts = (h1 - row_upto, h2 - col_upto, row_upto - equal, col_upto - equal, equal)
    return counts, (h1, h2, union, h_min)


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
    table = joint_statistic(s1, s2)
    return _inclusion_exclusion(_pair_counts(table)[1], s1.config)


# G: the strict-order groups' rate sums a+x, b+x, a and b, over rates a, b, x
_G = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
# D_aa = D_ax = -s D_a, D_bb = D_bx = -s D_b, D_xx = -s D_x and D_ab = s^2 ABX,
# so D_ij/D is -s times row _PICK[i][j] of D_a/D, D_b/D, D_x/D and -s ABX/D
_PICK = np.array([[0, 3, 0], [3, 1, 1], [0, 1, 2]])


class _JointTerms:
    """Count-weighted likelihood terms of a stack of pair tables, on one
    layout fixed by q.

    Each pair has five rows of counts c at values 1..q+1: its four
    strict-order groups and its equal pairs; value 0 enters through the
    linear weights ``w`` alone, the (1/m) sum_{k<=q} h_k 2^-k over the
    histograms h of sketch 1, sketch 2 and the pair minimum.  In rates, the
    strict groups' gradient is t G and their Hessian -G' diag(v) G, from the
    per-group sums t = sum c s h and v = sum c s^2 h(1 + h),
    h = 1/(e^u - 1); the equal pairs' are sums of c times the derivatives of
    ln D.  A zero count contributes exactly 0 unless a scaled rate sum
    underflows to 0.  Every sum runs along one pair's own contiguous last
    axis, and each weight is one ``weighted_sum``, so a pair's results do
    not depend on the other pairs stacked with it.
    """

    __slots__ = ("s", "counts", "cs", "css", "w")

    def __init__(self, tables, config: SketchConfig):
        """``tables`` (n x (q+2) x (q+2)) holds one pair table per pair."""
        self.s = s = level_weights(config.q)[1:] / config.m  # 1/(m 2^min(k,q)), k >= 1
        rows, (h1, h2, _, h_min) = _pair_counts(tables)
        self.w = np.array([[weighted_sum(h, 0, config.q + 1) for h in hists]
                           for hists in zip(h1, h2, h_min)]) / config.m
        counts = np.stack(rows, axis=1)[:, :, 1:].astype(float)
        self.cs = counts * s
        self.css = self.cs[:, :4] * s
        counts[:, :4] *= -1.0  # f weighs ln(1 + h) = -ln(1 - e^-u) by minus the strict counts
        self.counts = counts

    def take(self, rows) -> "_JointTerms":
        """The terms of the pairs at ``rows``, in that order."""
        sub = object.__new__(_JointTerms)
        sub.s, sub.w, sub.counts = self.s, self.w[rows], self.counts[rows]
        sub.cs, sub.css = self.cs[rows], self.css[rows]
        return sub

    def evaluate(self, lam: np.ndarray):
        """Log-likelihood of each pair at its row of rates ``lam`` (n x 3),
        and its gradient and Hessian in log-rates, as Python lists.

        Call under ``np.errstate(all="ignore")``: a rate underflowing to a
        zero u gives -inf, not a warning.
        """
        n, s = len(lam), self.s
        neg = (lam @ _G.T)[:, :, None] * -s  # -u of each strict group
        e, p = np.exp(neg), -np.expm1(neg)  # e^-u, 1 - e^-u; rows 2, 3 hold A, B and 1 - A, 1 - B
        neg_x = lam[:, 2:] * -s
        ex, px = np.exp(neg_x), -np.expm1(neg_x)  # X, 1 - X
        ea, eb, pa, pb = e[:, 2], e[:, 3], p[:, 2], p[:, 3]
        h = e / p
        d = ex * pa * pb + px  # D = (1 - X) + X(1-A)(1-B)
        # strict pairs add ln(1 - e^-u) = -ln(1 + h), equal pairs ln D
        logs = np.concatenate([np.log1p(h), np.log(d)[:, None]], axis=1).reshape(n, -1)
        f = np.vecdot(self.counts.reshape(n, -1), logs) - np.vecdot(self.w, lam)
        # rows D_a/D, D_b/D, D_x/D and -s ABX/D
        eq = np.array([ea * pb, eb * pa, ea + eb * pa, -ea * eb]).transpose(1, 0, 2)
        eq *= (ex * s / d)[:, None]
        equal, eq_d = self.counts[:, 4:], eq[:, :3]
        grad = np.vecdot(self.cs[:, :4], h) @ _G + np.vecdot(equal, eq_d) - self.w
        v = np.vecdot(self.css, h / p)  # h(1 + h) = h / (1 - e^-u)
        # the equal pairs add sum c D_ij/D = -q[_PICK] and -sum c (D_i/D)(D_j/D)
        q = np.vecdot(self.cs[:, 4:], eq)
        outer = np.vecdot(equal[:, None], eq_d[:, :, None] * eq_d[:, None])
        hess = -((_G.T * v[:, None]) @ _G + q[:, _PICK] + outer)
        # chain rule to phi = ln(lam): g_phi = lam g, H_phi = lam lam' H + diag(g_phi)
        g = lam * grad
        hess *= lam[:, :, None] * lam[:, None, :]
        hess.reshape(n, 9)[:, ::4] += g
        return f.tolist(), g.tolist(), hess.tolist()


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


def _maximize(lam0):
    """Damped Newton ascent of one pair's log-likelihood over log-rates, as a
    generator: it yields each rate vector it needs evaluated, is sent back
    ``_JointTerms.evaluate``'s (f, g, hess) there, and returns the fitted rates.

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
    f, g, hess = yield lam
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
            f_trial, g_trial, h_trial = yield lam_trial
            if f_trial >= f + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            raise NoConvergenceError("line search found no ascent off the optimum")
        phi, lam, f, g, hess = trial, lam_trial, f_trial, g_trial, h_trial
    raise NoConvergenceError(f"no convergence in {JOINT_MAX_ITERATIONS} iterations")


def _lock_step(terms: _JointTerms, starts) -> list:
    """The ``_maximize`` fit of each pair of ``terms`` from its row of
    ``starts``, all advanced together: each round makes one ``evaluate``
    over the pairs still asking.  Gives per pair its rates, or the
    ``HllError`` its fit raised."""
    fits = [_maximize(lam0) for lam0 in starts]
    asks = [next(fit) for fit in fits]
    results = [None] * len(fits)
    active = list(range(len(fits)))
    while active:
        f, g, hess = terms.evaluate(np.array(asks))
        still = []
        for k, i in enumerate(active):
            try:
                asks[k] = fits[i].send((f[k], g[k], hess[k]))
                still.append(k)
            except StopIteration as done:
                results[i] = done.value
            except HllError as exc:
                results[i] = exc
        if len(still) < len(active):
            active = [active[k] for k in still]
            if active:
                terms = terms.take(still)
                asks = [asks[k] for k in still]
    return results


def _evaluate(est: JointEstimate, table, config: SketchConfig):
    """``_JointTerms.evaluate`` at ``est`` for one pair table; RangeError
    unless ``est`` is a ``JointEstimate``, DomainError unless its rates are
    positive and finite floats, RangeError unless ``table`` is a (q+2)x(q+2)
    table of non-negative integers that tally the m register pairs of
    ``config``."""
    est = instance(est, JointEstimate, "est")
    lam = np.array([real(rate, "a rate") for rate in (est.a, est.b, est.x)])
    if not (np.isfinite(lam).all() and (lam > 0).all()):
        raise DomainError(
            f"rates ({est.a}, {est.b}, {est.x}) must all be positive and finite"
        )
    config = config_of(config)
    table = tally(table, config, (config.q + 2,) * 2, "pair table")
    terms = _JointTerms(table[None], config)
    with np.errstate(all="ignore"):
        f, g, hess = terms.evaluate(lam[None])
    return f[0], g[0], hess[0]


def joint_log_likelihood(est: JointEstimate, table, config: SketchConfig) -> float:
    """Joint log-likelihood of the three rates given the pair table."""
    return _evaluate(est, table, config)[0]


def joint_gradient(est: JointEstimate, table, config: SketchConfig) -> np.ndarray:
    """Gradient of the joint log-likelihood in log-rate coordinates."""
    return np.array(_evaluate(est, table, config)[1])


def joint_ml_estimate(s1: Sketch, s2: Sketch) -> JointEstimate:
    """Maximum-likelihood overlap estimate from the pair table."""
    [fit] = _fit_pairs([(s1, s2)])
    if isinstance(fit, HllError):
        raise fit
    return fit[1]


def _fit_pairs(pairs) -> list:
    """The inclusion-exclusion and joint-ML estimates of each sketch pair of
    ``pairs``, all of one configuration: per pair ``(ie, ml)``, or the
    ``HllError`` that stopped it.

    Each pair is read into its pair table and inclusion-exclusion estimate
    as it is taken, so a generator of pairs holds one pair at a time; then
    every fit runs in lock step on the stacked tables, from the
    inclusion-exclusion estimate with each rate raised to at least 1.  A pair that is all zero or all
    saturated is not fitted: its inclusion-exclusion estimate, (0, 0, 0) or
    (0, 0, inf), is also the fit's answer, and a pair with a rate left
    unbounded gets its ``DegenerateHistogramError`` without a fit."""
    out, fitted, tables, starts = [], [], [], []
    for s1, s2 in pairs:
        try:
            table = joint_statistic(s1, s2)
            config = s1.config
            ie = _inclusion_exclusion(_pair_counts(table)[1], config)
        except HllError as exc:
            out.append(exc)
            continue
        out.append((ie, ie))
        if 0.0 < ie.union < math.inf:
            fitted.append(len(out) - 1)
            tables.append(table)
            starts.append(np.maximum(np.array([ie.a, ie.b, ie.x]), 1.0))
    if not fitted:
        return out
    with np.errstate(all="ignore"):
        rates = _lock_step(_JointTerms(np.array(tables), config), starts)
    for i, lam in zip(fitted, rates):
        out[i] = lam if isinstance(lam, HllError) else (out[i][0], JointEstimate(*map(float, lam)))
    return out
