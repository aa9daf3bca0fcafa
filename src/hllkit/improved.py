"""Bias-corrected harmonic-mean estimator and its special functions.

The raw harmonic-mean estimator breaks down when registers are mostly zero
or mostly saturated because the register-value distribution is truncated at
both ends.  The corrected estimator extends the truncated histogram with
expected counts for the unobservable value range, which collapses into two
series corrections: ``sigma`` replaces the count of zero registers and
``tau`` (scaled by 2**-q) replaces the count of saturated registers in the
denominator

    alpha_inf * m^2 / (m*sigma(C0/m) + sum_{k=1..q} C_k 2^-k
                       + m*tau(1 - C_{q+1}/m) * 2^-q).

``zeta`` is the mean-1 periodic oscillation (period 1, amplitude below
9.885e-6) that links the two series through the identity

    sigma(x) + tau(x) = alpha_inf * zeta(log2(ln(1/x))) / ln(1/x),

used here only for cross-validation; the estimator itself never evaluates
zeta.  Series evaluation stops at the double-precision fixed point; a
relative-epsilon cap is kept as a safety valve.
"""

from __future__ import annotations

import math

import numpy as np

from .classic import ALPHA_INF
from .errors import DomainError
from .sketch import RegisterHistogram, SketchConfig

LN2 = math.log(2.0)

# safety cap for series termination; the fixed-point test normally fires first
REL_EPS = 1e-12
_MAX_TERMS = 1200


def sigma(x: float) -> float:
    """Zero-register correction series x + sum_{k>=1} x^(2^k) * 2^(k-1).

    Diverges at x = 1; that case returns +inf so the caller's denominator
    becomes infinite and the estimate collapses to 0.
    """
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"sigma argument {x} outside [0, 1]")
    if x == 1.0:
        return math.inf
    z = x
    power = x  # x^(2^k)
    scale = 1.0  # 2^(k-1)
    for _ in range(_MAX_TERMS):
        power *= power
        t = power * scale
        z_new = z + t
        # term applied first, so the cap only drops the (far smaller) tail
        if z_new == z or t < REL_EPS * z_new:
            return z_new
        z = z_new
        scale += scale
    return z


def tau(x: float) -> float:
    """Saturated-register correction series, evaluated by repeated square roots.

    (1/3) * (1 - x - sum_{k>=1} (1 - x^(2^-k))^2 * 2^-k); terms fall off
    roughly like a geometric series with ratio 1/8.  The small terms are
    re-accumulated smallest-first to keep the low-order bits.
    """
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"tau argument {x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    head = 1.0 - x
    terms = []
    z = head
    root = x
    scale = 1.0
    for _ in range(_MAX_TERMS):
        root = math.sqrt(root)
        scale *= 0.5
        t = (1.0 - root) ** 2 * scale
        z_new = z - t
        if z_new == z:
            break
        terms.append(t)
        z = z_new
        if z > 0 and t < REL_EPS * z:
            break
    tail = 0.0
    for t in reversed(terms):  # smallest terms first
        tail += t
    return (head - tail) / 3.0


def zeta(x):
    """Periodic mean-1 oscillation ln(2) * sum_k 2^(k+x) exp(-2^(k+x)).

    Accepts a scalar or an array.  The bilateral sum is truncated to
    k in [-64, 64] around the fractional part of x; the omitted tails are
    far below every tolerance used in this package.
    """
    arr = np.asarray(x, dtype=float)
    frac = arr - np.floor(arr)  # period 1
    k = np.arange(-64, 65, dtype=float)
    u = np.exp2(frac[..., None] + k)
    with np.errstate(under="ignore"):
        total = LN2 * np.sum(u * np.exp(-u), axis=-1)
    if arr.ndim == 0:
        return float(total)
    return total


def _low(c0: int, m: int) -> float:
    """Zero-register term m sigma(C0/m); +inf when every register is zero."""
    return m * sigma(c0 / m)


def _high(saturated: int, m: int, q: int) -> float:
    """Saturated-register term m tau(1 - C_{q+1}/m) 2^-q."""
    return m * tau(1.0 - saturated / m) * 2.0**-q


def _mid_weights(q: int) -> np.ndarray:
    return np.exp2(-np.arange(1, q + 1, dtype=float))


def _corrected(counts, m: int, low: float, high: float, mid_weights) -> float:
    """alpha_inf m^2 / (low + sum_{k=1..q} C_k 2^-k + high), with its two limits.

    An untouched sketch (low = +inf) gives exactly 0; a fully saturated one
    makes the denominator 0 and gives +inf, as ``ml_estimate`` does.
    """
    if low == math.inf:
        return 0.0
    if counts[-1] == m:
        return math.inf
    mid = float(counts[1:-1] @ mid_weights)
    return ALPHA_INF * m * m / (low + mid + high)


def improved_estimate(h: RegisterHistogram, config: SketchConfig) -> float:
    """Corrected harmonic-mean estimate: 0 for an untouched sketch, +inf for a
    fully saturated one."""
    h.check(config)
    m, q = config.m, config.q
    counts = h.counts
    return _corrected(
        counts, m, _low(counts[0], m), _high(counts[q + 1], m, q), _mid_weights(q)
    )


class ImprovedEstimator:
    """Reusable corrected estimator for one configuration.

    With ``precompute=True`` the two series corrections are tabulated for
    all m+1 possible counts, trading O(m) setup for O(q) per estimate.
    The tables are immutable and safe to share across threads.
    """

    def __init__(self, config: SketchConfig, precompute: bool = False):
        self.config = config
        m, q = config.m, config.q
        self._mid_weights = _mid_weights(q)
        self._tables = None
        if precompute:
            c = range(m + 1)
            self._tables = (
                np.array([_low(v, m) for v in c]),
                np.array([_high(v, m, q) for v in c]),
            )

    def __call__(self, h: RegisterHistogram) -> float:
        h.check(self.config)
        m, q = self.config.m, self.config.q
        counts = h.counts
        c0, saturated = int(counts[0]), int(counts[q + 1])
        if self._tables is not None:
            low, high = float(self._tables[0][c0]), float(self._tables[1][saturated])
        else:
            low, high = _low(c0, m), _high(saturated, m, q)
        return _corrected(counts, m, low, high, self._mid_weights)
