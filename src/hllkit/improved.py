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
zeta.  ``sigma`` stops at the double-precision fixed point for about 60% of
arguments c/m (m = 2^4..2^20) and once a term falls below ``REL_EPS`` of the
sum for the rest; ``tau`` always stops on ``REL_EPS``.
"""

from __future__ import annotations

import math

import numpy as np

from .classic import ALPHA_INF
from .errors import DomainError, real, reals
from .sketch import RegisterHistogram, SketchConfig, weighted_sum

LN2 = math.log(2.0)

# relative term size that stops a series: tau always, sigma on about 40% of arguments
REL_EPS = 1e-12
_MAX_TERMS = 1200


def _unit_argument(x, name: str) -> float:
    """x as a float in [0, 1], or DomainError."""
    x = real(x, f"{name} argument")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"{name} argument {x} outside [0, 1]")
    return x


def sigma(x: float) -> float:
    """Zero-register correction series x + sum_{k>=1} x^(2^k) * 2^(k-1).

    Diverges at x = 1; that case returns +inf so the caller's denominator
    becomes infinite and the estimate collapses to 0.
    """
    x = _unit_argument(x, "sigma")
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
    x = _unit_argument(x, "tau")
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

    Accepts a finite scalar or an array of finite values (DomainError
    otherwise).  The bilateral sum is truncated to k in [-64, 64] around the
    fractional part of x; the omitted tails are far below every tolerance
    used in this package.
    """
    arr = reals(x, "zeta argument")
    if not np.isfinite(arr).all():
        raise DomainError(f"zeta argument {x!r} is not finite")
    frac = arr - np.floor(arr)  # period 1
    u = np.exp2(np.add.outer(frac, np.arange(-64, 65, dtype=float)))
    with np.errstate(under="ignore"):
        total = LN2 * np.sum(u * np.exp(-u), axis=-1)
    return total if arr.ndim else float(total)


def _corrected(counts, m: int, q: int) -> float:
    """alpha_inf m^2 / (m sigma(C0/m) + sum_{k=1..q} C_k 2^-k
    + m tau(1 - C_{q+1}/m) 2^-q) for counts already checked against (m, q).

    An untouched sketch gives exactly 0; a fully saturated one makes the
    denominator 0 and gives +inf, as ``ml_estimate`` does.
    """
    if counts[0] == m:
        return 0.0
    if counts[q + 1] == m:
        return math.inf
    low = m * sigma(counts[0] / m)
    mid = weighted_sum(counts, 1, q + 1)
    high = m * tau(1.0 - counts[q + 1] / m) * 2.0**-q
    return ALPHA_INF * m * m / (low + mid + high)


def improved_estimate(h: RegisterHistogram, config: SketchConfig) -> float:
    """Corrected harmonic-mean estimate: 0 for an untouched sketch, +inf for a
    fully saturated one."""
    h.check(config)
    return _corrected(h.counts, config.m, config.q)
