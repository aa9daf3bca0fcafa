"""Maximum-likelihood cardinality estimation from the register histogram.

Under the small-rate approximation, the registers are independent and the
log-likelihood of rate lambda given histogram C is

    sum_{k=1}^{q+1} C_k ln(1 - exp(-lambda/(m 2^min(k,q))))
        - (lambda/m) sum_{k=0}^{q} C_k 2^-k.

Its stationary condition reduces to the root of a monotone decreasing
convex function f with f(0) = m - C0, so the maximum is unique and can be
bracketed in closed form.  The bracket bounds differ by at most 3/2, and a
secant iteration started at zero and the lower bound walks up to the root
without overshooting.  Iteration stops once the relative increment
|l_{t+1} - l_t| / l_{t+1} falls below delta = EPSILON/sqrt(m), with the
fixed EPSILON = 1e-2 that the joint fit in ``joint.py`` reuses; it raises
``NoConvergenceError`` after ML_MAX_ITERATIONS (64) secant steps.

Each root-function value sums C_k u/(e^u - 1) over u = lambda/(m 2^min(k,q)),
which never rises with k, so the last u is the smallest.  The series for
small u therefore runs only when that last u is below 1e-4, and the whole
solve runs under one ``np.errstate`` that lets e^u overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateHistogramError,
    DomainError,
    NoConvergenceError,
    RangeError,
    real,
)
from .sketch import RegisterHistogram, SketchConfig, level_weights, weighted_sum


EPSILON = 1e-2
ML_MAX_ITERATIONS = 64


def stop_delta(m: int) -> float:
    """The secant's relative stop threshold delta = EPSILON/sqrt(m)."""
    return EPSILON / math.sqrt(m)


@dataclass(frozen=True)
class Bracket:
    lower: float
    upper: float

    def __post_init__(self):
        for name in ("lower", "upper"):
            bound = real(getattr(self, name), f"bracket {name} bound", RangeError)
            object.__setattr__(self, name, bound)
        if not 0 <= self.lower <= self.upper:
            raise RangeError(f"invalid bracket [{self.lower}, {self.upper}]")


_QUIET = {"over": "ignore", "invalid": "ignore"}


def _u_over_expm1(u):
    """u / (e^u - 1) elementwise for a 0-d or non-increasing u >= 0, stable
    at both ends of the range; call it under ``np.errstate(**_QUIET)``."""
    # e^u overflows past u ~ 710, where the ratio is 0; the cap spares u = inf
    # an inf/inf.  Entries below 1e-4, and the 0/0 at u = 0, are then
    # overwritten by the series 1 - u/2 + u^2/12, whose error is O(u^4/720);
    # there are some only if the last, smallest u is below 1e-4.
    u = np.minimum(np.asarray(u, dtype=float), 800.0)
    out = np.asarray(u / np.expm1(u))  # a 0-d input gives a scalar here
    if u.size and u.flat[-1] < 1e-4:
        small = u < 1e-4
        us = u[small]
        out[small] = 1.0 - us / 2.0 + us * us / 12.0
    return out


def _weights(h: RegisterHistogram, config: SketchConfig):
    """Per-histogram constants: counts at the nonzero value levels, their
    rate scales (never rising with the level), and the linear weight."""
    q = config.q
    counts = h.counts
    ks = np.nonzero(counts[1:])[0] + 1  # value levels 1..q+1 with C_k > 0
    c = counts[ks].astype(float)
    scale = level_weights(q)[ks] / config.m  # 1/(m 2^min(k,q))
    # linear term weight: sum_{k=0}^q C_k 2^-k
    return c, scale, weighted_sum(counts, 0, q + 1)


def _root_function(h: RegisterHistogram, config: SketchConfig):
    """The root function of a checked histogram, for rates lam > 0; call it
    under ``np.errstate(**_QUIET)``."""
    c, scale, w = _weights(h, config)
    lin = w / config.m

    def f(lam):
        return float(c @ _u_over_expm1(lam * scale) - lam * lin)

    return f


def ml_root_function(lam: float, h: RegisterHistogram, config: SketchConfig) -> float:
    """Monotone decreasing f whose unique root is the ML estimate; f(0) = m - C0."""
    lam = real(lam, "rate")
    if not lam >= 0:  # nan fails this test too
        raise DomainError(f"rate {lam} must be non-negative")
    h.check(config)
    with np.errstate(**_QUIET):
        return _root_function(h, config)(lam)


def ml_bracket(h: RegisterHistogram, config: SketchConfig) -> Bracket:
    """Closed-form bounds enclosing the ML rate (ratio at most 3/2 apart)."""
    return Bracket(*_bracket(h.check(config), config))


def _bracket(h: RegisterHistogram, config: SketchConfig) -> tuple[float, float]:
    """The bounds of ``ml_bracket`` for a histogram already checked against
    ``config``."""
    m, q = config.m, config.q
    c0 = h.c0
    if c0 == m:
        raise DegenerateHistogramError("zero")
    if h.saturated == m:
        raise DegenerateHistogramError("saturated")
    mid = weighted_sum(h.counts, 1, q + 1)
    sat_w = h.saturated * 2.0 ** -(q + 1)
    lower = m * (m - c0) / (c0 + 1.5 * mid + sat_w)
    upper = m * (m - c0) / (c0 + mid)
    return lower, upper


def _secant_solve(f, x1, f0_at_zero, m):
    """The root by secant from (0, f(0)) and the lower bound ``x1``, stopped
    by ``stop_delta(m)``."""
    delta = stop_delta(m)
    x0, f0 = 0.0, f0_at_zero
    with np.errstate(**_QUIET):
        f1 = f(x1)
        for _ in range(ML_MAX_ITERATIONS):
            if f1 == 0.0 or f1 == f0:
                return x1
            x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
            if x2 <= x1:  # step stalled at float resolution
                return x1
            if x2 - x1 < delta * x2:
                return x2
            x0, f0 = x1, f1
            x1 = x2
            f1 = f(x1)
    raise NoConvergenceError(
        f"secant did not meet the stop rule in {ML_MAX_ITERATIONS} iterations"
    )


def ml_estimate(h: RegisterHistogram, config: SketchConfig) -> float:
    """ML cardinality estimate: 0 for all-zero, +inf for all-saturated registers."""
    h.check(config)
    m = config.m
    if h.c0 == m:
        return 0.0
    if h.saturated == m:
        return math.inf
    lower, _ = _bracket(h, config)
    return _secant_solve(_root_function(h, config), lower, float(m - h.c0), m)
