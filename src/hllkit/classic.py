"""Classic estimation chain: raw harmonic-mean estimator, linear counting,
large-range correction, and the composite original method.

The raw estimator alpha_inf * m^2 / sum_k C_k 2^-k is only usable in a
middle band of cardinalities: it overestimates badly while most registers
are still zero and runs into hash-collision distortion near saturation.
The original composite method patches both ends, switching to linear
counting below (5/2)m and to a logarithmic correction above 2^32/30.  The
switchover constants and the correction's hash space are tied to 32
relevant hash bits (a fixed 2^32), so the composite is restricted to
p + q = 32 here.

Uses the limit constant alpha_inf = 1/(2 ln 2) throughout; the small
finite-m bias of that choice is dwarfed by the estimation error itself.
"""

from __future__ import annotations

import math

from .errors import (
    OutOfDomainError,
    RangeError,
    UnsupportedConfigError,
    ZeroRegistersExhaustedError,
    integer,
    real,
)
from .sketch import SketchConfig, config_of, histogram_counts, weighted_sum

ALPHA_INF = 1.0 / (2.0 * math.log(2.0))
_HASH_SPACE = 2.0**32  # the composite method's 32 relevant hash bits


def raw_estimate(h, config: SketchConfig) -> float:
    """Harmonic-mean estimate alpha_inf * m^2 / sum_{k=0}^{q+1} C_k 2^-k."""
    counts = histogram_counts(h, config)
    m = config.m
    return ALPHA_INF * m * m / weighted_sum(counts, 0, config.q + 2)


def linear_counting_estimate(c0: int, m: int) -> float:
    """Occupancy-based estimate m * ln(m / C0) from the zero-register count."""
    m = integer(m, "m", 0)
    c0 = integer(c0, "c0", 0, m)
    if c0 == 0:
        raise ZeroRegistersExhaustedError("no zero registers left; linear counting undefined")
    m = real(m, "m", RangeError)
    return m * math.log(m / c0)


def large_range_correction(raw: float) -> float:
    """Collision correction -2^32 * ln(1 - raw / 2^32) near saturation of the
    fixed 2^32 hash space."""
    raw = real(raw, "raw estimate", OutOfDomainError)
    if not raw >= 0:  # nan fails this test too
        raise OutOfDomainError(f"raw estimate {raw} is negative or nan")
    if raw >= _HASH_SPACE:
        raise OutOfDomainError(
            f"raw estimate {raw} is at or beyond the 2^32 hash space; correction undefined"
        )
    return -_HASH_SPACE * math.log1p(-raw / _HASH_SPACE)


def original_estimate(h, config: SketchConfig) -> float:
    """Composite estimator with the empirical switchovers (requires p + q = 32).

    Low range (raw <= 2.5m with zero registers left): linear counting.
    High range (raw > 2^32/30): large-range correction in the fixed 2^32
    hash space.  Otherwise: raw.
    """
    config = config_of(config)
    if config.p + config.q != 32:
        raise UnsupportedConfigError(
            f"composite switchover constants assume p+q=32, got {config.p + config.q}"
        )
    counts = histogram_counts(h, config)
    raw = raw_estimate(counts, config)
    if raw <= 2.5 * config.m and counts[0] > 0:
        return linear_counting_estimate(counts[0], config.m)
    if raw > _HASH_SPACE / 30.0:
        return large_range_correction(raw)
    return raw
