"""Reference computations the benchmark checks hllkit against.

Nothing here imports hllkit: each function is written from the method's
definition so that a fault in the program cannot hide in its own check.
"""

from __future__ import annotations

import math

import numpy as np

_M1 = np.uint64(0xFF51AFD7ED558CCD)
_M2 = np.uint64(0xC4CEB9FE1A85EC53)
_S33 = np.uint64(33)
_MASK64 = (1 << 64) - 1

# 1.04/sqrt(m): the asymptotic relative standard error of the estimators.
STD_ERROR_CONSTANT = 1.04
ALPHA_INF = 1.0 / (2.0 * math.log(2.0))


def std_error(m: int) -> float:
    return STD_ERROR_CONSTANT / math.sqrt(m)


def mix64(ids: np.ndarray, key: int) -> np.ndarray:
    """Bijective 64-bit mixer: xor with ``key``, then the MurmurHash3 finalizer.

    Every step (xor with a constant, xor-shift, odd multiply mod 2^64) is
    invertible, so distinct ids always give distinct hashes and a stream's
    distinct count is exactly its number of distinct ids.
    """
    x = np.asarray(ids, dtype=np.uint64) ^ np.uint64(key & _MASK64)
    x = x ^ (x >> _S33)
    x = x * _M1
    x = x ^ (x >> _S33)
    x = x * _M2
    return x ^ (x >> _S33)


def mix64_int(value: int, key: int) -> int:
    """Pure-Python twin of :func:`mix64` for one id."""
    x = (value ^ key) & _MASK64
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _MASK64
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & _MASK64
    return x ^ (x >> 33)


def reference_registers(hashes, p: int, q: int) -> list[int]:
    """Registers from first principles: the top p bits pick the register, the
    next q bits give the value q + 1 - bit_length (q + 1 when all are zero)."""
    return update_registers([0] * (1 << p), hashes, p, q)


def update_registers(regs: list[int], hashes, p: int, q: int) -> list[int]:
    """Fold ``hashes`` into ``regs`` in place (as :func:`reference_registers`
    does), so a long stream can be checked one batch at a time."""
    value_mask = (1 << q) - 1
    index_shift = 64 - p
    value_shift = 64 - p - q
    for h in hashes:
        h = int(h)
        idx = h >> index_shift
        value = q + 1 - ((h >> value_shift) & value_mask).bit_length()
        if value > regs[idx]:
            regs[idx] = value
    return regs


def _log_cdf(rate: float, m: int, q: int) -> np.ndarray:
    """ln P(K <= k) for k = -1..q+1 under Poisson rate ``rate`` spread over m registers.

    P(K <= k) = exp(-rate / (m 2^k)) for 0 <= k <= q, 1 for k = q + 1, and
    0 for k = -1 (index 0 of the result).
    """
    k = np.arange(q + 1, dtype=float)
    out = np.empty(q + 3)
    out[0] = -math.inf
    out[1 : q + 2] = -rate / (m * np.exp2(k))
    out[q + 2] = 0.0
    return out


def _log_pmf(rate: float, m: int, q: int) -> np.ndarray:
    """ln P(K = k) for k = 0..q+1, written to avoid cancellation.

    For 1 <= k <= q, P(K <= k-1) = P(K <= k)^2, so P(K = k) = F(1 - F) with
    F = P(K <= k); P(K = q+1) = 1 - P(K <= q).
    """
    v = rate / (m * np.exp2(np.arange(q + 1, dtype=float)))
    out = np.empty(q + 2)
    with np.errstate(divide="ignore"):
        out[0] = -v[0]
        out[1 : q + 1] = -v[1:] + np.log(-np.expm1(-v[1:]))
        out[q + 1] = math.log(-math.expm1(-v[q])) if v[q] > 0 else -math.inf
    return out


def pair_counts(r1, r2, q: int) -> np.ndarray:
    """(q+2) x (q+2) table: entry [i, j] counts positions with K1 = i and K2 = j."""
    bins = q + 2
    flat = np.asarray(r1, dtype=np.int64) * bins + np.asarray(r2, dtype=np.int64)
    return np.bincount(flat, minlength=bins * bins).reshape(bins, bins)


def joint_log_likelihood(counts: np.ndarray, a: float, b: float, x: float, m: int, q: int) -> float:
    """Joint log-likelihood of disjoint rates (a, b, x) from the paired table.

    Sketch 1 holds K1 = max(Ka, Kx), sketch 2 holds K2 = max(Kb, Kx), with
    independent Ka, Kb, Kx per register.  Hence
      P(K1 = i < K2 = j) = P(K_{a+x} = i) P(Kb = j),
      P(K1 = i > K2 = j) = P(Ka = i) P(K_{b+x} = j),
      P(K1 = K2 = k) = P(Kx = k) F_a(k) F_b(k) + F_x(k-1) P(Ka = k) P(Kb = k).
    """
    pa, pb, px = _log_pmf(a, m, q), _log_pmf(b, m, q), _log_pmf(x, m, q)
    pax, pbx = _log_pmf(a + x, m, q), _log_pmf(b + x, m, q)
    fa, fb, fx = _log_cdf(a, m, q), _log_cdf(b, m, q), _log_cdf(x, m, q)
    bins = q + 2
    logp = np.empty((bins, bins))
    i, j = np.indices((bins, bins))
    upper = i < j
    lower = i > j
    logp[upper] = pax[i[upper]] + pb[j[upper]]
    logp[lower] = pa[i[lower]] + pbx[j[lower]]
    k = np.arange(bins)
    with np.errstate(invalid="ignore"):
        diag = np.logaddexp(px[k] + fa[k + 1] + fb[k + 1], fx[k] + pa[k] + pb[k])
    logp[k, k] = diag
    used = counts > 0
    return float(np.sum(counts[used] * logp[used]))


def rmse_identity_gap(mean: float, stddev: float, rmse: float, kept: int) -> float:
    """|rmse^2 - (mean^2 + var (t-1)/t)| for a sample of t = ``kept`` values,
    where var is the unbiased (ddof = 1) variance."""
    if kept <= 1:
        return abs(rmse * rmse - mean * mean)
    return abs(rmse * rmse - (mean * mean + stddev * stddev * (kept - 1) / kept))
