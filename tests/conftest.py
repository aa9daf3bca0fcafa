"""Shared helpers for the test suite."""

import math

import numpy as np

from hllkit.sketch import SketchConfig


def register_value_probs(config: SketchConfig, lam: float) -> np.ndarray:
    """Per-register value distribution under the independent-rate model."""
    m, q = config.m, config.q
    probs = np.empty(q + 2)
    cdf_prev = np.exp(-lam / m)
    probs[0] = cdf_prev
    for k in range(1, q + 1):
        cdf = np.exp(-lam / (m * 2.0**k))
        probs[k] = cdf - cdf_prev
        cdf_prev = cdf
    probs[q + 1] = 1.0 - cdf_prev
    return probs


def random_histogram(rng: np.random.Generator, config: SketchConfig, lam: float):
    """Random histogram with register values drawn from the rate-lam model."""
    counts = rng.multinomial(config.m, register_value_probs(config, lam))
    return counts


def log_likelihood(lam: float, h, config: SketchConfig) -> float:
    """Poisson-model log-likelihood of rate lam, term by term from the formula
    in the ``hllkit.ml`` docstring:

        sum_{k=1}^{q+1} C_k ln(1 - exp(-lam/(m 2^min(k,q))))
            - (lam/m) sum_{k=0}^{q} C_k 2^-k.
    """
    m, q = config.m, config.q
    counts = [int(c) for c in h]
    total = 0.0
    for k in range(1, q + 2):
        if counts[k]:
            total += counts[k] * math.log(-math.expm1(-lam / (m * 2.0 ** min(k, q))))
    return total - lam / m * sum(counts[k] * 2.0**-k for k in range(q + 1))
