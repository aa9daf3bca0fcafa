"""Seeded Monte-Carlo harness for sketch error experiments.

Instead of inserting n hashed elements one by one, ``sample_sketch`` draws a
sketch state directly from the register law implied by uniform hashing: it
walks the hash levels from the top down, with about O(m) uniform draws plus
O(q) binomials for any n.  The draw is distributionally exact, which is what
makes large-cardinality sweeps tractable.  Correctness against brute-force
hash insertion is enforced by tests and the acceptance suite.

Determinism: every trial derives its own generator from
``(seed, stream_id, trial_index)`` via ``SeedSequence`` spawn keys, so
results are bit-identical for a fixed ``RngSeed``.  Trials run serially,
in index order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classic import linear_counting_estimate, original_estimate, raw_estimate
from .errors import HllError, RangeError
from .improved import improved_estimate
# inclusion_exclusion_estimate and joint_ml_estimate are not called here, but
# bench/tracing.py wraps them under these module-level names
from .joint import (  # noqa: F401
    JointEstimate,
    _joint_estimates,
    inclusion_exclusion_estimate,
    joint_ml_estimate,
)
from .ml import ml_estimate
from .sketch import Sketch, SketchConfig, pow2_weights

DEFAULT_QUANTILES = (0.01, 0.05, 0.25, 0.75, 0.95, 0.99)
MAX_CARDINALITY = 2**63 - 1  # the samplers draw element counts as int64


def _linear_from_histogram(hist, config):
    return linear_counting_estimate(hist.check(config).c0, config.m)


SINGLE_ESTIMATORS = {
    "raw": raw_estimate,
    "linear": _linear_from_histogram,
    "original": original_estimate,
    "improved": improved_estimate,
    "ml": ml_estimate,
}


@dataclass(frozen=True)
class RngSeed:
    """Root of a reproducible random stream.

    ``stream_id`` separates independent experiments run from the same seed;
    per-trial substreams are derived from it, never from generator state, so
    identical ``(seed, stream_id)`` give bit-identical results.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not _is_int_at_least(value, 0):
                raise RangeError(f"{name} {value!r} is not an integer >= 0")

    def generator(self, trial_index: int) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream_id, trial_index)
        )
        return np.random.default_rng(seq)


def _is_int_at_least(value, low) -> bool:
    return isinstance(value, (int, np.integer)) and value >= low


def _check_trials(trials) -> None:
    """RangeError unless trials is an integer >= 2."""
    if not _is_int_at_least(trials, 2):
        raise RangeError(f"trials {trials!r} is not an integer >= 2")


def _check_cardinality(n) -> int:
    """n as an int, or RangeError unless it is an integer in [0, MAX_CARDINALITY]."""
    if not (_is_int_at_least(n, 0) and n <= MAX_CARDINALITY):
        raise RangeError(f"cardinality {n!r} is not an integer in [0, 2**63 - 1]")
    return int(n)


def _check_triple(triple) -> list:
    """[a, b, x] as ints, or RangeError unless triple holds three cardinalities."""
    try:
        cards = [_check_cardinality(c) for c in triple]
    except TypeError:  # not iterable
        cards = None
    if cards is None or len(cards) != 3:
        raise RangeError(f"configuration {triple!r} is not three cardinalities")
    return cards


def sample_sketch(
    n: int, config: SketchConfig, gen: np.random.Generator
) -> Sketch:
    """Exact draw of a sketch filled with n distinct uniformly hashed elements.

    An element's hash level, the value it offers its register, is k with
    probability 2^-k for k <= q and 2^-q for k = q+1, and a register keeps
    the largest level that lands on it.  One multinomial gives the size of
    each level.  The first 2m elements, from the top level down, are thrown
    onto all registers at once, which sets most of them.  Every later
    element is at or below the levels already set, so it can only change a
    zero register: of c elements spread over ``domain`` registers,
    Binomial(c, |U| / domain) land on the zero list U, uniformly.  The walk
    goes down the levels that way, at most m elements per throw, and stops
    once U is empty.  Memory is O(m) for any n: the first throw's 2m
    indices are the largest temporary.
    """
    n = _check_cardinality(n)
    m, q = config.m, config.q
    sketch = Sketch(config)
    regs = sketch._regs
    pow2 = pow2_weights(q)
    levels = np.arange(q + 1, 0, -1, dtype=np.uint8)
    counts = gen.multinomial(n, np.append(pow2[1 : q + 1], pow2[q]))[::-1]
    before = np.cumsum(counts) - counts
    first = np.minimum(counts, np.maximum(2 * m - before, 0))  # share of the first 2m
    np.maximum.at(
        regs, gen.integers(0, m, size=first.sum()), np.repeat(levels, first)
    )
    zeros = np.nonzero(regs == 0)[0]
    for level, c in zip(levels.tolist(), (counts - first).tolist()):
        domain = m
        while c and zeros.size:
            c = int(gen.binomial(c, zeros.size / domain))
            domain = zeros.size
            throw = min(c, m)
            regs[zeros[gen.integers(0, domain, size=throw)]] = level
            zeros = zeros[regs[zeros] == 0]
            c -= throw
    return sketch


def sample_joint_pair(
    card_a: int,
    card_b: int,
    card_x: int,
    config: SketchConfig,
    gen: np.random.Generator,
):
    """Sketch pair for sets A∪X and B∪X with disjoint A, B, X of given sizes."""
    sa = sample_sketch(card_a, config, gen)
    sb = sample_sketch(card_b, config, gen)
    sx = sample_sketch(card_x, config, gen)
    return sa.merge(sx), sb.merge(sx)


@dataclass(frozen=True)
class ErrorReport:
    """Error statistics of one estimator at one true cardinality.

    Errors are relative, (estimate - n)/n, except at n = 0 where the raw
    estimate itself is recorded.  ``failures`` counts trials whose estimator
    raised; failed trials are excluded from the statistics.
    """

    cardinality: int
    trials: int
    mean_rel_err: float
    median_rel_err: float
    stddev_rel_err: float
    rmse_rel: float
    quantiles: tuple = field(default_factory=tuple)
    failures: int = 0


@dataclass(frozen=True)
class JointErrorRow:
    """Paired-method error statistics for one (card_a, card_b, card_x) setting.

    Each RMSE tuple covers the exclusive parts a and b, the intersection x,
    and the union, in that order; ``improvement`` is the elementwise ratio
    inclusion-exclusion RMSE over joint-ML RMSE.  A trial that fails in
    either method is excluded from both, keeping the comparison paired.
    """

    card_a: int
    card_b: int
    card_x: int
    trials: int
    rmse_ie: tuple
    rmse_ml: tuple
    improvement: tuple
    failures: int = 0


def _resolve_estimator(selector):
    if callable(selector):
        return selector
    try:
        return SINGLE_ESTIMATORS[selector]
    except KeyError:
        raise RangeError(
            f"unknown estimator {selector!r}; choose from "
            f"{sorted(SINGLE_ESTIMATORS)}"
        ) from None


def _median_and_quantiles(arr, quantiles):
    """``np.median(arr)`` and ``np.quantile(arr, quantiles)`` from one sorted
    copy, value for value up to the sign of a zero.

    Both numpy functions call ``np.unique``, whose first use imports numpy.ma
    (about 10 ms and over a megabyte) that nothing else here needs.  The
    interpolation is numpy's default linear one, in the form numpy's
    ``_lerp`` computes it, so the rounding is the same.
    """
    s = np.sort(arr)
    if np.isnan(s[-1]):  # nan sorts last, and numpy then reports nan
        return s[-1], np.full(len(quantiles), s[-1])
    half = s.size // 2
    median = s[half] if s.size % 2 else (s[half - 1] + s[half]) / 2
    virtual = (s.size - 1) * np.asarray(quantiles, dtype=float)
    lo = np.floor(virtual)
    hi = lo + 1
    top = virtual >= s.size - 1  # as numpy: read the last element twice
    lo[top] = hi[top] = -1
    gamma = virtual - lo
    a, b = s[lo.astype(np.intp)], s[hi.astype(np.intp)]
    diff = b - a
    return median, np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


def _summarize(errors, n, trials, failures):
    if not errors:
        nan = float("nan")
        qs = tuple((p, nan) for p in DEFAULT_QUANTILES)
        return ErrorReport(n, trials, nan, nan, nan, nan, qs, failures)
    arr = np.asarray(errors)
    # infinite errors (a saturated sketch) give nan spreads and quantiles
    # between infinities: that is the reported value, not a warning
    with np.errstate(invalid="ignore"):
        stddev = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
        median, qvals = _median_and_quantiles(arr, DEFAULT_QUANTILES)
    return ErrorReport(
        cardinality=n,
        trials=trials,
        mean_rel_err=float(arr.mean()),
        median_rel_err=float(median),
        stddev_rel_err=stddev,
        rmse_rel=float(np.sqrt(np.mean(arr * arr))),
        quantiles=tuple((p, float(v)) for p, v in zip(DEFAULT_QUANTILES, qvals)),
        failures=failures,
    )


def run_error_experiment(
    cardinalities,
    trials: int,
    config: SketchConfig,
    estimator,
    rng: RngSeed,
):
    """Estimator error statistics over sampled sketches, one report per n.

    ``estimator`` is a name from ``SINGLE_ESTIMATORS`` or any callable
    ``(histogram, config) -> float``.  Trial t of cardinality index i uses
    the substream for global index ``i * trials + t``, so runs with the same
    ``RngSeed`` see identical sketches for every estimator choice.
    """
    _check_trials(trials)
    fn = _resolve_estimator(estimator)
    cards = [_check_cardinality(n) for n in cardinalities]
    reports = []
    for ci, n in enumerate(cards):
        errors = []
        for t in range(trials):
            sketch = sample_sketch(n, config, rng.generator(ci * trials + t))
            try:
                est = fn(sketch.histogram(), config)
            except HllError:
                continue
            errors.append((est - n) / n if n > 0 else est)
        reports.append(_summarize(errors, n, trials, trials - len(errors)))
    return reports


def _joint_errors(est: JointEstimate, truth):
    out = []
    for got, want in zip((est.a, est.b, est.x, est.union), truth):
        out.append((got - want) / want if want > 0 else got - want)
    return out


def run_joint_experiment(
    configurations,
    trials: int,
    config: SketchConfig,
    rng: RngSeed,
):
    """Paired inclusion-exclusion vs joint-ML error table, one row per triple."""
    _check_trials(trials)
    configurations = [_check_triple(triple) for triple in configurations]
    rows = []
    for gi, (card_a, card_b, card_x) in enumerate(configurations):
        truth = (card_a, card_b, card_x, card_a + card_b + card_x)
        kept = []
        for t in range(trials):
            gen = rng.generator(gi * trials + t)
            s1, s2 = sample_joint_pair(card_a, card_b, card_x, config, gen)
            try:
                ie, ml = _joint_estimates(s1, s2)
            except HllError:
                continue
            kept.append((_joint_errors(ie, truth), _joint_errors(ml, truth)))
        if kept:
            ie_err = np.asarray([o[0] for o in kept])
            ml_err = np.asarray([o[1] for o in kept])
            rmse_ie = np.sqrt(np.mean(ie_err * ie_err, axis=0))
            rmse_ml = np.sqrt(np.mean(ml_err * ml_err, axis=0))
            with np.errstate(divide="ignore", invalid="ignore"):
                impr = rmse_ie / rmse_ml
        else:
            rmse_ie = rmse_ml = impr = np.full(4, np.nan)
        rows.append(
            JointErrorRow(
                card_a=card_a,
                card_b=card_b,
                card_x=card_x,
                trials=trials,
                rmse_ie=tuple(float(v) for v in rmse_ie),
                rmse_ml=tuple(float(v) for v in rmse_ml),
                improvement=tuple(float(v) for v in impr),
                failures=trials - len(kept),
            )
        )
    return rows
