"""Seeded Monte-Carlo harness for sketch error experiments.

Instead of inserting n hashed elements one by one, ``sample_sketch`` draws a
sketch state directly from the register law implied by uniform hashing: it
walks the hash levels from the top down, with about O(m) uniform draws plus
O(q) binomials for any n.  The draw is distributionally exact, which is what
makes large-cardinality sweeps tractable.  Correctness against brute-force
hash insertion is enforced by tests and the acceptance suite.

Determinism: ``RngSeed(seed, stream_id)`` seeds one PCG64 stream from
``SeedSequence(seed, spawn_key=(stream_id,))``, and trial i draws from that
stream jumped i times, exactly as ``PCG64.jumped(i)`` places it: at least
2**63 steps from any other trial's start, so no two trials share a draw,
and results are bit-identical for a fixed ``RngSeed``.  Trials run serially,
in index order.  For p <= 16, register indices are the top p bits of
uniform 16-bit draws, exact for any numpy ``Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .classic import linear_counting_estimate, original_estimate, raw_estimate
from .errors import HllError, RangeError, instance, integer, real
from .improved import improved_estimate
# inclusion_exclusion_estimate and joint_ml_estimate are not called here, but
# bench/tracing.py wraps them under these module-level names
from .joint import (  # noqa: F401
    _joint_estimates,
    inclusion_exclusion_estimate,
    joint_ml_estimate,
)
from .ml import ml_estimate
from .sketch import Sketch, SketchConfig, config_of, histogram_counts, level_weights

DEFAULT_QUANTILES = (0.01, 0.05, 0.25, 0.75, 0.95, 0.99)
MAX_CARDINALITY = 2**63 - 1  # the samplers draw element counts as int64
# PCG64.jumped's step, (phi - 1) * 2**128; over trial indices below 2**64 no
# two multiples of it come within 2**63.5 of each other modulo 2**128
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835


def _linear_from_histogram(h, config):
    c0 = histogram_counts(h, config)[0]
    return linear_counting_estimate(c0, config.m)


SINGLE_ESTIMATORS = {
    "raw": raw_estimate,
    "linear": _linear_from_histogram,
    "original": original_estimate,
    "improved": improved_estimate,
    "ml": ml_estimate,
}


@lru_cache(maxsize=None)
def _seed_words():
    """The type of an ``RngSeed``'s seed words: an ``ISpawnableSeedSequence``
    that hands ``PCG64`` the four uint64 words of its ``SeedSequence``, made
    once, and spawns from that ``SeedSequence``.  It is built on first use
    because numpy loads ``numpy.random`` lazily, and ``import hllkit`` should
    not pay for that."""
    from numpy.random.bit_generator import ISpawnableSeedSequence

    class SeedWords(ISpawnableSeedSequence):
        def __init__(self, seed: int, stream_id: int):
            self.seq = np.random.SeedSequence(seed, spawn_key=(stream_id,))
            self.words = self.seq.generate_state(4, np.uint64)
            self.words.flags.writeable = False

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 reads 4 uint64 words, its only request

        def spawn(self, n_children):
            return self.seq.spawn(n_children)

    return SeedWords


@dataclass(frozen=True)
class RngSeed:
    """Root of a reproducible random stream.

    ``(seed, stream_id)`` seeds one PCG64 stream from
    ``SeedSequence(seed, spawn_key=(stream_id,))``; ``stream_id`` separates
    independent experiments run from the same seed.  Trial i draws from the
    stream jumped i times (``PCG64.jumped(i)``: i * (phi - 1) * 2**128 steps
    on, modulo the period), so the starts of trials 0 .. 2**64 - 1 lie at
    least 2**63 steps apart and identical ``(seed, stream_id)`` give
    bit-identical results.  The seed words are made once per ``RngSeed``.
    ``generator(i).spawn(n)`` hands out the next n children of that one
    ``SeedSequence``, shared by all trials of the ``RngSeed``.
    A stride of 2**64 is not used: the low 64 bits of PCG64's state repeat
    with period 2**64, so trials that far apart share them step for step,
    and their draws are visibly correlated.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            object.__setattr__(self, name, integer(getattr(self, name), name, 0))
        object.__setattr__(self, "_words", _seed_words()(self.seed, self.stream_id))

    def __reduce__(self):  # the seed words' type is local to _seed_words
        return RngSeed, (self.seed, self.stream_id)

    def generator(self, trial_index: int) -> np.random.Generator:
        """A fresh generator for trial ``trial_index``, 0 <= index < 2**64."""
        i = integer(trial_index, "trial index", 0, 2**64 - 1)
        bits = np.random.PCG64(self._words)
        if i:
            bits.advance(i * _JUMP % 2**128)  # as PCG64(...).jumped(i)
        return np.random.Generator(bits)


def _listed(items, what: str) -> list:
    """list(items), or RangeError if items is not iterable."""
    try:
        return list(items)
    except TypeError:
        raise RangeError(f"{what} {items!r} is not a sequence") from None


def _check_triple(triple) -> list:
    """[a, b, x] as ints, or RangeError unless triple holds three cardinalities."""
    cards = [
        integer(c, "cardinality", 0, MAX_CARDINALITY)
        for c in _listed(triple, "configuration")
    ]
    if len(cards) != 3:
        raise RangeError(f"configuration {triple!r} is not three cardinalities")
    return cards


@lru_cache(maxsize=None)  # q <= 62, so at most 63 entries
def _level_tables(q: int):
    """Read-only level law for ``sample_sketch``: the pmf of hash levels
    1..q+1 and the levels themselves, top level first."""
    levels = np.arange(q + 1, 0, -1, dtype=np.uint8)
    levels.flags.writeable = False
    return level_weights(q)[1:], levels


def _throw(gen: np.random.Generator, p: int, size: int) -> np.ndarray:
    """Indices of ``size`` elements thrown uniformly onto 2**p registers.

    For p <= 16 they are the top p bits of uniform 16-bit draws, which every
    numpy ``Generator`` makes exactly and for about 60% of what a bounded
    draw costs.
    """
    if p <= 16:
        return gen.integers(0, 2**16, size, dtype=np.uint16) >> (16 - p)
    return gen.integers(0, 1 << p, size=size)


def _generator(gen):
    """``gen`` if it is a numpy ``Generator`` or has the three draws
    ``sample_sketch`` makes, as a proxy of one does, else RangeError: no
    seed, bit generator or ``RngSeed`` is read as a generator."""
    if isinstance(gen, np.random.Generator) or all(
        callable(getattr(gen, d, None)) for d in ("multinomial", "binomial", "integers")
    ):
        return gen
    raise RangeError(f"generator must be a Generator, not {type(gen).__name__}")


def sample_sketch(
    n: int, config: SketchConfig, gen: np.random.Generator
) -> Sketch:
    """Exact draw of a sketch filled with n distinct uniformly hashed elements.

    An element's hash level, the value it offers its register, is k with
    probability 2^-k for k <= q and 2^-q for k = q+1, and a register keeps
    the largest level that lands on it.  One multinomial gives the size of
    each level.  The first 2m elements, from the top level down, are thrown
    onto all registers at once, which sets most of them; for n <= 2m that
    multinomial and that one index throw are the whole draw.  Every later
    element is at or below the levels already set, so it can only change a
    zero register: of c elements spread over ``domain`` registers,
    Binomial(c, |U| / domain) land on the zero list U, uniformly.  The walk
    goes down the levels that way, at most m elements per throw, and stops
    once U is empty.  Memory is O(m) for any n: the first throw's 2m
    indices are the largest temporary.
    """
    n = integer(n, "cardinality", 0, MAX_CARDINALITY)
    gen = _generator(gen)
    sketch = Sketch(config)  # RangeError unless config is a SketchConfig
    config, regs = sketch.config, sketch._regs
    m = config.m
    pmf, levels = _level_tables(config.q)
    counts = gen.multinomial(n, pmf)[::-1]
    if n <= 2 * m:
        np.maximum.at(regs, _throw(gen, config.p, n), np.repeat(levels, counts))
        return sketch
    first, rest, left = [], [], 2 * m  # each level's share of the first 2m
    for c in counts.tolist():
        take = min(c, left)
        first.append(take)
        rest.append(c - take)
        left -= take
    np.maximum.at(regs, _throw(gen, config.p, 2 * m), np.repeat(levels, first))
    zeros = np.nonzero(regs == 0)[0]
    for level, c in zip(levels.tolist(), rest):
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
    quantiles: tuple
    failures: int


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
    failures: int


def _resolve_estimator(selector):
    if callable(selector):
        return selector
    try:
        return SINGLE_ESTIMATORS[selector]
    except (KeyError, TypeError):  # TypeError: an unhashable selector
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


def _relative_errors(estimates, truth):
    """(estimate - truth) / truth per trial, the plain difference where the
    truth is 0; ``truth``, one trial's, is float64 so a union above 2**63 works."""
    err = np.reshape(np.asarray(estimates, float), (-1, *np.shape(truth))) - truth
    return np.divide(err, truth, out=err, where=truth > 0)


def _rmse(errors):
    """Root mean square over the trials (axis 0) as np.mean; nan for no trial."""
    with np.errstate(invalid="ignore"):  # 0 / 0 trials is the nan reported
        return np.sqrt(np.add.reduce(errors * errors, axis=0) / len(errors))


def _summarize(errors, n, trials):
    failures = trials - errors.size
    if not errors.size:
        nan = float("nan")
        qs = tuple((p, nan) for p in DEFAULT_QUANTILES)
        return ErrorReport(n, trials, nan, nan, nan, nan, qs, failures)
    # infinite errors (a saturated sketch) give nan spreads and quantiles
    # between infinities: that is the reported value, not a warning
    with np.errstate(invalid="ignore"):
        stddev = float(np.std(errors, ddof=1)) if errors.size > 1 else 0.0
        median, qvals = _median_and_quantiles(errors, DEFAULT_QUANTILES)
    return ErrorReport(
        cardinality=n,
        trials=trials,
        mean_rel_err=float(errors.mean()),
        median_rel_err=float(median),
        stddev_rel_err=stddev,
        rmse_rel=float(_rmse(errors)),
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
    ``(counts, config) -> float`` given the sketch's int64 histogram counts; a
    trial fails when it raises an ``HllError`` or returns a non-number.  Trial
    t of cardinality index i uses the substream for global index
    ``i * trials + t``, so runs with the same ``RngSeed`` see identical
    sketches for every estimator choice.
    """
    trials = integer(trials, "trials", 2)
    config, rng = config_of(config), instance(rng, RngSeed, "rng")
    fn = _resolve_estimator(estimator)
    cards = [
        integer(n, "cardinality", 0, MAX_CARDINALITY)
        for n in _listed(cardinalities, "cardinalities")
    ]
    reports = []
    for ci, n in enumerate(cards):
        estimates = []
        for t in range(trials):
            sketch = sample_sketch(n, config, rng.generator(ci * trials + t))
            try:
                estimates.append(real(fn(sketch.histogram(), config), "estimate"))
            except HllError:
                continue
        reports.append(_summarize(_relative_errors(estimates, float(n)), n, trials))
    return reports


def run_joint_experiment(
    configurations,
    trials: int,
    config: SketchConfig,
    rng: RngSeed,
):
    """Paired inclusion-exclusion vs joint-ML error table, one row per triple."""
    trials = integer(trials, "trials", 2)
    config, rng = config_of(config), instance(rng, RngSeed, "rng")
    configurations = [
        _check_triple(t) for t in _listed(configurations, "configurations")
    ]
    rows = []
    for gi, (card_a, card_b, card_x) in enumerate(configurations):
        truth = np.array([card_a, card_b, card_x, card_a + card_b + card_x], float)
        ie_parts, ml_parts = [], []
        for t in range(trials):
            gen = rng.generator(gi * trials + t)
            s1, s2 = sample_joint_pair(card_a, card_b, card_x, config, gen)
            try:
                ie, ml = _joint_estimates(s1, s2)
            except HllError:
                continue
            ie_parts.append((ie.a, ie.b, ie.x, ie.union))
            ml_parts.append((ml.a, ml.b, ml.x, ml.union))
        rmse_ie = _rmse(_relative_errors(ie_parts, truth))
        rmse_ml = _rmse(_relative_errors(ml_parts, truth))
        with np.errstate(divide="ignore", invalid="ignore"):
            impr = rmse_ie / rmse_ml
        stats = (tuple(v.tolist()) for v in (rmse_ie, rmse_ml, impr))
        failures = trials - len(ie_parts)
        rows.append(JointErrorRow(card_a, card_b, card_x, trials, *stats, failures))
    return rows
