"""Seeded Monte-Carlo harness for sketch error experiments.

Instead of inserting n hashed elements one by one, ``sample_sketch`` draws a
sketch state directly from the register law implied by uniform hashing: the
per-register element counts, then one inverse-CDF draw per occupied register
from P(K <= k) = (1 - 2^-min(k,q))^count.  The counts follow the
multinomial(n, 1/m) law; up to ``INDEX_THROW_LOAD`` = 4 elements per
register they are drawn as the bincount of n uniform register indices, above
that by ``multinomial``, whose O(m) binomial draws then cost less than n
index draws.  Both are distributionally exact, and a draw costs
O(min(n, 4m)) for the counts plus O(m), which is what makes
large-cardinality sweeps tractable.  Correctness against brute-force hash
insertion is enforced by tests and the acceptance suite.

Determinism: every trial derives its own generator from
``(seed, stream_id, trial_index)`` via ``SeedSequence`` spawn keys, so
results are bit-identical for a fixed ``RngSeed`` regardless of thread
count or completion order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .classic import linear_counting_estimate, original_estimate, raw_estimate
from .errors import HllError
from .improved import improved_estimate
# inclusion_exclusion_estimate and joint_ml_estimate are not called here, but
# bench/tracing.py wraps them under these module-level names
from .joint import (  # noqa: F401
    JointEstimate,
    _joint_estimates,
    inclusion_exclusion_estimate,
    joint_ml_estimate,
)
from .ml import SolverConfig, ml_estimate
from .sketch import Sketch, SketchConfig

DEFAULT_QUANTILES = (0.01, 0.05, 0.25, 0.75, 0.95, 0.99)
# Elements per register up to which sample_sketch draws the counts from index
# throws: n index draws beat multinomial's m binomial draws up to about 24m,
# and this cutoff keeps the index path's temporaries (about 12n bytes) O(m).
INDEX_THROW_LOAD = 4


def _linear_from_histogram(hist, config):
    return linear_counting_estimate(hist.c0, config.m)


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

    def generator(self, trial_index: int) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream_id, trial_index)
        )
        return np.random.default_rng(seq)


def sample_sketch(
    n: int, config: SketchConfig, gen: np.random.Generator
) -> Sketch:
    """Exact draw of a sketch filled with n distinct uniformly hashed elements."""
    if n < 0:
        raise ValueError(f"cardinality {n} must be non-negative")
    m, q = config.m, config.q
    sketch = Sketch(config)
    if n > 0:
        if n <= INDEX_THROW_LOAD * m:
            counts = np.bincount(gen.integers(0, m, size=n), minlength=m)
        else:
            counts = gen.multinomial(n, np.full(m, 1.0 / m))
        occupied = np.nonzero(counts)[0]
        u = gen.random(occupied.size)
        # invert P(K <= k) = (1 - 2^-k)^count at u, then clip to [1, q+1]: the
        # clip is the range check, so the values go straight into the registers
        with np.errstate(divide="ignore"):
            t = -np.log2(-np.expm1(np.log(u) / counts[occupied]))
        sketch._regs[occupied] = np.clip(np.ceil(t), 1.0, float(q + 1))
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
        raise ValueError(
            f"unknown estimator {selector!r}; choose from "
            f"{sorted(SINGLE_ESTIMATORS)}"
        ) from None


def _map_trials(worker, indices, threads):
    workers = min(threads, len(indices))
    if workers <= 1:
        return [worker(i) for i in indices]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, indices))


def _summarize(errors, n, trials, failures, quantiles):
    if not errors:
        nan = float("nan")
        qs = tuple((float(p), nan) for p in quantiles)
        return ErrorReport(n, trials, nan, nan, nan, nan, qs, failures)
    arr = np.asarray(errors)
    stddev = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    qvals = np.quantile(arr, quantiles) if quantiles else np.array([])
    return ErrorReport(
        cardinality=n,
        trials=trials,
        mean_rel_err=float(arr.mean()),
        median_rel_err=float(np.median(arr)),
        stddev_rel_err=stddev,
        rmse_rel=float(np.sqrt(np.mean(arr * arr))),
        quantiles=tuple(
            (float(p), float(v)) for p, v in zip(quantiles, qvals)
        ),
        failures=failures,
    )


def run_error_experiment(
    cardinalities,
    trials: int,
    config: SketchConfig,
    estimator,
    rng: RngSeed,
    *,
    threads: int = 1,
    quantiles=DEFAULT_QUANTILES,
):
    """Estimator error statistics over sampled sketches, one report per n.

    ``estimator`` is a name from ``SINGLE_ESTIMATORS`` or any callable
    ``(histogram, config) -> float``.  Trial t of cardinality index i uses
    the substream for global index ``i * trials + t``, so runs with the same
    ``RngSeed`` see identical sketches for every estimator choice.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    fn = _resolve_estimator(estimator)
    cards = [int(n) for n in cardinalities]
    reports = []
    for ci, n in enumerate(cards):

        def worker(t, n=n, base=ci * trials):
            gen = rng.generator(base + t)
            sketch = sample_sketch(n, config, gen)
            try:
                est = fn(sketch.histogram(), config)
            except HllError:
                return None
            return (est - n) / n if n > 0 else est

        outcomes = _map_trials(worker, range(trials), threads)
        errors = [e for e in outcomes if e is not None]
        reports.append(
            _summarize(errors, n, trials, trials - len(errors), quantiles)
        )
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
    *,
    threads: int = 1,
    solver: SolverConfig | None = None,
):
    """Paired inclusion-exclusion vs joint-ML error table, one row per triple."""
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    rows = []
    for gi, (card_a, card_b, card_x) in enumerate(configurations):
        truth = (card_a, card_b, card_x, card_a + card_b + card_x)

        def worker(t, base=gi * trials):
            gen = rng.generator(base + t)
            s1, s2 = sample_joint_pair(card_a, card_b, card_x, config, gen)
            try:
                ie, ml = _joint_estimates(s1, s2, solver)
            except HllError:
                return None
            return _joint_errors(ie, truth), _joint_errors(ml, truth)

        outcomes = _map_trials(worker, range(trials), threads)
        kept = [o for o in outcomes if o is not None]
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
