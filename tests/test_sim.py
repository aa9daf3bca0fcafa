"""Tests for the Monte-Carlo harness.

The direct register-law sampler is validated against two independent
oracles: exhaustive enumeration of all hash-bit outcomes on a tiny
configuration (exact joint distribution of the register vector), and
brute-force hash insertion at moderate size (moment comparison).
Chi-square thresholds use the Wilson-Hilferty approximation so the tests
need no stats dependency.
"""

import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest

import hllkit.joint
import hllkit.sim
from hllkit.errors import HllError, NoConvergenceError, RangeError, ZeroRegistersExhaustedError
from hllkit.improved import improved_estimate
from hllkit.joint import joint_ml_estimate
from hllkit.sim import (
    DEFAULT_QUANTILES,
    JOINT_CHUNK,
    SINGLE_ESTIMATORS,
    ErrorReport,
    RngSeed,
    _level_tables,
    _median_and_quantiles,
    _throw,
    run_error_experiment,
    run_joint_experiment,
    sample_joint_pair,
    sample_sketch,
)
from hllkit.sketch import Sketch, SketchConfig

CFG = SketchConfig(p=8, q=16)


def chi2_critical(df: int, z: float = 3.0902) -> float:
    """Upper 0.999 chi-square quantile via the Wilson-Hilferty cube."""
    a = 2.0 / (9.0 * df)
    return df * (1.0 - a + z * math.sqrt(a)) ** 3


def chi2_stat(observed, expected):
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return float(((observed - expected) ** 2 / expected).sum())


class RecordingGenerator(np.random.Generator):
    """A ``Generator`` on the bit generator of ``gen``, so that it draws what
    ``gen`` would, that records every public method called on it and what
    each ``integers`` or ``multinomial`` draw returned."""

    def __init__(self, gen):
        super().__init__(gen.bit_generator)
        self.used = []
        self.draws = []

    def __getattribute__(self, name):
        attr = super().__getattribute__(name)
        if name.startswith("_") or not callable(attr):
            return attr

        def call(*args, **kwargs):
            self.used.append(name)
            out = attr(*args, **kwargs)
            if name in ("integers", "multinomial"):
                self.draws.append(out)
            return out

        return call


def hit_registers(index_draws, p):
    """Registers the level walk's index draws landed on.

    The first draw is of 16-bit values whose top p bits index all 2^p
    registers; each later one indexes the zero list, in register order, of
    the registers no earlier draw had hit.
    """
    first, *later = index_draws
    hit = np.zeros(1 << p, dtype=bool)
    hit[first >> (16 - p)] = True
    for positions in later:
        hit[np.nonzero(~hit)[0][positions]] = True
    return hit


def register_law(cfg, n):
    """Exact probability of every register vector after n hashed elements,
    one element at a time: a uniform register, and a value k with
    probability 2^-min(k, q), k = 1..q+1, that the register keeps if larger."""
    level_probs = [(k, 2.0 ** -min(k, cfg.q)) for k in range(1, cfg.q + 2)]
    law = {bytes(cfg.m): 1.0}
    for _ in range(n):
        nxt = {}
        for key, prob in law.items():
            for r in range(cfg.m):
                for k, pk in level_probs:
                    regs = bytearray(key)
                    regs[r] = max(regs[r], k)
                    new = bytes(regs)
                    nxt[new] = nxt.get(new, 0.0) + prob * pk / cfg.m
        law = nxt
    return law


def chi2_against_law(exact, observed, draws):
    """Chi-square statistic and degrees of freedom, states with an expected
    count below 5 pooled into one bucket."""
    obs, exp = [], []
    pooled_obs = pooled_exp = 0.0
    for key, prob in exact.items():
        e = prob * draws
        o = observed.get(key, 0)
        if e >= 5.0:
            obs.append(o)
            exp.append(e)
        else:
            pooled_obs += o
            pooled_exp += e
    if pooled_exp > 0:
        obs.append(pooled_obs)
        exp.append(pooled_exp)
    return chi2_stat(obs, exp), len(obs) - 1


def assert_matches_insertion(cfg, n, seed, brute_seed, draws=4000, check=None):
    """Mean zero count and mean weighted mass, sampler against hash
    insertion, within 3 combined standard errors; ``check`` sees every
    sampler draw's recording generator."""
    weights = np.exp2(-np.arange(cfg.q + 2, dtype=float))
    zero_a, mass_a = np.empty(draws), np.empty(draws)
    for t in range(draws):
        gen = RecordingGenerator(seed.generator(t))
        h = sample_sketch(n, cfg, gen).histogram()
        if check:
            check(gen)
        zero_a[t], mass_a[t] = h[0], h @ weights
    rng = np.random.default_rng(brute_seed)
    zero_b, mass_b = np.empty(draws), np.empty(draws)
    for t in range(draws):
        s = Sketch(cfg)
        s.insert_many(rng.integers(0, 2**64, size=n, dtype=np.uint64))
        h = s.histogram()
        zero_b[t], mass_b[t] = h[0], h @ weights
    for a, b in ((zero_a, zero_b), (mass_a, mass_b)):
        se = math.sqrt(a.var(ddof=1) / draws + b.var(ddof=1) / draws)
        assert abs(a.mean() - b.mean()) <= 3.0 * se


class TestRngSeed:
    @pytest.mark.parametrize(
        "seed, stream_id", [(-1, 0), (1.5, 0), ("7", 0), (1, -5), (1, 2.0)]
    )
    def test_bad_seed_or_stream_rejected(self, seed, stream_id):
        with pytest.raises(RangeError):
            RngSeed(seed, stream_id=stream_id)

    def test_numpy_integer_seed_draws_the_same_stream(self):
        a = RngSeed(np.int64(3), stream_id=np.uint8(2)).generator(5).random()
        assert a == RngSeed(3, stream_id=2).generator(5).random()

    @pytest.mark.parametrize("i", [0, 1, 2**64 - 1])
    def test_trial_is_the_stream_jumped_trial_index_times(self, i):
        seq = np.random.SeedSequence(31, spawn_key=(4,))
        want = np.random.PCG64(seq).jumped(i)
        got = RngSeed(31, stream_id=4).generator(i)
        assert got.bit_generator.state == want.state
        assert np.array_equal(
            got.integers(0, 2**64, 8, dtype=np.uint64), want.random_raw(8)
        )

    def test_pickles_as_its_seed_and_stream(self):
        rng = RngSeed(12, stream_id=3)
        again = pickle.loads(pickle.dumps(rng))
        assert again == rng
        assert again.generator(7).random() == rng.generator(7).random()

    def test_generators_are_independent_objects(self):
        rng = RngSeed(6)
        a, b = rng.generator(3), rng.generator(3)
        assert a is not b and a.bit_generator is not b.bit_generator
        first = a.random(5)
        assert np.array_equal(b.random(5), first)  # a's draws left b where it was
        assert np.array_equal(rng.generator(3).random(5), first)

    def test_trial_generator_spawns_children_of_the_stream_seed(self):
        children = RngSeed(8, stream_id=2).generator(3).spawn(2)
        seqs = np.random.SeedSequence(8, spawn_key=(2,)).spawn(2)
        draws = [g.integers(0, 2**64, 8, dtype=np.uint64) for g in children]
        for got, seq in zip(draws, seqs):
            assert np.array_equal(got, np.random.PCG64(seq).random_raw(8))
        assert not np.array_equal(*draws)

    def test_neighbouring_trials_are_uncorrelated(self):
        # each bit of the first 64-bit output agrees between trials t and t+1
        # half the time, within 5 standard errors; trials 2**64 steps apart
        # share their low state bits and miss this by about 12
        rng = RngSeed(1)
        first = np.array(
            [rng.generator(t).bit_generator.random_raw() for t in range(20_000)],
            dtype=np.uint64,
        )
        bits = np.unpackbits(first.view(np.uint8)).reshape(-1, 64)
        agree = (bits[1:] == bits[:-1]).mean(axis=0)
        assert np.abs(agree - 0.5).max() <= 5 * 0.5 / math.sqrt(len(bits) - 1)


class TestThrow:
    BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]

    @pytest.mark.parametrize("bits", BIT_GENERATORS, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("p", [2, 4, 12])
    def test_uniform_on_the_registers(self, bits, p):
        m = 1 << p
        draws = 64 * m
        idx = _throw(np.random.Generator(bits(p)), p, draws)
        assert idx.size == draws and idx.min() >= 0 and idx.max() < m
        counts = np.bincount(idx, minlength=m)
        assert chi2_stat(counts, np.full(m, draws / m)) < chi2_critical(m - 1)

    def test_above_16_bits_keeps_the_bounded_draw(self):
        a = _throw(RngSeed(2).generator(0), 17, 100)
        b = RngSeed(2).generator(0).integers(0, 1 << 17, size=100)
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "call",
    [
        lambda: RngSeed(1).generator(-1),
        lambda: RngSeed(1).generator(1.5),
        lambda: RngSeed(1).generator(2**64),
        lambda: run_error_experiment([5], 3, CFG, ["raw"], RngSeed(1)),
        lambda: run_error_experiment(5, 3, CFG, "raw", RngSeed(1)),
        lambda: run_error_experiment(None, 3, CFG, "raw", RngSeed(1)),
        lambda: run_joint_experiment(None, 3, CFG, RngSeed(1)),
    ],
    ids=[
        "negative-trial-index",
        "float-trial-index",
        "trial-index-2**64",
        "unhashable-estimator",
        "int-cardinalities",
        "none-cardinalities",
        "none-configurations",
    ],
)
def test_bad_arguments_raise_range_error_not_a_raw_exception(call):
    with pytest.raises(RangeError):
        call()


class TestSampleSketch:
    def test_zero_elements_gives_fresh_sketch(self):
        s = sample_sketch(0, CFG, RngSeed(1).generator(0))
        assert not s.registers.any()

    def test_negative_rejected(self):
        with pytest.raises(RangeError):
            sample_sketch(-1, CFG, RngSeed(1).generator(0))

    @pytest.mark.parametrize("n", [2**63, 1000.0, 1e9, 10.7, "10", None])
    def test_non_int64_cardinality_rejected(self, n):
        with pytest.raises(RangeError):
            sample_sketch(n, CFG, RngSeed(1).generator(0))

    def test_int64_limit_and_numpy_ints_accepted(self):
        gen = RngSeed(1).generator(0)
        assert (sample_sketch(2**63 - 1, CFG, gen).registers > 0).all()
        a = sample_sketch(np.int64(300), CFG, RngSeed(1).generator(1))
        b = sample_sketch(300, CFG, RngSeed(1).generator(1))
        assert np.array_equal(a.registers, b.registers)

    def test_single_element_occupies_one_register(self):
        gen = RngSeed(2).generator(0)
        for _ in range(50):
            s = sample_sketch(1, CFG, gen)
            nz = np.nonzero(s.registers)[0]
            assert nz.size == 1
            assert 1 <= s.registers[nz[0]] <= CFG.q + 1

    def test_single_element_value_distribution(self):
        # P(K=k) = 2^-k for 1 <= k <= q, and 2^-q at q+1
        cfg = SketchConfig(p=4, q=6)
        gen = RngSeed(3).generator(0)
        draws = 20_000
        counts = np.zeros(cfg.q + 2, dtype=int)
        for _ in range(draws):
            s = sample_sketch(1, cfg, gen)
            counts[s.registers.max()] += 1
        probs = np.exp2(-np.arange(1.0, cfg.q + 1))
        probs = np.append(probs, 2.0 ** -cfg.q)
        stat = chi2_stat(counts[1:], draws * probs)
        assert stat < chi2_critical(len(probs) - 1)

    def test_tiny_instance_matches_exhaustive_enumeration(self):
        # p=2, q=2: only the top 4 hash bits matter, so all register-vector
        # probabilities for n elements follow from the 16^n equally likely
        # bit patterns
        cfg = SketchConfig(p=2, q=2)
        n = 3
        exact = {}
        weight = 1.0 / 16 ** n
        for pattern in itertools.product(range(16), repeat=n):
            s = Sketch(cfg)
            for cell in pattern:
                s.insert((cell & 0xF) << 60)
            key = bytes(s.registers)
            exact[key] = exact.get(key, 0.0) + weight
        assert abs(sum(exact.values()) - 1.0) < 1e-12

        draws = 100_000
        gen = RngSeed(4).generator(0)
        observed = {}
        for _ in range(draws):
            s = sample_sketch(n, cfg, gen)
            key = bytes(s.registers)
            observed[key] = observed.get(key, 0) + 1
        assert set(observed) <= set(exact)

        # pool register states with small expectation into one bucket
        obs, exp = [], []
        pooled_obs = pooled_exp = 0.0
        for key, prob in exact.items():
            e = prob * draws
            o = observed.get(key, 0)
            if e >= 5.0:
                obs.append(o)
                exp.append(e)
            else:
                pooled_obs += o
                pooled_exp += e
        if pooled_exp > 0:
            obs.append(pooled_obs)
            exp.append(pooled_exp)
        stat = chi2_stat(obs, exp)
        assert stat < chi2_critical(len(obs) - 1)

    @pytest.mark.parametrize("load", [4, 12], ids=["cutoff", "high"])
    def test_level_walk_matches_exact_register_law(self, load):
        # p=2, q=2 at n = 4m+1 and 12m+1: the law of the whole register
        # vector, computed element by element, against the level walk
        cfg = SketchConfig(p=2, q=2)
        # the law built element by element against every hash-bit pattern of
        # two elements (only the top 4 bits matter at p=2, q=2)
        patterns = {}
        for pattern in itertools.product(range(16), repeat=2):
            s = Sketch(cfg)
            for cell in pattern:
                s.insert(cell << 60)
            key = bytes(s.registers)
            patterns[key] = patterns.get(key, 0.0) + 1.0 / 16**2
        assert register_law(cfg, 2) == pytest.approx(patterns)

        n = load * cfg.m + 1
        exact = register_law(cfg, n)
        draws = 20_000
        seed = RngSeed(18, stream_id=load)
        observed = {}
        for t in range(draws):
            key = bytes(sample_sketch(n, cfg, seed.generator(t)).registers)
            observed[key] = observed.get(key, 0) + 1
        assert set(observed) <= set(exact)
        stat, df = chi2_against_law(exact, observed, draws)
        assert stat < chi2_critical(df)

    def test_matches_brute_force_insertion_moments(self):
        # mean count of untouched registers, sampler vs real hash insertion
        n, draws = 1000, 2000
        seed = RngSeed(5)
        c0_direct = np.empty(draws)
        weight_direct = np.empty(draws)
        pow2 = np.exp2(-np.minimum(np.arange(CFG.q + 2), CFG.q).astype(float))
        for t in range(draws):
            h = sample_sketch(n, CFG, seed.generator(t)).histogram()
            c0_direct[t] = h[0]
            weight_direct[t] = h @ pow2
        rng = np.random.default_rng(6)
        c0_brute = np.empty(draws)
        weight_brute = np.empty(draws)
        for t in range(draws):
            s = Sketch(CFG)
            s.insert_many(rng.integers(0, 2**64, size=n, dtype=np.uint64))
            h = s.histogram()
            c0_brute[t] = h[0]
            weight_brute[t] = h @ pow2
        for a, b in ((c0_direct, c0_brute), (weight_direct, weight_brute)):
            se = math.sqrt(a.var(ddof=1) / draws + b.var(ddof=1) / draws)
            assert abs(a.mean() - b.mean()) <= 3.0 * se


    @pytest.mark.parametrize("extra", [0, 1], ids=["at-cutoff", "above-cutoff"])
    def test_branch_matches_brute_force_insertion(self, extra):
        # n = 4m and 4m+1; the first draw is the level walk's multinomial
        # over the q+1 hash levels
        cfg = SketchConfig(p=4, q=6)

        def check(gen):
            assert gen.used[0] == "multinomial"

        assert_matches_insertion(
            cfg, 4 * cfg.m + extra, RngSeed(12, stream_id=extra), 13 + extra,
            check=check,
        )

    @pytest.mark.parametrize("q", [0, 1, 6, 60])
    @pytest.mark.parametrize("load", [4, 100], ids=["cutoff", "high"])
    def test_level_walk_matches_brute_force_insertion(self, q, load):
        # n = 4m+1, and a load where most elements are thinned away by the
        # binomial draws of the zero-list phase
        cfg = SketchConfig(p=4, q=q)
        thinned = []

        def check(gen):
            assert gen.used[0] == "multinomial"
            thinned.append("binomial" in gen.used)

        assert_matches_insertion(
            cfg, load * cfg.m + 1, RngSeed(15, stream_id=q), 16 + q, check=check
        )
        assert sum(thinned) > len(thinned) // 2

    @pytest.mark.parametrize("q", [0, 3, 60])
    def test_both_branches_fill_exactly_the_occupied_registers(self, q):
        # every n, from the empty sketch up, is one level walk: per-level
        # sizes, then the register index throws
        cfg = SketchConfig(p=4, q=q)
        m = cfg.m
        for n in (0, 1, 2 * m, 4 * m, 4 * m + 1, 1000 * m):
            for t in range(50):
                gen = RecordingGenerator(RngSeed(14, stream_id=n).generator(t))
                regs = sample_sketch(n, cfg, gen).registers
                assert regs.dtype == np.uint8
                assert gen.used[:2] == ["multinomial", "integers"]
                levels, *index_draws = gen.draws
                assert levels.size == q + 1 and levels.sum() == n
                # the first throw takes min(n, 2m) elements; below 2m it is
                # the only one
                assert index_draws[0].size == min(n, 2 * m)
                if n <= 2 * m:
                    assert len(index_draws) == 1
                occupied = hit_registers(index_draws, cfg.p)
                assert np.all(regs[~occupied] == 0)
                assert np.all((regs[occupied] >= 1) & (regs[occupied] <= q + 1))
                if n:
                    # a register holds a level only if that level drew elements
                    present = np.unique(regs[occupied])
                    assert np.all(levels[present - 1] > 0)
                    assert present.max() == np.nonzero(levels)[0].max() + 1

    @pytest.mark.parametrize("p,q", [(4, 0), (8, 16), (2, 62)])
    def test_at_most_2m_elements_is_one_multinomial_and_one_throw(self, p, q):
        cfg = SketchConfig(p, q)
        for n in (0, 1, cfg.m, 2 * cfg.m):
            gen = RecordingGenerator(RngSeed(5, stream_id=n).generator(q))
            sample_sketch(n, cfg, gen)
            assert gen.used == ["multinomial", "integers"]

    @pytest.mark.parametrize("q", [0, 16, 62])
    def test_level_tables_reject_writes(self, q):
        pmf, levels = _level_tables(q)
        assert pmf.size == levels.size == q + 1
        for arr in (pmf, levels):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        assert _level_tables(q)[0] is pmf  # built once per q

    @pytest.mark.parametrize("q", [0, 1, 20])
    def test_level_walk_memory_does_not_grow_with_n(self, q):
        # the largest temporary is the first throw's 2m indices, whatever n
        cfg = SketchConfig(p=12, q=q)
        peaks = []
        for n in (10**7, 10**15):
            tracemalloc.start()
            sample_sketch(n, cfg, RngSeed(17).generator(q))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < 128 * cfg.m
        # the same up to a few small Python objects
        assert abs(peaks[1] - peaks[0]) <= 2048

    @pytest.mark.parametrize("fill", [2, 10])
    def test_draw_and_histogram_memory_per_register(self, fill):
        # bounds to lower, not loosen: the draw peaks at 19.01 bytes a
        # register at either n, sketch included, and the histogram at 4.04
        cfg = SketchConfig(20, 20)
        tracemalloc.start()
        try:
            sketch = sample_sketch(fill * cfg.m, cfg, RngSeed(32).generator(0))
            drawn = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            sketch.histogram()
            counted = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert drawn <= 19.5 * cfg.m + 64 * 1024, drawn / cfg.m
        assert counted <= 4.5 * cfg.m + 64 * 1024, counted / cfg.m


class TestSampleJointPair:
    def test_no_exclusive_mass_gives_identical_pair(self):
        s1, s2 = sample_joint_pair(0, 0, 500, CFG, RngSeed(7).generator(0))
        assert np.array_equal(s1.registers, s2.registers)

    def test_no_shared_mass_reproduces_independent_draws(self):
        s1, s2 = sample_joint_pair(300, 400, 0, CFG, RngSeed(8).generator(0))
        gen = RngSeed(8).generator(0)
        ra = sample_sketch(300, CFG, gen).registers
        rb = sample_sketch(400, CFG, gen).registers
        assert np.array_equal(s1.registers, ra)
        assert np.array_equal(s2.registers, rb)

    def test_marginal_matches_single_sketch_distribution(self):
        draws = 2000
        seed = RngSeed(9)
        c0_pair = np.empty(draws)
        for t in range(draws):
            s1, _ = sample_joint_pair(600, 77, 400, CFG, seed.generator(t))
            c0_pair[t] = s1.histogram()[0]
        other = RngSeed(10)
        c0_single = np.empty(draws)
        for t in range(draws):
            c0_single[t] = sample_sketch(1000, CFG, other.generator(t)).histogram()[0]
        se = math.sqrt(
            c0_pair.var(ddof=1) / draws + c0_single.var(ddof=1) / draws
        )
        assert abs(c0_pair.mean() - c0_single.mean()) <= 3.0 * se


class TestRunErrorExperiment:
    def test_report_shape_and_invariants(self):
        reports = run_error_experiment(
            [100, 1000], 50, CFG, "improved", RngSeed(11)
        )
        assert [r.cardinality for r in reports] == [100, 1000]
        for r in reports:
            assert r.trials == 50 and r.failures == 0
            assert r.stddev_rel_err >= 0.0
            assert r.rmse_rel**2 >= r.mean_rel_err**2 - 1e-12
            probs = [p for p, _ in r.quantiles]
            vals = [v for _, v in r.quantiles]
            assert probs == list(DEFAULT_QUANTILES)
            assert vals == sorted(vals)

    def test_zero_cardinality_uses_absolute_error(self):
        (r,) = run_error_experiment([0], 10, CFG, "improved", RngSeed(12))
        assert r.mean_rel_err == 0.0 and r.rmse_rel == 0.0

    def test_same_seed_reproduces_bitwise(self):
        a = run_error_experiment([500], 40, CFG, "ml", RngSeed(13, stream_id=2))
        b = run_error_experiment([500], 40, CFG, "ml", RngSeed(13, stream_id=2))
        assert a == b

    def test_different_stream_differs(self):
        a = run_error_experiment([500], 40, CFG, "improved", RngSeed(13, stream_id=0))
        b = run_error_experiment([500], 40, CFG, "improved", RngSeed(13, stream_id=1))
        assert a != b

    def test_failures_counted_not_raised(self):
        # every register is hit at this load, so the zero-register estimator
        # has nothing to work with and every trial fails
        cfg = SketchConfig(p=4, q=20)
        (r,) = run_error_experiment([20_000], 10, cfg, "linear", RngSeed(15))
        assert r.failures == 10
        assert math.isnan(r.mean_rel_err)

    def test_callable_estimator(self):
        calls = []

        def fake(hist, config):
            calls.append(1)
            return 42.0

        (r,) = run_error_experiment([10], 5, CFG, fake, RngSeed(16))
        assert len(calls) == 5
        assert r.mean_rel_err == pytest.approx(42.0 / 10 - 1.0)

    @pytest.mark.parametrize("value", [None, "42", [42.0], 1 + 2j])
    def test_callable_returning_a_non_number_fails_its_trials(self, value):
        # before, None became a nan row with failures=0
        (r,) = run_error_experiment([10], 5, CFG, lambda h, c: value, RngSeed(16))
        assert r.failures == 5
        assert math.isnan(r.mean_rel_err)

    def test_callable_receives_the_int64_counts(self):
        seen = []

        def fake(counts, config):
            seen.append(counts)
            return 10.0

        run_error_experiment([10], 2, CFG, fake, RngSeed(16))
        for counts in seen:
            assert counts.dtype == np.int64 and counts.shape == (CFG.q + 2,)
            assert counts.sum() == CFG.m

    def test_unknown_estimator_rejected(self):
        with pytest.raises(RangeError):
            run_error_experiment([10], 5, CFG, "nope", RngSeed(17))

    def test_too_few_trials_rejected(self):
        with pytest.raises(RangeError):
            run_error_experiment([10], 1, CFG, "improved", RngSeed(18))

    @pytest.mark.parametrize("trials", [2.5, 4.0])
    def test_non_integer_trials_rejected(self, trials):
        with pytest.raises(RangeError):
            run_error_experiment([10], trials, CFG, "improved", RngSeed(18))

    @pytest.mark.parametrize("cards", [[10.7], [10.0], [10, -1], [2**63]])
    def test_non_integral_cardinality_rejected(self, cards):
        with pytest.raises(RangeError):
            run_error_experiment(cards, 5, CFG, "improved", RngSeed(18))

    def test_numpy_int_cardinalities_accepted(self):
        a = run_error_experiment(np.array([10, 500]), 5, CFG, "improved", RngSeed(18))
        b = run_error_experiment([10, 500], 5, CFG, "improved", RngSeed(18))
        assert a == b
        assert all(type(r.cardinality) is int for r in a)

    def test_median_and_quantiles_match_numpy(self):
        # sizes 1..40 with ties, infinities of both signs and nan
        rng = np.random.default_rng(26)
        for t in range(3000):
            x = rng.normal(size=int(rng.integers(1, 41))) * 10.0 ** rng.integers(-6, 3)
            if t % 4 == 1:
                x = np.round(x, 1) + 0.0  # ties; +0.0 drops negative zeros
            elif t % 4 == 2:
                x[rng.integers(0, x.size, size=3)] = rng.choice([np.inf, -np.inf])
            elif t % 20 == 3:
                x[rng.integers(0, x.size)] = np.nan
            qs = DEFAULT_QUANTILES if t % 2 else (0.0, 0.5, 1.0, rng.uniform())
            with np.errstate(invalid="ignore"):
                median, qvals = _median_and_quantiles(x, qs)
                want = np.quantile(x, qs)
            assert repr(float(median)) == repr(float(np.median(x)))
            assert [repr(float(v)) for v in qvals] == [repr(float(v)) for v in want]

    def test_paired_sketches_across_estimators(self):
        # same seed => same sampled sketches regardless of estimator
        seen = {}

        def recorder(name):
            def est(hist, config):
                seen.setdefault(name, []).append(hist.tobytes())
                return improved_estimate(hist, config)

            return est

        run_error_experiment([300], 8, CFG, recorder("a"), RngSeed(19))
        run_error_experiment([300], 8, CFG, recorder("b"), RngSeed(19))
        assert seen["a"] == seen["b"]


class TestRunJointExperiment:
    def test_row_shape_and_determinism(self):
        configs = [(1000, 1000, 1000), (500, 500, 50)]
        rows = run_joint_experiment(configs, 20, CFG, RngSeed(20))
        assert [(r.card_a, r.card_b, r.card_x) for r in rows] == configs
        for r in rows:
            assert r.trials == 20 and r.failures == 0
            assert len(r.rmse_ie) == len(r.rmse_ml) == len(r.improvement) == 4
            assert all(v >= 0 for v in r.rmse_ie + r.rmse_ml)
        again = run_joint_experiment(configs, 20, CFG, RngSeed(20))
        assert rows == again

    def test_identical_pair_configuration(self):
        (row,) = run_joint_experiment([(0, 0, 800)], 15, CFG, RngSeed(22))
        # exclusive estimates from inclusion-exclusion cancel exactly
        assert row.rmse_ie[0] == 0.0 and row.rmse_ie[1] == 0.0
        assert row.rmse_ml[2] < 0.5

    def test_too_few_trials_rejected(self):
        with pytest.raises(RangeError):
            run_joint_experiment([(10, 10, 10)], 1, CFG, RngSeed(23))

    @pytest.mark.parametrize("trials", [2.5, 4.0])
    def test_non_integer_trials_rejected(self, trials):
        with pytest.raises(RangeError):
            run_joint_experiment([(10, 10, 10)], trials, CFG, RngSeed(23))

    @pytest.mark.parametrize("triple", [(10, 10, 10.5), (10.0, 10, 10), (10, -1, 10)])
    def test_non_integral_cardinality_rejected(self, triple):
        with pytest.raises(RangeError):
            run_joint_experiment([(10, 10, 10), triple], 2, CFG, RngSeed(23))

    @pytest.mark.parametrize("triple", [(1, 2), (1, 2, 3, 4), 5])
    def test_malformed_triple_rejected_before_any_trial(self, triple, monkeypatch):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(hllkit.sim, "sample_joint_pair", no_trial)
        with pytest.raises(RangeError):
            run_joint_experiment([(10, 10, 10), triple], 2, CFG, RngSeed(23))

    def test_numpy_int_cardinalities_accepted(self):
        a = run_joint_experiment([np.array([300, 200, 100])], 4, CFG, RngSeed(23))
        b = run_joint_experiment([(300, 200, 100)], 4, CFG, RngSeed(23))
        assert a == b


PAPER_CFG = SketchConfig(12, 16)
PAPER_CONFIGURATIONS = [(10_000, 10_000, 10_000), (10_000, 10_000, 100),
                        (100, 100, 10_000), (100_000, 1_000, 1_000)]


def fits_inside(monkeypatch):
    """A list that gets the joint-ML fit of each trial that
    ``run_joint_experiment`` fits, in trial order: a ``JointEstimate``, or
    the ``HllError`` that stopped the trial."""
    seen = []
    fit_pairs = hllkit.sim._fit_pairs

    def recording(pairs):
        fits = fit_pairs(pairs)
        seen.extend(fit if isinstance(fit, HllError) else fit[1] for fit in fits)
        return fits

    monkeypatch.setattr(hllkit.sim, "_fit_pairs", recording)
    return seen


def fits_alone(configurations, trials, cfg, rng):
    """``joint_ml_estimate`` of each trial's pair, drawn as
    ``run_joint_experiment`` draws it; a failed fit gives its error's type."""
    fits = []
    for gi, cards in enumerate(configurations):
        for t in range(trials):
            s1, s2 = sample_joint_pair(*cards, cfg, rng.generator(gi * trials + t))
            try:
                fits.append(joint_ml_estimate(s1, s2))
            except HllError as exc:
                fits.append(type(exc))
    return fits


class TestLockStepFits:
    """``run_joint_experiment`` fits the trials of a configuration in lock
    step, JOINT_CHUNK at a time; each fit is the one its pair gets alone."""

    def test_each_fit_is_the_one_joint_ml_estimate_gives(self, monkeypatch):
        inside = fits_inside(monkeypatch)
        rows = run_joint_experiment(PAPER_CONFIGURATIONS, 20, PAPER_CFG, RngSeed(26))
        assert sum(row.failures for row in rows) == 0
        assert inside == fits_alone(PAPER_CONFIGURATIONS, 20, PAPER_CFG, RngSeed(26))

    def test_a_failed_fit_leaves_the_others_alone(self, monkeypatch):
        # with at most 2 Newton steps, 6 of these 32 pairs fail inside one
        # lock-step batch
        monkeypatch.setattr(hllkit.joint, "JOINT_MAX_ITERATIONS", 2)
        inside = fits_inside(monkeypatch)
        cards, trials = (1000, 100, 100), JOINT_CHUNK
        (row,) = run_joint_experiment([cards], trials, CFG, RngSeed(30))
        alone = fits_alone([cards], trials, CFG, RngSeed(30))
        assert 0 < row.failures < trials
        assert row.failures == alone.count(NoConvergenceError)
        assert [type(f) if isinstance(f, HllError) else f for f in inside] == alone

    def test_fits_do_not_depend_on_the_chunk_boundary(self, monkeypatch):
        # one configuration, so trial t draws from generator t whatever the
        # trial count; JOINT_CHUNK + 1 trials make a second batch of one
        inside = fits_inside(monkeypatch)
        runs = []
        for trials in (JOINT_CHUNK - 1, JOINT_CHUNK, JOINT_CHUNK + 1):
            inside.clear()
            run_joint_experiment([(10_000, 10_000, 100)], trials, PAPER_CFG, RngSeed(27))
            runs.append(list(inside))
        assert runs[0] == runs[1][:-1] and runs[1] == runs[2][:-1]

    def test_memory_does_not_grow_with_trials(self):
        # one batch of pair tables at a time: twice the trials add only the
        # results kept per trial, two tuples of four floats (under 400 bytes);
        # the tables and temporaries of a batch take over 10 KB a trial
        run_joint_experiment([(10_000, 10_000, 100)], 2, PAPER_CFG, RngSeed(28))  # warm caches
        peaks = []
        for trials in (JOINT_CHUNK, 2 * JOINT_CHUNK):
            tracemalloc.start()
            run_joint_experiment([(10_000, 10_000, 100)], trials, PAPER_CFG, RngSeed(28))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 1024 * JOINT_CHUNK, peaks

    def test_estimates_kept_take_under_160_bytes_a_trial(self):
        # a trial keeps its eight estimates as one float64 row (64 bytes),
        # and the end of a configuration adds the stacked copy and the errors
        # computed from it
        run_joint_experiment([(1000, 1000, 1000)], 2, CFG, RngSeed(29))  # warm caches
        peaks = []
        for trials in (256, 2048):
            tracemalloc.start()
            run_joint_experiment([(1000, 1000, 1000)], trials, CFG, RngSeed(29))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 160 * (2048 - 256), peaks


class TestSingleEstimators:
    @pytest.mark.parametrize("name", sorted(SINGLE_ESTIMATORS))
    def test_histogram_of_wrong_mass_rejected(self, name):
        # p + q = 32 so that the composite estimator reaches its check; the
        # histogram holds 256 registers, the configuration wants 512
        cfg = SketchConfig(9, 23)
        counts = np.zeros(cfg.q + 2, dtype=np.int64)
        counts[0], counts[3] = 200, 56
        with pytest.raises(RangeError):
            SINGLE_ESTIMATORS[name](counts, cfg)


class TestErrorReportType:
    def test_all_failed_report_is_nan(self):
        r = ErrorReport(
            cardinality=5,
            trials=3,
            mean_rel_err=float("nan"),
            median_rel_err=float("nan"),
            stddev_rel_err=float("nan"),
            rmse_rel=float("nan"),
            quantiles=(),
            failures=3,
        )
        assert r.failures == r.trials

    def test_linear_estimator_happy_path_has_no_failures(self):
        (r,) = run_error_experiment([50], 10, CFG, "linear", RngSeed(24))
        assert r.failures == 0

    def test_exhausted_zero_registers_is_the_failure_mode(self):
        cfg = SketchConfig(p=4, q=20)
        s = sample_sketch(20_000, cfg, RngSeed(25).generator(0))
        with pytest.raises(ZeroRegistersExhaustedError):
            from hllkit.classic import linear_counting_estimate

            linear_counting_estimate(s.histogram()[0], cfg.m)
