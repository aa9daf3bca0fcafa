"""Properties that span modules.

Raising one register never lowers a cardinality estimate; merging is
idempotent, commutative and associative, on the registers and on every
estimate; ``Sketch.histogram`` gives the int64 ``bincount`` of the
registers, which the count rule of every estimator accepts as it is, and
every function that takes a histogram gives the same bits for those counts,
their list and an integral float copy; decoding any byte
string, in the library or through ``hllkit inspect``, either succeeds or
fails with a typed error and its documented exit code; every public function
that takes numbers, sequences or sketches, given one bad value (nan, an
infinity, a number past int64 or past the float range, a non-iterable, a
wrong length, a ragged sequence, a non-number where one number is wanted,
numbers written as text, a non-sketch, a non-configuration or a
non-generator), raises a typed error or returns a documented value, with no
warning; every non-number raises a typed error, every bad histogram
``RangeError``, every non-sketch ``ConfigMismatchError``, and every
non-configuration and non-generator ``RangeError``; and any
argv drawn from a grammar of valid, malformed and edge values for the four
subcommands ends in a documented exit code, with one ``error:`` line and no
stdout on failure, and writes files only under the test's temporary
directory.
"""

import builtins
import contextlib
import io
import math
import os
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hllkit import (
    Bracket,
    ConfigMismatchError,
    JointEstimate,
    RngSeed,
    inclusion_exclusion_estimate,
    joint_gradient,
    joint_log_likelihood,
    joint_ml_estimate,
    joint_statistic,
    large_range_correction,
    linear_counting_estimate,
    ml_bracket,
    ml_root_function,
    original_estimate,
    run_error_experiment,
    run_joint_experiment,
    sample_joint_pair,
    sigma,
    tau,
    zeta,
)
from hllkit.classic import raw_estimate
from hllkit.cli import main
from hllkit.errors import DomainError, FormatError, HllError, RangeError
from hllkit.improved import improved_estimate
from hllkit.ml import ml_estimate, stop_delta
from hllkit.sim import SINGLE_ESTIMATORS, sample_sketch
from hllkit.sketch import MAGIC, Sketch, SketchConfig, tally


def _config_and_rng(draw):
    cfg = SketchConfig(draw(st.sampled_from([4, 6, 8])), draw(st.integers(0, 24)))
    return cfg, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def _registers(draw, cfg, rng):
    """Registers of a sampled sketch, or uniform values in a drawn range."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 10**7))
        return sample_sketch(n, cfg, rng).registers.copy()
    lo = draw(st.integers(0, cfg.q + 1))
    hi = draw(st.integers(lo, cfg.q + 1))
    return rng.integers(lo, hi + 1, size=cfg.m).astype(np.uint8)


@st.composite
def register_raises(draw):
    """A register array, one register below q+1 in it, and a higher value."""
    cfg, rng = _config_and_rng(draw)
    regs = _registers(draw, cfg, rng)
    below = np.flatnonzero(regs <= cfg.q)
    if below.size == 0:
        regs[draw(st.integers(0, cfg.m - 1))] = draw(st.integers(0, cfg.q))
        below = np.flatnonzero(regs <= cfg.q)
    i = int(below[draw(st.integers(0, below.size - 1))])
    raised = regs.copy()
    raised[i] = draw(st.integers(int(regs[i]) + 1, cfg.q + 1))
    return cfg, Sketch.from_registers(cfg, regs), Sketch.from_registers(cfg, raised)


@settings(max_examples=300, deadline=None)
@given(register_raises())
def test_raising_a_register_never_lowers_an_estimate(case):
    cfg, before, after = case
    h0, h1 = before.histogram(), after.histogram()
    assert improved_estimate(h1, cfg) >= improved_estimate(h0, cfg)
    # the secant stops once its relative step is below delta, so each ML
    # estimate is only known to within a relative delta of its root
    delta = stop_delta(cfg.m)
    assert ml_estimate(h1, cfg) >= ml_estimate(h0, cfg) * (1.0 - delta)


@st.composite
def sketch_triples(draw):
    """Three sketches of one configuration."""
    cfg, rng = _config_and_rng(draw)
    return [Sketch.from_registers(cfg, _registers(draw, cfg, rng)) for _ in range(3)]


def _outcome(fn, h, cfg):
    """repr of ``fn(h, cfg)``, exact to the bit, or the name of its error."""
    try:
        return repr(fn(h, cfg))
    except HllError as e:
        return type(e).__name__


def _estimates(sketch):
    """raw, improved and ML estimates as exact reprs, or the error each raised."""
    h, cfg = sketch.histogram(), sketch.config
    return [_outcome(fn, h, cfg) for fn in (raw_estimate, improved_estimate, ml_estimate)]


@settings(max_examples=200, deadline=None)
@given(sketch_triples())
def test_merge_is_idempotent_commutative_and_associative(sketches):
    a, b, c = sketches
    for left, right in (
        (a.merge(a), a),
        (a.merge(b), b.merge(a)),
        (a.merge(b).merge(c), a.merge(b.merge(c))),
    ):
        assert np.array_equal(left.registers, right.registers)
        assert _estimates(left) == _estimates(right)


@st.composite
def any_shape_registers(draw):
    """A configuration with p in 2..16 and any q, so that both the byte and
    the byte-pair count run, or the q = 32 - p that ``original_estimate``
    needs, and registers drawn in a random value range."""
    p = draw(st.integers(2, 16))
    cfg = SketchConfig(p, draw(st.one_of(st.integers(0, 64 - p), st.just(32 - p))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.integers(0, cfg.q + 1))
    hi = draw(st.integers(lo, cfg.q + 1))
    return cfg, rng.integers(lo, hi + 1, size=cfg.m).astype(np.uint8)


@settings(max_examples=300, deadline=None)
@given(any_shape_registers())
def test_histogram_matches_the_checked_bincount(case):
    cfg, regs = case
    got = Sketch.from_registers(cfg, regs).histogram()
    assert np.array_equal(got, np.bincount(regs, minlength=cfg.q + 2))
    assert got.dtype == np.int64
    assert tally(got, cfg, (cfg.q + 2,), "histogram") is got


_HIST_CFG = SketchConfig(4, 28)  # p + q = 32, as original_estimate needs
_HIST = [8, 4, 2, 1, 1, *[0] * 25]
# every function that takes a histogram, called as (histogram, config)
HISTOGRAM_FUNCTIONS = {
    "raw_estimate": raw_estimate,
    "original_estimate": original_estimate,
    "improved_estimate": improved_estimate,
    "ml_estimate": ml_estimate,
    "ml_bracket": ml_bracket,
    "ml_root_function": lambda h, cfg: ml_root_function(100.0, h, cfg),
    "SINGLE_ESTIMATORS['linear']": SINGLE_ESTIMATORS["linear"],
}


@settings(max_examples=200, deadline=None)
@given(any_shape_registers())
def test_every_histogram_form_gives_the_same_bits(case):
    cfg, regs = case
    h = Sketch.from_registers(cfg, regs).histogram()
    for fn in HISTOGRAM_FUNCTIONS.values():
        want = _outcome(fn, h, cfg)
        assert _outcome(fn, h.tolist(), cfg) == want
        assert _outcome(fn, h.astype(float), cfg) == want


@st.composite
def sketch_bytes(draw):
    """Byte strings near the serialized format: random, or a header with
    arbitrary version, p and q followed by a body of random length, or of
    exact length with values up to a drawn bound."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=40))
    version = draw(st.sampled_from([1, 1, 1, 0, 2, 255]))
    p = draw(st.one_of(st.integers(2, 8), st.integers(0, 30)))
    q = draw(st.one_of(st.integers(0, 62), st.integers(0, 255)))
    if 2 <= p <= 8 and draw(st.booleans()):
        top = draw(st.integers(0, 255))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        body = rng.integers(0, top + 1, size=1 << p).astype(np.uint8).tobytes()
    else:
        body = draw(st.binary(max_size=300))
    return MAGIC + bytes([version, p, q]) + body


@settings(max_examples=300, deadline=None)
@given(sketch_bytes())
def test_from_bytes_gives_a_sketch_or_a_typed_error(data):
    try:
        sketch = Sketch.from_bytes(data)
    except (FormatError, RangeError):
        return
    assert sketch.to_bytes() == data


@settings(max_examples=100, deadline=None)
@given(data=sketch_bytes())
def test_inspect_exits_0_or_2_on_any_file(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("inspect") / "s.hlls"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["inspect", "--sketch", str(path)])
    assert code in (0, 2)
    assert (code == 2) == err.getvalue().startswith("error: cannot read sketch:")


BAD_NUMBERS = [math.nan, math.inf, -math.inf, 2.0**63, 2**64, 2**1100]
NOT_NUMBERS = [None, 1 + 2j, "0.5", [0.5], [0.5, 0.5], np.array([0.5, 0.5])]
SCALAR = [*BAD_NUMBERS, *NOT_NUMBERS]  # the probes of an argument that takes one number
TEXT_NUMBERS = ["0.3", b"0.3", ["0.3", 0.7], np.array(["0.3"])]  # zeta's non-numbers
NON_ITERABLES = [5, None, 1.5]
RAGGED = [[1], [2, 3]]


def _with_first(valid, v):
    """``valid``, a list or a nested one, with its first number made ``v``."""
    first = _with_first(valid[0], v) if isinstance(valid[0], list) else v
    return [first, *valid[1:]]


def _sequence(valid, short=None):
    """Non-iterables, a ragged sequence, ``short`` (a wrong length) and
    ``valid`` with its first number made a bad number."""
    wrong = [] if short is None else [short]
    return [*NON_ITERABLES, RAGGED, *wrong, *(_with_first(valid, v) for v in BAD_NUMBERS)]


def _inserted_many(hashes):
    sketch = Sketch(_CFG)
    sketch.insert_many(hashes)
    return sketch


def _joint(fn):
    def call(a, b, x, stat):
        return fn(JointEstimate(a, b, x), stat, _CFG)

    return call


_CFG = SketchConfig(4, 8)
_COUNTS = [8, 4, 2, 1, 1, 0, 0, 0, 0, 0]
_REGS = [0] * 8 + [1] * 4 + [2, 2, 3, 4]
_PAIR = sample_joint_pair(30, 20, 10, _CFG, np.random.default_rng(0))
_STAT = joint_statistic(*_PAIR)
# a histogram argument: None and the other non-iterables, text, a ragged
# list, one bin short, bad numbers, a negative count and a wrong mass
BAD_HISTOGRAMS = [
    *_sequence(_HIST, _HIST[:-1]), "x", [9, -1, *_HIST[2:]], [9, *_HIST[1:]]
]
# a sketch argument: non-sketches, and a sketch of another configuration
NOT_SKETCHES = [None, [0] * 16, "x", _REGS, Sketch(SketchConfig(4, 9))]
_TRIPLE_ELEMENT = [[(v, 20, 10)] for v in BAD_NUMBERS]
# a configuration argument: None, a (p, q) tuple, text and a sketch
NOT_CONFIGS = [None, (4, 8), "x", Sketch(_CFG)]
# a generator or seed argument: None, a number, text, a bare bit generator and
# a plain object with a generator's three sampler draws; each case adds the
# other kind, since a seed is no generator and the reverse
_DRAWS = np.random.default_rng(0)
NOT_GENERATORS = [None, 0, "x", np.random.PCG64(0), SimpleNamespace(
    multinomial=_DRAWS.multinomial, binomial=_DRAWS.binomial, integers=_DRAWS.integers)]
# an estimate argument: None, a tuple of three rates, text and a sketch
NOT_ESTIMATES = [None, (1.0, 2.0, 3.0), "x", Sketch(_CFG)]
# name: (call given the one estimate argument of a public function)
ESTIMATE_CASES = {
    f"{fn.__name__} est": lambda est, fn=fn: fn(est, _STAT, _CFG)
    for fn in (joint_log_likelihood, joint_gradient)
}
# name: (call given the one configuration argument of a public function,
# its valid value)
CONFIG_CASES = {
    **{f"{name} config": (lambda cfg, fn=fn: fn(_HIST, cfg), _HIST_CFG)
       for name, fn in HISTOGRAM_FUNCTIONS.items()},
    "Sketch": (Sketch, _CFG),
    "Sketch.from_registers config": (lambda cfg: Sketch.from_registers(cfg, _REGS), _CFG),
    "sample_sketch config": (
        lambda cfg: sample_sketch(100, cfg, np.random.default_rng(0)), _CFG),
    "sample_joint_pair config": (
        lambda cfg: sample_joint_pair(30, 20, 10, cfg, np.random.default_rng(0)), _CFG),
    # one small cardinality, so that the runners reach the configuration
    "run_error_experiment config": (
        lambda cfg: run_error_experiment([10], 2, cfg, "raw", RngSeed(1)), _CFG),
    "run_joint_experiment config": (
        lambda cfg: run_joint_experiment([(3, 2, 1)], 2, cfg, RngSeed(1)), _CFG),
    **{f"{fn.__name__} config": (
        lambda cfg, fn=fn: fn(JointEstimate(30.0, 20.0, 10.0), _STAT, cfg), _CFG)
       for fn in (joint_log_likelihood, joint_gradient)},
}
# name: (call given the one generator or seed argument, its valid value, probes)
GENERATOR_CASES = {
    "sample_sketch generator": (
        lambda gen: sample_sketch(100, _CFG, gen), np.random.default_rng(0),
        [*NOT_GENERATORS, RngSeed(1)]),
    "sample_joint_pair generator": (
        lambda gen: sample_joint_pair(30, 20, 10, _CFG, gen), np.random.default_rng(0),
        [*NOT_GENERATORS, RngSeed(1)]),
    "run_error_experiment rng": (
        lambda rng: run_error_experiment([10], 2, _CFG, "raw", rng), RngSeed(1),
        [*NOT_GENERATORS, np.random.default_rng(0)]),
    "run_joint_experiment rng": (
        lambda rng: run_joint_experiment([(3, 2, 1)], 2, _CFG, rng), RngSeed(1),
        [*NOT_GENERATORS, np.random.default_rng(0)]),
}
# name: (call, valid arguments, bad values for each argument, None if not probed)
INPUT_CASES = {
    "linear_counting_estimate": (linear_counting_estimate, (8, 16), [SCALAR] * 2),
    "large_range_correction": (large_range_correction, (1000.0,), [SCALAR]),
    "sigma": (sigma, (0.5,), [SCALAR]),
    "tau": (tau, (0.5,), [SCALAR]),
    "zeta": (zeta, (0.3,), [[*BAD_NUMBERS, *TEXT_NUMBERS]]),
    "zeta-array": (zeta, ([0.3, 0.7],), [[*_sequence([0.3, 0.7]), *TEXT_NUMBERS]]),
    "ml_root_function": (
        lambda lam: ml_root_function(lam, _COUNTS, _CFG),
        (100.0,),
        [SCALAR],
    ),
    **{
        f"{name} histogram": (lambda h, fn=fn: fn(h, _HIST_CFG), (_HIST,), [BAD_HISTOGRAMS])
        for name, fn in HISTOGRAM_FUNCTIONS.items()
    },
    "SketchConfig": (SketchConfig, (4, 8), [SCALAR] * 2),
    "RngSeed": (RngSeed, (1, 2), [SCALAR] * 2),
    "RngSeed.generator": (lambda t: RngSeed(1).generator(t), (3,), [SCALAR]),
    "sample_sketch": (
        lambda n: sample_sketch(n, _CFG, np.random.default_rng(0)),
        (100,),
        [SCALAR],
    ),
    "sample_joint_pair": (
        lambda a, b, x: sample_joint_pair(a, b, x, _CFG, np.random.default_rng(0)),
        (30, 20, 10),
        [SCALAR] * 3,
    ),
    # no cardinalities, so that a huge trial count runs no trial
    "run_error_experiment": (
        lambda cards, trials: run_error_experiment(cards, trials, _CFG, "raw", RngSeed(1)),
        ([], 2),
        [_sequence([0]), SCALAR],
    ),
    "run_joint_experiment": (
        lambda configs, trials: run_joint_experiment(configs, trials, _CFG, RngSeed(1)),
        ([], 2),
        [[*NON_ITERABLES, [(30, 20)], *_TRIPLE_ELEMENT], SCALAR],
    ),
    "Sketch.from_registers": (
        lambda regs: Sketch.from_registers(_CFG, regs),
        (_REGS,),
        [_sequence(_REGS, _REGS[:-1])],
    ),
    "Sketch.insert": (lambda h: Sketch(_CFG).insert(h), (5,), [SCALAR]),
    "Sketch.insert_many": (_inserted_many, ([5, 2**63 + 7],), [_sequence([5, 2**63 + 7])]),
    "Sketch.merge": (lambda other: Sketch(_CFG).merge(other), (_PAIR[1],), [NOT_SKETCHES]),
    **{
        fn.__name__: (fn, _PAIR, [NOT_SKETCHES] * 2)
        for fn in (joint_statistic, inclusion_exclusion_estimate, joint_ml_estimate)
    },
    "Sketch.from_bytes": (
        Sketch.from_bytes,
        (Sketch(_CFG).to_bytes(),),
        [[*NON_ITERABLES, Sketch(_CFG).to_bytes()[:-1]]],
    ),
    "Bracket": (Bracket, (1.0, 2.0), [SCALAR] * 2),
    **{
        fn.__name__: (
            _joint(fn),
            (30.0, 20.0, 10.0, _STAT),
            [*[SCALAR] * 3, _sequence(_STAT.tolist(), _STAT[:-1])],
        )
        for fn in (joint_log_likelihood, joint_gradient)
    },
    **{name: (fn, (JointEstimate(30.0, 20.0, 10.0),), [NOT_ESTIMATES])
       for name, fn in ESTIMATE_CASES.items()},
    **{name: (fn, (valid,), [NOT_CONFIGS]) for name, (fn, valid) in CONFIG_CASES.items()},
    **{name: (fn, (valid,), [probes]) for name, (fn, valid, probes) in GENERATOR_CASES.items()},
}


def _as_numpy(value):
    """A valid argument with its numbers as numpy scalars."""
    if isinstance(value, list):
        return [_as_numpy(v) for v in value]
    if isinstance(value, int):
        return np.uint64(value) if value >= 2**63 else np.int64(value)
    if isinstance(value, float):
        return np.float64(value)
    return value


@st.composite
def bad_calls(draw):
    """A case, its arguments with the one at ``i`` replaced by a bad value
    (``i`` None: none replaced), and that value; valid numbers are sometimes
    numpy scalars."""
    name = draw(st.sampled_from(sorted(INPUT_CASES)))
    fn, valid, probes = INPUT_CASES[name]
    args = list(valid)
    if draw(st.booleans()):
        args = [_as_numpy(v) for v in args]
    if draw(st.integers(0, 4)) == 0:
        return name, fn, args, None, None
    i = draw(st.sampled_from(range(len(args))))
    bad = draw(st.sampled_from(probes[i]))
    if isinstance(bad, float) and draw(st.booleans()):
        bad = np.float64(bad)
    args[i] = bad
    return name, fn, args, i, bad


@settings(max_examples=400, deadline=None)
@given(bad_calls())
def test_bad_input_gives_a_typed_error_or_a_documented_value(case):
    name, fn, args, i, bad = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = fn(*args)
        except HllError:
            assert i is not None, f"{name} rejected valid arguments {args!r}"
            return
    if name == "ml_root_function" and isinstance(bad, float) and bad == math.inf:
        assert value == -math.inf  # documented: f(inf) = -inf
    elif name == "Sketch.insert_many" and i is not None and isinstance(bad, int):
        want = Sketch(_CFG)
        want.insert(bad)
        assert value == want  # documented: a single integer is one hash
    elif isinstance(value, (float, np.ndarray)):
        assert np.isfinite(value).all(), (name, args, value)


def test_every_non_number_gives_a_typed_error():
    leaks = []
    for name, (fn, valid, probes) in INPUT_CASES.items():
        for i in (i for i, bads in enumerate(probes) if bads is SCALAR):
            for bad in NOT_NUMBERS:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        value = fn(*valid[:i], bad, *valid[i + 1 :])
                    except HllError:
                        continue
                    except Exception as exc:  # a raw error is the leak looked for
                        value = exc
                leaks.append(f"{name}[{i}] {bad!r}: {value!r}")
    assert not leaks, leaks


@pytest.mark.parametrize("name", sorted(HISTOGRAM_FUNCTIONS))
def test_every_bad_histogram_raises_range_error(name):
    for bad in BAD_HISTOGRAMS:
        with pytest.raises(RangeError):
            HISTOGRAM_FUNCTIONS[name](bad, _HIST_CFG)


@pytest.mark.parametrize(
    "fn",
    [Sketch.merge, joint_statistic, inclusion_exclusion_estimate, joint_ml_estimate],
    ids=lambda fn: fn.__qualname__,
)
def test_every_non_sketch_raises_config_mismatch(fn):
    # before, each raised a raw AttributeError on the missing .config
    for bad in NOT_SKETCHES:
        for args in ((_PAIR[0], bad), (bad, _PAIR[1])):
            with pytest.raises(ConfigMismatchError):
                fn(*args)


@pytest.mark.parametrize("name", sorted(CONFIG_CASES))
def test_every_non_config_raises_range_error(name):
    # before, each raised a raw AttributeError on a missing .q or .m, or
    # (the histogram functions) read a tuple's own count
    for bad in NOT_CONFIGS:
        with pytest.raises(RangeError, match="config must be a SketchConfig"):
            CONFIG_CASES[name][0](bad)


@pytest.mark.parametrize("name", sorted(ESTIMATE_CASES))
def test_every_non_estimate_raises_range_error(name):
    # before, each raised a raw AttributeError on a missing .a
    for bad in NOT_ESTIMATES:
        with pytest.raises(RangeError, match="est must be a JointEstimate"):
            ESTIMATE_CASES[name](bad)


@pytest.mark.parametrize("name", sorted(GENERATOR_CASES))
def test_every_non_generator_raises_range_error(name):
    fn, _, probes = GENERATOR_CASES[name]
    for bad in probes:
        with pytest.raises(RangeError, match="must be a (Generator|RngSeed)"):
            fn(bad)


@pytest.mark.parametrize("bad", TEXT_NUMBERS, ids=repr)
def test_zeta_reads_no_text(bad):
    # numpy's float64 conversion parsed each of these as a number
    with pytest.raises(DomainError, match="not a real number"):
        zeta(bad)


def test_a_zero_d_array_reads_as_its_value():
    # the documented rule of errors.real: a 0-d array of one number is that number
    for x in (0.5, 0.25):
        assert sigma(np.array(x)) == sigma(x)
        assert tau(np.array(x, dtype=np.float32)) == tau(x)
    for lam in (100.0, 100):
        got = ml_root_function(np.array(lam), _COUNTS, _CFG)
        assert got == ml_root_function(lam, _COUNTS, _CFG)


def test_zeta_reads_an_object_array_element_by_element():
    # each element of an object array is read as errors.real reads one number
    values = np.array([0.3, 2, np.float32(0.7), np.int64(-1)], dtype=object)
    assert zeta(values).tolist() == zeta([0.3, 2.0, float(np.float32(0.7)), -1.0]).tolist()


def test_insert_many_takes_a_plain_list_of_small_ints():
    # numpy reads the list as int64, so it passes the sign check and is cast;
    # registers by hand at p=4, q=8: the top 4 bits pick the register, and the
    # value is the position of the first one among the next 8 (9 if none)
    hashes = [(5 << 60) | (1 << 59), (7 << 60) | (1 << 55), 3 << 60, 0]
    assert np.asarray(hashes).dtype == np.int64
    want = np.zeros(_CFG.m, dtype=np.uint8)
    want[[5, 7, 3, 0]] = [1, 5, 9, 9]
    assert np.array_equal(_inserted_many(hashes).registers, want)


# The exit codes the hllkit.cli module docstring documents.
CLI_EXIT_CODES = (0, 1, 2, 3, 4)
SINGLE_NAMES = ["raw", "linear", "original", "improved", "ml"]


def _int_flag(low, high, *edges):
    """A small valid integer, and edge or malformed tokens."""
    return st.integers(low, high).map(str), st.sampled_from([*edges, "", "x", "2.5"])


def _cards():
    valid = st.one_of(
        st.lists(st.integers(0, 10_000), min_size=1, max_size=4).map(
            lambda cards: ",".join(map(str, cards))
        ),
        st.sampled_from(["logspace:1:10000:5", "logspace:10:10:1", " 7 "]),
    )
    token = st.sampled_from(["-1", str(2**63), "1.5", "", "x", "10"])
    bound = st.sampled_from(["1", "10000", "0", "-5", "nan", "inf", "1e30", "x"])
    points = st.sampled_from(["1", "3", "0", "-1", "10001", "x"])
    bad = st.one_of(
        st.lists(token, min_size=1, max_size=3).map(",".join),
        st.builds(lambda a, b, k: f"logspace:{a}:{b}:{k}", bound, bound, points),
        st.sampled_from(["logspace:1:100", "logspace:", "logspace:1:2:3:4"]),
    )
    return valid, bad


def _configs():
    valid = st.lists(
        st.tuples(*[st.integers(0, 10_000)] * 3).map(lambda t: ",".join(map(str, t))),
        max_size=3,
    ).map(";".join)
    bad = st.sampled_from(["1,2", "1,2,3,4", "a,b,c", "1,-1,1", f"{2**63},1,1", "1,2,3;"])
    return valid, bad


@st.composite
def cli_argv(draw, sketches, root):
    """argv for one subcommand: every flag with a valid value, the optional
    ones sometimes left out, then up to two faults, each a flag given an edge
    or malformed value, a required flag left out, or an unknown argument."""
    command = draw(
        st.sampled_from(["simulate", "joint-simulate", "estimate", "inspect", "bogus"])
    )
    sketch = tuple(st.sampled_from(paths) for paths in sketches)
    flags = {}
    if command.endswith("simulate"):
        flags = {
            "--p": _int_flag(4, 8, "0", "1", "27", "-1"),
            "--q": _int_flag(0, 20, "-1", "61", "255"),
            "--trials": _int_flag(2, 5, "0", "1", "-2"),
            "--seed": _int_flag(0, 9, "-1"),
            "--threads": _int_flag(1, 2, "0", "-1"),
            "--out": (
                st.sampled_from([str(root / "out.csv"), "rel.csv"]),
                st.sampled_from([str(root / "missing" / "out.csv"), str(root)]),
            ),
        }
    if command == "simulate":
        names = st.lists(st.sampled_from(SINGLE_NAMES), min_size=1, max_size=3)
        bad_names = st.sampled_from(["bogus", "", ",", "raw,bogus"])
        flags.update({"--cards": _cards(), "--estimators": (names.map(",".join), bad_names)})
    if command == "joint-simulate":
        flags["--configs"] = _configs()
    if command in ("estimate", "inspect"):
        flags["--sketch"] = sketch
    if command == "estimate":
        estimator = draw(st.sampled_from([*SINGLE_NAMES, "incl-excl", "joint-ml"]))
        flags["--estimator"] = (st.just(estimator), st.just("x"))
        if estimator in ("incl-excl", "joint-ml"):
            flags["--sketch2"] = sketch
    values = {flag: draw(valid) for flag, (valid, _) in flags.items()}
    for flag in ("--threads", "--out"):
        if flag in values and draw(st.booleans()):
            del values[flag]
    extra = []
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["bad value", "bad value", "missing", "unknown"]))
        if fault == "unknown" or not flags:
            extra.append(draw(st.sampled_from(["--bogus", "extra"])))
            continue
        flag = draw(st.sampled_from(sorted(flags)))
        if fault == "missing":
            values.pop(flag, None)
        else:
            values[flag] = draw(flags[flag][1])
    argv = [command]
    for flag, value in values.items():
        argv += [flag, value]
    return argv + extra


@pytest.fixture(scope="module")
def cli_sketches(tmp_path_factory):
    """Paths to sketch files of several configurations and fill levels, and
    paths to a corrupt file, a missing file and a directory."""
    root = tmp_path_factory.mktemp("cli-sketches")
    rng = np.random.default_rng(0)
    cfg4, cfg8 = SketchConfig(4, 16), SketchConfig(8, 16)
    sketches = {
        "p4-fresh": Sketch(cfg4),
        "p4-partial": sample_sketch(30, cfg4, rng),
        "p4-saturated": Sketch.from_registers(cfg4, [cfg4.q + 1] * cfg4.m),
        "p8-partial": sample_sketch(5000, cfg8, rng),
        "p6-q1": sample_sketch(100, SketchConfig(6, 1), rng),
    }
    for name, s in sketches.items():
        (root / f"{name}.hlls").write_bytes(s.to_bytes())
    (root / "corrupt.hlls").write_bytes(b"not a sketch")
    good = [str(root / f"{name}.hlls") for name in sketches]
    return good, [str(root / n) for n in ("corrupt.hlls", "missing.hlls", ".")]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_exits_with_a_documented_code_on_any_argv(tmp_path_factory, cli_sketches, data):
    tmp_path = tmp_path_factory.mktemp("cli")
    argv = data.draw(cli_argv(cli_sketches, tmp_path))
    written = []
    real_open = builtins.open

    def recording_open(file, mode="r", *args, **kwargs):
        if any(c in mode for c in "wax+"):
            written.append(file)
        return real_open(file, mode, *args, **kwargs)

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp_path)  # a relative --out lands under tmp_path
    try:
        with (
            mock.patch.object(builtins, "open", recording_open),
            mock.patch.object(io, "open", recording_open),
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
        ):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in CLI_EXIT_CODES
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
    for path in written:
        assert (tmp_path / path).resolve().is_relative_to(tmp_path.resolve()), path
