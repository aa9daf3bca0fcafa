"""Properties that span modules.

Raising one register never lowers a cardinality estimate; merging is
idempotent, commutative and associative, on the registers and on every
estimate; decoding any byte string, in the library or through
``hllkit inspect``, either succeeds or fails with a typed error and its
documented exit code; and any argv drawn from a grammar of valid, malformed
and edge values for the four subcommands ends in a documented exit code,
with one ``error:`` line and no stdout on failure, and writes files only
under the test's temporary directory.
"""

import builtins
import contextlib
import io
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hllkit.classic import raw_estimate
from hllkit.cli import main
from hllkit.errors import FormatError, HllError, RangeError
from hllkit.improved import improved_estimate
from hllkit.ml import ml_estimate, stop_delta
from hllkit.sim import sample_sketch
from hllkit.sketch import MAGIC, Sketch, SketchConfig


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


def _estimates(sketch):
    """raw, improved and ML estimates as exact reprs, or the error each raised."""
    h, cfg = sketch.histogram(), sketch.config
    out = []
    for estimate in (raw_estimate, improved_estimate, ml_estimate):
        try:
            out.append(repr(estimate(h, cfg)))
        except HllError as e:
            out.append(type(e).__name__)
    return out


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
