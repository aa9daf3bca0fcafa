"""Properties that span modules.

Raising one register never lowers a cardinality estimate, and decoding any
byte string, in the library or through ``hllkit inspect``, either succeeds
or fails with a typed error and its documented exit code.
"""

import contextlib
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hllkit.cli import main
from hllkit.errors import FormatError, RangeError
from hllkit.improved import improved_estimate
from hllkit.ml import SolverConfig, ml_estimate
from hllkit.sim import sample_sketch
from hllkit.sketch import MAGIC, Sketch, SketchConfig


@st.composite
def register_raises(draw):
    """A register array, one register below q+1 in it, and a higher value."""
    cfg = SketchConfig(draw(st.sampled_from([4, 6, 8])), draw(st.integers(0, 24)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(0, 10**7))
        regs = sample_sketch(n, cfg, rng).registers.copy()
    else:
        lo = draw(st.integers(0, cfg.q + 1))
        hi = draw(st.integers(lo, cfg.q + 1))
        regs = rng.integers(lo, hi + 1, size=cfg.m).astype(np.uint8)
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
    delta = SolverConfig().delta(cfg.m)
    assert ml_estimate(h1, cfg) >= ml_estimate(h0, cfg) * (1.0 - delta)


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
