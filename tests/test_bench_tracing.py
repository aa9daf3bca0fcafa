"""The bench tracer patches hllkit by attribute name; every name must exist.

``bench/tracing.py`` wraps functions where their callers look them up, some
of them module-level imports that nothing in ``src/`` calls.  Removing such
an import breaks ``bench/run.py --trace 1``, so it is checked here.
"""

import importlib.util
from pathlib import Path

import pytest

import hllkit.cli
from hllkit import RngSeed, SketchConfig, sample_joint_pair
from hllkit.sim import SINGLE_ESTIMATORS

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_module_targets_exist(tracing):
    for ns, attr, name in tracing._MODULE_TARGETS:
        assert callable(getattr(ns, attr, None)), f"{ns.__name__}.{attr} ({name})"


def test_estimator_targets_are_single_estimators(tracing):
    for key in tracing._ESTIMATOR_TARGETS:
        assert key in SINGLE_ESTIMATORS


def test_method_targets_are_defined_on_their_class(tracing):
    for cls, attr, name in tracing._METHOD_TARGETS:
        assert attr in cls.__dict__, f"{cls.__name__}.{attr} ({name})"


def test_tracer_sees_the_joint_path(tracing, tmp_path):
    # one span per pair drawn, one pair table per trial, and one
    # joint_ml_estimate from the estimate command, none from the experiment
    files = []
    for i, sketch in enumerate(sample_joint_pair(100, 100, 100, SketchConfig(8, 16),
                                                 RngSeed(31).generator(0))):
        files.append(tmp_path / f"{i}.hll")
        files[-1].write_bytes(sketch.to_bytes())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hllkit.cli.main(["joint-simulate", "--p", "8", "--q", "16", "--configs",
                                "100,100,100;50,0,50", "--trials", "3", "--seed", "1"]) == 0
        middle = len(tracer.start)
        assert hllkit.cli.main(["estimate", "--sketch", str(files[0]), "--sketch2",
                                str(files[1]), "--estimator", "joint-ml"]) == 0
    finally:
        tracer.uninstall()
    simulate, estimate = tracer.summarize(0, middle), tracer.summarize(middle, len(tracer.start))
    for name in ("joint.joint_statistic", "sim.sample_joint_pair", "sim.generator"):
        assert simulate[name]["calls"] == 6, name
    assert "joint.joint_ml_estimate" not in simulate
    assert estimate["joint.joint_ml_estimate"]["calls"] == 1
    assert estimate["joint.joint_statistic"]["calls"] == 1
