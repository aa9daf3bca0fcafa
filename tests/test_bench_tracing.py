"""The bench tracer patches hllkit by attribute name; every name must exist.

``bench/tracing.py`` wraps functions where their callers look them up, some
of them module-level imports that nothing in ``src/`` calls.  Removing such
an import breaks ``bench/run.py --trace 1``, so it is checked here.
"""

import importlib.util
from pathlib import Path

import pytest

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
