"""A standing judge of the joint fit over every kind of valid pair table.

Every table of non-negative integers that sum to m is the statistic of some
sketch pair (see ``joint_statistic``), but sampled pairs rarely reach sparse,
diagonal-heavy or half-saturated tables.  Here seeded tables of four
families, at p = 2..8 and q = 1..20, are turned back into their sketch pair
and fitted by ``joint_ml_estimate``.  Each fit must end in one of three ways:

* finite non-negative rates that pass ``bench/checks.check_joint_optimum``,
  i.e. no +-1% move of a positive rate raises the reference log-likelihood;
* exactly (0, 0, inf), which it must be when every pair minimum is saturated;
* ``DegenerateHistogramError``.
"""

import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from hllkit.errors import DegenerateHistogramError
from hllkit.joint import joint_ml_estimate, joint_statistic
from hllkit.sketch import Sketch, SketchConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"
TABLES_PER_FAMILY = 125


@pytest.fixture(scope="module")
def check_joint_optimum():
    """``bench/checks.check_joint_optimum``; ``checks`` imports ``reference``
    from its own directory."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("checks").check_joint_optimum
    finally:
        sys.path.remove(str(BENCH))


def _sparse(rng, i, j):
    """Dirichlet weights over one to five cells."""
    probs = np.zeros(i.size)
    cells = rng.choice(i.size, size=int(rng.integers(1, 6)), replace=False)
    probs[cells] = rng.dirichlet(np.ones(cells.size))
    return probs


def _dense(rng, i, j):
    return rng.dirichlet(np.full(i.size, 0.3))


def _diagonal_heavy(rng, i, j):
    return rng.dirichlet(np.full(i.size, 0.3)) * np.where(i == j, 50.0, 1.0)


def _zero_row_saturated_column(rng, i, j):
    """Heavy on sketch 1 at zero and on sketch 2 saturated."""
    q1 = i.max()
    return rng.dirichlet(np.full(i.size, 0.3)) * (1.0 + 20.0 * (i == 0) + 20.0 * (j == q1))


@pytest.mark.parametrize("family", [_sparse, _dense, _diagonal_heavy,
                                    _zero_row_saturated_column],
                         ids=lambda f: f.__name__.strip("_"))
def test_every_fit_is_an_optimum_or_a_documented_end(family, check_joint_optimum):
    rng = np.random.default_rng(sum(map(ord, family.__name__)))
    ends = {"optimum": 0, "saturated": 0, "degenerate": 0}
    for t in range(TABLES_PER_FAMILY):
        config = SketchConfig(int(rng.integers(2, 9)), int(rng.integers(1, 21)))
        i, j = (v.ravel() for v in np.indices((config.q + 2,) * 2))
        probs = family(rng, i, j)
        counts = rng.multinomial(config.m, probs / probs.sum())
        table = counts.reshape(config.q + 2, config.q + 2)
        s1 = Sketch.from_registers(config, np.repeat(i, counts))
        s2 = Sketch.from_registers(config, np.repeat(j, counts))
        assert np.array_equal(joint_statistic(s1, s2), table)
        where = f"table {t}, {config}"
        try:
            est = joint_ml_estimate(s1, s2)
        except DegenerateHistogramError:
            ends["degenerate"] += 1
            continue
        rates = (est.a, est.b, est.x)
        if table[-1, -1] == config.m:
            assert rates == (0.0, 0.0, math.inf), where
            ends["saturated"] += 1
            continue
        assert all(math.isfinite(r) and r >= 0.0 for r in rates), (where, rates)
        assert check_joint_optimum(table, rates, config.m, config.q) == [], where
        ends["optimum"] += 1
    assert ends["optimum"] >= TABLES_PER_FAMILY // 2, ends
