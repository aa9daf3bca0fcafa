"""``scripts/bench_snapshot.py`` times the joint fit through a private entry
of ``hllkit.joint``; a rename there must fail here, not in the next snapshot."""

import importlib.util
from pathlib import Path

SNAPSHOT = Path(__file__).resolve().parents[1] / "scripts" / "bench_snapshot.py"


def test_joint_fit_timing_runs(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_snapshot", SNAPSHOT)
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    monkeypatch.setattr(snapshot, "REPEATS", 1)
    result = snapshot.joint_fits()  # exits unless the snippet exits 0
    assert list(result) == [
        "10000,10000,10000", "10000,10000,100", "100,100,10000", "100000,1000,1000"
    ]
    for timings in result.values():
        assert list(timings) == ["alone", "batch_of_20"]
        assert all(isinstance(us, float) and us > 0 for us in timings.values())
