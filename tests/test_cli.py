"""End-to-end CLI tests via subprocess.

Covers the exit-code contract (0 success, 1 usage, 2 unreadable file,
3 config mismatch, 4 estimator domain failure), output formats, seed
determinism across runs and thread counts, golden files pinning the CSV
schemas, and the sha256 of both ``scripts/reproduce_*.py --quick`` CSVs.
"""

import hashlib
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hllkit.errors
from hllkit import Sketch, SketchConfig, improved_estimate
from hllkit.cli import build_parser, main
from hllkit.errors import HllError
from hllkit.sim import SINGLE_ESTIMATORS

DATA = Path(__file__).parent / "data"
SCRIPTS = Path(__file__).parent.parent / "scripts"

SIMULATE_HEADER = (
    "estimator,p,q,cardinality,trials,mean_rel_err,median_rel_err,"
    "stddev_rel_err,rmse_rel,q01,q05,q25,q75,q95,q99,failures"
)
JOINT_HEADER = (
    "card_a,card_b,card_x,trials,"
    "rmse_ie_a,rmse_ie_b,rmse_ie_x,rmse_ie_u,"
    "rmse_ml_a,rmse_ml_b,rmse_ml_x,rmse_ml_u,"
    "impr_a,impr_b,impr_x,impr_u,failures"
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hllkit", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def write_sketch(path: Path, config: SketchConfig, n: int, seed: int = 1) -> Sketch:
    s = Sketch(config)
    if n:
        rng = np.random.default_rng(seed)
        s.insert_many(rng.integers(0, 2**64, size=n, dtype=np.uint64))
    path.write_bytes(s.to_bytes())
    return s


def csv_row(stdout: str) -> list:
    return stdout.strip().splitlines()[-1].split(",")


class TestEstimate:
    def test_single_sketch(self, tmp_path):
        cfg = SketchConfig(p=8, q=16)
        f = tmp_path / "a.hlls"
        s = write_sketch(f, cfg, 5000)
        r = run_cli("estimate", "--sketch", str(f), "--estimator", "improved")
        assert r.returncode == 0
        row = csv_row(r.stdout)
        assert row[:3] == ["improved", "8", "16"]
        assert float(row[3]) == pytest.approx(
            improved_estimate(s.histogram(), cfg)
        )

    def test_fresh_sketch_estimates_zero(self, tmp_path):
        cfg = SketchConfig(p=8, q=16)
        f = tmp_path / "fresh.hlls"
        write_sketch(f, cfg, 0)
        for name in ("improved", "ml"):
            r = run_cli("estimate", "--sketch", str(f), "--estimator", name)
            assert r.returncode == 0
            assert float(csv_row(r.stdout)[3]) == 0.0

    def test_joint_ml_identical_sketches(self, tmp_path):
        cfg = SketchConfig(p=8, q=16)
        f = tmp_path / "a.hlls"
        write_sketch(f, cfg, 10_000)
        r = run_cli(
            "estimate", "--sketch", str(f), "--sketch2", str(f),
            "--estimator", "joint-ml",
        )
        assert r.returncode == 0
        row = csv_row(r.stdout)
        a, b, x, union = (float(v) for v in row[3:])
        assert a < 0.02 * x and b < 0.02 * x
        assert union == pytest.approx(a + b + x)

    def test_inclusion_exclusion_identical_sketches(self, tmp_path):
        cfg = SketchConfig(p=8, q=16)
        f = tmp_path / "a.hlls"
        write_sketch(f, cfg, 3000)
        r = run_cli(
            "estimate", "--sketch", str(f), "--sketch2", str(f),
            "--estimator", "incl-excl",
        )
        assert r.returncode == 0
        row = csv_row(r.stdout)
        assert float(row[3]) == 0.0 and float(row[4]) == 0.0

    def test_unreadable_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.hlls"
        bad.write_bytes(b"not a sketch at all")
        r = run_cli("estimate", "--sketch", str(bad), "--estimator", "raw")
        assert r.returncode == 2
        missing = run_cli(
            "estimate", "--sketch", str(tmp_path / "nope"), "--estimator", "raw"
        )
        assert missing.returncode == 2

    def test_config_mismatch_exits_3(self, tmp_path):
        f1 = tmp_path / "a.hlls"
        f2 = tmp_path / "b.hlls"
        write_sketch(f1, SketchConfig(p=8, q=16), 100)
        write_sketch(f2, SketchConfig(p=9, q=15), 100)
        r = run_cli(
            "estimate", "--sketch", str(f1), "--sketch2", str(f2),
            "--estimator", "joint-ml",
        )
        assert r.returncode == 3

    def test_domain_errors_exit_4(self, tmp_path):
        # composite estimator restricted to p+q=32
        f = tmp_path / "a.hlls"
        write_sketch(f, SketchConfig(p=8, q=16), 100)
        r = run_cli("estimate", "--sketch", str(f), "--estimator", "original")
        assert r.returncode == 4
        # all registers saturated: the large-range correction has no answer
        cfg32 = SketchConfig(p=12, q=20)
        sat = tmp_path / "sat.hlls"
        regs = np.full(cfg32.m, cfg32.q + 1, dtype=np.uint8)
        sat.write_bytes(Sketch.from_registers(cfg32, regs).to_bytes())
        r = run_cli("estimate", "--sketch", str(sat), "--estimator", "original")
        assert r.returncode == 4
        # no zero registers left for the occupancy estimator
        r = run_cli("estimate", "--sketch", str(sat), "--estimator", "linear")
        assert r.returncode == 4
        # a saturated union leaves the joint likelihood nothing to fit
        part = tmp_path / "part.hlls"
        write_sketch(part, cfg32, 100)
        r = run_cli(
            "estimate", "--sketch", str(sat), "--sketch2", str(part),
            "--estimator", "joint-ml",
        )
        assert r.returncode == 4
        assert "degenerate register histogram" in r.stderr

    @pytest.mark.parametrize("estimator", ["incl-excl", "joint-ml"])
    def test_saturated_side_exits_4_for_both_joint_estimators(self, tmp_path, estimator):
        # p=4, q=2: every register of one sketch at 3 (saturated), of the other at 1
        cfg = SketchConfig(p=4, q=2)
        files = []
        for name, value in (("sat", 3), ("low", 1)):
            f = tmp_path / f"{name}.hlls"
            regs = np.full(cfg.m, value, dtype=np.uint8)
            f.write_bytes(Sketch.from_registers(cfg, regs).to_bytes())
            files.append(str(f))
        r = run_cli(
            "estimate", "--sketch", files[0], "--sketch2", files[1],
            "--estimator", estimator,
        )
        assert r.returncode == 4
        assert r.stdout == ""
        assert "degenerate register histogram (saturated)" in r.stderr

    def test_usage_errors_exit_1(self, tmp_path):
        f = tmp_path / "a.hlls"
        write_sketch(f, SketchConfig(p=8, q=16), 100)
        cases = [
            ("estimate", "--sketch", str(f)),  # missing --estimator
            ("estimate", "--sketch", str(f), "--estimator", "bogus"),
            ("estimate", "--sketch", str(f), "--estimator", "joint-ml"),
            (
                "estimate", "--sketch", str(f), "--sketch2", str(f),
                "--estimator", "improved",
            ),
        ]
        for args in cases:
            assert run_cli(*args).returncode == 1

    @pytest.mark.parametrize(
        "kind",
        [
            cls for cls in vars(hllkit.errors).values()
            if isinstance(cls, type) and issubclass(cls, HllError)
        ],
        ids=lambda cls: cls.__name__,
    )
    def test_estimator_errors_exit_with_the_documented_code(
        self, kind, tmp_path, monkeypatch, capsys
    ):
        f = tmp_path / "a.hlls"
        write_sketch(f, SketchConfig(p=8, q=16), 100)

        def fail(hist, config):
            raise kind("zero")

        monkeypatch.setitem(SINGLE_ESTIMATORS, "ml", fail)
        code = main(["estimate", "--sketch", str(f), "--estimator", "ml"])
        # the module docstring: 1 a RangeError, 3 a config mismatch, 4 any
        # other HllError an estimator raises
        assert code == {"RangeError": 1, "ConfigMismatchError": 3}.get(kind.__name__, 4)
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1

    def test_calls_in_one_process_share_one_parser(self, tmp_path, capsys):
        a, b = tmp_path / "a.hlls", tmp_path / "b.hlls"
        write_sketch(a, SketchConfig(p=8, q=16), 100)
        write_sketch(b, SketchConfig(p=8, q=16), 200, seed=2)
        assert build_parser() is build_parser()
        pair = ["--sketch", str(a), "--sketch2", str(b), "--estimator", "joint-ml"]
        assert main(["estimate", *pair]) == 0
        assert main(["estimate", "--sketch", str(a), "--estimator", "bogus"]) == 1
        # no flag value of an earlier call carries over to the next
        assert main(["estimate", "--sketch", str(a), "--estimator", "ml"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("ml,8,16,")


class TestInspect:
    def test_reports_parameters_and_histogram(self, tmp_path):
        cfg = SketchConfig(p=4, q=6)
        f = tmp_path / "a.hlls"
        s = write_sketch(f, cfg, 50)
        r = run_cli("inspect", "--sketch", str(f))
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert lines[0] == "p: 4"
        assert lines[1] == "q: 6"
        assert lines[2] == "registers: 16"
        assert lines[3] == "value,count"
        rows = [line.split(",") for line in lines[4:]]
        assert len(rows) == cfg.q + 2
        assert sum(int(c) for _, c in rows) == cfg.m
        hist = s.histogram()
        for value, count in rows:
            assert hist[int(value)] == int(count)

    def test_bad_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\x00\x01")
        assert run_cli("inspect", "--sketch", str(bad)).returncode == 2


class TestSimulate:
    def test_row_count_and_header(self):
        r = run_cli(
            "simulate", "--p", "8", "--q", "16", "--cards", "50,500",
            "--trials", "4", "--seed", "3", "--estimators", "raw,improved,ml",
        )
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == SIMULATE_HEADER
        assert len(lines) == 1 + 3 * 2
        for line in lines[1:]:
            assert len(line.split(",")) == len(SIMULATE_HEADER.split(","))

    def test_seed_reproducibility(self):
        args = (
            "simulate", "--p", "8", "--q", "16", "--cards", "100,1000",
            "--trials", "12", "--seed", "77", "--estimators", "improved,ml",
        )
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_thread_count_invariance(self):
        base = (
            "simulate", "--p", "8", "--q", "16", "--cards", "200,2000",
            "--trials", "16", "--seed", "5", "--estimators", "improved",
        )
        one = run_cli(*base, "--threads", "1")
        four = run_cli(*base, "--threads", "4")
        assert one.returncode == four.returncode == 0
        assert one.stdout == four.stdout

    def test_out_file_matches_stdout(self, tmp_path):
        out = tmp_path / "run.csv"
        base = (
            "simulate", "--p", "8", "--q", "16", "--cards", "100",
            "--trials", "6", "--seed", "11", "--estimators", "raw",
        )
        piped = run_cli(*base)
        written = run_cli(*base, "--out", str(out))
        assert written.returncode == 0 and written.stdout == ""
        assert out.read_text() == piped.stdout

    def test_logspace_grid_deduplicates(self):
        r = run_cli(
            "simulate", "--p", "8", "--q", "16",
            "--cards", "logspace:10:100:12", "--trials", "4",
            "--seed", "2", "--estimators", "raw",
        )
        assert r.returncode == 0
        cards = [int(line.split(",")[3]) for line in r.stdout.splitlines()[1:]]
        assert cards == sorted(set(cards))

    def test_usage_errors_exit_1(self):
        cases = [
            ("simulate", "--p", "8", "--q", "16", "--cards", "ten",
             "--trials", "4", "--seed", "1", "--estimators", "raw"),
            ("simulate", "--p", "8", "--q", "16", "--cards", "10",
             "--trials", "1", "--seed", "1", "--estimators", "raw"),
            ("simulate", "--p", "8", "--q", "16", "--cards", "10",
             "--trials", "4", "--seed", "1", "--estimators", "joint-ml"),
            ("simulate", "--p", "1", "--q", "16", "--cards", "10",
             "--trials", "4", "--seed", "1", "--estimators", "raw"),
            ("simulate", "--p", "8", "--q", "16",
             "--cards", "logspace:0:100:5", "--trials", "4",
             "--seed", "1", "--estimators", "raw"),
        ]
        for args in cases:
            r = run_cli(*args)
            assert r.returncode == 1, args
            assert "error:" in r.stderr


    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_1(self, threads):
        r = run_cli(
            "simulate", "--p", "8", "--q", "16", "--cards", "10",
            "--trials", "4", "--seed", "1", "--estimators", "raw",
            "--threads", threads,
        )
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1


    @pytest.mark.parametrize("seed", ["-1", "-5"])
    def test_negative_seed_exit_1(self, seed):
        r = run_cli(
            "simulate", "--p", "8", "--q", "16", "--cards", "10",
            "--trials", "4", "--seed", seed, "--estimators", "raw",
        )
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1

    def test_fully_saturated_sketches_exit_0(self):
        r = run_cli(
            "simulate", "--p", "4", "--q", "1", "--cards", "100000",
            "--trials", "3", "--estimators", "improved", "--seed", "1",
        )
        assert r.returncode == 0, r.stderr
        row = csv_row(r.stdout)
        assert row[0] == "improved" and row[5] == "inf" and row[-1] == "0"

    def test_infinite_errors_print_no_warning(self):
        # numpy warnings turned into errors: the row is still nan where the
        # spread between infinite errors is undefined, and stderr stays empty
        r = subprocess.run(
            [sys.executable, "-W", "error", "-m", "hllkit", "simulate",
             "--p", "4", "--q", "1", "--cards", "100000", "--trials", "3",
             "--estimators", "improved", "--seed", "1"],
            capture_output=True, text=True, timeout=300,
        )
        assert r.returncode == 0 and r.stderr == ""
        assert r.stdout == (
            SIMULATE_HEADER
            + "\nimproved,4,1,100000,3,inf,inf,nan,inf,nan,nan,nan,nan,nan,nan,0\n"
        )

    def test_simulate_leaves_numpy_ma_unimported(self):
        # np.median and np.quantile would import it through np.unique
        code = (
            "import sys; from hllkit.cli import main; "
            "main(['simulate', '--p', '8', '--q', '16', '--cards', '100,1000', "
            "'--trials', '5', '--seed', '1', '--estimators', 'raw,improved,ml']); "
            "print('numpy.ma' in sys.modules)"
        )
        r = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[-1] == "False"

    @pytest.mark.parametrize(
        "spec",
        [
            "logspace:1:10:10000000000000",  # more points than integers
            "logspace:5:5:2",
            "logspace:1:1e300:5",  # beyond the int64 element counts
            "logspace:1:inf:5",
            "logspace:1:nan:5",
            "logspace:1:10:0",
            "10000000000000000000",
            "-5",
            "10,-5",
        ],
    )
    def test_cards_beyond_the_grid_exit_1_without_allocating(self, spec, capsys):
        tracemalloc.start()
        try:
            rc = main([
                "simulate", "--p", "8", "--q", "16", "--cards", spec,
                "--trials", "4", "--seed", "1", "--estimators", "raw",
            ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert peak < 1 << 20

    def test_logspace_grid_at_the_distinct_limit(self):
        r = run_cli(
            "simulate", "--p", "8", "--q", "16",
            "--cards", "logspace:10:20:11", "--trials", "4",
            "--seed", "2", "--estimators", "raw",
        )
        assert r.returncode == 0, r.stderr
        cards = [int(line.split(",")[3]) for line in r.stdout.splitlines()[1:]]
        assert cards == sorted(set(cards)) and cards[0] == 10 and cards[-1] == 20


class TestJointSimulate:
    def test_header_and_shape(self):
        r = run_cli(
            "joint-simulate", "--p", "8", "--q", "16",
            "--configs", "200,200,200", "--trials", "4", "--seed", "6",
        )
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == JOINT_HEADER
        assert len(lines) == 2
        assert len(lines[1].split(",")) == len(JOINT_HEADER.split(","))

    def test_empty_config_list_header_only(self):
        r = run_cli(
            "joint-simulate", "--p", "8", "--q", "16", "--configs", "",
            "--trials", "4", "--seed", "6",
        )
        assert r.returncode == 0
        assert r.stdout == JOINT_HEADER + "\n"

    def test_malformed_triple_names_token(self):
        r = run_cli(
            "joint-simulate", "--p", "8", "--q", "16", "--configs", "10,,5",
            "--trials", "4", "--seed", "6",
        )
        assert r.returncode == 1
        assert "10,,5" in r.stderr

    def test_triple_above_int64_exits_1(self):
        r = run_cli(
            "joint-simulate", "--p", "8", "--q", "16",
            "--configs", "9223372036854775808,1,1", "--trials", "4", "--seed", "6",
        )
        assert r.returncode == 1
        assert r.stderr.startswith("error: cardinality 9223372036854775808 ")

    def test_negative_triple_exits_1(self, capsys):
        rc = main([
            "joint-simulate", "--p", "8", "--q", "16", "--configs", "1,-1,1",
            "--trials", "4", "--seed", "6",
        ])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_seed_and_thread_determinism(self):
        base = (
            "joint-simulate", "--p", "8", "--q", "16",
            "--configs", "500,500,50;100,100,1000", "--trials", "8",
            "--seed", "31",
        )
        one = run_cli(*base, "--threads", "1")
        again = run_cli(*base, "--threads", "1")
        four = run_cli(*base, "--threads", "4")
        assert one.stdout == again.stdout == four.stdout


    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_1(self, threads):
        r = run_cli(
            "joint-simulate", "--p", "8", "--q", "16",
            "--configs", "200,200,200", "--trials", "4", "--seed", "6",
            "--threads", threads,
        )
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1


    @pytest.mark.parametrize("seed", ["-1", "-5"])
    def test_negative_seed_exit_1(self, seed):
        r = run_cli(
            "joint-simulate", "--p", "8", "--q", "16",
            "--configs", "200,200,200", "--trials", "4", "--seed", seed,
        )
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1

    def test_too_few_trials_with_no_configurations_exit_1(self):
        r = run_cli(
            "joint-simulate", "--p", "8", "--q", "16", "--configs", "",
            "--trials", "1", "--seed", "6",
        )
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1

    def test_fully_saturated_sketches_exit_0(self):
        r = run_cli(
            "joint-simulate", "--p", "4", "--q", "1",
            "--configs", "100000,100000,100000", "--trials", "3", "--seed", "1",
        )
        assert r.returncode == 0, r.stderr
        assert len(r.stdout.strip().splitlines()) == 2

    def test_every_trial_failing_gives_a_nan_row(self, capsys):
        # at p=4, q=1 only sketch 1 saturates, so inclusion-exclusion raises
        # in every trial and no error is left to score
        rc = main([
            "joint-simulate", "--p", "4", "--q", "1", "--configs", "1000000,0,0",
            "--trials", "3", "--seed", "1",
        ])
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""
        assert out == JOINT_HEADER + "\n1000000,0,0,3," + "nan," * 12 + "3\n"

    def test_union_above_int64_is_scored(self, capsys):
        # the first union is 3 * (2**63 - 1); both methods give (0, 0, inf)
        # there, and the second triple saturates sketch 1 alone
        top = "9223372036854775807"
        rc = main([
            "joint-simulate", "--p", "4", "--q", "2",
            "--configs", f"{top},{top},{top};{top},0,5", "--trials", "2", "--seed", "1",
        ])
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""
        assert out == (
            JOINT_HEADER
            + f"\n{top},{top},{top},2,1.0,1.0,inf,inf,1.0,1.0,inf,inf,1.0,1.0,nan,nan,0"
            + f"\n{top},0,5,2," + "nan," * 12 + "2\n"
        )


SIMULATION_ARGS = {
    "simulate": [
        "simulate", "--p", "8", "--q", "16", "--cards", "100",
        "--trials", "4", "--seed", "1", "--estimators", "raw",
    ],
    "joint-simulate": [
        "joint-simulate", "--p", "8", "--q", "16", "--configs", "100,100,100",
        "--trials", "4", "--seed", "1",
    ],
}


class TestSimulationCommands:
    @pytest.mark.parametrize(
        "command, runner",
        [("simulate", "run_error_experiment"),
         ("joint-simulate", "run_joint_experiment")],
    )
    def test_unwritable_out_exits_1_before_any_trial(
        self, command, runner, tmp_path, monkeypatch, capsys
    ):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{runner} ran before --out was checked")

        monkeypatch.setattr(f"hllkit.cli.{runner}", refuse)
        out = tmp_path / "missing" / "x.csv"
        assert main([*SIMULATION_ARGS[command], "--out", str(out)]) == 1
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith("error:") and stderr.count("\n") == 1
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [("simulate", "--trials", "1"), ("joint-simulate", "--configs", "10,10,-3")],
    )
    @pytest.mark.parametrize("before", ["nothing", "file", "dangling-link"])
    def test_rejected_run_leaves_out_as_it_was(
        self, command, flag, value, before, tmp_path, capsys
    ):
        out = tmp_path / "x.csv"
        # the runner rejects the value after the --out check has run
        argv = [*SIMULATION_ARGS[command], "--out", str(out)]
        argv[argv.index(flag) + 1] = value
        if before == "file":
            out.write_bytes(b"kept\n")
        elif before == "dangling-link":
            out.symlink_to(tmp_path / "target.csv")
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")
        if before == "file":
            assert out.read_bytes() == b"kept\n"
        else:
            assert out.is_symlink() == (before == "dangling-link")
            assert not (tmp_path / "target.csv").exists() and not out.exists()

    @pytest.mark.parametrize("command", sorted(SIMULATION_ARGS))
    def test_threads_flag_starts_no_thread_pool(self, command):
        argv = SIMULATION_ARGS[command] + ["--threads", "4"]
        code = (
            "import sys; from hllkit.cli import main; "
            f"rc = main({argv!r}); "
            "print(rc, 'concurrent.futures' in sys.modules)"
        )
        r = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[-1] == "0 False"


class TestGoldenFiles:
    def test_simulate_schema_pinned(self):
        golden = (DATA / "simulate_golden.csv").read_text()
        r = run_cli(
            "simulate", "--p", "8", "--q", "16", "--cards", "100,1000",
            "--trials", "20", "--seed", "424242",
            "--estimators", "raw,improved,ml",
        )
        assert r.returncode == 0
        assert r.stdout == golden

    def test_joint_schema_pinned(self):
        golden = (DATA / "joint_golden.csv").read_text()
        r = run_cli(
            "joint-simulate", "--p", "8", "--q", "16",
            "--configs", "300,300,300;1000,100,100", "--trials", "10",
            "--seed", "424242",
        )
        assert r.returncode == 0
        assert r.stdout == golden

    @pytest.mark.parametrize("script, want", [
        ("reproduce_error_curves.py",
         "0e4b1deedc91e6647fecff9c7b16470f6d38cc4e137767e46636941b5dca3e33"),
        ("reproduce_joint_table.py",
         "14b261082062d5b25f116861f5b55d30fc8dc7a5760bc7284b3f6fb1764d4a27"),
    ], ids=["error-curves", "joint-table"])
    def test_quick_reproduction_pinned(self, script, want, tmp_path):
        out = tmp_path / "quick.csv"
        r = subprocess.run(
            [sys.executable, str(SCRIPTS / script), "--quick", "--out", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert r.returncode == 0, r.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want

    def test_paper_scale_joint_table_pinned(self, tmp_path):
        # the script's default run: 300 trials of each paper configuration
        out = tmp_path / "joint_table.csv"
        r = subprocess.run(
            [sys.executable, str(SCRIPTS / "reproduce_joint_table.py"), "--out", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert r.returncode == 0, r.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "0bc4e5a6ff2ec193c04677937002095465f26e2339cf0789e543efd2561adcee")
