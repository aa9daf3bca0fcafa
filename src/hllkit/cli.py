"""Command-line front end: estimate, simulate, joint-simulate, inspect.

Exit codes, mapped from errors by ``_EXIT_CODES`` alone: 0 success; 1 invalid
flags, malformed option syntax, an unwritable ``--out`` or any other
``RangeError`` (a parameter out of range); 2 unreadable/corrupt sketch file;
3 sketch config mismatch; 4 any other ``HllError`` an estimator raises (e.g.
the large-range correction leaving its domain).

Range rules have one owner, the library: an out-of-range cardinality in
``--cards`` or ``--configs`` parses here and is rejected by the runner with
its ``RangeError``, after the ``--out`` check and before any trial runs.
An unknown name in ``--estimators`` is rejected by the runner's resolver,
before the ``--out`` check.

All numeric CSV output uses ``repr`` of Python floats (shortest
round-trip form), and randomized commands are byte-reproducible for a
fixed ``--seed``.  Their trials run serially in one thread; ``--threads``
is accepted for compatibility (an integer >= 1) and changes nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from pathlib import Path

import numpy as np

from .errors import ConfigMismatchError, FormatError, HllError, RangeError
from .joint import inclusion_exclusion_estimate, joint_ml_estimate
from .sim import (
    MAX_CARDINALITY,
    SINGLE_ESTIMATORS,
    RngSeed,
    _resolve_estimator,
    run_error_experiment,
    run_joint_experiment,
)
from .sketch import Sketch, SketchConfig

SIMULATE_COLUMNS = (
    "estimator,p,q,cardinality,trials,mean_rel_err,median_rel_err,"
    "stddev_rel_err,rmse_rel,q01,q05,q25,q75,q95,q99,failures"
)
JOINT_COLUMNS = (
    "card_a,card_b,card_x,trials,"
    "rmse_ie_a,rmse_ie_b,rmse_ie_x,rmse_ie_u,"
    "rmse_ml_a,rmse_ml_b,rmse_ml_x,rmse_ml_u,"
    "impr_a,impr_b,impr_x,impr_u,failures"
)
JOINT_ESTIMATORS = ("incl-excl", "joint-ml")


class _CliUsageError(HllError):
    pass


class _ReadError(HllError):
    pass


_EXIT_CODES = (  # checked in order, the first match wins
    ((_CliUsageError, RangeError), 1),
    (_ReadError, 2),
    (ConfigMismatchError, 3),
    (HllError, 4),
)


class _Parser(argparse.ArgumentParser):
    """Parser that reports usage problems via exceptions, not sys.exit."""

    def error(self, message):
        raise _CliUsageError(message)


def _fmt(value) -> str:
    # repr of a builtin float is the shortest round-trip form
    return repr(float(value))


def _load_sketch(path: str) -> Sketch:
    try:
        return Sketch.from_bytes(Path(path).read_bytes())
    except (FormatError, RangeError, OSError) as exc:
        raise _ReadError(f"cannot read sketch: {exc}") from None


def _check_run_flags(args):
    """Exit 1 before any trial runs on --threads below 1 or an unwritable --out."""
    if args.threads < 1:
        raise _CliUsageError(f"--threads {args.threads} is not an integer >= 1")
    if args.out:
        made = not os.path.exists(args.out)
        try:  # append mode: an existing file is left as it is
            open(args.out, "a").close()
        except OSError as exc:
            raise _CliUsageError(f"cannot write {args.out}: {exc.strerror}") from None
        if made:  # a run rejected later leaves no file, nor a dangling link's target
            os.remove(os.path.realpath(args.out))


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_cards(text: str):
    if text.startswith("logspace:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise _CliUsageError(
                f"cards list {text!r} must be logspace:START:END:POINTS"
            )
        try:
            start, end, points = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError:
            raise _CliUsageError(f"cards list {text!r} has a non-numeric field")
        if not (0 < start <= MAX_CARDINALITY and 0 < end <= MAX_CARDINALITY):
            raise _CliUsageError(
                f"cards list {text!r} needs positive bounds below 2^63"
            )
        if points < 1:
            raise _CliUsageError(f"cards list {text!r} needs at least one point")
        # the rounded grid holds at most this many distinct cardinalities;
        # checked before np.geomspace allocates POINTS floats
        distinct = abs(round(end) - round(start)) + 1
        if points > distinct:
            raise _CliUsageError(
                f"cards list {text!r} asks for {points} points, but only "
                f"{distinct} integers lie between its bounds"
            )
        grid = np.geomspace(start, end, points)
        cards = []
        for value in np.rint(grid).astype(int):
            if not cards or cards[-1] != int(value):
                cards.append(int(value))
        return cards
    cards = []
    for token in text.split(","):
        token = token.strip()
        try:
            cards.append(int(token))
        except ValueError:
            raise _CliUsageError(f"invalid cardinality {token!r}") from None
    return cards


def _parse_configs(text: str):
    configs = []
    if text == "":
        return configs
    for part in text.split(";"):
        try:  # a field that is no integer, or not three fields
            a, b, x = (int(f) for f in part.split(","))
        except ValueError:
            raise _CliUsageError(f"invalid configuration triple {part!r}") from None
        configs.append((a, b, x))
    return configs


def cmd_estimate(args) -> int:
    joint = args.estimator in JOINT_ESTIMATORS
    if joint and not args.sketch2:
        raise _CliUsageError(f"estimator {args.estimator} requires --sketch2")
    if not joint and args.sketch2:
        raise _CliUsageError(
            f"estimator {args.estimator} works on a single sketch; drop --sketch2"
        )
    s1 = _load_sketch(args.sketch)
    s2 = _load_sketch(args.sketch2) if args.sketch2 else None
    cfg = s1.config
    if joint:
        fn = (
            joint_ml_estimate
            if args.estimator == "joint-ml"
            else inclusion_exclusion_estimate
        )
        est = fn(s1, s2)
        print(
            f"{args.estimator} estimates (p={cfg.p}, q={cfg.q}): "
            f"a={_fmt(est.a)} b={_fmt(est.b)} x={_fmt(est.x)} "
            f"union={_fmt(est.union)}"
        )
        print("estimator,p,q,a,b,x,union")
        print(
            f"{args.estimator},{cfg.p},{cfg.q},{_fmt(est.a)},"
            f"{_fmt(est.b)},{_fmt(est.x)},{_fmt(est.union)}"
        )
    else:
        value = SINGLE_ESTIMATORS[args.estimator](s1.histogram(), cfg)
        print(f"{args.estimator} estimate (p={cfg.p}, q={cfg.q}): {_fmt(value)}")
        print("estimator,p,q,estimate")
        print(f"{args.estimator},{cfg.p},{cfg.q},{_fmt(value)}")
    return 0


def cmd_inspect(args) -> int:
    sketch = _load_sketch(args.sketch)
    cfg = sketch.config
    print(f"p: {cfg.p}")
    print(f"q: {cfg.q}")
    print(f"registers: {cfg.m}")
    print("value,count")
    for value, count in enumerate(sketch.histogram().counts):
        print(f"{value},{int(count)}")
    return 0


def cmd_simulate(args) -> int:
    cfg = SketchConfig(args.p, args.q)
    cards = _parse_cards(args.cards)
    names = [n.strip() for n in args.estimators.split(",") if n.strip()]
    if not names:
        raise _CliUsageError("--estimators must name at least one estimator")
    estimators = [(name, _resolve_estimator(name)) for name in names]
    seed = RngSeed(args.seed)
    _check_run_flags(args)
    lines = [SIMULATE_COLUMNS]
    for name, fn in estimators:
        reports = run_error_experiment(cards, args.trials, cfg, fn, seed)
        for r in reports:
            qvals = ",".join(_fmt(v) for _, v in r.quantiles)
            lines.append(
                f"{name},{cfg.p},{cfg.q},{r.cardinality},{r.trials},"
                f"{_fmt(r.mean_rel_err)},{_fmt(r.median_rel_err)},"
                f"{_fmt(r.stddev_rel_err)},{_fmt(r.rmse_rel)},"
                f"{qvals},{r.failures}"
            )
    _emit(lines, args.out)
    return 0


def cmd_joint_simulate(args) -> int:
    cfg = SketchConfig(args.p, args.q)
    configs = _parse_configs(args.configs)
    seed = RngSeed(args.seed)
    _check_run_flags(args)
    rows = run_joint_experiment(configs, args.trials, cfg, seed)
    lines = [JOINT_COLUMNS]
    for r in rows:
        stats = ",".join(_fmt(v) for v in (*r.rmse_ie, *r.rmse_ml, *r.improvement))
        lines.append(
            f"{r.card_a},{r.card_b},{r.card_x},{r.trials},{stats},{r.failures}"
        )
    _emit(lines, args.out)
    return 0


@cache  # one tree per process: parse_args leaves it as it found it
def build_parser() -> _Parser:
    parser = _Parser(
        prog="hllkit",
        description="Cardinality sketches: estimation and Monte-Carlo benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate cardinality from sketch files")
    est.add_argument("--sketch", required=True, help="serialized sketch file")
    est.add_argument("--sketch2", help="second sketch for two-sketch estimators")
    est.add_argument(
        "--estimator",
        required=True,
        choices=sorted(SINGLE_ESTIMATORS) + list(JOINT_ESTIMATORS),
    )
    est.set_defaults(func=cmd_estimate)

    ins = sub.add_parser("inspect", help="print a sketch's parameters and histogram")
    ins.add_argument("--sketch", required=True)
    ins.set_defaults(func=cmd_inspect)

    simp = sub.add_parser("simulate", help="single-sketch estimator error sweep")
    simp.add_argument(
        "--cards",
        required=True,
        help="comma list of cardinalities or logspace:START:END:POINTS",
    )
    simp.add_argument(
        "--estimators", required=True, help="comma list, e.g. raw,improved,ml"
    )
    simp.set_defaults(func=cmd_simulate)

    joint = sub.add_parser(
        "joint-simulate", help="two-sketch overlap estimator comparison"
    )
    joint.add_argument(
        "--configs",
        required=True,
        help="semicolon-separated a,b,x cardinality triples",
    )
    joint.set_defaults(func=cmd_joint_simulate)
    for run in (simp, joint):
        run.add_argument("--p", type=int, required=True)
        run.add_argument("--q", type=int, required=True)
        run.add_argument("--trials", type=int, required=True)
        run.add_argument("--seed", type=int, required=True)
        run.add_argument("--out", help="write CSV here instead of stdout")
        run.add_argument("--threads", type=int, default=1)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except HllError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
