#!/usr/bin/env python3
"""Regenerate the single-sketch error-vs-cardinality curves.

Runs the ``simulate`` subcommand on a logarithmic cardinality grid from 1 to
10^7 with 2^12 registers, comparing the raw, corrected, and likelihood
estimators, and writes one CSV row per (estimator, cardinality).  The default
1000-trial run takes about 5 to 6.5 s on a 2-CPU host; ``--quick`` drops to
100 trials.
"""

from __future__ import annotations

import argparse
import sys

from hllkit.cli import main as cli_main


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="run 100 trials instead of 1000")
    parser.add_argument("--seed", type=int, default=1, help="master seed (default 1)")
    parser.add_argument("--out", default="error_curves.csv", help="output CSV path")
    args = parser.parse_args(argv)
    trials = 100 if args.quick else 1000
    return cli_main(
        [
            "simulate",
            "--p", "12",
            "--q", "20",
            "--cards", "logspace:1:10000000:22",
            "--trials", str(trials),
            "--estimators", "raw,improved,ml",
            "--seed", str(args.seed),
            "--out", args.out,
        ]
    )


if __name__ == "__main__":
    sys.exit(run())
