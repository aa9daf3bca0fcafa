#!/usr/bin/env python3
"""Regenerate the two-sketch accuracy comparison table.

Runs the ``joint-simulate`` subcommand over four overlap configurations
(balanced sets, a small intersection, a dominant intersection, and strongly
asymmetric sizes) with 2^12 registers, and writes one CSV row per
configuration.  Improvement columns are RMSE ratios of inclusion-exclusion
over the joint likelihood fit; values above 1 favor the likelihood fit.  The
default 300-trial run takes about 0.6 s on a 2-CPU host; ``--quick`` drops to
30 trials.
"""

from __future__ import annotations

import argparse
import sys

from hllkit.cli import main as cli_main

CONFIGURATIONS = "10000,10000,10000;10000,10000,100;100,100,10000;100000,1000,1000"


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="run 30 trials instead of 300")
    parser.add_argument("--seed", type=int, default=1, help="master seed (default 1)")
    parser.add_argument("--out", default="joint_table.csv", help="output CSV path")
    args = parser.parse_args(argv)
    trials = 30 if args.quick else 300
    return cli_main(
        [
            "joint-simulate",
            "--p", "12",
            "--q", "16",
            "--configs", CONFIGURATIONS,
            "--trials", str(trials),
            "--seed", str(args.seed),
            "--out", args.out,
        ]
    )


if __name__ == "__main__":
    sys.exit(run())
