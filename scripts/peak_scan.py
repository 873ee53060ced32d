#!/usr/bin/env python3
"""Sweep the exchange ratio g and tabulate the transient entanglement peak.

For one atom excited and one ground at g < 1, the concurrence rises to a
single maximum before decaying to zero; this prints (and optionally saves)
the peak time and height across g, showing that any nonzero exchange rate
generates some entanglement.
"""

import argparse
import sys

import numpy as np

from twoatom.propagator import c_max, t_gamma
from twoatom.statefile import write_table


def run(gamma0: float, n: int, output) -> None:
    gs = np.linspace(0.01, 0.99, n)
    columns = {
        "g": gs,
        "t_gamma": [t_gamma(gamma0, g * gamma0) for g in gs],
        "c_max": [c_max(gamma0, g * gamma0) for g in gs],
    }
    write_table(columns, {}, "csv", output)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gamma0", type=float, default=1.0)
    parser.add_argument("--points", type=int, default=99)
    parser.add_argument("--output", default=None, help="CSV path (default stdout)")
    args = parser.parse_args()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fp:
            run(args.gamma0, args.points, fp)
    else:
        run(args.gamma0, args.points, sys.stdout)
