#!/usr/bin/env python3
"""Sweep the weighted-inequality slacks over signal width and weight exponent.

Writes a TSV with one row per (signal width, alpha) pair: the Pitt slack, and
for alpha = 0 also the logarithmic-inequality slack.  Useful for eyeballing
how far Gaussian-family signals sit from the sharp constants.
"""

import argparse

import numpy as np

from qolct import Grid2D, OffsetParams, QolctPlan, synth_gaussian
from qolct.uncertainty import log_up_check, pitt_sweep


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=128)
    parser.add_argument("--extent", type=float, default=16.0)
    parser.add_argument("--out", default="uncertainty_sweep.tsv")
    args = parser.parse_args()

    grid = Grid2D.centered(args.n, args.extent)
    A1 = OffsetParams(1.0, 1.0, 1.0, 2.0, 0.3, -0.2)
    A2 = OffsetParams(0.5, 1.5, -0.4, 0.8, -0.1, 0.4)
    plan = QolctPlan.create(A1, A2, input_grid=grid)

    rows = [("width", "alpha", "pitt_lhs", "pitt_rhs", "pitt_slack_rel",
             "logup_slack_rel")]
    for width in (0.25, 0.5, 1.0, 2.0):
        f = synth_gaussian(grid, width, width)
        logup = log_up_check(f, plan)
        reports = pitt_sweep(f, plan, [float(a) for a in np.arange(0.0, 2.0, 0.25)])
        for rep in reports:
            rows.append((width, rep.alpha, rep.lhs, rep.rhs,
                         rep.slack / rep.rhs,
                         logup.slack / logup.energy if rep.alpha == 0.0 else ""))
        at_one = next(rep for rep in reports if rep.alpha == 1.0)
        print(f"width {width}: pitt slack at alpha=1 {at_one.slack:.4f}, "
              f"logup slack {logup.slack:.4f}")

    with open(args.out, "w") as fh:
        for row in rows:
            fh.write("\t".join(str(v) for v in row) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
