#!/usr/bin/env python3
"""Compare the numeric transform of a quaternion Gaussian against its
closed form across a small parameter sweep, and time the two paths."""

import argparse
import time

from qolct import (
    Grid2D,
    OffsetParams,
    QolctPlan,
    UNIT_I,
    UNIT_J,
    qolct_forward,
    synth_gaussian,
)
from qolct.oracle import GaussianSpec, gaussian_qolct_closed_form_field, qolct_direct
from qolct.quat import qnorm

SWEEP = [
    OffsetParams(1.0, 1.0, 1.0, 2.0, 0.3, -0.2),
    OffsetParams(0.5, 1.5, -0.4, 0.8, -0.1, 0.4),
    OffsetParams(0.0, 1.0, -1.0, 1.3, 0.5, -0.7),
    OffsetParams(2.0, 1.0, 1.0, 1.0, 1.0, 1.0),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=256)
    parser.add_argument("--extent", type=float, default=16.0)
    args = parser.parse_args()

    grid = Grid2D.centered(args.n, args.extent)
    spec = GaussianSpec(1.0, 0.5, 1.0, 0.4, 0.6, -0.3)
    f = synth_gaussian(grid, spec.alpha1, spec.alpha2,
                       (spec.beta11, spec.beta12), (spec.beta21, spec.beta22),
                       UNIT_I, UNIT_J)

    print(f"{'A1 = A2':<34} {'rel err vs closed form':>24} {'fast':>8} {'direct':>8}")
    for A in SWEEP:
        plan = QolctPlan.create(A, A, input_grid=grid)
        t0 = time.perf_counter()
        fast = qolct_forward(f, plan)
        t_fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        direct = qolct_direct(f, plan)
        t_direct = time.perf_counter() - t0
        oracle = gaussian_qolct_closed_form_field(spec, A, A, UNIT_I, UNIT_J,
                                                  plan.output_grid)
        rel = float(qnorm(fast.samples - oracle.samples).max()
                    / qnorm(oracle.samples).max())
        agree = float(qnorm(fast.samples - direct.samples).max())
        label = f"({A.a:g},{A.b:g},{A.c:g},{A.d:g}|{A.tau:g},{A.eta:g})"
        print(f"{label:<34} {rel:>24.3e} {t_fast:>7.3f}s {t_direct:>7.3f}s"
              f"   paths agree to {agree:.1e}")


if __name__ == "__main__":
    main()
