"""Where the time of one uncertainty-report cycle goes, op by op and layer by layer.

    python scripts/analysis_split.py --n 256 --cycles 15 --seed 1

One cycle runs the reports an analysis-ij cycle of ``perfbench`` runs on one
(signal, plan) pair: Heisenberg on both axes, Pitt at three alphas, the
logarithmic inequality, Hardy and the component quartet.  Each cycle draws a
new plan from the seeded rng, as an analysis-ij cycle does, so the analysis
memo does not carry over from one cycle to the next; ``analysis`` is timed
as its own first step.  The layers of the Heisenberg covariance (the unit
phase u = f/|f|, then on each axis the derivative of u and the modulus of
d/dt_k w, the chirp's product-rule term combined with it) are then timed
alone on the cycle's own u.  Prints the median of each timing over the
cycles, in ms.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from qolct import UNIT_I, UNIT_J, Grid2D, QField, QolctPlan, synth_gaussian
from qolct import olct, uncertainty
from qolct.field import partial_derivative
from qolct.quat import qmul, qnorm
from qolct.verify import random_offset_params


def unit_phase(f: QField, e2: np.ndarray) -> QField:
    """u = f/|f|, 0 where |f| is below 1e-12 of its peak, as the report forms it."""
    mod = np.sqrt(e2)
    mod[mod <= 1e-12 * float(mod.max())] = np.inf
    return QField(f.grid, f.samples / mod[..., None])


def modulus_dw(u: QField, plan: QolctPlan, k: int, du: np.ndarray) -> np.ndarray:
    """|d/dt_k w| = |lam phi1' u + d1 u| (k = 1) or |u mu phi2' + d2 u| (k = 2)."""
    A = plan.A1 if k == 1 else plan.A2
    side = qmul(plan.lam.array, np.eye(4)) if k == 1 else qmul(np.eye(4), plan.mu.array)
    tk = u.grid.axis_coords(k).reshape((-1, 1) if k == 1 else (1, -1))
    dw = u.samples @ side
    dw *= ((A.tau + A.a * tk) / A.b)[..., None]
    dw += du
    return qnorm(dw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=256)
    parser.add_argument("--cycles", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    grid = Grid2D.centered(args.n, 16.0)
    f = synth_gaussian(grid, 0.6, 0.9, (1.0, 0.4), (0.7, -0.3), UNIT_I, UNIT_J,
                       center=(0.5, -0.4))
    cap = 0.9 * np.pi / (grid.spacing1 * grid.extent1)  # the chirp bound, with margin
    steps = {
        "analysis": lambda plan: olct.analysis(f, plan),
        "heisenberg-1": lambda plan: uncertainty.heisenberg_report(f, plan, 1),
        "heisenberg-2": lambda plan: uncertainty.heisenberg_report(f, plan, 2),
        **{f"pitt-{a:g}": (lambda plan, a=a: uncertainty.pitt_check(f, plan, a))
           for a in (0.5, 1.0, 1.5)},
        "logup": lambda plan: uncertainty.log_up_check(f, plan),
        "hardy": lambda plan: uncertainty.hardy_report(f, plan),
        "quartet": lambda plan: olct.qolct_quartet(f, plan),
    }
    times = {name: [] for name in [*steps, "cycle"]}
    for _ in range(args.cycles):
        plan = QolctPlan.create(*(random_offset_params(rng, max_chirp_ratio=cap)
                                  for _ in range(2)), input_grid=grid)
        t_cycle = time.perf_counter()
        for name, step in steps.items():
            t0 = time.perf_counter()
            step(plan)
            times[name].append(time.perf_counter() - t0)
        times["cycle"].append(time.perf_counter() - t_cycle)
        an = olct.analysis(f, plan)  # kept by the cycle: no transform
        u = unit_phase(f, an.e2)
        du = {k: partial_derivative(u, k).samples for k in (1, 2)}
        layers = {
            "unit phase u = f/|f|": lambda: unit_phase(f, an.e2),
            **{f"partial_derivative axis {k}": (lambda k=k: partial_derivative(u, k))
               for k in (1, 2)},
            **{f"qnorm of d/dt{k} w": (lambda k=k: modulus_dw(u, plan, k, du[k]))
               for k in (1, 2)},
        }
        for name, layer in layers.items():
            t0 = time.perf_counter()
            layer()
            times.setdefault(name, []).append(time.perf_counter() - t0)
    print(f"n = {args.n}, {args.cycles} cycles, seed {args.seed}; median ms")
    for name, ts in times.items():
        print(f"{name}\t{1e3 * statistics.median(ts):.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
