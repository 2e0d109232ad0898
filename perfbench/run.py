"""Run one workload of the qolct benchmark and print its metrics.

    python3 perfbench/run.py --workload transform-ij --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  ``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it alternates an untraced and a
traced pass over the same cycle and reports the per-layer metrics, the roofs
and the tracing overhead.  Both print every metric by name with its unit, then
one JSON line (``correct``, ``attempted``, ``failed``, ``metrics``) holding the
metrics BENCHMARK.json declares for that mode.  The full record, and the spans
of a traced run, are written under ``perfbench/out/``.

``--workload all`` runs every workload in turn in this one process, by grid
size, and ends with one line over all of them.  peak_rss_mb is then the peak
so far of the process (or of its children, for cli-cold).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def pin_threads():
    """Pin BLAS/OpenMP threads to QOLCT_THREADS, at most nproc (default
    nproc).  Must run before numpy loads; children inherit it.  Returns
    ``(nproc, threads)``."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    try:
        threads = max(1, min(int(os.environ.get("QOLCT_THREADS", nproc)), nproc))
    except ValueError:
        threads = nproc
    os.environ["QOLCT_THREADS"] = str(threads)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return nproc, threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc, threads = pin_threads()
    if not ((ROOT / "src" / "qolct" / "__init__.py").is_file()
            and (ROOT / "BENCHMARK.json").is_file()):
        print(f"error: {ROOT} is not a qolct checkout (needs src/qolct and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import qolct
    if not Path(qolct.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported qolct from {qolct.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    import driver
    import machine

    known = driver.workloads.WORKLOADS
    if args.workload == "all":
        names = sorted(known, key=lambda name: known[name].n)  # by grid size
    elif args.workload in known:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; known: all, "
                     + ", ".join(known))

    env = machine.environment(ROOT, args.seed, nproc, threads)
    lines = {name: driver.run(name, args.seed, args.seconds, bool(args.trace), env)
             for name in names}
    if len(lines) == 1:
        print(json.dumps(lines[names[0]]))
        return 0
    for name, line in lines.items():
        print(f"{name} {json.dumps(line)}")
    print(json.dumps({
        "correct": all(line["correct"] for line in lines.values()),
        "attempted": sum(line["attempted"] for line in lines.values()),
        "failed": sum(line["failed"] for line in lines.values()),
        "metrics": {f"{name}/{metric}": value for name, line in lines.items()
                    for metric, value in line["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
