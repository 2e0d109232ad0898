"""Measure one workload: the end-to-end run or the traced run, and its report.

Imported by ``run.py`` once the thread pin is set and the checkout's sources
are on the path.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import time
from pathlib import Path

import machine
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: set-ups per run, setup_s being their median: at least the first figure,
#: and more, up to the second, while they add up to under SETUP_FILL_S
SETUP_REPS = (3, 25)
SETUP_FILL_S = 1.0
#: the transform-ij complex array size the FFT floor is measured at
FFT_FLOOR_N = 1024


def tail(seconds_list):
    """The highest percentile with at least ten samples beyond it, or None
    when that is not above the median."""
    n = len(seconds_list)
    if n < 20:
        return None
    return {"p": math.floor(1000.0 * (n - 10) / n) / 10.0,
            "ms": sorted(seconds_list)[n - 11] * 1e3}


def timing(seconds_list) -> dict:
    return {"value": statistics.median(seconds_list) * 1e3, "unit": "ms",
            "n": len(seconds_list), "tail": tail(seconds_list)}


def measure_cycles(wl, state, rng, seconds, run_cycle):
    """Run whole cycles until ``seconds`` have passed (at least one); returns
    each cycle's op results."""
    cycles = []
    deadline = time.perf_counter() + seconds
    while True:
        cycles.append(run_cycle(wl.draw(state, rng, len(cycles)), len(cycles)))
        if time.perf_counter() >= deadline:
            return cycles


def end_to_end(wl, seed, seconds, workdir):
    setups = []
    while len(setups) < SETUP_REPS[0] or (sum(setups) < SETUP_FILL_S
                                          and len(setups) < SETUP_REPS[1]):
        state = None  # let the previous set-up's arrays go first
        state = wl.setup(seed, ROOT, workdir)
        setups.append(state.setup_s)

    def run_cycle(inputs, k):
        return [workloads.run_op(op) for op in wl.ops(state, inputs)]

    cycles = measure_cycles(wl, state, workloads.cycle_rng(seed), seconds, run_cycle)
    results = [r for cycle in cycles for r in cycle]
    lat = [r.seconds for r in results]
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-cold" else resource.RUSAGE_SELF
    metrics = {
        "cycle_ms_p50": timing([sum(r.seconds for r in cycle) for cycle in cycles]),
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s",
                    "n": len(setups)},
    }
    for name, kinds in wl.timings.items():
        picked = [r.seconds for r in results if kinds is None or r.kind in kinds]
        metrics[name] = timing(picked)
    detail = {"cycles": len(cycles), "setup_s_samples": setups,
              "ops": [[r.kind, r.seconds, r.ok] for r in results]}
    return results, metrics, detail


def traced(wl, seed, seconds, workdir, out_stem):
    state = wl.setup(seed, ROOT, workdir)
    layer = {**machine.copy_roof(machine.llc_bytes()),
             **machine.fft2_floor(FFT_FLOOR_N),
             **machine.import_split(ROOT)}

    tracer = spans.Tracer()
    cycles = []  # (untraced results, traced results, per-layer dict)

    def run_cycle(inputs, k):
        plain = [workloads.run_op(op) for op in wl.ops(state, inputs, in_process=True)]
        state.gates.closed_form_s = 0.0
        ids = set()
        with spans.instrument(tracer):
            done = []
            for j, op in enumerate(wl.ops(state, inputs, in_process=True)):
                op_id = f"{k}.{j}.{op.kind}"
                ids.add(op_id)
                done.append(workloads.run_op(op, tracer, op_id))
        per = spans.layer_metrics(tracer.spans, ids, getattr(state, "verify_doc", None))
        per["oracle.closed_form_ms"] = (state.gates.closed_form_s * 1e3, "ms")
        per["trace.op_ms"] = (sum(r.seconds for r in done) * 1e3, "ms")
        cycles.append((plain, done, per))
        return plain + done

    results = [r for cycle in measure_cycles(wl, state, workloads.cycle_rng(seed),
                                             seconds, run_cycle) for r in cycle]
    tracer.dump(out_stem.with_suffix(".spans.jsonl"))

    for name, (_, unit) in cycles[0][2].items():
        # a count repeats exactly from cycle to cycle; keep it a whole number
        median = statistics.median_low if unit == "count" else statistics.median
        layer[name] = (median(c[2][name][0] for c in cycles), unit)
    for _, _, per in cycles:
        if per["trace.self_ms_sum"][0] > per["trace.op_ms"][0] * (1 + 1e-9):
            raise RuntimeError("span self times exceed the traced op wall time")
    plain_s = sum(r.seconds for c in cycles for r in c[0])
    traced_s = sum(r.seconds for c in cycles for r in c[1])
    layer["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    layer["trace.cycles"] = (len(cycles), "count")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    return results, metrics, {"cycles": len(cycles)}


def _describe(m: dict) -> str:
    if "tail" in m:
        t = m["tail"]
        return (f"  (n={m['n']}, p{t['p']:g}={t['ms']:.6g} ms)" if t else
                f"  (n={m['n']}, no percentile above p50 has 10 samples beyond)")
    return f"  (n={m['n']})" if "n" in m else ""


def run(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    """Measure ``workload``, print the report, and return the result line."""
    wl = workloads.WORKLOADS[workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{wl.name}-seed{seed}-trace{int(trace)}"
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if trace:
            results, metrics, detail = traced(wl, seed, seconds, workdir, stem)
        else:
            results, metrics, detail = end_to_end(wl, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r.ok for r in results)
    metrics["ops_attempted"] = {"value": len(results), "unit": "count"}
    metrics["ops_failed"] = {"value": failed, "unit": "count"}
    record = {"workload": wl.name, "why": wl.why, "loop": "closed, 1 client",
              "trace": int(trace), "seconds": seconds, "env": env,
              "metrics": metrics, **detail}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {wl.name} (closed loop, 1 client, grid {wl.n}^2): {wl.why}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}{_describe(m)}")

    final = {}
    for entry in declared:
        m = metrics[entry["name"]]
        if m["unit"] != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {m['unit']} is not the "
                               f"declared {entry['unit']}")
        final[entry["name"]] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": failed == 0, "attempted": len(results), "failed": failed,
            "metrics": final}
