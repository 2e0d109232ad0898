"""Per-layer tracing from outside the program.

:func:`instrument` replaces the public functions of every qolct module with
wrappers that record a span (name, start, end, parent, op id) while a
:class:`Tracer` is recording.  A function imported with ``from .x import y``
is wrapped again in the namespace of each module that holds it, because that
is where the caller looks the name up; every copy records under the
function's own name (``qft.centered_ft2``) plus the namespace it was called
through (``site``).  Spans stay in memory until the run ends.

Counts and computed byte or flop figures are attached to the span at the
boundary where the work happens; they are derived from array shapes, never
measured, and their metric names say so in their unit.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import time
from contextlib import contextmanager

import numpy as np

#: the program's layers, by module
MODULES = ("quat", "field", "qft", "olct", "oracle", "uncertainty",
           "signalio", "cli", "verify")

#: private functions that are layer boundaries in their own right
PRIVATE_BOUNDARIES = {"qolct.qft._direct_apply"}

#: entry points that apply one whole QFT to a field
QFT_APPLICATIONS = ("qft.qft_fast_ij", "qft.qft_direct", "qft.iqft")


def qsig1_bytes(n1: int, n2: int) -> int:
    """Size of a QSIG1 file: a 46-byte header, then 4 float64 per point."""
    return 46 + 32 * n1 * n2


class Span:
    __slots__ = ("name", "site", "start", "end", "parent", "op", "child", "extra")

    def __init__(self, name, site, start, parent, op, extra):
        self.name, self.site, self.start, self.parent = name, site, start, parent
        self.op, self.extra = op, extra
        self.end = None
        self.child = 0.0  # seconds covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """Span store for one run; recording is on only inside :meth:`op`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = None

    @property
    def recording(self) -> bool:
        return self._op is not None

    @contextmanager
    def op(self, op_id: str):
        self._op = op_id
        try:
            yield
        finally:
            self._op = None
            self._stack.clear()

    def enter(self, name, site, extra) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, site, time.perf_counter(), parent,
                               self._op, extra))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def exit(self, idx: int):
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child += span.end - span.start

    def dump(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "site": s.site,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op,
                                     **s.extra}) + "\n")


# ---------------------------------------------------------------------------
# Work figures attached at the boundary, computed from the call's arguments.

def _qmul_extra(a, b):
    out = np.broadcast_shapes(np.shape(a), np.shape(b))
    return {"bytes": 8 * (np.size(a) + np.size(b) + int(np.prod(out)))}


def _qfield_extra(self):
    return {"bytes": 8 * int(np.size(self.samples))}


def _centered_ft2_extra(x, tgrid, ugrid, signs=(-1, -1)):
    # two 1-D passes, each reading and writing the complex array once
    return {"bytes": 2 * 2 * 16 * tgrid.n1 * tgrid.n2,
            "useful": bool(np.any(x))}


def _direct_extra(f, plan, sign, scale):
    nt1, nt2 = f.grid.n1, f.grid.n2
    nu1, nu2 = plan.output_grid.n1, plan.output_grid.n2
    # two real tensordots per side (cos and sin), 2 flops per multiply-add,
    # over the four quaternion components
    return {"flops": 16 * nu1 * nt2 * (nt1 + nu2)}


def _quartet_key_extra(f, plan):
    digest = hashlib.blake2b(np.ascontiguousarray(f.samples).data,
                             digest_size=16).hexdigest()
    return {"key": digest + repr(plan)}


def _write_extra(path, f):
    return {"bytes": qsig1_bytes(f.grid.n1, f.grid.n2)}


def _read_extra(path):
    return {"bytes": os.path.getsize(path)}


EXTRAS = {
    "quat.qmul": _qmul_extra,
    "field.QField": _qfield_extra,
    "qft.centered_ft2": _centered_ft2_extra,
    "qft._direct_apply": _direct_extra,
    "olct.analysis_quartet": _quartet_key_extra,
    "signalio.write_signal": _write_extra,
    "signalio.read_signal": _read_extra,
}


def _wrap(fn, name, site, tracer):
    extra_fn = EXTRAS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        extra = {}
        if extra_fn is not None:
            try:
                extra = extra_fn(*args, **kwargs)
            except (TypeError, AttributeError, ValueError):
                pass  # the signature moved on; the span is still recorded
        idx = tracer.enter(name, site, extra)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(idx)

    return traced


def _traceable(obj) -> bool:
    if not inspect.isfunction(obj) or not obj.__module__.startswith("qolct."):
        return False
    return (not obj.__name__.startswith("_")
            or f"{obj.__module__}.{obj.__name__}" in PRIVATE_BOUNDARIES)


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every public qolct function in every module namespace holding it,
    the verify suite table, and ``QField.__post_init__``; undo on exit."""
    undo = []  # (namespace dict, key, original)
    field = importlib.import_module("qolct.field")
    post_init = field.QField.__post_init__
    try:
        for short in MODULES:
            namespace = vars(importlib.import_module(f"qolct.{short}"))
            for attr, obj in list(namespace.items()):
                if _traceable(obj):
                    name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    undo.append((namespace, attr, obj))
                    namespace[attr] = _wrap(obj, name, short, tracer)
        # run_suite calls the suites through this table, not by name
        suites = getattr(importlib.import_module("qolct.verify"), "_SUITE_FNS", {})
        for key, fn in list(suites.items()):
            undo.append((suites, key, fn))
            suites[key] = _wrap(fn, f"verify.{fn.__name__}", "verify", tracer)
        field.QField.__post_init__ = _wrap(post_init, "field.QField", "field", tracer)
        yield
    finally:
        field.QField.__post_init__ = post_init
        for namespace, key, original in reversed(undo):
            namespace[key] = original


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced cycle.

def _sum(values):
    return float(sum(values))


def layer_metrics(all_spans, ops, cli_report=None) -> dict:
    """Per-layer figures over the spans of the op ids in ``ops``.

    Returns ``{name: (value, unit)}``.  A ratio whose base is zero reads 0;
    every ratio's base is reported beside it as ``<name>_base``.
    """
    picked = [(i, s) for i, s in enumerate(all_spans) if s.op in ops]
    spans = [s for _, s in picked]
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by.get(name, ()))

    def self_ms(name):
        return _sum(s.self_time for s in by.get(name, ())) * 1e3

    def total_ms(name, site=None):
        return _sum(s.duration for s in by.get(name, ())
                    if site is None or s.site == site) * 1e3

    def extra_sum(name, key):
        return _sum(s.extra.get(key, 0) for s in by.get(name, ()))

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    qmul_self = self_ms("quat.qmul")
    m["quat.qmul_calls"] = (calls("quat.qmul"), "count")
    m["quat.qmul_self_ms"] = (qmul_self, "ms")
    m["quat.qmul_bytes"] = (extra_sum("quat.qmul", "bytes"), "B_computed")
    m["quat.qmul_gbs"] = (ratio(extra_sum("quat.qmul", "bytes") / 1e6, qmul_self),
                          "GB/s_computed")

    m["field.qfield_new_calls"] = (calls("field.QField"), "count")
    m["field.qfield_copy_bytes"] = (extra_sum("field.QField", "bytes"), "B_computed")
    m["field.qfield_self_ms"] = (self_ms("field.QField"), "ms")
    m["field.partial_derivative_self_ms"] = (self_ms("field.partial_derivative"), "ms")

    ft = by.get("qft.centered_ft2", ())
    m["qft.centered_ft2_calls"] = (len(ft), "count")
    m["qft.centered_ft2_self_ms"] = (self_ms("qft.centered_ft2"), "ms")
    m["qft.fft_bytes"] = (extra_sum("qft.centered_ft2", "bytes"), "B_computed")
    m["qft.ft_useful_ratio"] = (ratio(sum(s.extra.get("useful", 1) for s in ft), len(ft)),
                                "ratio")
    m["qft.ft_useful_ratio_base"] = (len(ft), "count")
    direct_self = self_ms("qft._direct_apply")
    m["qft.direct_calls"] = (calls("qft._direct_apply"), "count")
    m["qft.direct_self_ms"] = (direct_self, "ms")
    m["qft.direct_gflops"] = (ratio(extra_sum("qft._direct_apply", "flops") / 1e6,
                                    direct_self), "GFLOP/s_computed")

    # a QFT application takes the FFT path unless quadrature ran beneath it
    direct_parents = {s.parent for s in spans if s.name == "qft._direct_apply"}
    transforms = [i for i, s in picked if s.name in QFT_APPLICATIONS]
    fast = sum(1 for i in transforms if i not in direct_parents)
    m["qft.fast_path_ratio"] = (ratio(fast, len(transforms)), "ratio")
    m["qft.fast_path_ratio_base"] = (len(transforms), "count")

    m["olct.forward_self_ms"] = (self_ms("olct.qolct_forward"), "ms")
    m["olct.inverse_self_ms"] = (self_ms("olct.qolct_inverse"), "ms")
    m["olct.quartet_self_ms"] = (self_ms("olct.qolct_quartet"), "ms")
    aq = by.get("olct.analysis_quartet", ())
    m["olct.analysis_quartet_calls"] = (len(aq), "count")
    keys = {s.extra.get("key", id(s)) for s in aq}
    m["olct.quartet_reuse_ratio"] = (ratio(len(keys), len(aq)), "ratio")
    m["olct.quartet_reuse_ratio_base"] = (len(aq), "count")

    for report in ("heisenberg_report", "pitt_check", "log_up_check", "hardy_report"):
        m[f"uncertainty.{report}_self_ms"] = (self_ms(f"uncertainty.{report}"), "ms")

    m["signalio.read_ms"] = (total_ms("signalio.read_signal"), "ms")
    m["signalio.write_ms"] = (total_ms("signalio.write_signal"), "ms")
    m["signalio.bytes"] = (extra_sum("signalio.read_signal", "bytes")
                           + extra_sum("signalio.write_signal", "bytes"), "B")
    m["cli.sidecar_quartet_ms"] = (total_ms("olct.qolct_quartet", site="cli"), "ms")

    for suite in ("algebra", "qft", "qolct", "oracle", "uncertainty"):
        m[f"verify.{suite}_ms"] = (total_ms(f"verify.{suite}_checks"), "ms")
    report = cli_report or {}
    m["verify.checks"] = (len(report.get("checks", ())), "count")
    m["verify.failed"] = (int(report.get("n_failed", 0)), "count")

    m["trace.self_ms_sum"] = (_sum(s.self_time for s in spans) * 1e3, "ms")
    return m
