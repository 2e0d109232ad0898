"""The benchmark's workloads: seeded inputs, closed-loop ops and their gates.

Every workload is a closed loop with one client: the next op starts only when
the previous one has returned.  Ops come in *cycles*, the smallest sequence
whose call structure repeats exactly, so a run measures whole cycles and the
per-layer counts of a traced cycle repeat from run to run.  Inputs are drawn
from the run's seed; the program sees only those inputs.

Each op carries a gate, run outside the timed region.  An op whose gate
fails, or that raises, is counted as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from qolct import cli, olct, oracle, signalio, uncertainty
from qolct import field as qfield
from qolct.quat import UNIT_I, UNIT_J, PureUnit

import machine
from spans import qsig1_bytes

EXTENT = 16.0

# Gate tolerances, each as the repository's own verify suite or tests use it.
CLOSED_FORM_TOL = 1e-6   # verify: closed-form-vs-forward
ROUND_TRIP_TOL = 1e-7    # verify: inversion-round-trip
PLANCHEREL_TOL = 1e-9    # quartet and field norms are preserved to rounding
HARDY_TOL = 1e-3         # verify: hardy-critical-product
MAX_CHIRP_RATIO = 1.5    # tests/conftest.parameter_sets


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class OpResult:
    kind: str
    seconds: float
    ok: bool


# ---------------------------------------------------------------------------
# Seeded inputs.

def setup_rng(seed: int):
    """The stream set-up draws from; measured cycles use :func:`cycle_rng`."""
    return np.random.default_rng([seed % 2 ** 64, 0])


def cycle_rng(seed: int):
    return np.random.default_rng([seed % 2 ** 64, 1])


def offset_params(rng, max_chirp_ratio=MAX_CHIRP_RATIO) -> olct.OffsetParams:
    """Unimodular (a, b, c, d | tau, eta): b in [0.5, 2], |a|, |c|, |d| <= 2,
    |a| >= 0.3, |a|/(2b) <= ``max_chirp_ratio``, offsets in +-[0.1, 1]."""
    while True:
        a = rng.uniform(-2.0, 2.0)
        b = rng.uniform(0.5, 2.0)
        c = rng.uniform(-2.0, 2.0)
        if abs(a) < 0.3 or abs(a) / (2.0 * b) > max_chirp_ratio:
            continue
        d = (1.0 + b * c) / a
        if abs(d) <= 2.0:
            break
    tau, eta = rng.choice((-1.0, 1.0), 2) * rng.uniform(0.1, 1.0, 2)
    return olct.OffsetParams(a, b, c, d, float(tau), float(eta))


def chirp_cap(grid) -> float:
    """Largest |a|/(2b) this benchmark draws on ``grid``: the conftest cap,
    lowered if needed so the plan meets its chirp bound |a|/(2b) h L <= pi."""
    return min(MAX_CHIRP_RATIO, math.pi / (grid.spacing1 * grid.extent1))


def random_axis(rng) -> PureUnit:
    v = rng.normal(size=3)
    while float(v @ v) < 1e-3:
        v = rng.normal(size=3)
    return PureUnit(float(v[0]), float(v[1]), float(v[2]))


def general_axes(rng):
    """A random axis pair other than (i, j)."""
    while True:
        lam, mu = random_axis(rng), random_axis(rng)
        if (lam, mu) != (UNIT_I, UNIT_J):
            return lam, mu


#: corpus member -> closed-form spec, for members that are plain Gaussians
CORPUS = ("real", "quaternion", "chirped", "shifted")
CLOSED_FORM = {
    "real": oracle.GaussianSpec(0.5, 0.5),
    "quaternion": oracle.GaussianSpec(1.0, 0.5, 1.0, 0.5, 0.7, -0.4),
}


def corpus(grid) -> dict:
    """The test corpus of tests/conftest.corpus_signals on ``grid``."""
    return {
        "real": qfield.synth_gaussian(grid, 0.5, 0.5),
        "quaternion": qfield.synth_gaussian(grid, 1.0, 0.5, (1.0, 0.5),
                                            (0.7, -0.4), UNIT_I, UNIT_J),
        "chirped": qfield.apply_chirp(qfield.synth_gaussian(grid, 0.8, 0.8),
                                      UNIT_I, 0.0, 0.3, UNIT_J, 0.0, -0.2),
        "shifted": qfield.synth_gaussian(grid, 0.7, 0.7, center=(0.8, -0.6)),
    }


# ---------------------------------------------------------------------------
# Gates.  Norms are computed here with numpy, not with the program's helpers.

def _l2(samples, grid) -> float:
    return float(np.sqrt(np.sum(samples * samples) * grid.cell_area))


def rel_max_err(got, want) -> float:
    """Max pointwise quaternion-modulus difference over the peak modulus."""
    diff = np.sqrt(np.sum((got - want) ** 2, axis=-1))
    return float(diff.max() / np.sqrt(np.sum(want ** 2, axis=-1)).max())


class Gates:
    """The gate checks, with the time spent in the closed-form oracle."""

    def __init__(self):
        self.closed_form_s = 0.0

    def closed_form(self, F, spec, plan) -> bool:
        t0 = time.perf_counter()
        want = oracle.gaussian_qolct_closed_form_field(
            spec, plan.A1, plan.A2, plan.lam, plan.mu, plan.output_grid)
        self.closed_form_s += time.perf_counter() - t0
        return rel_max_err(F.samples, want.samples) <= CLOSED_FORM_TOL

    def forward(self, F, f, member, plan) -> bool:
        """Norm preserved; and the closed form where the member has one on
        the plan's axes (the quaternion member's weights lie in the i and j
        planes)."""
        if F.grid != plan.output_grid:
            return False
        ratio = _l2(F.samples, F.grid) / _l2(f.samples, f.grid)
        if not abs(ratio - 1.0) <= PLANCHEREL_TOL:
            return False
        spec = CLOSED_FORM.get(member)
        if spec is None or (member == "quaternion"
                            and (plan.lam, plan.mu) != (UNIT_I, UNIT_J)):
            return True
        return self.closed_form(F, spec, plan)

    @staticmethod
    def round_trip(back, f) -> bool:
        return (back.grid == f.grid
                and rel_max_err(back.samples, f.samples) <= ROUND_TRIP_TOL)


def strict_json(text: str):
    """Parse JSON, rejecting NaN and +-Infinity."""
    def reject(token):
        raise ValueError(f"non-finite number {token} in JSON")
    return json.loads(text, parse_constant=reject)


# ---------------------------------------------------------------------------
# Running ops.

def run_op(op: Op, tracer=None, op_id=None) -> OpResult:
    """Time one op, then gate it; an exception counts as a failure."""
    ctx = tracer.op(op_id) if tracer is not None else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with ctx:
            result = op.run()
        seconds = time.perf_counter() - t0
    except Exception:  # the loop must go on; the op counts as failed
        seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        ok = False
    else:
        try:
            ok = bool(op.check(result))
        except Exception:  # a malformed output fails its gate
            traceback.print_exc(file=sys.stderr)
            ok = False
    if not ok:
        print(f"op failed: {op.kind}", file=sys.stderr)
    return OpResult(op.kind, seconds, ok)


class Workload:
    """A named workload: ``setup`` builds its state once per set-up, ``draw``
    takes one cycle's inputs from the rng, ``ops`` turns them into ops."""

    name: str
    why: str
    n: int
    #: named per-kind timings the report prints: metric -> op kinds (None: all)
    timings: dict = {}

    def grid(self):
        return qfield.Grid2D.centered(self.n, EXTENT)

    def setup(self, seed: int, root: Path, workdir: Path):
        """One timed set-up from the run's seed; returns the state, with the
        set-up time in ``setup_s``.  Every set-up of a seed is the same."""
        raise NotImplementedError

    def draw(self, state, rng, k: int):
        raise NotImplementedError

    def ops(self, state, inputs, in_process=False) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# In-process library workloads.

@dataclass
class LibState:
    grid: object
    signals: dict
    start: int
    gates: Gates = field(default_factory=Gates)
    setup_s: float = 0.0


class TransformWorkload(Workload):
    """Each cycle is one (signal, plan) pair: a forward op, then an inverse
    op on the forward's output."""

    timings = {"forward_ms_p50": ("forward",), "inverse_ms_p50": ("inverse",)}

    def __init__(self, name, n, general, why):
        self.name, self.n, self.general, self.why = name, n, general, why

    def _plan(self, rng, grid):
        A1 = offset_params(rng, chirp_cap(grid))
        A2 = offset_params(rng, chirp_cap(grid))
        lam, mu = general_axes(rng) if self.general else (UNIT_I, UNIT_J)
        return A1, A2, lam, mu

    def setup(self, seed, root, workdir):
        rng = setup_rng(seed)
        import_s = machine.time_import(root)
        t0 = time.perf_counter()
        grid = self.grid()
        signals = corpus(grid)
        A1, A2, lam, mu = self._plan(rng, grid)
        plan = olct.QolctPlan.create(A1, A2, lam, mu, input_grid=grid)
        olct.qolct_forward(signals["real"], plan)  # warm-up op
        state = LibState(grid, signals, int(rng.integers(len(CORPUS))))
        state.setup_s = import_s + time.perf_counter() - t0
        return state

    def draw(self, state, rng, k):
        member = CORPUS[(state.start + k) % len(CORPUS)]
        return member, self._plan(rng, state.grid)

    def ops(self, state, inputs, in_process=False):
        member, (A1, A2, lam, mu) = inputs
        f = state.signals[member]
        plan = olct.QolctPlan.create(A1, A2, lam, mu, input_grid=state.grid)
        out = {}

        def forward():
            out["F"] = olct.qolct_forward(f, plan)
            return out["F"]

        return [
            Op("forward", forward,
               lambda F: state.gates.forward(F, f, member, plan)),
            Op("inverse", lambda: olct.qolct_inverse(out["F"], plan),
               lambda back: state.gates.round_trip(back, f)),
        ]


class AnalysisWorkload(Workload):
    """Each cycle is one (signal, plan) pair on axes (i, j) and every report
    the CLI offers on it, in a fixed order."""

    name = "analysis-ij"
    n = 256
    why = ("cache-resident uncertainty reports that redo the analysis "
           "quartet for one (signal, plan) pair; only quartet and caching "
           "changes move it")
    timings = {"report_ms_p50": None}

    def setup(self, seed, root, workdir):
        rng = setup_rng(seed)
        import_s = machine.time_import(root)
        t0 = time.perf_counter()
        grid = self.grid()
        signals = corpus(grid)
        cap = chirp_cap(grid)
        plan = olct.QolctPlan.create(offset_params(rng, cap), offset_params(rng, cap),
                                     input_grid=grid)
        uncertainty.heisenberg_report(signals["real"], plan, 1)  # warm-up op
        state = LibState(grid, signals, int(rng.integers(len(CORPUS))))
        state.setup_s = import_s + time.perf_counter() - t0
        return state

    def draw(self, state, rng, k):
        member = CORPUS[(state.start + k) % len(CORPUS)]
        cap = chirp_cap(state.grid)
        return member, offset_params(rng, cap), offset_params(rng, cap)

    def ops(self, state, inputs, in_process=False):
        member, A1, A2 = inputs
        f = state.signals[member]
        plan = olct.QolctPlan.create(A1, A2, input_grid=state.grid)
        energy = _l2(f.samples, f.grid) ** 2

        def heisenberg(axis):
            return Op(f"heisenberg-{axis}",
                      lambda: uncertainty.heisenberg_report(f, plan, axis),
                      lambda r: r.gap >= 0.0)

        def pitt(alpha):
            return Op(f"pitt-{alpha:g}",
                      lambda: uncertainty.pitt_check(f, plan, alpha),
                      lambda r: r.slack >= 0.0)

        def quartet_ok(q):
            norm = math.sqrt(sum(np.sum(m.samples * m.samples) for m in q.members)
                             * q.grid.cell_area)
            return abs(norm / math.sqrt(energy) - 1.0) <= PLANCHEREL_TOL

        return [
            heisenberg(1), heisenberg(2), pitt(0.5), pitt(1.0), pitt(1.5),
            Op("logup", lambda: uncertainty.log_up_check(f, plan),
               lambda r: r.slack >= 0.0),
            # Hardy: a nonzero signal has alpha * beta <= 1/4
            Op("hardy", lambda: uncertainty.hardy_report(f, plan),
               lambda r: (r.alpha_hat > 0.0 and r.beta_hat > 0.0
                          and r.product <= 0.25 + HARDY_TOL)),
            Op("quartet", lambda: olct.qolct_quartet(f, plan), quartet_ok),
        ]


# ---------------------------------------------------------------------------
# Cold CLI workload.

@dataclass
class CliState:
    root: Path
    workdir: Path
    params: list
    start: int
    verify_seed: int
    gates: Gates = field(default_factory=Gates)
    setup_s: float = 0.0
    verify_doc: dict | None = None


class CliWorkload(Workload):
    """Each cycle runs one cold ``python -m qolct.cli`` process per command,
    in sequence; a traced cycle calls ``cli.main`` in-process instead, and
    leaves out the bare import, which the traced run splits with
    ``-X importtime``."""

    name = "cli-cold"
    n = 256
    why = ("one cold qolct CLI process per command on small arrays: import, "
           "QSIG1 I/O and the sidecar quartet dominate, not the engine")
    N_PARAMS = 8
    timings = {f"cli_{kind}_ms_p50": (kind,) for kind in
               ("import", "synth", "transform", "inverse", "uncertainty", "verify")}

    def setup(self, seed, root, workdir):
        """Write the input files: the corpus as QSIG1 and the parameter files."""
        rng = setup_rng(seed)
        params = [self._draw_params(rng) for _ in range(self.N_PARAMS)]
        t0 = time.perf_counter()
        signals = corpus(self.grid())
        for member, f in signals.items():
            signalio.write_signal(workdir / f"corpus-{member}.qsig", f)
        for i, p in enumerate(params):
            signalio.write_params(workdir / f"params-{i}.json", p)
        setup_s = time.perf_counter() - t0
        # `verify all --seed` takes the run's seed itself
        return CliState(root, workdir, params, int(rng.integers(len(CORPUS))),
                        seed % 2 ** 32, setup_s=setup_s)

    def _draw_params(self, rng):
        cap = chirp_cap(self.grid())
        return signalio.TransformParams(offset_params(rng, cap),
                                        offset_params(rng, cap), UNIT_I, UNIT_J)

    def draw(self, state, rng, k):
        a1, a2 = rng.uniform(0.5, 1.2, 2)
        b11, b21 = rng.uniform(0.5, 1.5, 2)
        b12, b22 = rng.uniform(-0.5, 0.5, 2)
        spec = oracle.GaussianSpec(float(a1), float(a2), float(b11), float(b12),
                                   float(b21), float(b22))
        return k % self.N_PARAMS, CORPUS[(state.start + k) % len(CORPUS)], spec

    @staticmethod
    def _python(state, args):
        """Run a fresh interpreter; returns its exit code (None on timeout)."""
        proc, _ = machine.run_child([sys.executable, *args], state.root)
        return None if proc is None else proc.returncode

    def _command(self, state, argv, in_process):
        """Run one CLI command; returns its exit code."""
        if in_process:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)
        return self._python(state, ["-m", "qolct.cli", *argv])

    def ops(self, state, inputs, in_process=False):
        p_idx, member, spec = inputs
        w = state.workdir
        params_file = str(w / f"params-{p_idx}.json")
        params = state.params[p_idx]
        sig, fwd, back = (str(w / name) for name in ("sig.qsig", "fwd.qsig", "back.qsig"))
        unc, ver = str(w / "uncertainty.json"), str(w / "verify.json")
        n = self.n
        synth = ["synth", "gaussian", "--n", str(n), "--extent", str(EXTENT),
                 "--alpha1", repr(spec.alpha1), "--alpha2", repr(spec.alpha2),
                 "--beta11", repr(spec.beta11), "--beta12", repr(spec.beta12),
                 "--beta21", repr(spec.beta21), "--beta22", repr(spec.beta22),
                 "--out", sig]

        def cmd(argv):
            return lambda: self._command(state, argv, in_process)

        def read(path):
            with open(path) as fh:
                return strict_json(fh.read())

        def transform_ok(rc):
            if rc != 0:
                return False
            ratio = read(fwd + ".json")["plancherel_ratio"]
            F = signalio.read_signal(fwd)
            plan = olct.QolctPlan.create(params.A1, params.A2, UNIT_I, UNIT_J,
                                         input_grid=self.grid())
            return (abs(ratio - 1.0) <= PLANCHEREL_TOL
                    and state.gates.closed_form(F, spec, plan))

        def uncertainty_ok(rc):
            axes = read(unc)["axes"] if rc == 0 else ()
            return len(axes) == 2 and all(ax["gap"] >= 0.0 for ax in axes)

        def verify_ok(rc):
            if rc != 0:
                return False
            state.verify_doc = read(ver)
            return state.verify_doc["n_failed"] == 0

        ops = [] if in_process else [
            Op("import", lambda: self._python(state, ["-c", "import qolct.cli"]),
               lambda rc: rc == 0)]
        return ops + [
            Op("synth", cmd(synth),
               lambda rc: rc == 0 and os.path.getsize(sig) == qsig1_bytes(n, n)),
            Op("transform", cmd(["transform", "--in", sig, "--params", params_file,
                                 "--out", fwd]), transform_ok),
            Op("inverse", cmd(["transform", "--in", fwd, "--params", params_file,
                               "--inverse", "--reference", sig, "--out", back]),
               lambda rc: rc == 0 and read(back + ".json")[
                   "l2_rel_distance_to_reference"] <= ROUND_TRIP_TOL),
            Op("uncertainty", cmd(["uncertainty", "--in",
                                   str(w / f"corpus-{member}.qsig"),
                                   "--params", params_file, "--which", "heisenberg",
                                   "--json", unc]), uncertainty_ok),
            Op("verify", cmd(["verify", "all", "--seed", str(state.verify_seed),
                              "--json", ver]), verify_ok),
        ]


# ---------------------------------------------------------------------------

WORKLOADS = {
    # The FFT path at a size well above L2: 32 MB fields, 16 MB complex
    # intermediates.  The near-neutral side for an engine rewrite.
    "transform-ij": TransformWorkload(
        "transform-ij", 1024, False,
        "FFT path on axes (i, j) at 1024^2, far above L2: chirps, 8 centered "
        "FFTs and QField copies per forward, with the inverse beside it"),
    # Today's O(N^3) dense quadrature for any other axis pair: the workload
    # where a one-engine-for-all-axes rewrite should show.
    "transform-general": TransformWorkload(
        "transform-general", 512, True,
        "random non-(i, j) axes at 512^2: today the O(N^3) dense quadrature "
        "through BLAS, where an all-axes FFT engine would show"),
    # Reports on cache-resident arrays that redo the same analysis quartet.
    "analysis-ij": AnalysisWorkload(),
    # Process start-up, import and file I/O rather than transform work.
    "cli-cold": CliWorkload(),
}
