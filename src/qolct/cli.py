"""Command-line front end.

Subcommands: ``synth`` (test-signal files), ``transform`` (forward/inverse
QOLCT with a JSON sidecar), ``verify`` (invariant suites), ``uncertainty``
(inequality reports, optionally with TSV plot data).

Exit codes: 0 success, 1 verification failure, 2 usage or invalid
parameters, 3 I/O failure, 4 violated numerical preconditions.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from dataclasses import asdict, astuple, fields

import numpy as np

from . import _mutation
from .field import (Grid2D, PlanViolationError, QField, _cell_sum, apply_chirp,
                    l2_norm, synth_gaussian)
from .olct import QolctPlan, _require_positive_b, analysis, qolct_forward, qolct_inverse
from .quat import PureUnit
from .signalio import (
    params_doc,
    read_csv_signal,
    read_params,
    read_signal,
    write_signal,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _non_finite_keys(node, key: str) -> list:
    """The key paths of the NaN and +-inf floats in a JSON document."""
    if isinstance(node, dict):
        return [b for k, v in node.items()
                for b in _non_finite_keys(v, f"{key}.{k}" if key else k)]
    if isinstance(node, list):
        return [b for i, v in enumerate(node) for b in _non_finite_keys(v, f"{key}[{i}]")]
    return [key] if isinstance(node, float) and not math.isfinite(node) else []


def _strict_json(doc) -> str:
    """``doc`` as strict JSON; a non-finite figure is a numerical failure,
    raised before the command writes anything."""
    bad = _non_finite_keys(doc, "")
    if bad:
        raise PlanViolationError(f"{', '.join(bad)}: not finite (the figures "
                                 "overflow the largest float or are undefined)")
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def _dump_json(text: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _finite_float(text: str) -> float:
    """argparse type of the float flags: NaN and +-inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_axis_flag(text: str, label: str) -> PureUnit:
    try:
        x, y, z = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--{label} expects three comma-separated numbers") from exc
    try:  # three numbers, but zero or not finite
        return PureUnit(x, y, z)
    except ValueError as exc:
        raise ValueError(f"--{label}: {exc}") from exc


def _load_signal(path: str, as_csv: bool) -> QField:
    return read_csv_signal(path) if as_csv else read_signal(path)


# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    grid = Grid2D.centered(args.n, args.extent, (args.grid_center1, args.grid_center2))
    lam = _parse_axis_flag(args.lam, "lambda")
    mu = _parse_axis_flag(args.mu, "mu")
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        f = synth_gaussian(grid, args.alpha1, args.alpha2,
                           (args.beta11, args.beta12), (args.beta21, args.beta22),
                           lam, mu, center=(args.center1, args.center2))
        if args.kind == "chirped-gaussian":
            f = apply_chirp(f, lam, args.lin1, args.chirp1, mu, args.lin2, args.chirp2)
    if not np.isfinite(f.samples).all():
        raise PlanViolationError("a sample of the signal overflows the largest "
                                 "float (amplitude or chirp phase too large)")
    write_signal(args.out, f)
    peak = float(f.modulus().max())
    print(f"wrote {args.out}: {grid.n1}x{grid.n2} grid, spacing "
          f"({grid.spacing1:g}, {grid.spacing2:g}), extent "
          f"({grid.extent1:g}, {grid.extent2:g}), peak modulus {peak:.6g}")
    return EXIT_OK


def _near_grid(ref: Grid2D, g: Grid2D) -> bool:
    """Same sample counts, each center and spacing within 1e-12 of g's spacing."""
    return all(n == m and abs(c - d) <= 1e-12 * h and abs(s - h) <= 1e-12 * h
               for n, m, c, d, s, h in (
                   (ref.n1, g.n1, ref.center1, g.center1, ref.spacing1, g.spacing1),
                   (ref.n2, g.n2, ref.center2, g.center2, ref.spacing2, g.spacing2)))


def cmd_transform(args) -> int:
    f = _load_signal(args.infile, args.csv)
    params = read_params(args.params)
    ref = read_signal(args.reference) if args.reference else None

    A1, A2 = params.A1, params.A2
    if args.inverse:
        _require_positive_b(A1, A2)  # before the plan checks b = 0 axes
        tgrid = QolctPlan.derived_output_grid(A1, A2, f.grid)
        if ref is not None and _near_grid(ref.grid, tgrid):
            tgrid = ref.grid  # undo the rounding of the forward's grid formula
        plan = QolctPlan(A1, A2, params.lam, params.mu, tgrid, f.grid)
        transform, out_grid, direction = qolct_inverse, tgrid, "inverse"
    else:
        plan = QolctPlan.create(A1, A2, params.lam, params.mu, input_grid=f.grid)
        zero = {(True, True): "both", (True, False): "b1",
                (False, True): "b2"}.get((A1.b == 0.0, A2.b == 0.0))
        direction = f"degenerate:{zero}_zero" if zero else "forward"
        transform, out_grid = qolct_forward, plan.output_grid
    if ref is not None and ref.grid != out_grid:
        raise ValueError("--reference grid does not match the output grid")
    out_field = transform(f, plan)

    with np.errstate(over="ignore"):  # an overflowing figure is rejected below
        l2_in, l2_out = l2_norm(f), l2_norm(out_field)
        ratio = None
        if direction == "forward" and l2_in > 0:  # the kernel is an isometry
            ratio = l2_out / l2_in
        sidecar = {
            "direction": direction,
            "input_grid": asdict(f.grid),
            "output_grid": asdict(out_field.grid),
            "params": params_doc(params),
            "l2_in": l2_in,
            "l2_out": l2_out,
            "plancherel_ratio": ratio,
            "timestamp": _timestamp(),
        }
        if ref is not None:
            d2 = (out_field.samples - ref.samples) ** 2  # summed as l2_norm sums
            num, den = math.sqrt(_cell_sum(d2, ref.grid.cell_area)), l2_norm(ref)
            sidecar["l2_rel_distance_to_reference"] = num / den if den else num
    text = _strict_json(sidecar)
    write_signal(args.out, out_field)
    _dump_json(text, args.out + ".json")
    print(f"wrote {args.out} (+ sidecar {args.out}.json)")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite  # the judges load only for this command
    with _mutation.inject(args.mutate):
        records = run_suite(args.suite, args.seed)  # raises on an unknown suite
    failed = [r for r in records if not r["pass"]]
    doc = {"suite": args.suite, "seed": args.seed, "mutation": args.mutate,
           "checks": records, "n_failed": len(failed),
           "timestamp": _timestamp()}
    _dump_json(_strict_json(doc), args.json)
    for r in records:
        status = "PASS" if r["pass"] else "FAIL"
        print(f"[{status}] {r['check']}: observed {r['observed']:.3e} "
              f"(tolerance {r['tolerance']:.3e})")
    print(f"{len(records) - len(failed)}/{len(records)} checks passed")
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


_RADIAL_BINS = 48


def _radial_profile(values_sq: np.ndarray, grid: Grid2D):
    r = grid.radius().ravel()
    v = values_sq.ravel()
    edges = np.linspace(0.0, float(r.max()), _RADIAL_BINS + 1)
    idx = np.clip(np.digitize(r, edges) - 1, 0, _RADIAL_BINS - 1)
    sums = np.bincount(idx, weights=v, minlength=_RADIAL_BINS)
    counts = np.maximum(np.bincount(idx, minlength=_RADIAL_BINS), 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, sums / counts


def cmd_uncertainty(args) -> int:
    from .uncertainty import (LOG_UP_CONSTANT, HeisenbergReport, beurling_integral,
                              hardy_report, heisenberg_report, log_up_check,
                              pitt_check)
    f = _load_signal(args.infile, args.csv)
    params = read_params(args.params)
    plan = QolctPlan.create(params.A1, params.A2, params.lam, params.mu,
                            input_grid=f.grid)
    doc = {"which": args.which, "params": params_doc(params),
           "grid": asdict(f.grid), "timestamp": _timestamp()}
    tsv_rows = None  # built only when --tsv asks for them

    if args.which == "heisenberg":
        reports = [heisenberg_report(f, plan, axis) for axis in (1, 2)]
        doc["axes"] = [{**asdict(r), "relative_gap": r.gap / r.rhs if r.rhs else None}
                       for r in reports]
        if args.tsv:
            tsv_rows = [tuple(x.name for x in fields(HeisenbergReport))]
            tsv_rows += [astuple(r) for r in reports]

    elif args.which == "hardy":
        rep = hardy_report(f, plan)
        doc.update({"alpha_hat": rep.alpha_hat, "beta_hat": rep.beta_hat,
                    "product": rep.product,
                    "signal_fit_residual": rep.signal_fit.residual,
                    "transform_fit_residual": rep.transform_fit.residual})
        if args.tsv:
            tsv_rows = [("domain", "r2", "log_modulus")]
            for domain, fit in (("signal", rep.signal_fit),
                                ("transform", rep.transform_fit)):
                tsv_rows += [(domain, float(a), float(b))
                             for a, b in zip(fit.r2, fit.log_modulus)]

    elif args.which == "pitt":
        rep = pitt_check(f, plan, args.alpha)
        doc.update({"alpha": rep.alpha, "lhs": rep.lhs, "rhs": rep.rhs,
                    "slack": rep.slack, "C_alpha": rep.C, "D_alpha": rep.D})
        if args.tsv:
            tsv_rows = [("alpha", "lhs", "rhs", "slack")]
            tsv_rows += [(r.alpha, r.lhs, r.rhs, r.slack) for r in (
                pitt_check(f, plan, float(a)) for a in np.arange(0.0, 2.0, 0.25))]

    elif args.which == "logup":
        rep = log_up_check(f, plan)
        doc.update({"A": LOG_UP_CONSTANT, "lhs": rep.lhs, "rhs": rep.rhs,
                    "slack": rep.slack, "transform_term": rep.transform_term,
                    "signal_term": rep.signal_term, "energy": rep.energy})
        if args.tsv:
            an = analysis(f, plan)  # kept from log_up_check: no transform
            r_sig, p_sig = _radial_profile(an.e2, f.grid)
            r_tr, p_tr = _radial_profile(an.density, plan.scaled_freq_grid())
            tsv_rows = [("domain", "radius", "energy_density")]
            tsv_rows += [("signal", float(a), float(b))
                         for a, b in zip(r_sig, p_sig)]
            tsv_rows += [("transform", float(a), float(b))
                         for a, b in zip(r_tr, p_tr)]

    elif args.which == "beurling":
        radius = args.radius
        if radius is None:
            radius = 0.45 * min(f.grid.extent1, f.grid.extent2)
        elif radius <= 0.0:
            raise ValueError(f"--radius must be positive, got {radius:g}")
        fracs = (0.25, 0.5, 0.75, 1.0) if args.tsv else (1.0, 0.5)
        values = {k: beurling_integral(f, plan, args.d, radius * k) for k in fracs}
        half, full = values[0.5], values[1.0]
        if args.tsv:
            tsv_rows = [("radius", "value")]
            tsv_rows += [(radius * k, v) for k, v in values.items()]
        doc.update({"d": args.d, "radius": radius, "value": full,
                    "value_half_radius": half,
                    "growth_ratio": full / half if half else None})

    _dump_json(_strict_json(doc), args.json)
    if args.json:
        print(f"wrote {args.json}")
    if tsv_rows:
        with open(args.tsv, "w") as fh:
            for row in tsv_rows:
                fh.write("\t".join(str(v) for v in row) + "\n")
        print(f"wrote {args.tsv}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qolct",
        description="Two-sided quaternion Fourier / offset linear canonical "
                    "transforms on sampled 2D signals.")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="write a synthetic test signal")
    synth.add_argument("kind", choices=["gaussian", "chirped-gaussian"])
    synth.add_argument("--n", type=int, default=64)
    synth.add_argument("--extent", type=_finite_float, default=16.0)
    synth.add_argument("--alpha1", type=_finite_float, default=1.0)
    synth.add_argument("--alpha2", type=_finite_float, default=1.0)
    synth.add_argument("--beta11", type=_finite_float, default=1.0)
    synth.add_argument("--beta12", type=_finite_float, default=0.0)
    synth.add_argument("--beta21", type=_finite_float, default=1.0)
    synth.add_argument("--beta22", type=_finite_float, default=0.0)
    synth.add_argument("--center1", type=_finite_float, default=0.0,
                       help="gaussian peak offset, axis 1")
    synth.add_argument("--center2", type=_finite_float, default=0.0)
    synth.add_argument("--grid-center1", type=_finite_float, default=0.0)
    synth.add_argument("--grid-center2", type=_finite_float, default=0.0)
    synth.add_argument("--lambda", dest="lam", default="1,0,0",
                       help="left axis as x,y,z (default i)")
    synth.add_argument("--mu", default="0,1,0", help="right axis (default j)")
    synth.add_argument("--chirp1", type=_finite_float, default=0.5,
                       help="quadratic chirp rate, axis 1 (chirped-gaussian)")
    synth.add_argument("--chirp2", type=_finite_float, default=-0.3)
    synth.add_argument("--lin1", type=_finite_float, default=0.0,
                       help="linear modulation, axis 1 (chirped-gaussian)")
    synth.add_argument("--lin2", type=_finite_float, default=0.0)
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=cmd_synth)

    tr = sub.add_parser("transform", help="apply the transform to a signal file")
    tr.add_argument("--in", dest="infile", required=True)
    tr.add_argument("--params", required=True, help="JSON parameter file")
    tr.add_argument("--out", required=True)
    tr.add_argument("--inverse", action="store_true")
    tr.add_argument("--csv", action="store_true",
                    help="input is CSV with columns t1,t2,q0,q1,q2,q3")
    tr.add_argument("--reference",
                    help="signal file to compare the output against (adds "
                         "l2_rel_distance_to_reference to the sidecar)")
    tr.set_defaults(func=cmd_transform)

    ver = sub.add_parser("verify", help="run invariant check suites")
    ver.add_argument("suite", help="a suite name or 'all' (an unknown name "
                                   "lists the suites)")
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument("--json", help="write the JSON report here instead of stdout")
    ver.add_argument("--mutate", choices=sorted(_mutation.MUTATIONS),
                     help="arm a documented defect fixture (the suite must fail)")
    ver.set_defaults(func=cmd_verify)

    unc = sub.add_parser("uncertainty", help="uncertainty-inequality reports")
    unc.add_argument("--in", dest="infile", required=True)
    unc.add_argument("--params", required=True)
    unc.add_argument("--which", required=True,
                     choices=["heisenberg", "hardy", "pitt", "logup", "beurling"])
    unc.add_argument("--alpha", type=_finite_float, default=1.0, help="Pitt weight exponent")
    unc.add_argument("--d", type=_finite_float, default=4.0, help="Beurling denominator power")
    unc.add_argument("--radius", type=_finite_float, default=None,
                     help="Beurling truncation radius; at a large radius the "
                          "e^(|t||v|) weight amplifies rounding into the figures")
    unc.add_argument("--csv", action="store_true")
    unc.add_argument("--json", help="write the JSON report here instead of stdout")
    unc.add_argument("--tsv", help="write plot-ready TSV data here")
    unc.set_defaults(func=cmd_uncertainty)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PlanViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, IOError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
