"""Uncertainty-principle evaluators for the offset transform.

Covers the Heisenberg-Weyl spread product with its covariance correction,
Hardy decay-envelope fitting, the Beurling diagnostic integral, Pitt's
weighted inequality with its Gamma-function constants, and the logarithmic
inequality obtained from Pitt at alpha -> 0.  The Pitt and logarithmic
checks are stated for axes lam=i, mu=j and enforce them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .field import PlanViolationError, QField, _cell_sum, partial_derivative
from .olct import QolctPlan, _require_positive_b, analysis, kept_forward
from .quat import UNIT_I, UNIT_J, _read_only, qmul, qnorm


# ---------------------------------------------------------------------------
# The Pitt and logarithmic constants.

#: constant of the logarithmic inequality: ln 2 + psi(1/2) = -gamma - ln 2
LOG_UP_CONSTANT = -np.euler_gamma - math.log(2.0)


def pitt_constants(alpha: float) -> float:
    """C_alpha = (4 pi^2 / 2^alpha) [Gamma((2-alpha)/4)/Gamma((2+alpha)/4)]^2."""
    if not 0.0 <= alpha < 2.0:
        raise ValueError("alpha must lie in [0, 2)")
    ratio = math.gamma((2.0 - alpha) / 4.0) / math.gamma((2.0 + alpha) / 4.0)
    return 4.0 * math.pi ** 2 / 2.0 ** alpha * ratio ** 2


# ---------------------------------------------------------------------------
# Shared quadrature helpers.

def _weighted_energy(values_sq: np.ndarray, weights: np.ndarray, cell: float) -> float:
    with np.errstate(over="ignore", invalid="ignore"):  # the report rejects inf, NaN
        return _cell_sum(values_sq * weights, cell)


def _require_finite_figures(what: str, **figures: float):
    """A report whose figures overflow is rejected, never returned."""
    bad = [name for name, x in figures.items() if not math.isfinite(x)]
    if bad:
        raise PlanViolationError(f"{what}: {', '.join(bad)}: not finite; a "
                                 "figure overflows the largest float")


def _require_ij(plan: QolctPlan, what: str):
    if plan.lam != UNIT_I or plan.mu != UNIT_J:
        raise ValueError(f"{what} is stated for lam=i, mu=j")


def _require_off_origin(r: np.ndarray, grid, weight: str):
    """A weight singular at the origin cannot be summed over a sample there."""
    if not (r > 0.0).all():
        raise PlanViolationError(
            f"the {weight} weight is singular at the origin, where {grid} "
            "has a sample; shift the grid or use an even sample count")


# ---------------------------------------------------------------------------
# Heisenberg-Weyl.

@dataclass(frozen=True)
class HeisenbergReport:
    axis: int
    spatial_spread: float
    spectral_spread: float
    base_bound: float
    cov: float
    lhs: float
    rhs: float
    gap: float


def heisenberg_report(f: QField, plan: QolctPlan, axis: int) -> HeisenbergReport:
    """Spread product versus (1/16 pi^2)|f|^4 + COV^2.

    COV weighs |d/dt_k w| for the unit-phase field w = c1 u c2 of the chirped
    signal: u = f/|f| (0 where |f| is below 1e-12 of its peak), and the unit
    input chirps c1 = e^{lam phi1(t1)}, c2 = e^{mu phi2(t2)}, phi_k' = (tau_k
    + a_k t_k)/b_k (the u-dependent kernel factors are constant unit
    quaternions and drop out).  c1 commutes with lam and c2 with mu, so by
    the product rule |d1 w| = |lam phi1' u + d1 u| and |d2 w| = |u mu phi2'
    + d2 u|: no chirp is formed or differentiated.  The first report on a
    kept analysis computes COV on both axes from one u (on its own axis
    alone if the other is too short to differentiate) and keeps it there.
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    an = analysis(f, plan)  # rejects b = 0 plans
    if axis not in an.covariance:
        mod = np.sqrt(an.e2)
        mod[mod <= 1e-12 * float(mod.max())] = np.inf  # u is 0 off the live set
        u, eye = QField(f.grid, _read_only(f.samples / mod[..., None])), np.eye(4)
        # u @ side is lam u on axis 1 and u mu on axis 2
        sides = {1: (plan.A1, qmul(plan.lam.array, eye)),
                 2: (plan.A2, qmul(eye, plan.mu.array))}
        dw = np.empty_like(u.samples)  # one buffer for both axes: fewer fresh pages
        for k in (1, 2) if min(f.grid.n1, f.grid.n2) >= 5 else (axis,):
            A, side = sides[k]
            tk = f.grid.axis_coords(k).reshape((-1, 1) if k == 1 else (1, -1))
            np.matmul(u.samples, side, out=dw)
            dw *= ((A.tau + A.a * tk) / A.b)[..., None]
            dw += partial_derivative(u, k).samples
            an.covariance[k] = _weighted_energy(an.e2 * np.abs(tk), qnorm(dw),
                                                f.grid.cell_area) / (2.0 * math.pi)
    cov = an.covariance[axis]
    shape = (-1, 1) if axis == 1 else (1, -1)
    tk = f.grid.axis_coords(axis)
    spatial = _weighted_energy(an.e2, tk.reshape(shape) ** 2, f.grid.cell_area)
    xk = plan.scaled_freq_grid().axis_coords(axis) / (2.0 * math.pi)
    spectral = _weighted_energy(an.density, xk.reshape(shape) ** 2,
                                plan.output_grid.cell_area)
    try:  # a Python float's ** raises on overflow
        base, cov2 = an.energy ** 2 / (16.0 * math.pi ** 2), cov ** 2
    except OverflowError:
        base = cov2 = math.inf
    lhs, rhs = spatial * spectral, base + cov2
    _require_finite_figures(f"Heisenberg on axis {axis}", lhs=lhs, rhs=rhs,
                            gap=lhs - rhs)
    return HeisenbergReport(axis, spatial, spectral, base, cov, lhs, rhs, lhs - rhs)


# ---------------------------------------------------------------------------
# Hardy.

@dataclass(frozen=True)
class EnvelopeFit:
    alpha: float
    residual: float
    r2: np.ndarray  # |t|^2 of each fitted sample
    log_modulus: np.ndarray  # log|g(t)|_Q there


def hardy_envelope_fit(g: QField) -> EnvelopeFit:
    """Least-squares fit of log|g(t)|_Q against log(C) - alpha |t|^2 over the
    samples whose modulus is above 1e-6 times the peak."""
    mod = g.modulus()
    peak = float(mod.max())
    if peak == 0.0:
        raise PlanViolationError("cannot fit an envelope to the zero field")
    mask = mod > 1e-6 * peak
    if int(mask.sum()) < 8:
        raise PlanViolationError("too few samples above the fitting floor")
    r2 = (g.grid.radius() ** 2)[mask]
    y = np.log(mod[mask])
    design = np.stack([np.ones_like(r2), -r2], axis=1)
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return EnvelopeFit(float(coef[1]), rms, r2, y)


@dataclass(frozen=True)
class HardyReport:
    alpha_hat: float
    beta_hat: float
    product: float
    signal_fit: EnvelopeFit
    transform_fit: EnvelopeFit


def hardy_report(f: QField, plan: QolctPlan) -> HardyReport:
    """Fit Gaussian envelopes to |f(t)| and to |O{f}(b1 u1, b2 u2)|.

    The transform-side fit runs over the rescaled coordinates v = u/b, on
    which Hardy's critical case pins alpha*beta = 1/4.  O{f} is the forward
    the pair's analysis keeps (``olct.kept_forward``), which needs no energy
    check: a signal whose energy overflows is still fitted.
    """
    _require_positive_b(plan.A1, plan.A2)
    sig = hardy_envelope_fit(f)
    # sample q of the forward holds O{f}(b1 v1[q], b2 v2[q]) on the v-grid
    scaled = QField(plan.scaled_freq_grid(), kept_forward(f, plan).samples)
    trans = hardy_envelope_fit(scaled)
    return HardyReport(sig.alpha, trans.alpha, sig.alpha * trans.alpha, sig, trans)


# ---------------------------------------------------------------------------
# Beurling diagnostic.

#: radii of the |t| side summed against the whole |v| side at once
_BEURLING_BLOCK = 512
_LN_MAX_FLOAT = math.log(np.finfo(float).max)


@functools.lru_cache(maxsize=2)  # a t-grid and its v-grid
def _radial_groups(grid) -> tuple:
    """The distinct radii |x| of the grid, ascending, and the flat index of
    each sample's radius among them; read-only, as they are shared."""
    radii, index = np.unique(grid.radius(), return_inverse=True)
    return _read_only(radii), _read_only(index.ravel())


def _radial_mass(weights: np.ndarray, grid) -> tuple:
    """The distinct radii |x| of the grid, ascending, and the summed
    ``weights`` of the samples at each."""
    radii, index = _radial_groups(grid)
    return radii, np.bincount(index, weights=weights.ravel())


def beurling_integral(f: QField, plan: QolctPlan, d: float,
                      truncation: float) -> float:
    """Truncated double integral of |f(t)| ||F(v)|| e^{|t||v|} / (1+|t|+|v|)^d.

    ||F(v)||^2 is the analysis density on the grid of v = u/b
    (``QolctPlan.scaled_freq_grid``).  The kernel depends only on |t| and
    |v|, so each side's weights are summed per distinct radius first.
    Purely diagnostic: compare truncation radii to read off the growth
    trend; no pass/fail semantics.
    """
    if d < 0.0:
        raise ValueError("d must be nonnegative")
    an, vgrid = analysis(f, plan), plan.scaled_freq_grid()
    rt, wt = _radial_mass(np.sqrt(an.e2), f.grid)
    rv, wv = _radial_mass(np.sqrt(an.density), vgrid)
    nt = int(np.searchsorted(rt, truncation, side="right"))
    nv = int(np.searchsorted(rv, truncation, side="right"))
    v, w = rv[None, :nv], wv[:nv]
    reach = float(rt[nt - 1] * rv[nv - 1]) if nt and nv else 0.0
    if reach > _LN_MAX_FLOAT:  # checked before any exp is computed
        raise PlanViolationError(
            f"Beurling truncation {truncation:g} overflows: its largest |t||v| "
            f"= {reach:.6g} must stay below ln(max float) = {_LN_MAX_FLOAT:.2f}")
    total = 0.0
    # every exp is finite, but the sum may overflow: rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, nt, _BEURLING_BLOCK):
            hi = min(lo + _BEURLING_BLOCK, nt)
            r = rt[lo:hi, None]
            kernel = np.exp(r * v) / (1.0 + r + v) ** d
            total += float(wt[lo:hi] @ (kernel @ w))
    value = total * (f.grid.cell_area * vgrid.cell_area)
    if not math.isfinite(value):
        raise PlanViolationError(
            f"Beurling truncation {truncation:g} overflows: its weighted sum "
            "exceeds the largest float")
    return value


# ---------------------------------------------------------------------------
# Pitt and the logarithmic inequality.

@dataclass(frozen=True)
class PittReport:
    alpha: float
    lhs: float
    rhs: float
    slack: float
    C: float  # C_alpha
    D: float  # C_alpha / (4 pi^2), the factor rhs carries


def pitt_check(f: QField, plan: QolctPlan, alpha: float) -> PittReport:
    """|v|^(-alpha)-weighted transform energy against the |t|^alpha-weighted
    signal energy times C_alpha/(4 pi^2); slack = rhs - lhs >= 0."""
    _require_ij(plan, "Pitt's inequality")
    c = pitt_constants(alpha)
    d = c / (4.0 * math.pi ** 2)
    an = analysis(f, plan)  # rejects b = 0 plans
    og = plan.output_grid
    rv = plan.scaled_freq_grid().radius()
    if alpha > 0.0:
        _require_off_origin(rv, og, "|v|^(-alpha)")
    lhs = _weighted_energy(an.density, rv ** (-alpha), og.cell_area)
    rhs = d * _weighted_energy(an.e2, f.grid.radius() ** alpha, f.grid.cell_area)
    _require_finite_figures(f"Pitt at alpha = {alpha:g}", lhs=lhs, rhs=rhs,
                            slack=rhs - lhs)
    return PittReport(alpha, lhs, rhs, rhs - lhs, c, d)


@dataclass(frozen=True)
class LogUpReport:
    lhs: float
    rhs: float
    slack: float
    transform_term: float
    signal_term: float
    energy: float


def log_up_check(f: QField, plan: QolctPlan) -> LogUpReport:
    """ln|v|-weighted transform energy plus ln|t|-weighted signal energy
    against (ln 2 + psi(1/2)) times the signal energy; slack >= 0."""
    _require_ij(plan, "the logarithmic inequality")
    an = analysis(f, plan)  # rejects b = 0 plans
    og = plan.output_grid
    rv = plan.scaled_freq_grid().radius()
    _require_off_origin(rv, og, "ln|v|")
    rt = f.grid.radius()
    _require_off_origin(rt, f.grid, "ln|t|")
    zterm = _weighted_energy(an.density, np.log(rv), og.cell_area)
    tterm = _weighted_energy(an.e2, np.log(rt), f.grid.cell_area)
    rhs = LOG_UP_CONSTANT * an.energy
    lhs = zterm + tterm
    _require_finite_figures("the logarithmic inequality", lhs=lhs, rhs=rhs,
                            slack=lhs - rhs)
    return LogUpReport(lhs, rhs, lhs - rhs, zterm, tterm, an.energy)
