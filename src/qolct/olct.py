"""Quaternionic offset linear canonical transform (QOLCT).

Each axis carries a unimodular matrix with offsets, (a, b, c, d | tau, eta)
with a*d - b*c = 1.  For b1, b2 > 0 the transform is

    O{f}(u) = sum_t K1(t1, u1) f(t) K2(t2, u2) dt,
    K(t, u) = (2*pi*b)^(-1/2) exp(-axis*pi/4)
              exp(axis * (a t^2 - 2 t (u - tau) - 2 u (d tau - b eta)
                          + d (u^2 + tau^2)) / (2 b)),

with the left kernel on axis lam and the right kernel on axis mu.  The
kernel factors as input chirp -> QFT -> output factor C(u), so the forward
and inverse transforms and the quartets hand their per-axis chirps and
factors to the planes-split engine of ``qft`` (any axes, any grids).
``qolct_forward`` serves every valid plan in one engine call; along a b = 0
axis it runs no transform, only a spline substitution and a chirp.
``qolct_direct`` evaluates the kernel quadrature densely: the mutual oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _mutation
from .field import (
    ComponentQuartet,
    Grid2D,
    QField,
    apply_chirp,
    fourier_shift,
    partial_derivative,
)
from .qft import (
    _CONTRACT_BLOCK,
    IdentityReport,
    _factored_report,
    PlanViolationError,
    QftPlan,
    _left_contract,
    _planes_ft,
    _quartet,
    _right_contract,
    centered_ft2,
)
from .quat import UNIT_I, UNIT_J, PureUnit, Quaternion, plane_to_quat, sandwich


class InterpolationDomainError(ValueError):
    """A degenerate branch would sample the signal outside its grid."""


@dataclass(frozen=True)
class OffsetParams:
    """One axis of the transform: matrix entries (a, b, c, d), offsets (tau, eta)."""

    a: float
    b: float
    c: float
    d: float
    tau: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "tau", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} = {getattr(self, name)!r} is not finite")
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > 1e-12:
            raise ValueError(f"matrix determinant {det!r} is not 1")

    @classmethod
    def qft_case(cls) -> "OffsetParams":
        """(0, 1, -1, 0 | 0, 0): recovers the plain two-sided QFT."""
        return cls(0.0, 1.0, -1.0, 0.0, 0.0, 0.0)


def _require_positive_b(A: OffsetParams, label: str):
    if A.b <= 0.0:
        raise ValueError(f"{label}: main-branch transforms require b > 0, got {A.b}")


def kernel(A: OffsetParams, lam: PureUnit, t: float, u: float) -> Quaternion:
    """Evaluate the transform kernel K_A(t, u) on axis ``lam``."""
    _require_positive_b(A, "kernel")
    theta = (A.a * t * t - 2.0 * t * (u - A.tau)
             - 2.0 * u * (A.d * A.tau - A.b * A.eta)
             + A.d * (u * u + A.tau * A.tau)) / (2.0 * A.b)
    z = np.exp(1j * (theta - math.pi / 4.0)) / math.sqrt(2.0 * math.pi * A.b)
    return Quaternion.from_array(plane_to_quat(z, lam))


@dataclass(frozen=True)
class QolctPlan:
    A1: OffsetParams
    A2: OffsetParams
    lam: PureUnit
    mu: PureUnit
    input_grid: Grid2D
    output_grid: Grid2D

    def __post_init__(self):
        for axis, A in ((1, self.A1), (2, self.A2)):
            if A.b < 0.0:
                raise ValueError(f"axis {axis}: b < 0 is not supported; "
                                 "normalize the matrix to b >= 0")
            if A.b == 0.0:
                if A.d == 0.0:
                    raise ValueError(f"axis {axis}: b = 0 with d = 0 violates "
                                     "a*d - b*c = 1")
                continue
            h = self.input_grid.spacing1 if axis == 1 else self.input_grid.spacing2
            extent = self.input_grid.extent1 if axis == 1 else self.input_grid.extent2
            bound = abs(A.a) / (2.0 * A.b) * h * extent
            if bound > math.pi * (1.0 + 1e-9):
                raise PlanViolationError(
                    f"axis {axis}: chirp resolution |a|/(2b)*h*L = {bound:g} "
                    "exceeds pi; refine the input grid")
        if self.A1.b > 0.0 and self.A2.b > 0.0:  # the embedded Nyquist bound
            QftPlan(self.input_grid, self.scaled_freq_grid(), self.lam, self.mu)

    @classmethod
    def create(cls, A1: OffsetParams, A2: OffsetParams,
               lam: PureUnit = UNIT_I, mu: PureUnit = UNIT_J,
               input_grid: Grid2D | None = None,
               output_grid: Grid2D | None = None) -> "QolctPlan":
        if input_grid is None:
            raise ValueError("input_grid is required")
        if output_grid is None:
            output_grid = cls.derived_output_grid(A1, A2, input_grid)
        return cls(A1, A2, lam, mu, input_grid, output_grid)

    @staticmethod
    def derived_output_grid(A1: OffsetParams, A2: OffsetParams,
                            grid: Grid2D) -> Grid2D:
        """Default u-grid: b_k times the QFT frequencies on b>0 axes, the
        substitution-aligned grid u = t/d + tau on degenerate axes."""
        spacing, center = [], []
        for A, n, h, c in ((A1, grid.n1, grid.spacing1, grid.center1),
                           (A2, grid.n2, grid.spacing2, grid.center2)):
            if A.b > 0.0:
                spacing.append(A.b * 2.0 * math.pi / (n * h))
                center.append(0.0)
            else:
                if A.d <= 0.0:
                    raise ValueError("degenerate axis needs d > 0")
                spacing.append(h / A.d)
                center.append(c / A.d + A.tau)
        return Grid2D(grid.n1, grid.n2, center[0], center[1],
                      spacing[0], spacing[1])

    def scaled_freq_grid(self) -> Grid2D:
        """The embedded QFT's v-grid, v_k = u_k / b_k (u_k on a b = 0 axis)."""
        g, b1, b2 = self.output_grid, self.A1.b or 1.0, self.A2.b or 1.0
        return Grid2D(g.n1, g.n2, g.center1 / b1, g.center2 / b2,
                      g.spacing1 / b1, g.spacing2 / b2)


def _axis_factors(A: OffsetParams, t, u, sign: float):
    """One b > 0 axis's input chirp e^{i(tau t + a t^2/2)/b} and output factor
    C(u) = (2 pi b)^(-1/2) e^{-i pi/4} e^{i(-2u(d tau - b eta) + d(u^2 +
    tau^2))/(2b)} as complex values (sign +1), or their inverses (sign -1)."""
    lin, quad = sign * A.tau / A.b, sign * A.a / (2.0 * A.b)
    if _mutation.active("chirp-sign"):
        quad = -quad
    phi = (-2.0 * u * (A.d * A.tau - A.b * A.eta)
           + A.d * (u * u + A.tau * A.tau)) / (2.0 * A.b) - math.pi / 4.0
    return (np.exp(1j * (lin * t + quad * t * t)),
            np.exp(1j * sign * phi) * (2.0 * math.pi * A.b) ** (-0.5 * sign))


def _plan_factors(plan: QolctPlan, sign: float = 1.0):
    """Both axes' :func:`_axis_factors`, which require b > 0 on each."""
    pairs = []
    for axis, A in ((1, plan.A1), (2, plan.A2)):
        _require_positive_b(A, f"axis {axis}")
        pairs.append(_axis_factors(A, plan.input_grid.axis_coords(axis),
                                   plan.output_grid.axis_coords(axis), sign))
    return tuple(zip(*pairs))


def qolct_forward(f: QField, plan: QolctPlan) -> QField:
    """Forward transform of any valid plan, in one planes-split engine call.

    A b > 0 axis runs the chirp -> QFT -> output-factor factorization, an
    exact (to rounding) rearrangement of the direct kernel quadrature, for
    any axes and grids.  A b = 0 axis is the substitution t -> d (u - tau) by
    cubic spline (extrapolation is rejected) times :func:`_degenerate_chirp`.
    """
    if f.grid != plan.input_grid:
        raise ValueError("field grid does not match plan input grid")
    data, axes = f.samples, []  # (sign, pre, post) per axis
    for axis, A in ((1, plan.A1), (2, plan.A2)):
        t, u = plan.input_grid.axis_coords(axis), plan.output_grid.axis_coords(axis)
        if A.b > 0.0:
            axes.append((-1, *_axis_factors(A, t, u, 1.0)))
        else:
            data = _spline(t, data, _substituted_coords(A, u, t), axis=axis - 1)
            axes.append((0, None, _degenerate_chirp(A, u)))
    return QField(plan.output_grid, _planes_ft(
        data, plan.input_grid, plan.scaled_freq_grid(), plan.lam, plan.mu, axes))


def _chirped_signal(f: QField, plan: QolctPlan) -> QField:
    """The plan's input chirps sandwiching f: chirp1(t1) f chirp2(t2)."""
    chirps, _ = _plan_factors(plan)
    return QField(f.grid, sandwich(f.samples, plan.lam, plan.mu, *chirps))


def _kernel_matrices(A: OffsetParams, t, u, transposed: bool):
    """Cos/sin parts of the kernel on a (u, t) mesh (or (t, u) if transposed)."""
    if transposed:
        tt, uu = t[:, None], u[None, :]
    else:
        tt, uu = t[None, :], u[:, None]
    theta = (A.a * tt * tt - 2.0 * tt * (uu - A.tau)
             - 2.0 * uu * (A.d * A.tau - A.b * A.eta)
             + A.d * (uu * uu + A.tau * A.tau)) / (2.0 * A.b) - math.pi / 4.0
    r = 1.0 / math.sqrt(2.0 * math.pi * A.b)
    return r * np.cos(theta), r * np.sin(theta)


def qolct_direct(f: QField, plan: QolctPlan) -> QField:
    """Brute-force kernel quadrature; the reference oracle for qolct_forward."""
    _require_positive_b(plan.A1, "axis 1")
    _require_positive_b(plan.A2, "axis 2")
    if f.grid != plan.input_grid:
        raise ValueError("field grid does not match plan input grid")
    t1 = f.grid.axis_coords(1)
    t2 = f.grid.axis_coords(2)
    u1 = plan.output_grid.axis_coords(1)
    u2 = plan.output_grid.axis_coords(2)
    cos2, sin2 = _kernel_matrices(plan.A2, t2, u2, transposed=True)
    if _mutation.active("right-kernel-sign"):
        sin2 = -sin2
    out = np.empty((plan.output_grid.n1, plan.output_grid.n2, 4))
    for lo in range(0, plan.output_grid.n1, _CONTRACT_BLOCK):
        cos1, sin1 = _kernel_matrices(plan.A1, t1, u1[lo:lo + _CONTRACT_BLOCK],
                                      transposed=False)
        g = _left_contract(cos1, sin1, plan.lam, f.samples, f.grid.spacing1)
        out[lo:lo + _CONTRACT_BLOCK] = _right_contract(
            g, cos2, sin2, plan.mu, f.grid.spacing2)
    return QField(plan.output_grid, out)


def qolct_inverse(F: QField, plan: QolctPlan) -> QField:
    """Inverse transform: conj-kernel quadrature, computed by unwinding the
    factorization (inverse output factors, inverse QFT, inverse chirps)."""
    chirps, factors = _plan_factors(plan, -1.0)
    if F.grid != plan.output_grid:
        raise ValueError("field grid does not match plan output grid")
    return QField(plan.input_grid, _planes_ft(
        F.samples, plan.scaled_freq_grid(), plan.input_grid, plan.lam, plan.mu,
        tuple(zip((1, 1), factors, chirps))))


def qolct_quartet(f: QField, plan: QolctPlan) -> ComponentQuartet:
    """Transforms of the four real components of f, sharing the output grid."""
    chirps, factors = _plan_factors(plan)
    if f.grid != plan.input_grid:
        raise ValueError("field grid does not match plan input grid")
    return _forward_quartet(f.samples, plan, chirps, factors)


def analysis_quartet(f: QField, plan: QolctPlan) -> ComponentQuartet:
    """Quartet of the chirp-multiplied signal: members C1 * F{g_k} * C2 for
    the real components g_k of g = chirp * f * chirp.

    Its pointwise norm equals the component norm of the reduced QFT input
    (the two quartets are related by a constant orthogonal mixing), which is
    the norm the spread, moment and weighted inequalities are stated in.
    For unchirped signals along an axis (a = tau = 0) it coincides with
    :func:`qolct_quartet` along that axis's contribution.
    """
    chirps, factors = _plan_factors(plan)
    return _forward_quartet(sandwich(f.samples, plan.lam, plan.mu, *chirps),
                            plan, (None, None), factors)


def _forward_quartet(samples, plan: QolctPlan, pre, post) -> ComponentQuartet:
    """Forward engine transforms of the real components of ``samples``,
    with per-axis factors ``pre`` before and ``post`` after the QFT."""
    axes, vgrid = tuple(zip((-1, -1), pre, post)), plan.scaled_freq_grid()
    return _quartet(samples, plan.output_grid, lambda x: _planes_ft(
        x, plan.input_grid, vgrid, plan.lam, plan.mu, axes))


def _energy_density(f: QField, plan: QolctPlan) -> np.ndarray:
    """``analysis_quartet(f, plan).norm_field() ** 2`` from two FFTs.

    The output factors have constant modulus (2 pi b)^(-1/2), and for each
    real component g_k of the chirped signal, with complex centered FFT G_k
    and c = lam . mu, the planes split gives
    |F{g_k}(v)|^2 = (1+c)/2 |G_k(v1, v2)|^2 + (1-c)/2 |G_k(v1, -v2)|^2.
    On a v-grid centered at 0, -v is an index reversal and G_k(-v) =
    conj(G_k(v)), so the FFTs H of g0 + i g1 and g2 + i g3 give
    sum_k |G_k(v)|^2 as the fold (P(v) + P(-v))/2 of P = |H1|^2 + |H2|^2.
    v-grids not centered at 0 take the quartet.
    """
    chirps, _ = _plan_factors(plan)
    vgrid = plan.scaled_freq_grid()
    if not (vgrid.center1 == 0.0 and vgrid.center2 == 0.0):
        return analysis_quartet(f, plan).norm_field() ** 2
    g = sandwich(f.samples, plan.lam, plan.mu, *chirps)
    power = np.zeros((vgrid.n1, vgrid.n2))
    for m in (0, 2):
        h = centered_ft2(g[..., m] + 1j * g[..., m + 1], plan.input_grid, vgrid)
        power += h.real * h.real + h.imag * h.imag
    fold = 1.0 if _mutation.active("density-fold") else 0.5
    folded = fold * (power + power[::-1, ::-1])
    c = float(plan.lam.array @ plan.mu.array)
    return (((1.0 + c) / 2.0) * folded + ((1.0 - c) / 2.0) * folded[:, ::-1]) / (
        4.0 * math.pi ** 2 * plan.A1.b * plan.A2.b)


def output_in_scaled_coords(F: QField, plan: QolctPlan) -> QField:
    """Relabel a transform output onto the v-grid, v_k = u_k / b_k.

    The samples are unchanged; sample q then holds O{f}(b1 v1[q], b2 v2[q]),
    the argument scaling used by the Hardy/Beurling/Pitt statements.
    """
    return QField(plan.scaled_freq_grid(), F.samples)


# ---------------------------------------------------------------------------
# Degenerate branches (b = 0 on one or both axes).

def _substituted_coords(A: OffsetParams, u, t_coords):
    if A.d <= 0.0:
        raise ValueError("degenerate branch requires d > 0 (b = 0 and the "
                         "square-root convention fixes the sign)")
    tprime = A.d * (u - A.tau)
    lo, hi = t_coords[0], t_coords[-1]
    pad = 1e-9 * (hi - lo)
    if tprime.min() < lo - pad or tprime.max() > hi + pad:
        raise InterpolationDomainError(
            "substituted coordinates d*(u - tau) fall outside the sampled grid")
    return tprime


def _degenerate_chirp(A: OffsetParams, u):
    """sqrt(d) exp(i*(c d (u - tau)^2 / 2 + u eta)) as complex values.

    The linear phase carries eta: that is the b -> 0 limit of the
    main-branch kernel (see the limit-consistency test).
    """
    phase = A.c * A.d * (u - A.tau) ** 2 / 2.0 + u * A.eta
    if _mutation.active("degenerate-chirp"):
        phase = -phase
    return math.sqrt(A.d) * np.exp(1j * phase)


def _not_a_knot_slopes(x, y):
    """First derivatives at the knots x of the not-a-knot cubic spline
    through y (knots along axis 0 of y), as scipy's ``CubicSpline`` defines
    it: two knots give the straight line and three the parabola.

    The slopes solve one tridiagonal system, swept by the Thomas algorithm
    over all trailing columns at once.  Its pivots depend only on the knots
    and stay positive for any increasing x, so no pivoting is needed.
    """
    n = x.size
    dx = np.diff(x)
    col = (-1,) + (1,) * (y.ndim - 1)
    slope = np.diff(y, axis=0) / dx.reshape(col)
    if n == 2:
        return np.concatenate([slope, slope])
    h = dx.tolist()
    lower, diag, upper = [0.0] * n, [1.0] * n, [0.0] * n
    rhs = np.empty_like(slope, shape=y.shape)
    for i in range(1, n - 1):  # slope continuity at interior knots
        lower[i], diag[i], upper[i] = h[i], 2.0 * (h[i - 1] + h[i]), h[i - 1]
    rhs[1:-1] = 3.0 * (dx[1:].reshape(col) * slope[:-1]
                       + dx[:-1].reshape(col) * slope[1:])
    if n == 3:  # the parabola: end slopes average to the secant slope
        upper[0] = lower[2] = 1.0
        rhs[0] = 2.0 * slope[0]
        rhs[2] = 2.0 * slope[1]
    else:  # third derivative continuous at the second and penultimate knots
        w0, wn = x[2] - x[0], x[-1] - x[-3]
        diag[0], upper[0] = h[1], w0
        rhs[0] = ((h[0] + 2.0 * w0) * h[1] * slope[0] + h[0] ** 2 * slope[1]) / w0
        lower[-1], diag[-1] = wn, h[-2]
        rhs[-1] = (h[-1] ** 2 * slope[-2] + (2.0 * wn + h[-1]) * h[-2] * slope[-1]) / wn
    for i in range(1, n):
        m = lower[i] / diag[i - 1]
        diag[i] -= m * upper[i - 1]
        rhs[i] -= m * rhs[i - 1]
    rhs[-1] /= diag[-1]
    for i in range(n - 2, -1, -1):
        rhs[i] -= upper[i] * rhs[i + 1]
        rhs[i] /= diag[i]
    return rhs


def _spline(x, y, xq, axis: int):
    """Evaluate the not-a-knot cubic spline through samples y at knots x
    (along ``axis`` of y) at the points xq, in cubic Hermite form on the
    knot interval of each point; the end intervals extend past the knots."""
    if x.size < 2:
        raise ValueError("a cubic spline needs at least 2 knots")
    y = np.ascontiguousarray(np.moveaxis(y, axis, 0))  # unit-stride sweep rows
    s = _not_a_knot_slopes(x, y)
    k = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    h = x[k + 1] - x[k]
    t = (xq - x[k]) / h
    shape = (-1,) + (1,) * (y.ndim - 1)
    h00 = ((2.0 * t - 3.0) * t * t + 1.0).reshape(shape)
    h01 = ((3.0 - 2.0 * t) * t * t).reshape(shape)
    h10 = (h * t * (1.0 - t) ** 2).reshape(shape)
    h11 = (h * t * t * (t - 1.0)).reshape(shape)
    out = h00 * y[k] + h01 * y[k + 1] + h10 * s[k] + h11 * s[k + 1]
    return np.moveaxis(out, 0, axis)


# ---------------------------------------------------------------------------
# Covariance and moment reports.

def _shifted_output_plan(plan: QolctPlan, s1: float, s2: float) -> QolctPlan:
    g = plan.output_grid
    shifted = Grid2D(g.n1, g.n2, g.center1 - s1, g.center2 - s2,
                     g.spacing1, g.spacing2)
    return QolctPlan(plan.A1, plan.A2, plan.lam, plan.mu,
                     plan.input_grid, shifted)


def _check_containment(f: QField, k1: float, k2: float):
    g = f.grid
    m1 = max(2, int(math.ceil(abs(k1) / g.spacing1)) + 2)
    m2 = max(2, int(math.ceil(abs(k2) / g.spacing2)) + 2)
    if 2 * m1 >= g.n1 or 2 * m2 >= g.n2:
        raise ValueError("shift too large for the grid")
    e2 = np.sum(f.samples * f.samples, axis=-1)
    total = float(e2.sum())
    interior = float(e2[m1:-m1, m2:-m2].sum())
    if total > 0.0 and (total - interior) > 1e-9 * total:
        raise ValueError("shifted signal is not well-contained in the grid")


def shift_covariance_check(f: QField, plan: QolctPlan, k) -> IdentityReport:
    """Compare O{f(.-k)} with the phase-factored O{f}(u - k*a).

    The phase per axis is c*(2*k*u - a*k^2)/2 + k*(a*eta - c*tau); the
    offset coupling drops out when tau = eta = 0.
    """
    k1, k2 = k
    _check_containment(f, k1, k2)
    lhs = qolct_forward(fourier_shift(f, k1, k2), plan)
    split_plan = _shifted_output_plan(plan, k1 * plan.A1.a, k2 * plan.A2.a)
    base = qolct_forward(f, split_plan)
    u1 = plan.output_grid.axis_coords(1)
    u2 = plan.output_grid.axis_coords(2)
    A1, A2 = plan.A1, plan.A2
    ph1 = (A1.c * (2.0 * k1 * u1 - A1.a * k1 ** 2) / 2.0
           + k1 * (A1.a * A1.eta - A1.c * A1.tau))
    ph2 = (A2.c * (2.0 * k2 * u2 - A2.a * k2 ** 2) / 2.0
           + k2 * (A2.a * A2.eta - A2.c * A2.tau))
    return _factored_report(lhs, base, plan, np.exp(1j * ph1), np.exp(1j * ph2))


def modulation_covariance_check(f: QField, plan: QolctPlan, xi) -> IdentityReport:
    """Compare O{e^(lam t1 xi1) f e^(mu t2 xi2)} with the phase-factored
    O{f}(u - b*xi); phases re-derived as -(d/2)(b xi^2 - 2 u xi) - xi (d tau - b eta)."""
    xi1, xi2 = xi
    lhs = qolct_forward(apply_chirp(f, plan.lam, xi1, 0.0, plan.mu, xi2, 0.0),
                        plan)
    split_plan = _shifted_output_plan(plan, plan.A1.b * xi1, plan.A2.b * xi2)
    base = qolct_forward(f, split_plan)
    u1 = plan.output_grid.axis_coords(1)
    u2 = plan.output_grid.axis_coords(2)
    A1, A2 = plan.A1, plan.A2
    ph1 = -(A1.d / 2.0 * (A1.b * xi1 ** 2 - 2.0 * u1 * xi1)
            + xi1 * (A1.d * A1.tau - A1.b * A1.eta))
    ph2 = -(A2.d / 2.0 * (A2.b * xi2 ** 2 - 2.0 * u2 * xi2)
            + xi2 * (A2.d * A2.tau - A2.b * A2.eta))
    return _factored_report(lhs, base, plan, np.exp(1j * ph1), np.exp(1j * ph2))


@dataclass(frozen=True)
class MomentReport:
    lhs: float
    rhs: float
    relerr: float


def moment_identity_check(f: QField, plan: QolctPlan, axis: int) -> MomentReport:
    """Second-moment identity: the u_k^2-weighted transform energy equals the
    b_k^2-weighted energy of lam*(a t/b + tau/b) f + df/dt (axis 1) or of
    (a t/b + tau/b) f mu + df/dt (axis 2; mu multiplies from the right).

    The transform energy is measured in the analysis-quartet norm; with the
    plain component quartet the two sides differ for signals whose phase
    varies along the axis (the cross term 2 s Sc(lam f conj(df)) survives).
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    w2 = _energy_density(f, plan)
    uk = plan.output_grid.axis_coords(axis)
    uk2 = uk[:, None] ** 2 if axis == 1 else uk[None, :] ** 2
    lhs = float(np.sum(uk2 * w2)) * plan.output_grid.cell_area

    A = plan.A1 if axis == 1 else plan.A2
    tk = f.grid.axis_coords(axis)
    slope = 1j * (A.a * tk + A.tau) / A.b  # lam*slope on the left, mu*slope on the right
    lin = sandwich(f.samples, plan.lam, plan.mu,
                   *((slope, None) if axis == 1 else (None, slope)))
    r = lin + partial_derivative(f, axis).samples
    rhs = A.b ** 2 * float(np.sum(r * r)) * f.grid.cell_area
    rel = abs(lhs - rhs) / rhs if rhs else abs(lhs - rhs)
    return MomentReport(lhs, rhs, rel)
