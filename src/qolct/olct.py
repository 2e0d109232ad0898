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
axis it runs no transform, only a spline substitution and a chirp.  The
dense kernel quadrature ``qolct_direct``, the mutual oracle, lives in
``oracle``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _mutation
from .field import ComponentQuartet, Grid2D, QField
from .qft import PlanViolationError, _planes_ft, _quartet, centered_ft2, check_nyquist
from .quat import UNIT_I, UNIT_J, PureUnit, sandwich


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


@dataclass(frozen=True)
class QolctPlan:
    A1: OffsetParams
    A2: OffsetParams
    lam: PureUnit
    mu: PureUnit
    input_grid: Grid2D
    output_grid: Grid2D

    def __post_init__(self):
        g, out = self.input_grid, self.output_grid
        axes = ((1, self.A1, g.spacing1, g.extent1, out.spacing1),
                (2, self.A2, g.spacing2, g.extent2, out.spacing2))
        for axis, A, h, extent, _ in axes:
            if A.b < 0.0:
                raise ValueError(f"axis {axis}: b < 0 is not supported; "
                                 "normalize the matrix to b >= 0")
            if A.b == 0.0:
                continue
            bound = abs(A.a) / (2.0 * A.b) * h * extent
            if bound > math.pi * (1.0 + 1e-9):
                raise PlanViolationError(
                    f"axis {axis}: chirp resolution |a|/(2b)*h*L = {bound:g} "
                    "exceeds pi; refine the input grid")
        for axis, A, _, _, du in axes:  # the bounds that read the output grid
            t = g.axis_coords(axis)
            if A.b > 0.0:
                check_nyquist(axis, t, du / A.b)  # on the v = u/b grid
            elif A.d <= 0.0:
                raise ValueError(f"axis {axis}: the degenerate branch requires "
                                 "d > 0 (b = 0 and the square-root convention "
                                 "fixes the sign)")
            else:
                tprime = A.d * (out.axis_coords(axis) - A.tau)
                pad = 1e-9 * (t[-1] - t[0])
                if tprime.min() < t[0] - pad or tprime.max() > t[-1] + pad:
                    raise InterpolationDomainError(
                        f"axis {axis}: substituted coordinates d*(u - tau) "
                        "fall outside the sampled grid")

    @classmethod
    def create(cls, A1: OffsetParams, A2: OffsetParams,
               lam: PureUnit = UNIT_I, mu: PureUnit = UNIT_J, *,
               input_grid: Grid2D, output_grid: Grid2D | None = None) -> "QolctPlan":
        if output_grid is None:
            output_grid = cls.derived_output_grid(A1, A2, input_grid)
        return cls(A1, A2, lam, mu, input_grid, output_grid)

    @staticmethod
    def derived_output_grid(A1: OffsetParams, A2: OffsetParams,
                            grid: Grid2D) -> Grid2D:
        """Default u-grid: |b_k| times the QFT frequencies on b != 0 axes,
        the substitution-aligned grid u = t/d + tau on degenerate axes."""
        spacing, center = [], []
        for A, n, h, c in ((A1, grid.n1, grid.spacing1, grid.center1),
                           (A2, grid.n2, grid.spacing2, grid.center2)):
            if A.b != 0.0:
                spacing.append(abs(A.b) * 2.0 * math.pi / (n * h))
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
            data = _spline(t, data, A.d * (u - A.tau), axis=axis - 1)
            axes.append((0, None, _degenerate_chirp(A, u)))
    return QField(plan.output_grid, _planes_ft(
        data, plan.input_grid, plan.scaled_freq_grid(), plan.lam, plan.mu, axes))


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


def _forward_quartet(samples, plan: QolctPlan, pre, post) -> ComponentQuartet:
    """Forward engine transforms of the real components of ``samples``,
    with per-axis factors ``pre`` before and ``post`` after the QFT."""
    axes, vgrid = tuple(zip((-1, -1), pre, post)), plan.scaled_freq_grid()
    return _quartet(samples, plan.output_grid, lambda x: _planes_ft(
        x, plan.input_grid, vgrid, plan.lam, plan.mu, axes))


@dataclass(frozen=True)
class Analysis:
    """What every uncertainty report reads of one (signal, plan) pair."""

    chirped: np.ndarray  # chirp1(t1) f chirp2(t2), the reduced QFT input
    density: np.ndarray  # ||O{f}||^2 on the v = u/b grid
    e2: np.ndarray  # |f(t)|^2
    energy: float  # ||f||^2


def analysis(f: QField, plan: QolctPlan) -> Analysis:
    """The chirped signal, the energy density, |f|^2 and the energy of f.

    The density is ``oracle.analysis_quartet(f, plan).norm_field() ** 2``
    from two transforms per kernel sign pair.  The output factors have
    constant modulus (2 pi b)^(-1/2), and for each real component g_k of the
    chirped signal, with complex centered transform G_k and c = lam . mu,
    the planes split gives
    |F{g_k}(v)|^2 = (1+c)/2 |G_k(v1, v2)|^2 + (1-c)/2 |G_k(v1, -v2)|^2.
    As G_k(-v) = conj(G_k(v)), the transforms H of g0 + i g1 and g2 + i g3
    give sum_k |G_k(v)|^2 as the fold (P(v) + P(-v))/2 of P = |H1|^2 + |H2|^2.
    P(s1 v1, s2 v2) is an index reversal along an axis whose v-grid is
    centered at 0, and a transform with that axis's kernel sign flipped
    along any other; a v-grid centered at 0 takes two FFTs in all.
    """
    chirps, _ = _plan_factors(plan)
    if f.grid != plan.input_grid:
        raise ValueError("field grid does not match plan input grid")
    with np.errstate(over="ignore"):
        sq = f.samples * f.samples
        energy = float(np.sum(sq)) * f.grid.cell_area
    if not math.isfinite(energy):
        raise PlanViolationError("the signal energy overflows the largest float "
                                 "(or a sample is not finite)")
    vgrid = plan.scaled_freq_grid()
    centered = (vgrid.center1 == 0.0, vgrid.center2 == 0.0)
    g = sandwich(f.samples, plan.lam, plan.mu, *chirps)
    powers = {}  # P on each kernel sign pair transformed
    h = np.empty((vgrid.n1, vgrid.n2), dtype=complex)

    def power(s1, s2):
        """P(s1 v1, s2 v2)."""
        steps = [s if c else 1 for s, c in zip((s1, s2), centered)]
        signs = (-s1 * steps[0], -s2 * steps[1])
        if signs not in powers:
            powers[signs] = np.zeros((vgrid.n1, vgrid.n2))
            for m in (0, 2):
                centered_ft2(g[..., m] + 1j * g[..., m + 1], plan.input_grid, vgrid,
                             ((signs[0], None, None), (signs[1], None, None)), h)
                powers[signs] += h.real * h.real + h.imag * h.imag
        return powers[signs][::steps[0], ::steps[1]]

    fold = 1.0 if _mutation.active("density-fold") else 0.5
    same = fold * (power(1, 1) + power(-1, -1))
    cross = fold * (power(1, -1) + power(-1, 1))
    c = float(plan.lam.array @ plan.mu.array)
    density = (((1.0 + c) / 2.0) * same + ((1.0 - c) / 2.0) * cross) / (
        4.0 * math.pi ** 2 * plan.A1.b * plan.A2.b)
    return Analysis(g, density, np.sum(sq, axis=-1), energy)


# ---------------------------------------------------------------------------
# Degenerate branches (b = 0 on one or both axes).

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
