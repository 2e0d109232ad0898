"""Quaternionic offset linear canonical transform (QOLCT).

Each axis carries a unimodular matrix with offsets, (a, b, c, d | tau, eta)
with a*d - b*c = 1.  For b1, b2 > 0 the transform is

    O{f}(u) = sum_t K1(t1, u1) f(t) K2(t2, u2) dt,
    K(t, u) = (2*pi*b)^(-1/2) exp(-axis*pi/4)
              exp(axis * (a t^2 - 2 t (u - tau) - 2 u (d tau - b eta)
                          + d (u^2 + tau^2)) / (2 b)),

with the left kernel on axis lam and the right kernel on axis mu.  The
kernel factors as input chirp -> QFT -> output factor C(u), so the forward
and inverse transforms hand their per-axis chirps and factors to the
planes-split engine of ``qft`` (any axes, any grids); the component quartet
is four forwards.
``qolct_forward`` serves every valid plan in one engine call; along a b = 0
axis it runs no transform, only a spline substitution and a chirp.  The
dense kernel quadrature ``qolct_direct``, the mutual oracle, lives in
``oracle``.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace

import numpy as np

from . import _mutation
from .field import ComponentQuartet, Grid2D, PlanViolationError, QField, _cell_sum
from .qft import _inverse_weight, _planes_ft, check_nyquist
from .quat import UNIT_I, UNIT_J, PureUnit, _read_only, qmul


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


def _require_positive_b(A1: OffsetParams, A2: OffsetParams):
    for axis, A in ((1, A1), (2, A2)):
        if A.b <= 0.0:
            raise ValueError(f"axis {axis}: main-branch transforms require "
                             f"b > 0, got {A.b}")


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
                if (g.n1, g.n2)[axis - 1] < 2:
                    raise PlanViolationError(f"axis {axis}: a b = 0 axis needs at "
                                             "least 2 samples for its spline")
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
                    raise PlanViolationError(
                        f"axis {axis}: substituted coordinates d*(u - tau) "
                        "fall outside the sampled grid")

    @classmethod
    def create(cls, A1: OffsetParams, A2: OffsetParams,
               lam: PureUnit = UNIT_I, mu: PureUnit = UNIT_J, *,
               input_grid: Grid2D) -> "QolctPlan":
        return cls(A1, A2, lam, mu, input_grid,
                   cls.derived_output_grid(A1, A2, input_grid))

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


def _axis_factors(axis: int, A: OffsetParams, t, u, sign: int):
    """One b > 0 axis's engine triple (sign, pre, post): the forward (sign
    -1) takes the input chirp e^{i(tau t + a t^2/2)/b} before its QFT and
    C(u) = (2 pi b)^(-1/2) e^{-i pi/4} e^{i(-2u(d tau - b eta) + d(u^2 +
    tau^2))/(2b)} after it, the inverse (sign +1) 1/(2 pi C(u)) and 1/chirp."""
    lin, quad = -sign * A.tau / A.b, -sign * A.a / (2.0 * A.b)
    if _mutation.active("chirp-sign"):
        quad = -quad
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        phi = (-2.0 * u * (A.d * A.tau - A.b * A.eta)
               + A.d * (u * u + A.tau * A.tau)) / (2.0 * A.b) - math.pi / 4.0
        chirp = np.exp(1j * (lin * t + quad * t * t))
        factor = np.exp(-1j * sign * phi) * (2.0 * math.pi * A.b) ** (0.5 * sign)
    _require_finite(axis, chirp, factor)
    if sign < 0:
        return sign, chirp, factor
    return sign, factor * _inverse_weight(), chirp


def _require_finite(axis: int, *factors):
    if not all(np.isfinite(x).all() for x in factors):
        raise PlanViolationError(
            f"axis {axis}: a kernel phase overflows the largest float; the "
            "offsets or matrix entries are too large for this grid")


def qolct_forward(f: QField, plan: QolctPlan) -> QField:
    """Forward transform of any valid plan, in one planes-split engine call.

    A b > 0 axis runs the chirp -> QFT -> output-factor factorization, an
    exact (to rounding) rearrangement of the direct kernel quadrature, for
    any axes and grids.  A b = 0 axis is the substitution t -> d (u - tau) by
    cubic spline (extrapolation is rejected) times :func:`_degenerate_chirp`.
    """
    if f.grid != plan.input_grid:
        raise ValueError("field grid does not match plan input grid")
    g, data, axes = plan.input_grid, f.samples, []
    for axis, A, h in ((1, plan.A1, g.spacing1), (2, plan.A2, g.spacing2)):
        t, u = g.axis_coords(axis), plan.output_grid.axis_coords(axis)
        if A.b > 0.0:
            axes.append(_axis_factors(axis, A, t, u, -1))
        else:
            axes.append((0, None, _degenerate_chirp(axis, A, u)))
            data = _spline(t, h, data, A.d * (u - A.tau), axis=axis - 1)
    return QField(plan.output_grid, _planes_ft(
        data, g, plan.scaled_freq_grid(), plan.lam, plan.mu, axes))


def qolct_inverse(F: QField, plan: QolctPlan) -> QField:
    """Inverse transform: conj-kernel quadrature, computed by unwinding the
    factorization (inverse output factors, inverse QFT, inverse chirps)."""
    _require_positive_b(plan.A1, plan.A2)
    axes = tuple(_axis_factors(axis, A, plan.input_grid.axis_coords(axis),
                               plan.output_grid.axis_coords(axis), 1)
                 for axis, A in ((1, plan.A1), (2, plan.A2)))
    if F.grid != plan.output_grid:
        raise ValueError("field grid does not match plan output grid")
    return QField(plan.input_grid, _planes_ft(
        F.samples, plan.scaled_freq_grid(), plan.input_grid, plan.lam, plan.mu, axes))


def qolct_quartet(f: QField, plan: QolctPlan) -> ComponentQuartet:
    """Forward transforms of the four real components of f (b > 0 axes)."""
    _require_positive_b(plan.A1, plan.A2)
    return ComponentQuartet.of(f, lambda g: qolct_forward(g, plan))


@dataclass(frozen=True)
class Analysis:
    """What every uncertainty report reads of one (signal, plan) pair."""

    density: np.ndarray  # ||O{f}||^2 on the v = u/b grid
    e2: np.ndarray  # |f(t)|^2
    energy: float  # ||f||^2
    covariance: dict  # Heisenberg's COV per axis, filled by heisenberg_report


#: the one kept entry: (weak reference to f, (plan, armed mutation), the
#: forward of f on the plan, its Analysis or None until one is asked for)
_last: list = []


def kept_forward(f: QField, plan: QolctPlan) -> QField:
    """``qolct_forward(f, plan)``, kept in the one entry of :func:`analysis`
    on the same terms as the analysis; it needs no energy check."""
    key = (plan, _mutation.armed())
    entry = _last[0] if _last else None  # test one entry: another call may replace it
    if entry is None or entry[0]() is not f or entry[1] != key:
        _last.clear()  # before the transform, so at most one forward and density are held
        # the reference lives only in its entry, so its callback clears that entry
        entry = (weakref.ref(f, lambda _: _last.clear()), key, qolct_forward(f, plan), None)
        _last[:] = [entry]
    return entry[2]


def analysis(f: QField, plan: QolctPlan) -> Analysis:
    """The energy density, |f|^2 and the energy of f.

    The density is the squared ``oracle.norm_field`` of
    ``oracle.analysis_quartet(f, plan)``, read off the forward transform O:
    with c = lam . mu and T(q) = lam q mu,
    density(u) = 1/4 sum_{e1, e2 = +-1} [|O|^2 - c e1 e2 <O, T(O)>](e1 u1, e2 u2).
    O(-u) along an axis is the forward on the mirrored output grid, indices
    reversed; a grid centered at 0 is its own mirror image (-0.0 == 0.0), so
    there the density takes one forward, and any grid at most four.

    The result is kept beside :func:`kept_forward`, which gives the forward
    after the energy checks, until ``f`` is collected or another pair is
    analysed: the same ``QField`` object with an equal plan, under the same
    armed mutation, gets it back with no transform.  Its arrays are
    read-only, so no caller can change what a later call returns.
    """
    key = (plan, _mutation.armed())
    entry = _last[0] if _last else None
    if entry is not None and entry[0]() is f and entry[1] == key and entry[3] is not None:
        return entry[3]
    _require_positive_b(plan.A1, plan.A2)
    if f.grid != plan.input_grid:
        raise ValueError("field grid does not match plan input grid")
    with np.errstate(over="ignore"):
        mod2 = np.einsum("...m,...m->...", f.samples, f.samples)
        energy = _cell_sum(mod2, f.grid.cell_area)
    if not math.isfinite(energy):
        raise PlanViolationError("the signal energy overflows the largest float "
                                 "(or a sample is not finite)")
    if energy < np.finfo(float).tiny and f.samples.any():
        raise PlanViolationError("the signal energy underflows the smallest normal "
                                 "float; rescale the signal")
    forward = kept_forward(f, plan)
    c = float(plan.lam.array @ plan.mu.array)
    T = qmul(qmul(plan.lam.array, np.eye(4)), plan.mu.array)  # T(q) = q @ T
    og, reduced = plan.output_grid, {}  # per grid, the fields for e1 e2 = +1, -1
    density = np.zeros((og.n1, og.n2))
    for e1, e2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        grid = replace(og, center1=e1 * og.center1, center2=e2 * og.center2)
        if grid not in reduced:
            o = (forward if grid == og else
                 qolct_forward(f, replace(plan, output_grid=grid))).samples
            with np.errstate(over="ignore", invalid="ignore"):  # rejected below
                norm2 = np.einsum("...m,...m->...", o, o)
                cross = c * np.einsum("...m,...m->...", o, o @ T) if c else None  # 0 on (i, j)
                reduced[grid] = (norm2 - cross, norm2 + cross) if c else (norm2, norm2)
        with np.errstate(over="ignore", invalid="ignore"):
            density += reduced[grid][e1 != e2][::e1, ::e2]
    if not np.isfinite(density).all():
        raise PlanViolationError("the energy density overflows the largest float")
    density *= 0.5 if _mutation.active("density-fold") else 0.25
    an = Analysis(_read_only(density), _read_only(mod2), energy, {})
    _last[:] = [(weakref.ref(f, lambda _: _last.clear()), key, forward, an)]
    return an


# ---------------------------------------------------------------------------
# Degenerate branches (b = 0 on one or both axes).

def _degenerate_chirp(axis: int, A: OffsetParams, u):
    """sqrt(d) exp(i*(c d (u - tau)^2 / 2 + u eta)) as complex values.

    The linear phase carries eta: that is the b -> 0 limit of the
    main-branch kernel (see the limit-consistency test).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        phase = A.c * A.d * (u - A.tau) ** 2 / 2.0 + u * A.eta
        if _mutation.active("degenerate-chirp"):
            phase = -phase
        chirp = math.sqrt(A.d) * np.exp(1j * phase)
    _require_finite(axis, chirp)
    return chirp


def _not_a_knot_slopes(h: float, y):
    """First derivatives at the knots, spaced h along axis 0 of y, of the
    not-a-knot cubic spline through y, as scipy's ``CubicSpline`` defines
    it: two knots give the straight line and three the parabola.

    On uniform knots the slope system, divided by h, has rows (1, 4, 1)
    inside and end rows (1, 2) and (2, 1): the third derivative is
    continuous at the second and penultimate knots.  Its Thomas sweep runs
    over all trailing columns at once; the pivots depend only on n and
    stay positive, so no pivoting is needed.
    """
    n = y.shape[0]
    slope = np.diff(y, axis=0) / h
    if n == 2:
        return np.concatenate([slope, slope])
    if n == 3:  # the parabola: its slope at the middle knot is the mean secant
        mid = (slope[0] + slope[1]) / 2.0
        return np.stack([2.0 * slope[0] - mid, mid, 2.0 * slope[1] - mid])
    rhs = np.empty_like(slope, shape=y.shape)
    rhs[0] = (5.0 * slope[0] + slope[1]) / 2.0
    rhs[1:-1] = 3.0 * (slope[:-1] + slope[1:])
    rhs[-1] = (slope[-2] + 5.0 * slope[-1]) / 2.0
    diag, upper = [1.0] + [4.0] * (n - 2) + [1.0], [2.0] + [1.0] * (n - 2)
    for i in range(1, n):
        m = (2.0 if i == n - 1 else 1.0) / diag[i - 1]
        diag[i] -= m * upper[i - 1]
        rhs[i] -= m * rhs[i - 1]
    rhs[-1] /= diag[-1]
    for i in range(n - 2, -1, -1):
        rhs[i] -= upper[i] * rhs[i + 1]
        rhs[i] /= diag[i]
    return rhs


def _spline(x, h: float, y, xq, axis: int):
    """Evaluate the not-a-knot cubic spline through samples y at the knots
    x (two or more: ``QolctPlan`` refuses fewer), spaced h along ``axis`` of
    y, at the points xq, in cubic Hermite form on the knot interval of each
    point; the end intervals extend past the knots."""
    y = np.ascontiguousarray(np.moveaxis(y, axis, 0))  # unit-stride sweep rows
    s = _not_a_knot_slopes(h, y)
    k = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    t = ((xq - x[k]) / h).reshape((-1,) + (1,) * (y.ndim - 1))
    out = y[k] * ((2.0 * t - 3.0) * t * t + 1.0)
    out += y[k + 1] * ((3.0 - 2.0 * t) * t * t)
    out += s[k] * (h * t * (1.0 - t) ** 2)
    out += s[k + 1] * (h * t * t * (t - 1.0))
    return np.moveaxis(out, 0, axis)
