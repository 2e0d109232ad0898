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
axis it runs no transform, only a gather of the input samples at t = d (u -
tau) and a chirp.  The dense kernel quadrature ``qolct_direct``, the mutual
oracle, lives in ``oracle``.
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
            bound = abs(A.a) / (2.0 * A.b) * h * extent if A.b else 0.0
            if bound > math.pi * (1.0 + 1e-9):
                raise PlanViolationError(
                    f"axis {axis}: chirp resolution |a|/(2b)*h*L = {bound:g} "
                    "exceeds pi; refine the input grid")
        for axis, A, _, _, du in axes:  # the bounds that read the output grid
            if A.b > 0.0:  # Nyquist on the v = u/b grid
                check_nyquist(axis, g.axis_coords(axis), du / A.b)
            else:
                _b_zero_window(axis, A, g, out.axis_coords(axis))

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
        for axis, A, n, h, c in ((1, A1, grid.n1, grid.spacing1, grid.center1),
                                 (2, A2, grid.n2, grid.spacing2, grid.center2)):
            if A.b != 0.0:
                spacing.append(abs(A.b) * 2.0 * math.pi / (n * h))
                center.append(0.0)
            else:
                _require_positive_d(axis, A)
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
    any axes and grids.  A b = 0 axis is the substitution t -> d (u - tau),
    a slice of the input samples (no copy), times :func:`_degenerate_chirp`.
    """
    if f.grid != plan.input_grid:
        raise ValueError("field grid does not match plan input grid")
    g, data, axes = plan.input_grid, f.samples, []
    for axis, A in ((1, plan.A1), (2, plan.A2)):
        u = plan.output_grid.axis_coords(axis)
        if A.b > 0.0:
            axes.append(_axis_factors(axis, A, g.axis_coords(axis), u, -1))
        else:
            axes.append((0, None, _degenerate_chirp(axis, A, u)))
            window = _b_zero_window(axis, A, g, u)
            data = data[window] if axis == 1 else data[:, window]
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
    """Forward transforms of the four real components of f, b = 0 axes included."""
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

def _require_positive_d(axis: int, A: OffsetParams):
    if A.d <= 0.0:
        raise ValueError(f"axis {axis}: a b = 0 axis needs d > 0 (the "
                         "square-root convention fixes the sign)")


def _b_zero_window(axis: int, A: OffsetParams, g: Grid2D, u) -> slice:
    """The slice of input samples, along ``axis`` of the grid ``g``, that a
    b = 0 axis reads at the outputs u: d (u - tau) must be whole sample
    indices of a window read with a whole-number stride, within 1e-9 beyond
    the rounding that coordinates as large as u and tau carry."""
    _require_positive_d(axis, A)
    t, h = g.axis_coords(axis), (g.spacing1, g.spacing2)[axis - 1]
    with np.errstate(over="ignore", invalid="ignore"):  # not finite: refused below
        k = (A.d * (u - A.tau) - t[0]) / h
        tol = 1e-9 + 4.0 * np.finfo(float).eps * A.d * (np.abs(u).max() + abs(A.tau)) / h
        start, stride = np.rint(k[0]), np.rint(k[1] - k[0]) if k.size > 1 else 1.0
        want = start + stride * np.arange(k.size)
        if not (stride >= 1.0 and start >= 0.0 and want[-1] < t.size
                and np.abs(k - want).max() <= tol < 0.5):
            raise PlanViolationError(
                f"axis {axis}: substituted coordinates d*(u - tau) must be input "
                "sample indices of a window read with a whole-number stride")
    return slice(int(start), int(want[-1]) + 1, int(stride))


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
