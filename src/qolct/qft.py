"""Two-sided quaternion Fourier transform on sampled fields.

The transform pair implemented here uses the angular-frequency kernel with
no 2*pi in the exponent,

    F(u) = sum_t exp(-lam*u1*t1) f(t) exp(-mu*u2*t2) dt1 dt2,
    f(t) = (1/(2*pi)^2) sum_u exp(+lam*u1*t1) F(u) exp(+mu*u2*t2) du1 du2,

so Plancherel carries the 4*pi^2 factor.  Every transform, on any pure-unit
axes and grids, runs through one engine: the orthogonal 2D planes split of
Hitzer & Sangwine (arXiv:1306.2157) turns the two-sided kernel into two
complex separable transforms, each axis a centered FFT where the grids allow
(equal sample counts, du*dt = 2*pi/n) and a dense complex matrix elsewhere.
Per-axis phase factors before and after the transform carry the offset
linear canonical transform of ``olct`` on it.  The O(N^3) dense quaternion
quadrature ``qft_direct`` is an oracle and lives in ``oracle``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _mutation
from .field import ComponentQuartet, Grid2D, PlanViolationError, QField
from .quat import UNIT_I, UNIT_J, PureUnit, in_planes


def default_output_grid(grid: Grid2D) -> Grid2D:
    """Frequency grid centered at 0 with spacing 2*pi/(n*h) per axis."""
    return Grid2D(grid.n1, grid.n2, 0.0, 0.0,
                  2.0 * math.pi / (grid.n1 * grid.spacing1),
                  2.0 * math.pi / (grid.n2 * grid.spacing2))


def check_nyquist(axis: int, t, du: float):
    """Phase resolution: from one output sample to the next, ``du`` on, the
    kernel phase at the input reach max|t| may advance by at most pi."""
    reach = max(abs(t[0]), abs(t[-1]))
    if du * reach > math.pi * (1.0 + 1e-9):
        raise PlanViolationError(
            f"axis {axis}: output spacing {du:g} times input reach "
            f"{reach:g} exceeds pi; refine the output grid")


@dataclass(frozen=True)
class QftPlan:
    """The transform from ``input_grid`` (t) to ``output_grid`` (u) on axes
    (lam, mu); :func:`iqft` runs the same plan from u back to t."""

    input_grid: Grid2D
    output_grid: Grid2D
    lam: PureUnit
    mu: PureUnit

    def __post_init__(self):
        check_nyquist(1, self.input_grid.axis_coords(1), self.output_grid.spacing1)
        check_nyquist(2, self.input_grid.axis_coords(2), self.output_grid.spacing2)

    @classmethod
    def forward(cls, grid: Grid2D, lam: PureUnit = UNIT_I,
                mu: PureUnit = UNIT_J) -> "QftPlan":
        return cls(grid, default_output_grid(grid), lam, mu)


# ---------------------------------------------------------------------------
# Scalar centered Fourier core.

def _axis_ramps(n, t0, dt, u0, du, sign):
    """Pre/post phase ramps turning an FFT into sum_p x_p e^{sign*i*u[q]*t[p]}."""
    m = (n - 1) / 2.0
    p = np.arange(n)
    # core (q-m)(p-m)*2pi/n handled as fft/ifft plus these ramps; the m*p and
    # m*q products are half-integers, so the mod-n reduction below is exact.
    pre = np.exp(1j * sign * (u0 * (p - m) * dt - 2.0 * np.pi * np.mod(m * p, n) / n))
    post = np.exp(1j * sign * (u0 * t0 + (p - m) * du * t0
                               - 2.0 * np.pi * np.mod(m * p, n) / n
                               + 2.0 * np.pi * np.mod(m * m, n) / n))
    return pre, post


def centered_ft2(x: np.ndarray, tgrid: Grid2D, ugrid: Grid2D, axes,
                 out: np.ndarray) -> np.ndarray:
    """Write sum_t pre(t) x(t) e^{s1*i*u1*t1} e^{s2*i*u2*t2} post(u) dt into
    ``out`` and return it; ``axes`` holds per axis (sign, pre, post), the
    factors complex vectors on that axis or None for 1.

    Where the sample counts match and du*dt = 2*pi/n an axis is one in-place
    FFT whose phase ramps (they absorb the grid centers) join its pre and
    post vectors; any other axis is a dense complex matrix e^{s*i*u (x) t}
    with pre and post folded into its columns and rows.  A sign-0 axis is not
    transformed, its factors act as one vector, and it adds no spacing to dt.
    ``x`` may be a strided view and is left untouched: the pre multiply
    writes the one contiguous working copy, the post multiply ``out``.
    """
    last = 1 if axes[1][0] else 0  # the cell weight rides on the last transformed axis
    weight = 1.0
    pre, post, mats = [1.0, 1.0], [1.0, 1.0], [None, None]
    specs = ((tgrid.center1, tgrid.spacing1, ugrid.n1, ugrid.center1, ugrid.spacing1),
             (tgrid.center2, tgrid.spacing2, ugrid.n2, ugrid.center2, ugrid.spacing2))
    for axis, ((sign, a, b), (t0, dt, nu, u0, du)) in enumerate(zip(axes, specs)):
        a, b = (1.0 if v is None else v for v in (a, b))
        if sign == 0:
            pre[axis] = a * b
            continue
        n = x.shape[axis]
        weight *= dt
        w = weight if axis == last else 1.0
        if n == nu and abs(dt * du * n - 2.0 * math.pi) <= 1e-9 * 2.0 * math.pi:
            ramp_pre, ramp_post = _axis_ramps(n, t0, dt, u0, du, sign)
            pre[axis], post[axis] = ramp_pre * a, ramp_post * w * b
        else:
            mats[axis] = np.reshape(b, (-1, 1)) * np.exp(1j * sign * np.outer(
                ugrid.axis_coords(axis + 1), tgrid.axis_coords(axis + 1))) * w * a
    z = _outer_times(x, *pre, np.empty(x.shape, dtype=complex))
    for axis, (sign, _, _) in enumerate(axes):
        if mats[axis] is not None:
            z = mats[0] @ z if axis == 0 else z @ mats[1].T
        elif sign < 0:  # FFT axes, in place
            np.fft.fft(z, axis=axis, out=z)
        elif sign > 0:
            np.fft.ifft(z, axis=axis, norm="forward", out=z)
    return _outer_times(z, *post, out)


def _outer_times(x, left, right, out):
    """out = left[:, None] * x * right[None, :], each factor a vector or a
    scalar; a right factor of exactly 1.0 costs no pass."""
    np.multiply(x, np.reshape(left, (-1, 1)), out=out)
    if np.ndim(right) or right != 1.0:
        out *= right
    return out


# ---------------------------------------------------------------------------
# The planes-split engine (any pure-unit axes, any grids).

def _planes_ft(samples, tgrid: Grid2D, ugrid: Grid2D, lam: PureUnit,
               mu: PureUnit, axes):
    """Split ``samples`` (an (n1, n2, 4) stack or a real (n1, n2) field) into
    the planes of ``quat.in_planes``; on each, one :func:`centered_ft2` with
    per axis ``(sign, pre, post)`` of ``axes`` (axis 2 conjugated on the plane
    that conjugates right-hand factors); map back."""
    s2, pre2, post2 = axes[1]
    conj_axes = (axes[0], (-s2, *(None if v is None else np.conj(v)
                                  for v in (pre2, post2))))

    def per_plane(z, out, conj):
        centered_ft2(z, tgrid, ugrid, conj_axes if conj else axes, out)
    return in_planes(samples, lam, mu, (ugrid.n1, ugrid.n2), per_plane)


def _inverse_weight() -> float:
    """The 1/(2 pi) each axis of ``iqft`` and ``olct.qolct_inverse`` takes."""
    return 1.0 if _mutation.active("iqft-scale") else 0.5 / math.pi


def qft_fast_ij(f: QField, plan: QftPlan) -> QField:
    """Forward transform on any axes and grids through the planes-split
    engine; same contract as ``oracle.qft_direct``."""
    if f.grid != plan.input_grid:
        raise ValueError("field grid does not match plan input grid")
    return QField(plan.output_grid, _planes_ft(
        f.samples, plan.input_grid, plan.output_grid, plan.lam, plan.mu,
        ((-1, None, None), (-1, None, None))))


def iqft(F: QField, plan: QftPlan) -> QField:
    """Inverse of the forward ``plan``, from F on its output grid back to its
    input grid: (1/4pi^2) sum_u e^{+lam u1 t1} F(u) e^{+mu u2 t2} du."""
    if F.grid != plan.output_grid:
        raise ValueError("field grid does not match plan output grid")
    w = _inverse_weight()  # joins each axis's post ramp or matrix: no extra pass
    return QField(plan.input_grid, _planes_ft(
        F.samples, plan.output_grid, plan.input_grid, plan.lam, plan.mu,
        ((1, None, w), (1, None, w))))


def qft_quartet(f: QField, plan: QftPlan) -> ComponentQuartet:
    """Transforms (F{f_0}, ..., F{f_3}) of the four real components."""
    if f.grid != plan.input_grid:
        raise ValueError("field grid does not match plan input grid")
    return _quartet(f.samples, plan.output_grid, lambda x: _planes_ft(
        x, plan.input_grid, plan.output_grid, plan.lam, plan.mu,
        ((-1, None, None), (-1, None, None))))


def _quartet(samples, grid: Grid2D, transform) -> ComponentQuartet:
    """``transform`` of each real component of ``samples``, on ``grid``."""
    return ComponentQuartet(tuple(QField(grid, transform(samples[..., m]))
                                  for m in range(4)))
