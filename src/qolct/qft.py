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
linear canonical transform of ``olct`` on it: the axis-1 (row) factors ride
the per-row maps into the planes and back, the axis-2 (column) factors the
multiplies that move each plane between those maps and its rows of the one
result array.  The two planes do not depend on each other, so from 512^2 up
the engine runs them, and each map's two halves of the rows, on two threads.
The O(N^3) dense quaternion quadrature ``qft_direct`` is an oracle and lives
in ``oracle``.
"""

from __future__ import annotations

import contextvars
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from . import _mutation
from .field import Grid2D, PlanViolationError, QField, _row_blocks
from .quat import UNIT_I, UNIT_J, PureUnit, _read_only, plane_basis


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
        """The plan onto the frequency grid at 0, spacing 2*pi/(n*h) per axis."""
        return cls(grid, Grid2D(grid.n1, grid.n2, 0.0, 0.0,
                                2.0 * math.pi / (grid.n1 * grid.spacing1),
                                2.0 * math.pi / (grid.n2 * grid.spacing2)), lam, mu)


# ---------------------------------------------------------------------------
# Scalar centered Fourier core.

@functools.lru_cache(maxsize=16)  # read-only: calls on one axis share them
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
    return _read_only(pre), _read_only(post)


def centered_ft2(z: np.ndarray, ops, out: np.ndarray) -> np.ndarray:
    """Write T(z) into ``out`` and return it, for one plane of the planes
    split: T runs per axis of ``ops`` (sign, matrix) the dense matrix, an
    in-place FFT of that sign (matrix None), or nothing (sign 0).  The engine
    folds every factor, the FFT phase ramps and the cell weight into its
    maps, so this is the transform alone.

    ``out`` is ``z`` itself unless a dense matrix changes the plane's shape;
    the FFT axes run in place on ``z``, a strided view as the engine hands
    it over, and a dense matrix writes a new plane that is copied into
    ``out``.
    """
    for axis, (sign, mat) in enumerate(ops):
        if mat is not None:
            z = mat @ z if axis == 0 else z @ mat.T
        elif sign < 0:
            np.fft.fft(z, axis=axis, out=z)
        elif sign > 0:
            np.fft.ifft(z, axis=axis, norm="forward", out=z)
    if z is not out:
        out[...] = z
    return out


def _rotations(c, n: int) -> np.ndarray:
    """Per row, the 4x4 right factor that multiplies the (Re z, Im z) pair
    of both planes by c on the left: (n, 4, 4) for a length-n vector or a
    scalar ``c``."""
    c = np.broadcast_to(c, (n,))
    r = np.zeros((n, 4, 4))
    for k in (0, 2):
        r[:, k, k] = r[:, k + 1, k + 1] = c.real
        r[:, k, k + 1], r[:, k + 1, k] = c.imag, -c.imag
    return r


# ---------------------------------------------------------------------------
# The planes-split engine (any pure-unit axes, any grids).

#: samples per plane from which each engine stage runs on two threads; below
#: it the thread start-up costs more than the second core returns
_THREADED_FROM = 1 << 18


def _run(tasks, size: int):
    """Run the callables ``tasks``, one after the other in the caller's
    thread below ``_THREADED_FROM`` samples per plane (``size``).  From it
    up, the first runs in the caller's thread and each other on its own
    thread, in a copy of the caller's context (numpy's errstate holds there),
    all joined before this returns; an exception a thread raised is raised
    again here."""
    if size < _THREADED_FROM:
        for task in tasks:
            task()
        return
    errors = []

    def work(task, context):
        try:
            context.run(task)
        except BaseException as exc:  # raised again in the caller
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(task, contextvars.copy_context()))
               for task in tasks[1:]]
    for thread in threads:
        thread.start()
    try:
        tasks[0]()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _planes_ft(samples, tgrid: Grid2D, ugrid: Grid2D, lam: PureUnit,
               mu: PureUnit, axes):
    """The one planes split, from the (n1, n2, 4) ``samples`` on ``tgrid`` to
    a new read-only array on ``ugrid``; per axis ``axes`` holds (sign, pre,
    post), the kernel sign and the complex factors before and after its
    transform, vectors on that axis or None for 1.  With both signs 0 it is
    the multiply pre1(t1) samples pre2(t2).

    Per axis the factors become (in, transform, out): on an FFT axis (equal
    sample counts, du*dt = 2*pi/n) the phase ramps of :func:`_axis_ramps`
    join them, on any other axis the transform is the dense matrix
    e^{s*i*u (x) t}, built once, and a sign-0 axis keeps one factor.  The
    axis-1 (row) factors act on the left of both planes alike, so they ride
    the basis maps: per row ``plane_basis @ R(in)`` into z+, z- and ``R(out *
    cell weight) @ plane_basis.T`` back, one stacked ``np.matmul`` each.
    The axis-2 (column) factors act on the right, so they cross conjugated
    on the + plane; its column transform takes the conjugate too.

    The two planes live row-interleaved in the one full-size array the call
    allocates (a second only where the grid changes): its (n1, 2, n2)
    complex view holds row r of z+ and then row r of z- in row r.  Three
    stages fill it:

    - map in, by the row blocks of ``field._row_blocks``: the basis map
      into the scratch, then each plane's column-in factor from there
      into that plane's row slot;
    - transform: :func:`centered_ft2` on each plane, in place;
    - map back, by blocks of rows: each plane's column-out factor into the
      scratch, then the back map from there into the same rows.

    From ``_THREADED_FROM`` samples per plane up each map runs the two halves
    of its rows, and the transform the two planes, on two threads; below it,
    and for the transform on a dense axis, the same calls run one after the
    other (see :func:`_run`).
    """
    weight, parts = 1.0, []
    specs = ((tgrid.center1, tgrid.spacing1, ugrid.center1, ugrid.spacing1),
             (tgrid.center2, tgrid.spacing2, ugrid.center2, ugrid.spacing2))
    for axis, ((sign, a, b), (t0, dt, u0, du)) in enumerate(zip(axes, specs), 1):
        a, b = (1.0 if v is None else v for v in (a, b))
        t, u = tgrid.axis_coords(axis), ugrid.axis_coords(axis)
        if sign == 0:
            parts.append((a * b, (0, None), 1.0))
            continue
        weight *= dt
        n = t.size
        if n == u.size and abs(dt * du * n - 2.0 * math.pi) <= 1e-9 * 2.0 * math.pi:
            ramp_pre, ramp_post = _axis_ramps(n, t0, dt, u0, du, sign)
            parts.append((ramp_pre * a, (sign, None), ramp_post * b))
        else:
            parts.append((a, (sign, np.exp(1j * sign * np.outer(u, t))), b))
    (row_in, row_op, row_out), (col_in, (s2, mat2), col_out) = parts
    plain = (col_in, col_out, (row_op, (s2, mat2)))
    conj = (np.conj(col_in), np.conj(col_out),
            (row_op, (-s2, None if mat2 is None else np.conj(mat2))))
    per_plane = (plain, conj) if _mutation.active("planes-conj") else (conj, plain)
    basis = plane_basis(lam, mu)
    (n1, n2, _), (m1, m2) = samples.shape, (ugrid.n1, ugrid.n2)

    into = basis @ _rotations(row_in, n1)
    coefs = np.empty((n1, n2, 4))
    z = coefs.view(complex).reshape(n1, 2, n2)  # z[r, k] is row r of plane k

    def map_in(half):
        for rows, s in _row_blocks(half * n1 // 2, (half + 1) * n1 // 2, n2):
            np.matmul(samples[rows], into[rows], out=s)
            for k, (pre, _, _) in enumerate(per_plane):  # z+ first
                np.multiply(s.view(complex)[..., k], pre, out=z[rows, k])

    _run([functools.partial(map_in, half) for half in (0, 1)], n1 * n2)
    result = coefs if (m1, m2) == (n1, n2) else np.empty((m1, m2, 4))
    out = result.view(complex).reshape(m1, 2, m2)
    planes = [z[:, k] for k in (0, 1)]
    targets = planes if result is coefs else [out[:, k] for k in (0, 1)]
    # BLAS threads a dense axis's matrix products already: two at once only
    # crowd the cores, so those planes take their turns
    dense = row_op[1] is not None or mat2 is not None
    _run([functools.partial(centered_ft2, plane, ops, target)
          for plane, target, (_, _, ops) in zip(planes, targets, per_plane)],
         0 if dense else max(n1 * n2, m1 * m2))
    del coefs, z, planes, targets  # the input planes go first where the grid changes

    back = _rotations(row_out * weight, m1) @ basis.T

    def map_back(half):
        for rows, s in _row_blocks(half * m1 // 2, (half + 1) * m1 // 2, m2):
            for k, (_, post, _) in enumerate(per_plane):
                np.multiply(out[rows, k], post, out=s.view(complex)[..., k])
            np.matmul(s, back[rows], out=result[rows])

    _run([functools.partial(map_back, half) for half in (0, 1)], m1 * m2)
    return _read_only(result)


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

