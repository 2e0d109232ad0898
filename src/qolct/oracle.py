"""Oracles: other routes to the numbers the transforms produce.

Each dense quadrature codes its own kernel's cos and sin parts on a mesh
and sums them with the one contraction ``_contract``: ``qft_direct`` for the
QFT; ``qolct_direct`` for the QOLCT, which reads a b = 0 axis as the
selection t = d (u - tau) times its chirp; ``_qlct_reference``, a QLCT
quadrature with its own tau = eta = 0 kernel formula; and
``analysis_quartet``, the dense quadrature of the chirped signal's four real
components, with its own chirps and the chirp phase divided out of the
kernel: the long way to the energy density, sharing no code with the engine
or the planes split.  ``norm_field`` is a quartet's pointwise norm, and
``plane_to_quat`` embeds complex values x + iy as x + axis*y.  No production
module imports this one.

Analytic ground truth for Gaussian signals: the transform of beta * exp(-(alpha1 t1^2 + alpha2 t2^2)) factors per axis
into a real envelope, a plane square-root constant and a quadratic phase.
Every axis factor lives in the plane spanned by {1, axis}, so ordinary
complex branch rules apply; the square root (a + 2 b alpha * axis)^(-1/2)
takes the principal branch with argument in (-pi, pi], which is consistent
with 1/sqrt(axis) = exp(-axis*pi/4).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _mutation
from .field import ComponentQuartet, Grid2D, QField
from .olct import OffsetParams, QolctPlan
from .qft import QftPlan
from .quat import UNIT_I, UNIT_J, PureUnit, qmul


def plane_to_quat(z, axis: PureUnit) -> np.ndarray:
    """Embed complex values x + iy as quaternions x + axis*y."""
    z = np.asarray(z)
    out = np.zeros(z.shape + (4,), dtype=float)
    out[..., 0] = z.real
    out[..., 1] = axis.x * z.imag
    out[..., 2] = axis.y * z.imag
    out[..., 3] = axis.z * z.imag
    return out


@dataclass(frozen=True)
class GaussianSpec:
    """beta * exp(-(alpha1 t1^2 + alpha2 t2^2)) with beta =
    (beta11 + lam*beta12)(beta21 + mu*beta22)."""

    alpha1: float
    alpha2: float
    beta11: float = 1.0
    beta12: float = 0.0
    beta21: float = 1.0
    beta22: float = 0.0

    def __post_init__(self):
        if self.alpha1 <= 0.0 or self.alpha2 <= 0.0:
            raise ValueError("gaussian widths must be positive")


def _axis_factor(alpha: float, A: OffsetParams, u):
    """Complex-plane factor of one axis of the Gaussian transform.

    Returns (envelope, plane) where the axis contribution is
    envelope(u) * (plane embedded along the axis), with the square-root
    constant (a + 2 b alpha * axis)^(-1/2).
    """
    if A.b <= 0.0:
        raise ValueError("closed form requires b > 0")
    denom = 4.0 * alpha ** 2 * A.b ** 2 + A.a ** 2
    envelope = np.exp(-alpha * (u - A.tau) ** 2 / denom)
    root = 1.0 / cmath.sqrt(complex(A.a, 2.0 * A.b * alpha))
    phase = (-2.0 * u * (A.d * A.tau - A.b * A.eta)
             + A.d * (u ** 2 + A.tau ** 2)
             - A.a * (u - A.tau) ** 2 / denom) / (2.0 * A.b)
    return envelope, root * np.exp(1j * phase)


def gaussian_qolct_closed_form_field(spec: GaussianSpec, A1: OffsetParams,
                                     A2: OffsetParams, lam: PureUnit,
                                     mu: PureUnit, grid: Grid2D) -> QField:
    """Closed form evaluated on a whole output grid (one point u is the grid
    ``Grid2D(1, 1, u1, u2, 1.0, 1.0)``)."""
    env1, z1 = _axis_factor(spec.alpha1, A1, grid.axis_coords(1))
    env2, z2 = _axis_factor(spec.alpha2, A2, grid.axis_coords(2))
    beta1 = complex(spec.beta11, spec.beta12)
    beta2 = complex(spec.beta21, spec.beta22)
    left = plane_to_quat(beta1 * env1 * z1, lam)
    right = plane_to_quat(env2 * z2 * beta2, mu)
    samples = qmul(left[:, None, :], right[None, :, :])
    return QField(grid, samples)


def gaussian_qolct_log_modulus(spec: GaussianSpec, A1: OffsetParams,
                               A2: OffsetParams, grid: Grid2D) -> np.ndarray:
    """ln |O{f}(u)| of the closed form on a grid from the log envelopes,
    log |roots| = -ln(denom)/4 and log |beta|, without exponentiating."""
    logs = []
    for alpha, A, u in ((spec.alpha1, A1, grid.axis_coords(1)),
                        (spec.alpha2, A2, grid.axis_coords(2))):
        denom = 4.0 * alpha ** 2 * A.b ** 2 + A.a ** 2
        logs.append(-alpha * (u - A.tau) ** 2 / denom - 0.25 * math.log(denom))
    beta = (abs(complex(spec.beta11, spec.beta12))
            * abs(complex(spec.beta21, spec.beta22)))
    return logs[0][:, None] + logs[1][None, :] + math.log(beta)


# ---------------------------------------------------------------------------
# Dense quaternion quadrature (arbitrary axes and grids).

#: output rows contracted at once, which bounds the (rows, n2, 4) intermediate
_CONTRACT_BLOCK = 1024


def _contract(f: QField, lam: PureUnit, mu: PureUnit, ugrid: Grid2D, left,
              right, scale: float) -> QField:
    """sum_t (cos1 + lam sin1)[u1, t1] f(t) (cos2 + mu sin2)[t2, u2] dt * scale
    on the output grid ``ugrid``, by blocks of output rows: ``left`` is
    (cos1, sin1) on the (u1, t1) mesh, ``right`` (cos2, sin2) on (t2, u2)."""
    out = np.empty((ugrid.n1, ugrid.n2, 4))
    for lo in range(0, ugrid.n1, _CONTRACT_BLOCK):
        rows = slice(lo, lo + _CONTRACT_BLOCK)
        g = np.tensordot(left[0][rows], f.samples, axes=(1, 0))
        g += np.tensordot(left[1][rows], qmul(lam.array, f.samples), axes=(1, 0))
        g *= f.grid.spacing1
        h = np.tensordot(g, right[0], axes=(1, 0))
        h += np.tensordot(qmul(g, mu.array), right[1], axes=(1, 0))
        out[rows] = np.moveaxis(h, -1, 1) * (f.grid.spacing2 * scale)
    return QField(ugrid, out)


def _direct_apply(f: QField, plan: QftPlan, sign: int, scale: float) -> QField:
    def kernel_parts(u, t):  # cos and sin of sign * u t
        th = sign * np.outer(u, t)
        return np.cos(th), np.sin(th)

    left = kernel_parts(plan.output_grid.axis_coords(1), f.grid.axis_coords(1))
    right = kernel_parts(f.grid.axis_coords(2), plan.output_grid.axis_coords(2))
    return _contract(f, plan.lam, plan.mu, plan.output_grid, left, right, scale)


def qft_direct(f: QField, plan: QftPlan) -> QField:
    """Reference O(N^3) quadrature of the forward transform."""
    if f.grid != plan.input_grid:
        raise ValueError("field grid does not match plan input grid")
    return _direct_apply(f, plan, -1, 1.0)


def _kernel_matrices(A: OffsetParams, t, u, transposed: bool):
    """Cos/sin parts of the kernel on a (u, t) mesh (or (t, u) if transposed)."""
    if A.b <= 0.0:
        raise ValueError(f"main-branch kernels require b > 0, got {A.b}")
    if transposed:
        tt, uu = t[:, None], u[None, :]
    else:
        tt, uu = t[None, :], u[:, None]
    theta = (A.a * tt * tt - 2.0 * tt * (uu - A.tau)
             - 2.0 * uu * (A.d * A.tau - A.b * A.eta)
             + A.d * (uu * uu + A.tau * A.tau)) / (2.0 * A.b) - math.pi / 4.0
    r = 1.0 / math.sqrt(2.0 * math.pi * A.b)
    return r * np.cos(theta), r * np.sin(theta)


def _axis_parts(A: OffsetParams, t, u, h: float, transposed: bool):
    """Cos/sin parts of one axis of the forward on a (u, t) mesh (or (t, u)
    if transposed): the kernel for b > 0; for b = 0 the selection
    t = d (u - tau) times sqrt(d) e^{i(c d (u - tau)^2/2 + u eta)}, over the
    spacing h that ``_contract`` weighs the axis by.  The substitution must
    hit a sample within the plan's allowance, 1e-9 h beyond the rounding of
    coordinates as large as u and tau."""
    if A.b > 0.0:
        return _kernel_matrices(A, t, u, transposed)
    sub = A.d * (u - A.tau)
    hit = np.abs(sub[:, None] - t[None, :]).argmin(axis=1)  # the nearest sample
    tol = 1e-9 * h + 4.0 * np.finfo(float).eps * A.d * (np.abs(u).max() + abs(A.tau))
    if np.abs(t[hit] - sub).max() > tol:
        raise ValueError("the substitution t = d (u - tau) misses a sample")
    phase = A.c * A.d * (u - A.tau) ** 2 / 2.0 + u * A.eta
    parts = []
    for value in (np.cos(phase), np.sin(phase)):
        m = np.zeros((u.size, t.size))
        m[np.arange(u.size), hit] = math.sqrt(A.d) * value / h
        parts.append(m.T if transposed else m)
    return parts


def qolct_direct(f: QField, plan: QolctPlan) -> QField:
    """Brute-force kernel quadrature of every valid plan, b = 0 axes
    included; the reference oracle for qolct_forward."""
    if f.grid != plan.input_grid:
        raise ValueError("field grid does not match plan input grid")
    g, og = f.grid, plan.output_grid
    left = _axis_parts(plan.A1, g.axis_coords(1), og.axis_coords(1), g.spacing1,
                       transposed=False)
    cos2, sin2 = _axis_parts(plan.A2, g.axis_coords(2), og.axis_coords(2),
                             g.spacing2, transposed=True)
    if _mutation.active("right-kernel-sign"):
        sin2 = -sin2
    return _contract(f, plan.lam, plan.mu, og, left, (cos2, sin2), 1.0)


def _qlct_reference(f: QField, A1: OffsetParams, A2: OffsetParams,
                    ugrid: Grid2D) -> np.ndarray:
    """Independently coded QLCT kernel quadrature (tau = eta = 0 form).  It
    hands ``_contract`` its axes and grid itself: a ``QftPlan`` would refuse
    ``ugrid``, which need not pass the QFT Nyquist check."""
    t1 = f.grid.axis_coords(1)
    t2 = f.grid.axis_coords(2)
    u1 = ugrid.axis_coords(1)
    u2 = ugrid.axis_coords(2)
    th1 = ((A1.a * t1[None, :] ** 2 - 2 * t1[None, :] * u1[:, None]
            + A1.d * u1[:, None] ** 2) / (2 * A1.b) - math.pi / 4)
    th2 = ((A2.a * t2[:, None] ** 2 - 2 * t2[:, None] * u2[None, :]
            + A2.d * u2[None, :] ** 2) / (2 * A2.b) - math.pi / 4)
    k1 = np.exp(1j * th1) / math.sqrt(2 * math.pi * A1.b)
    k2 = np.exp(1j * th2) / math.sqrt(2 * math.pi * A2.b)
    return _contract(f, UNIT_I, UNIT_J, ugrid, (k1.real, k1.imag),
                     (k2.real, k2.imag), 1.0).samples


def _chirp_phase(A: OffsetParams, t):
    """Phase (tau t + a t^2/2)/b of one axis's input chirp."""
    return (A.tau * t + A.a * t * t / 2.0) / A.b


def norm_field(q: ComponentQuartet) -> np.ndarray:
    """Pointwise quartet norm sqrt(sum_m |q_m|_Q^2) as a 2D array."""
    acc = np.zeros((q.grid.n1, q.grid.n2))
    for m in q.members:
        acc += np.sum(m.samples * m.samples, axis=-1)
    return np.sqrt(acc)


def analysis_quartet(f: QField, plan: QolctPlan) -> ComponentQuartet:
    """Quartet of the chirp-multiplied signal by dense quadrature: members
    C1 * F{g_k} * C2 for the real components g_k of g = chirp1 * f * chirp2,
    each the kernel sum with the input chirps divided out of the kernel.

    Its pointwise norm (:func:`norm_field`) equals the component norm of
    the reduced QFT input (the two quartets are related by a constant
    orthogonal mixing), which is the norm the spread, moment and weighted
    inequalities are stated in;
    ``olct.analysis`` reads its squared norm field off the forward transform,
    as the density every uncertainty report reads.
    For unchirped signals along an axis (a = tau = 0) it coincides with
    :func:`olct.qolct_quartet` along that axis's contribution.
    """
    if f.grid != plan.input_grid:
        raise ValueError("field grid does not match plan input grid")
    t1, t2 = f.grid.axis_coords(1), f.grid.axis_coords(2)
    u1, u2 = plan.output_grid.axis_coords(1), plan.output_grid.axis_coords(2)
    kernels = []  # first, as the kernels refuse b <= 0 before a chirp divides by b
    for A, t, u, transposed in ((plan.A1, t1, u1, False), (plan.A2, t2, u2, True)):
        cosm, sinm = _kernel_matrices(A, t, u, transposed)
        phase = _chirp_phase(A, t).reshape((-1, 1) if transposed else (1, -1))
        kernels.append((cosm * np.cos(phase) + sinm * np.sin(phase),
                        sinm * np.cos(phase) - cosm * np.sin(phase)))
    left = plane_to_quat(np.exp(1j * _chirp_phase(plan.A1, t1)), plan.lam)
    right = plane_to_quat(np.exp(1j * _chirp_phase(plan.A2, t2)), plan.mu)
    g = qmul(qmul(left[:, None], f.samples), right[None])
    return ComponentQuartet.of(QField(f.grid, g), lambda gm: _contract(
        gm, plan.lam, plan.mu, plan.output_grid, *kernels, 1.0))
