"""Oracles: other routes to the numbers the transforms produce.

Dense quadratures evaluate the kernel sums sample by sample: ``qft_direct``
for the QFT, ``qolct_direct`` and ``kernel`` for the QOLCT, ``kernel_sum``
for plans with b = 0 axes, and ``_qlct_reference``, an independently coded
QLCT quadrature.  ``analysis_quartet`` is the dense quadrature of the chirped
signal's four real components, with its own chirps and the chirp phase
divided out of the kernel: the long way to the energy density, sharing no
code with the engine or the planes split; ``norm_field`` is a quartet's
pointwise norm, and ``plane_to_quat`` embeds complex values x + iy as
x + axis*y.  ``digamma`` is a series, the other route to the logarithmic
constant.  No production module imports this one.

Analytic ground truth for Gaussian signals: the transform of beta * exp(-(alpha1 t1^2 + alpha2 t2^2)) factors per axis
into a real envelope, a plane square-root constant and a quadratic phase.
Every axis factor lives in the plane spanned by {1, axis}, so ordinary
complex branch rules apply; the square roots use the principal branch with
argument in (-pi, pi], which is consistent with 1/sqrt(axis) =
exp(-axis*pi/4).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _mutation
from .field import ComponentQuartet, Grid2D, QField
from .olct import OffsetParams, QolctPlan, _require_positive_b
from .qft import QftPlan
from .quat import UNIT_I, UNIT_J, PureUnit, qmul, qnorm


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


def gaussian_integral_complex_offset(z, zprime,
                                     lam: PureUnit | None = None) -> np.ndarray:
    """The offset Gaussian integral: integral of exp(-z (t + z')^2) dt.

    Equals sqrt(pi/z) for Sc(z) > 0 regardless of the same-plane offset z'.
    Both (4,) arguments must lie in span{1, lam} for one pure unit lam; the
    axis is inferred from whichever argument has a vector part if not given.
    """
    z, zprime = np.asarray(z, dtype=float), np.asarray(zprime, dtype=float)
    if lam is None:
        for cand in (z, zprime):
            v = cand[1:]
            if float(v @ v) > 0.0:
                lam = PureUnit(float(v[0]), float(v[1]), float(v[2]))
                break
        else:
            lam = PureUnit(1.0, 0.0, 0.0)  # both real: plane is immaterial
    axis = lam.array[1:]
    for arg in (z, zprime):
        if float(np.abs(np.cross(arg[1:], axis)).max()) > 1e-13 * max(float(qnorm(arg)), 1.0):
            raise ValueError("arguments must lie in one common axis plane")
    if z[0] <= 0.0:
        raise ValueError("requires Sc(z) > 0 for convergence")
    zc = complex(z[0], float(z[1:] @ axis))
    return plane_to_quat(np.asarray(cmath.sqrt(math.pi / zc)), lam)


def _axis_factor(alpha: float, A: OffsetParams, u, root_variant: str):
    """Complex-plane factor of one axis of the Gaussian transform.

    Returns (envelope, plane) where the axis contribution is
    envelope(u) * (plane embedded along the axis).  ``root_variant``
    selects the square-root constant: "derivation" uses
    (a + 2 b alpha * axis)^(-1/2); "display" is the all-imaginary variant
    ((2 b alpha + a) * axis)^(-1/2), kept only so the arbitration test can
    show the quadrature rejects it.
    """
    if A.b <= 0.0:
        raise ValueError("closed form requires b > 0")
    denom = 4.0 * alpha ** 2 * A.b ** 2 + A.a ** 2
    envelope = np.exp(-alpha * (u - A.tau) ** 2 / denom)
    if root_variant == "derivation":
        root = 1.0 / cmath.sqrt(complex(A.a, 2.0 * A.b * alpha))
    elif root_variant == "display":
        root = 1.0 / cmath.sqrt(complex(0.0, 2.0 * A.b * alpha + A.a))
    else:
        raise ValueError("root_variant must be 'derivation' or 'display'")
    phase = (-2.0 * u * (A.d * A.tau - A.b * A.eta)
             + A.d * (u ** 2 + A.tau ** 2)
             - A.a * (u - A.tau) ** 2 / denom) / (2.0 * A.b)
    return envelope, root * np.exp(1j * phase)


def gaussian_qolct_closed_form(spec: GaussianSpec, A1: OffsetParams,
                               A2: OffsetParams, lam: PureUnit, mu: PureUnit,
                               u, root_variant: str = "derivation") -> np.ndarray:
    """Closed-form transform of the Gaussian at one output point u = (u1, u2)."""
    u1, u2 = float(u[0]), float(u[1])
    env1, z1 = _axis_factor(spec.alpha1, A1, np.asarray(u1), root_variant)
    env2, z2 = _axis_factor(spec.alpha2, A2, np.asarray(u2), root_variant)
    beta1 = complex(spec.beta11, spec.beta12)
    beta2 = complex(spec.beta21, spec.beta22)
    left = plane_to_quat(np.asarray(beta1 * complex(z1)), lam)
    right = plane_to_quat(np.asarray(complex(z2) * beta2), mu)
    return qmul(left, right) * float(env1 * env2)


def gaussian_qolct_closed_form_field(spec: GaussianSpec, A1: OffsetParams,
                                     A2: OffsetParams, lam: PureUnit,
                                     mu: PureUnit, grid: Grid2D,
                                     root_variant: str = "derivation") -> QField:
    """Closed form evaluated on a whole output grid."""
    u1 = grid.axis_coords(1)
    u2 = grid.axis_coords(2)
    env1, z1 = _axis_factor(spec.alpha1, A1, u1, root_variant)
    env2, z2 = _axis_factor(spec.alpha2, A2, u2, root_variant)
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

#: rows of kernel matrix materialized at once in dense contractions
_CONTRACT_BLOCK = 1024


def _left_contract(cosm, sinm, lam, samples, weight):
    """sum_p (cos + lam*sin)[q, p] * samples[p, ...] * weight."""
    lam_f = qmul(lam.array, samples)
    out = np.tensordot(cosm, samples, axes=(1, 0))
    out += np.tensordot(sinm, lam_f, axes=(1, 0))
    return out * weight


def _right_contract(samples, cosm, sinm, mu, weight):
    """sum_p samples[:, p, :] * (cos + mu*sin)[p, q] * weight."""
    f_mu = qmul(samples, mu.array)
    out = np.tensordot(samples, cosm, axes=(1, 0))
    out += np.tensordot(f_mu, sinm, axes=(1, 0))
    return np.moveaxis(out, -1, 1) * weight


def _contract(f: QField, plan, left, right, scale: float) -> QField:
    """sum_t (cos1 + lam sin1)[u1, t1] f(t) (cos2 + mu sin2)[t2, u2] dt * scale
    on the plan's axes and output grid, by blocks of output rows: ``left(u, t1)``
    builds the (cos1, sin1) rows of a block u of u1; ``right`` is (cos2, sin2)."""
    ugrid = plan.output_grid
    t1, u1 = f.grid.axis_coords(1), ugrid.axis_coords(1)
    out = np.empty((ugrid.n1, ugrid.n2, 4))
    for lo in range(0, ugrid.n1, _CONTRACT_BLOCK):
        g = _left_contract(*left(u1[lo:lo + _CONTRACT_BLOCK], t1), plan.lam,
                           f.samples, f.grid.spacing1)
        out[lo:lo + _CONTRACT_BLOCK] = _right_contract(g, *right, plan.mu,
                                                       f.grid.spacing2 * scale)
    return QField(ugrid, out)


def _direct_apply(f: QField, plan: QftPlan, sign: int, scale: float) -> QField:
    def kernel_parts(u, t):  # cos and sin of sign * u t
        th = sign * np.outer(u, t)
        return np.cos(th), np.sin(th)

    right = kernel_parts(f.grid.axis_coords(2), plan.output_grid.axis_coords(2))
    return _contract(f, plan, kernel_parts, right, scale)


def qft_direct(f: QField, plan: QftPlan) -> QField:
    """Reference O(N^3) quadrature of the forward transform."""
    if f.grid != plan.input_grid:
        raise ValueError("field grid does not match plan input grid")
    return _direct_apply(f, plan, -1, 1.0)


def kernel(A: OffsetParams, lam: PureUnit, t: float, u: float) -> np.ndarray:
    """Evaluate the transform kernel K_A(t, u) on axis ``lam``."""
    if A.b <= 0.0:
        raise ValueError(f"kernel: main-branch transforms require b > 0, got {A.b}")
    theta = (A.a * t * t - 2.0 * t * (u - A.tau)
             - 2.0 * u * (A.d * A.tau - A.b * A.eta)
             + A.d * (u * u + A.tau * A.tau)) / (2.0 * A.b)
    z = np.exp(1j * (theta - math.pi / 4.0)) / math.sqrt(2.0 * math.pi * A.b)
    return plane_to_quat(z, lam)


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
    _require_positive_b(plan.A1, plan.A2)
    if f.grid != plan.input_grid:
        raise ValueError("field grid does not match plan input grid")
    cos2, sin2 = _kernel_matrices(plan.A2, f.grid.axis_coords(2),
                                  plan.output_grid.axis_coords(2), transposed=True)
    if _mutation.active("right-kernel-sign"):
        sin2 = -sin2
    return _contract(f, plan, lambda u, t: _kernel_matrices(plan.A1, t, u, transposed=False),
                     (cos2, sin2), 1.0)


def _axis_matrix(A: OffsetParams, unit: PureUnit, t, u) -> np.ndarray:
    """(n_u, n_t, 4) quaternion matrix of one axis of the forward transform:
    the kernel times the spacing for b > 0, else the substitution
    t = d (u - tau), which must hit a sample, times
    sqrt(d) e^{i(c d (u - tau)^2/2 + u eta)}."""
    h = t[1] - t[0]
    if A.b > 0.0:
        return np.array([[kernel(A, unit, tp, uq) for tp in t]
                         for uq in u]) * h
    sub = A.d * (u - A.tau)
    hit = np.rint((sub - t[0]) / h).astype(int)
    if (hit.min() < 0 or hit.max() >= t.size
            or np.abs(t[hit] - sub).max() > 1e-12):
        raise ValueError("the substitution t = d (u - tau) misses a sample")
    op = np.zeros((u.size, t.size, 4))
    op[np.arange(u.size), hit] = math.sqrt(A.d) * plane_to_quat(
        np.exp(1j * (A.c * A.d * (u - A.tau) ** 2 / 2.0 + u * A.eta)), unit)
    return op


def kernel_sum(f: QField, plan: QolctPlan) -> np.ndarray:
    """The forward transform's samples as a per-sample kernel sum, left axis
    matrix times f times right axis matrix, for b > 0 and b = 0 axes alike."""
    left, right = (_axis_matrix(A, unit, f.grid.axis_coords(k),
                                plan.output_grid.axis_coords(k))
                   for k, A, unit in ((1, plan.A1, plan.lam), (2, plan.A2, plan.mu)))
    mid = qmul(left[:, :, None, :], f.samples[None]).sum(axis=1)
    return qmul(mid[:, :, None, :], np.swapaxes(right, 0, 1)[None]).sum(axis=1)


def _qlct_reference(f: QField, A1: OffsetParams, A2: OffsetParams,
                    ugrid: Grid2D) -> np.ndarray:
    """Independently coded QLCT kernel quadrature (tau = eta = 0 form)."""
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
    left = plane_to_quat(k1, UNIT_I)      # (n_u1, n_t1, 4)
    right = plane_to_quat(k2, UNIT_J)     # (n_t2, n_u2, 4)
    acc = np.zeros((u1.size, u2.size, 4))
    for q1 in range(u1.size):
        mid = qmul(left[q1][:, None, :], f.samples)        # (n_t1, n_t2, 4)
        for q2 in range(u2.size):
            term = qmul(mid, right[:, q2][None, :, :])
            acc[q1, q2] = term.sum(axis=(0, 1))
    return acc * f.grid.cell_area


# B_{2n}/(2n) for the asymptotic digamma tail
_DIGAMMA_TAIL = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0,
                 1.0 / 132.0, -691.0 / 32760.0, 1.0 / 12.0)


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) by recurrence into the asymptotic regime."""
    if x <= 0.0:
        raise ValueError("digamma requires x > 0")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    power = inv2
    for coef in _DIGAMMA_TAIL:
        tail += coef * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x - tail


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
    _require_positive_b(plan.A1, plan.A2)
    if f.grid != plan.input_grid:
        raise ValueError("field grid does not match plan input grid")
    t1, t2 = f.grid.axis_coords(1), f.grid.axis_coords(2)
    u1, u2 = plan.output_grid.axis_coords(1), plan.output_grid.axis_coords(2)
    left = plane_to_quat(np.exp(1j * _chirp_phase(plan.A1, t1)), plan.lam)
    right = plane_to_quat(np.exp(1j * _chirp_phase(plan.A2, t2)), plan.mu)
    g = qmul(qmul(left[:, None], f.samples), right[None])
    kernels = []
    for A, t, u, transposed in ((plan.A1, t1, u1, False), (plan.A2, t2, u2, True)):
        cosm, sinm = _kernel_matrices(A, t, u, transposed)
        phase = _chirp_phase(A, t).reshape((-1, 1) if transposed else (1, -1))
        kernels.append((cosm * np.cos(phase) + sinm * np.sin(phase),
                        sinm * np.cos(phase) - cosm * np.sin(phase)))
    members = []
    for m in range(4):
        gm = np.zeros_like(g)
        gm[..., 0] = g[..., m]
        mid = _left_contract(*kernels[0], plan.lam, gm, f.grid.spacing1)
        members.append(QField(plan.output_grid, _right_contract(
            mid, *kernels[1], plan.mu, f.grid.spacing2)))
    return ComponentQuartet(tuple(members))
