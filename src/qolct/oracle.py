"""Analytic ground truth for Gaussian signals.

The transform of beta * exp(-(alpha1 t1^2 + alpha2 t2^2)) factors per axis
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

from .field import Grid2D, QField
from .olct import OffsetParams
from .quat import PureUnit, Quaternion, plane_to_quat, qmul


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


def gaussian_integral_complex_offset(z: Quaternion, zprime: Quaternion,
                                     lam: PureUnit | None = None) -> Quaternion:
    """The offset Gaussian integral: integral of exp(-z (t + z')^2) dt.

    Equals sqrt(pi/z) for Sc(z) > 0 regardless of the same-plane offset z'.
    Both arguments must lie in span{1, lam} for one pure unit lam; the axis
    is inferred from whichever argument has a vector part if not given.
    """
    if lam is None:
        for cand in (z, zprime):
            v = cand.vector
            if float(v @ v) > 0.0:
                lam = PureUnit(float(v[0]), float(v[1]), float(v[2]))
                break
        else:
            lam = PureUnit(1.0, 0.0, 0.0)  # both real: plane is immaterial
    for arg in (z, zprime):
        if float(np.abs(np.cross(arg.vector, np.array([lam.x, lam.y, lam.z]))).max()) > 1e-13 * max(arg.norm(), 1.0):
            raise ValueError("arguments must lie in one common axis plane")
    if z.scalar <= 0.0:
        raise ValueError("requires Sc(z) > 0 for convergence")
    zc = complex(z.scalar, float(z.vector @ np.array([lam.x, lam.y, lam.z])))
    w = cmath.sqrt(math.pi / zc)
    return Quaternion.from_array(plane_to_quat(np.asarray(w), lam))


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
                               u, root_variant: str = "derivation") -> Quaternion:
    """Closed-form transform of the Gaussian at one output point u = (u1, u2)."""
    u1, u2 = float(u[0]), float(u[1])
    env1, z1 = _axis_factor(spec.alpha1, A1, np.asarray(u1), root_variant)
    env2, z2 = _axis_factor(spec.alpha2, A2, np.asarray(u2), root_variant)
    beta1 = complex(spec.beta11, spec.beta12)
    beta2 = complex(spec.beta21, spec.beta22)
    left = plane_to_quat(np.asarray(beta1 * complex(z1)), lam)
    right = plane_to_quat(np.asarray(complex(z2) * beta2), mu)
    out = qmul(left, right) * float(env1 * env2)
    return Quaternion.from_array(out)


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
