"""Quaternion algebra: Hamilton products, polar form, axis exponentials.

A quaternion is a numpy array of shape (4,) with component order (scalar,
i, j, k), and a sampled signal a stack of them, shape ``(..., 4)``; the
``q*``-prefixed functions broadcast over the leading axes like ordinary
numpy ufuncs.  :class:`PureUnit` is the one quaternion type: an axis,
checked to be a nonzero direction and normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _mutation


class DegenerateAxisError(ValueError):
    """Polar decomposition of a real quaternion has no canonical axis."""


@dataclass(frozen=True)
class PureUnit:
    """A pure unit quaternion axis: zero scalar part, unit norm, squares to -1.

    The constructor normalizes the supplied vector part, so callers may pass
    any nonzero direction.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        v = (self.x, self.y, self.z)
        if not (all(map(math.isfinite, v)) and any(v)):
            raise ValueError("pure unit axis requires a nonzero finite vector part")
        # an exact power-of-two scale keeps the squares from over- or underflowing
        e = math.frexp(max(map(abs, v)))[1]
        v = [math.ldexp(c, -e) for c in v]
        n = math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
        for name, c in zip("xyz", v):
            object.__setattr__(self, name, c / n)

    @property
    def array(self) -> np.ndarray:
        return np.array([0.0, self.x, self.y, self.z])


UNIT_I = PureUnit(1.0, 0.0, 0.0)
UNIT_J = PureUnit(0.0, 1.0, 0.0)
UNIT_K = PureUnit(0.0, 0.0, 1.0)


def polar(q, fallback_axis: PureUnit | None = None):
    """Decompose a (4,) quaternion q = magnitude * (cos(angle) + axis*sin(angle)).

    Returns ``(magnitude, axis, angle)`` with ``angle`` in [0, pi].  When the
    vector part vanishes (q real) there is no canonical axis; the caller must
    supply ``fallback_axis`` or a :class:`DegenerateAxisError` is raised.
    """
    q0, q1, q2, q3 = (float(v) for v in q)
    vec = np.array([q1, q2, q3])
    vnorm = math.sqrt(float(vec @ vec))
    mag = math.sqrt(q0 ** 2 + q1 ** 2 + q2 ** 2 + q3 ** 2)
    angle = math.atan2(vnorm, q0)
    if vnorm <= 1e-300:
        if fallback_axis is None:
            raise DegenerateAxisError(
                "quaternion has (numerically) zero vector part; pass fallback_axis")
        return mag, fallback_axis, angle
    return mag, PureUnit(q1, q2, q3), angle


def axis_exp(axis: PureUnit, theta: float) -> np.ndarray:
    """exp(axis*theta) = cos(theta) + axis*sin(theta); always unit norm."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([c, s * axis.x, s * axis.y, s * axis.z])


def inv_sqrt_unit(axis: PureUnit) -> np.ndarray:
    """The reciprocal square root exp(-axis*pi/4) = (sqrt(2)/2)(1 - axis)."""
    return axis_exp(axis, -math.pi / 4.0)


def qinv(q) -> np.ndarray:
    """conj(q)/|q|^2 of a (4,) quaternion; zero has no inverse."""
    q0, q1, q2, q3 = (float(v) for v in q)
    n2 = q0 ** 2 + q1 ** 2 + q2 ** 2 + q3 ** 2
    if n2 == 0.0:
        raise ZeroDivisionError("zero quaternion has no inverse")
    return np.array([q0 / n2, -q1 / n2, -q2 / n2, -q3 / n2])


# ---------------------------------------------------------------------------
# Array operations on (..., 4) component stacks.

def qmul(a, b) -> np.ndarray:
    """Hamilton product of component arrays, broadcasting over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=float)
    out[..., 0] = a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
    out[..., 1] = a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2
    out[..., 2] = a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1
    out[..., 3] = a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0
    return out


def qconj(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    out = a.copy()
    out[..., 1:] *= -1.0
    return out


def qnorm(a) -> np.ndarray:
    """Pointwise quaternion modulus |q|_Q of a component stack; rows whose
    squares under- or overflow take ``hypot``, which scales by the larger side."""
    a = np.asarray(a, dtype=float)
    rows = a.reshape(-1, 4)
    with np.errstate(over="ignore"):  # rows that overflow are redone below
        norm = np.sqrt(np.sum(rows * rows, axis=-1))
    far = ~((norm > 1e-150) & (norm < 1e150))  # the squares left [1e-300, 1e300]
    if far.any():
        b = rows[far]
        norm[far] = np.hypot(np.hypot(b[:, 0], b[:, 1]), np.hypot(b[:, 2], b[:, 3]))
    return norm.reshape(a.shape[:-1])


def plane_to_quat(z, axis: PureUnit) -> np.ndarray:
    """Embed complex values x + iy as quaternions x + axis*y."""
    z = np.asarray(z)
    out = np.zeros(z.shape + (4,), dtype=float)
    out[..., 0] = z.real
    out[..., 1] = axis.x * z.imag
    out[..., 2] = axis.y * z.imag
    out[..., 3] = axis.z * z.imag
    return out


# ---------------------------------------------------------------------------
# The orthogonal planes split of a two-sided product.
#
# For pure units lam, mu the map q -> lam q mu is an orthogonal involution, so
# f+- = (f +- lam f mu)/2 split f into two orthogonal planes (Hitzer &
# Sangwine, arXiv:1306.2157).  On the + plane f+ mu = -lam f+, so a right-hand
# mu-factor crosses to the left as a *conjugated* lam-factor; on the - plane
# it crosses unconjugated.  With f+- = z+- p+-, z+- in C_lam = span{1, lam}
# and a fixed unit p+- in each plane, the two-sided product k1 f k2 becomes
# k1 conj(k2) z+ p+ + k1 k2 z- p-: two complex multiplies.  p+- is the
# normalized largest of the projections (e +- lam e mu)/2, e in {1, i, j, k}:
# their squared norms sum to 2, so the largest has norm >= 1/sqrt(2), whereas
# a fixed choice such as (1 + lam mu)/2 vanishes for mu = lam (and
# (1 - lam mu)/2 for mu = -lam).

def plane_basis(lam: PureUnit, mu: PureUnit) -> np.ndarray:
    """Orthogonal 4x4 map with columns p+, lam p+, p-, lam p-: ``samples @
    basis`` is (Re z+, Im z+, Re z-, Im z-) and ``coefs @ basis.T`` maps back."""
    eye = np.eye(4)
    swapped = qmul(qmul(lam.array, eye), mu.array)  # row e holds lam e mu
    columns = []
    for s in (1.0, -1.0):
        proj = 0.5 * (eye + s * swapped)
        p = proj[np.argmax(qnorm(proj))]
        p = p / qnorm(p)
        columns += [p, qmul(lam.array, p)]
    return np.stack(columns, axis=1)


def in_planes(samples, lam: PureUnit, mu: PureUnit, shape, per_plane) -> np.ndarray:
    """Map an (n1, n2, 4) stack, or a real (n1, n2) field as its scalar part,
    to planes z+, z-; ``per_plane(z_k, out_k, conj)`` fills slot out_k of the
    output planes on the (m1, m2) ``shape`` from the strided plane z_k, conj
    marking the + plane, where right-hand factors act conjugated; map back
    into a new read-only (m1, m2, 4) array."""
    basis = plane_basis(lam, mu)
    if samples.ndim == 2:
        coefs = samples[..., None] * basis[0]
    else:
        coefs = (samples.reshape(-1, 4) @ basis).reshape(samples.shape)
    z = coefs.view(complex)  # the output planes too, unless the grid changes
    out = z if z.shape[:2] == shape else np.empty(shape + (2,), dtype=complex)
    conj_plane = 1 if _mutation.active("planes-conj") else 0
    for k in (0, 1):
        per_plane(z[..., k], out[..., k], k == conj_plane)
    result = np.empty(shape + (4,))
    np.matmul(out.view(float).reshape(-1, 4), basis.T, out=result.reshape(-1, 4))
    result.setflags(write=False)
    return result


def sandwich(samples, lam: PureUnit, mu: PureUnit, left, right) -> np.ndarray:
    """left(x1) * samples * right(x2) for an (n1, n2, 4) stack (or a real
    (n1, n2) field) and complex per-axis factors embedded on lam (left) and
    mu (right), None standing for 1: two complex multiplies in the planes."""
    def per_plane(z, out, conj):
        np.multiply(z, 1.0 if left is None else left[:, None], out=out)
        if right is not None:
            out *= np.conj(right) if conj else right
    return in_planes(samples, lam, mu, samples.shape[:2], per_plane)
