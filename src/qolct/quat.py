"""Quaternion arrays: the Hamilton product, the pointwise modulus and the
basis of the orthogonal planes split that ``qft._planes_ft`` runs.

A quaternion is a numpy array of shape (4,) with component order (scalar,
i, j, k), and a sampled signal a stack of them, shape ``(..., 4)``; the
``q*``-prefixed functions broadcast over the leading axes like ordinary
numpy ufuncs.  :class:`PureUnit` is the one quaternion type: an axis,
checked to be a nonzero direction and normalized.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


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


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: whoever holds it shares it."""
    a.setflags(write=False)
    return a


def qnorm(a) -> np.ndarray:
    """Pointwise quaternion modulus |q|_Q of a component stack: the squares
    summed component by component, as ``np.sum`` over the last axis sums them.
    Rows whose squares under- or overflow take ``hypot``; zero rows stay 0."""
    a = np.asarray(a, dtype=float)
    rows = a.reshape(-1, 4)
    with np.errstate(over="ignore"):  # rows that overflow are redone below
        norm, square = np.square(rows[:, 0]), np.empty(len(rows))
        for m in (1, 2, 3):
            norm += np.square(rows[:, m], out=square)
    np.sqrt(norm, out=norm)
    far = np.flatnonzero(~((norm > 1e-150) & (norm < 1e150)))  # squares left [1e-300, 1e300]
    if far.size:
        b = np.take(rows, far, axis=0)
        live = np.logical_or(*(b.view(complex) != 0).T)  # (scalar, i) or (j, k) nonzero
        b, far = b[live], far[live]
        norm[far] = np.hypot(np.hypot(b[:, 0], b[:, 1]), np.hypot(b[:, 2], b[:, 3]))
    return norm.reshape(a.shape[:-1])


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

@functools.lru_cache(maxsize=8)
def plane_basis(lam: PureUnit, mu: PureUnit) -> np.ndarray:
    """Orthogonal 4x4 map with columns p+, lam p+, p-, lam p-, kept read-only
    for the last 8 axis pairs: ``samples @ basis`` is (Re z+, Im z+, Re z-,
    Im z-) and ``coefs @ basis.T`` maps back."""
    eye = np.eye(4)
    swapped = qmul(qmul(lam.array, eye), mu.array)  # row e holds lam e mu
    columns = []
    for s in (1.0, -1.0):
        proj = 0.5 * (eye + s * swapped)
        p = proj[np.argmax(qnorm(proj))]
        p = p / qnorm(p)
        columns += [p, qmul(lam.array, p)]
    return _read_only(np.stack(columns, axis=1))

