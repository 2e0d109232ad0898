"""Sampled quaternion signals on cell-centered grids, quadrature, and synthesis.

Grids are cell-centered: with n samples of spacing h around ``center``, the
coordinates are ``center + (p - (n-1)/2) * h``.  For even n no sample sits at
the center, which keeps ln|t| and |t|^(-alpha) weights finite everywhere.
All reductions go through numpy's pairwise summation, so results are
deterministic run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _mutation
from .quat import PureUnit, _read_only, qmul, qnorm


class PlanViolationError(ValueError):
    """A numerical precondition fails, such as a plan's resolution bound."""


@dataclass(frozen=True)
class Grid2D:
    n1: int
    n2: int
    center1: float
    center2: float
    spacing1: float
    spacing2: float

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("sample counts must be positive")
        for name in ("center1", "center2", "spacing1", "spacing2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} = {getattr(self, name)!r} is not finite")
        if self.spacing1 <= 0.0 or self.spacing2 <= 0.0:
            raise ValueError("grid spacings must be positive")

    @classmethod
    def centered(cls, n: int, extent: float, center=(0.0, 0.0)) -> "Grid2D":
        """Square n x n grid of total width ``extent`` on each axis."""
        if n < 1:
            raise ValueError("sample counts must be positive")
        h = extent / n
        return cls(n, n, center[0], center[1], h, h)

    def axis_coords(self, axis: int) -> np.ndarray:
        if axis == 1:
            n, c, h = self.n1, self.center1, self.spacing1
        elif axis == 2:
            n, c, h = self.n2, self.center2, self.spacing2
        else:
            raise ValueError("axis must be 1 or 2")
        return c + (np.arange(n) - (n - 1) / 2.0) * h

    def radius(self) -> np.ndarray:
        """|x| at every sample, shape (n1, n2).  Centered coordinates negate
        exactly, so mirrored samples share one radius."""
        x1, x2 = self.axis_coords(1), self.axis_coords(2)
        return np.sqrt(x1[:, None] ** 2 + x2[None, :] ** 2)

    @property
    def extent1(self) -> float:
        return self.n1 * self.spacing1

    @property
    def extent2(self) -> float:
        return self.n2 * self.spacing2

    @property
    def cell_area(self) -> float:
        return self.spacing1 * self.spacing2


@dataclass(frozen=True)
class QField:
    """Quaternion-valued samples on a :class:`Grid2D`.

    ``samples`` has shape (n1, n2, 4), component order (scalar, i, j, k).
    The array is frozen after construction; derive new fields instead of
    mutating.  A writeable array, a view or a non-float64 array is copied; a
    read-only float64 array that owns its data (as the engine returns) is
    kept without a copy, and whoever made it must leave it read-only.
    """

    grid: Grid2D
    samples: np.ndarray

    def __post_init__(self):
        samples = self.samples
        if not (type(samples) is np.ndarray and samples.dtype == np.float64
                and samples.flags.owndata and not samples.flags.writeable):
            samples = np.array(samples, dtype=float)  # own copy, then freeze
        if samples.shape != (self.grid.n1, self.grid.n2, 4):
            raise ValueError(
                f"samples shape {samples.shape} does not match grid "
                f"({self.grid.n1}, {self.grid.n2}, 4)")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    def modulus(self) -> np.ndarray:
        """Pointwise |f(t)|_Q."""
        return qnorm(self.samples)


@dataclass(frozen=True)
class ComponentQuartet:
    """The four transforms of a signal's real components, on one grid."""

    members: tuple

    def __post_init__(self):
        if len(self.members) != 4:
            raise ValueError("quartet needs exactly four fields")
        g = self.members[0].grid
        for m in self.members[1:]:
            if m.grid != g:
                raise ValueError("quartet members must share one grid")

    @classmethod
    def of(cls, f: QField, transform) -> "ComponentQuartet":
        """Member m is ``transform`` of the real component f_m of f, embedded
        as the scalar part of a field on f's grid."""
        members = []
        for m in range(4):
            embedded = np.zeros_like(f.samples)
            embedded[..., 0] = f.samples[..., m]
            members.append(transform(QField(f.grid, _read_only(embedded))))  # QField keeps it
        return cls(tuple(members))

    @property
    def grid(self) -> Grid2D:
        return self.members[0].grid


def _cell_sum(values: np.ndarray, cell: float) -> float:
    """sum(values) * cell.  The cell's power of two scales each term before
    the sum, exactly, so only a result past the largest float overflows."""
    exponent = math.frexp(cell)[1] - 1  # cell / 2^exponent lies in [1, 2)
    return float(np.sum(np.ldexp(values, exponent))) * math.ldexp(cell, -exponent)


def l2_norm(f: QField) -> float:
    """sqrt(integral of |f(t)|_Q^2)."""
    return math.sqrt(_cell_sum(f.samples * f.samples, f.grid.cell_area))


def synth_gaussian(grid: Grid2D, alpha1: float, alpha2: float,
                   beta1_pair=(1.0, 0.0), beta2_pair=(1.0, 0.0),
                   lam: PureUnit | None = None, mu: PureUnit | None = None,
                   center=(0.0, 0.0)) -> QField:
    """Sample beta * exp(-(alpha1 t1^2 + alpha2 t2^2)) on the grid.

    ``beta = (b11 + lam*b12) * (b21 + mu*b22)``; the axis arguments are only
    required when the corresponding imaginary weight is nonzero.  ``center``
    shifts the Gaussian peak (the grid itself is unchanged).
    """
    if alpha1 <= 0.0 or alpha2 <= 0.0:
        raise ValueError("gaussian widths alpha1, alpha2 must be positive")
    b11, b12 = beta1_pair
    b21, b22 = beta2_pair
    beta1 = np.array([b11, 0.0, 0.0, 0.0])
    if b12 != 0.0:
        if lam is None:
            raise ValueError("beta1 has an imaginary part; pass lam")
        beta1 = beta1 + b12 * lam.array
    beta2 = np.array([b21, 0.0, 0.0, 0.0])
    if b22 != 0.0:
        if mu is None:
            raise ValueError("beta2 has an imaginary part; pass mu")
        beta2 = beta2 + b22 * mu.array

    # -(alpha1 (t1 - c1)^2 + alpha2 (t2 - c2)^2) from the two axis terms: the
    # same operations per sample as on a meshgrid, negated exactly
    with np.errstate(over="ignore"):  # an overflowing exponent is rejected below
        term1 = alpha1 * (grid.axis_coords(1) - center[0]) ** 2
        term2 = alpha2 * (grid.axis_coords(2) - center[1]) ** 2
        largest = term1.max() + term2.max()
        envelope = np.add.outer(-term1, -term2)
    np.exp(envelope, out=envelope)
    # the exponent peaks where both terms peak; the envelope where both are least
    if not (math.isfinite(largest) and envelope[term1.argmin(), term2.argmin()] > 0.0):
        raise PlanViolationError(
            "the gaussian's exponent overflows the largest float, or its "
            "envelope underflows to 0 at every sample of the grid")
    samples = envelope[..., None] * qmul(beta1, beta2)
    return QField(grid, _read_only(samples))  # owned and read-only: QField keeps it


def apply_chirp(f: QField, lam: PureUnit, lin1: float, quad1: float,
                mu: PureUnit, lin2: float, quad2: float) -> QField:
    """exp(lam*(lin1 t1 + quad1 t1^2)) * f * exp(mu*(lin2 t2 + quad2 t2^2)).

    The left factor acts from the left, the right one from the right (the order
    is load-bearing): one pass of the planes engine, transforming no axis.
    """
    from .qft import _planes_ft  # qft imports this module
    t1, t2 = f.grid.axis_coords(1), f.grid.axis_coords(2)
    return QField(f.grid, _planes_ft(f.samples, f.grid, f.grid, lam, mu, (
        (0, np.exp(1j * (lin1 * t1 + quad1 * t1 ** 2)), None),
        (0, np.exp(1j * (lin2 * t2 + quad2 * t2 ** 2)), None))))


#: quaternions in the one scratch block a row walk reuses: 256 KiB of float64
_ROW_BLOCK = 8192


def _row_blocks(lo: int, hi: int, n2: int):
    """Yield (rows, block) over rows [lo, hi) of an (n1, n2, 4) float64 array,
    max(1, _ROW_BLOCK // n2) rows at a time, in one reused scratch block."""
    step = max(1, _ROW_BLOCK // n2)
    scratch = np.empty((min(step, hi - lo), n2, 4))
    for r in range(lo, hi, step):
        yield slice(r, min(r + step, hi)), scratch[:min(step, hi - r)]


_EDGE_STENCILS = np.array([
    [-25.0, 48.0, -36.0, 16.0, -3.0],   # at the boundary sample
    [-3.0, -10.0, 18.0, -6.0, 1.0],     # one sample in
]) / 12.0


def partial_derivative(f: QField, axis: int) -> QField:
    """4th-order finite-difference d/dt_axis; one-sided stencils at edges.  The
    interior, (f[p-2] - 8 f[p-1] + 8 f[p+1] - f[p+2]) / 12 / h in that order of
    operations, runs over blocks of rows (see :func:`_row_blocks`)."""
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    g, x = f.grid, f.samples
    n, h = (g.n1, g.spacing1) if axis == 1 else (g.n2, g.spacing2)
    if n < 5:
        raise PlanViolationError(f"axis {axis} needs >= 5 samples, has {n}")
    out = np.empty_like(x)
    first, last = (2, n - 2) if axis == 1 else (0, g.n1)  # the rows blocks cover
    for rows, s in _row_blocks(first, last, g.n2):
        o, d0, d1, d3, d4 = (a[rows.start + k:rows.stop + k] if axis == 1
                             else a[rows, 2 + k:n - 2 + k]
                             for a, k in ((out, 0), (x, -2), (x, -1), (x, 1), (x, 2)))
        s = s[:, :o.shape[1]]
        np.subtract(d0, np.multiply(d1, 8.0, out=s), out=o)
        o += np.multiply(d3, 8.0, out=s)
        o -= d3 if _mutation.active("stencil") else d4
        o /= 12.0
    data, res = (x, out) if axis == 1 else (np.swapaxes(x, 0, 1), np.swapaxes(out, 0, 1))
    for row, stencil in enumerate(_EDGE_STENCILS):
        res[row] = np.tensordot(stencil, data[:5], axes=(0, 0))
        res[n - 1 - row] = -np.tensordot(stencil, data[n - 5:][::-1], axes=(0, 0))
    out /= h
    return QField(f.grid, _read_only(out))  # owned and read-only: QField keeps it
