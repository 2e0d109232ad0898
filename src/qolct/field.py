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

from .quat import PureUnit, qmul, qnorm, sandwich


class GridTooSmallError(ValueError):
    """Grid has too few samples along the requested axis."""


class PlanViolationError(ValueError):
    """A numerical precondition fails, such as a plan's resolution bound."""


@dataclass(frozen=True)
class Grid2D:
    n1: int
    n2: int
    center1: float = 0.0
    center2: float = 0.0
    spacing1: float = 1.0
    spacing2: float = 1.0

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

    def meshgrid(self):
        t1 = self.axis_coords(1)
        t2 = self.axis_coords(2)
        return np.meshgrid(t1, t2, indexing="ij")

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

    @classmethod
    def zeros(cls, grid: Grid2D) -> "QField":
        return cls(grid, np.zeros((grid.n1, grid.n2, 4)))

    @classmethod
    def from_real(cls, grid: Grid2D, values: np.ndarray) -> "QField":
        """Embed a real 2D array as the scalar component of a field."""
        samples = np.zeros((grid.n1, grid.n2, 4))
        samples[..., 0] = values
        return cls(grid, samples)

    def component(self, m: int) -> np.ndarray:
        return self.samples[..., m]

    def modulus(self) -> np.ndarray:
        """Pointwise |f(t)|_Q."""
        return qnorm(self.samples)

    def with_samples(self, samples: np.ndarray) -> "QField":
        return QField(self.grid, samples)


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

    @property
    def grid(self) -> Grid2D:
        return self.members[0].grid

    def norm_field(self) -> np.ndarray:
        """Pointwise quartet norm sqrt(sum_m |q_m|_Q^2) as a 2D array."""
        acc = np.zeros((self.grid.n1, self.grid.n2))
        for m in self.members:
            acc += np.sum(m.samples * m.samples, axis=-1)
        return np.sqrt(acc)


def _cell_sum(values: np.ndarray, cell: float) -> float:
    """sum(values) * cell.  The cell's power of two scales each term before
    the sum, exactly, so only a result past the largest float overflows."""
    exponent = math.frexp(cell)[1] - 1  # cell / 2^exponent lies in [1, 2)
    return float(np.sum(np.ldexp(values, exponent))) * math.ldexp(cell, -exponent)


def l2_norm(f: QField) -> float:
    """sqrt(integral of |f(t)|_Q^2)."""
    return math.sqrt(_cell_sum(f.samples * f.samples, f.grid.cell_area))


def quartet_l2_norm(q: ComponentQuartet) -> float:
    """sqrt(integral of the squared pointwise quartet norm)."""
    return math.sqrt(sum(_cell_sum(m.samples * m.samples, q.grid.cell_area)
                         for m in q.members))


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

    t1, t2 = grid.meshgrid()
    with np.errstate(over="ignore"):  # an overflowing exponent is rejected below
        exponent = alpha1 * (t1 - center[0]) ** 2 + alpha2 * (t2 - center[1]) ** 2
    envelope = np.exp(-exponent)
    if not (np.isfinite(exponent).all() and envelope.any()):
        raise PlanViolationError(
            "the gaussian's exponent overflows the largest float, or its "
            "envelope underflows to 0 at every sample of the grid")
    return QField(grid, envelope[..., None] * qmul(beta1, beta2))


def apply_chirp(f: QField, lam: PureUnit, lin1: float, quad1: float,
                mu: PureUnit, lin2: float, quad2: float) -> QField:
    """exp(lam*(lin1 t1 + quad1 t1^2)) * f * exp(mu*(lin2 t2 + quad2 t2^2)).

    The left factor is applied from the left, the right factor from the
    right; the order is load-bearing for quaternion fields.
    """
    t1 = f.grid.axis_coords(1)
    t2 = f.grid.axis_coords(2)
    return QField(f.grid, sandwich(f.samples, lam, mu,
                                   np.exp(1j * (lin1 * t1 + quad1 * t1 ** 2)),
                                   np.exp(1j * (lin2 * t2 + quad2 * t2 ** 2))))


_EDGE_STENCILS = np.array([
    [-25.0, 48.0, -36.0, 16.0, -3.0],   # at the boundary sample
    [-3.0, -10.0, 18.0, -6.0, 1.0],     # one sample in
]) / 12.0


def partial_derivative(f: QField, axis: int) -> QField:
    """4th-order finite-difference d/dt_axis; one-sided stencils at edges."""
    if axis == 1:
        n, h = f.grid.n1, f.grid.spacing1
        data = f.samples
    elif axis == 2:
        n, h = f.grid.n2, f.grid.spacing2
        data = np.swapaxes(f.samples, 0, 1)
    else:
        raise ValueError("axis must be 1 or 2")
    if n < 5:
        raise GridTooSmallError(f"axis {axis} needs >= 5 samples, has {n}")

    out = np.empty_like(data)
    out[2:-2] = (data[:-4] - 8.0 * data[1:-3]
                 + 8.0 * data[3:-1] - data[4:]) / 12.0
    for row, stencil in enumerate(_EDGE_STENCILS):
        out[row] = np.tensordot(stencil, data[:5], axes=(0, 0))
        out[n - 1 - row] = -np.tensordot(stencil, data[n - 5:][::-1], axes=(0, 0))
    out /= h
    if axis == 2:
        out = np.swapaxes(out, 0, 1)
    return QField(f.grid, out)
