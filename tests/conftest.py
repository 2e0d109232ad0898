"""Shared fixtures: the test-signal corpus and reference parameter sets."""

from dataclasses import replace

import numpy as np
import pytest

from qolct import Grid2D, QField, UNIT_I, UNIT_J, synth_gaussian
from qolct.field import apply_chirp
from qolct.verify import QFT_CASE, random_offset_params


def rel_max_err(got, want):
    """Max pointwise quaternion-modulus difference over the peak modulus."""
    diff = np.sqrt(np.sum((got - want) ** 2, axis=-1))
    scale = np.sqrt(np.sum(want ** 2, axis=-1)).max()
    return float(diff.max() / scale)


def zero_field(grid):
    """The zero quaternion field on ``grid``."""
    return QField(grid, np.zeros((grid.n1, grid.n2, 4)))


def meshgrid(grid):
    """The (t1, t2) coordinates of every sample of ``grid``, each (n1, n2)."""
    return np.meshgrid(grid.axis_coords(1), grid.axis_coords(2), indexing="ij")


def corpus_signals(grid):
    """The standard signal corpus: real, quaternion, chirped, shifted Gaussians."""
    real = synth_gaussian(grid, 0.5, 0.5)
    quat = synth_gaussian(grid, 1.0, 0.5, (1.0, 0.5), (0.7, -0.4), UNIT_I, UNIT_J)
    chirped = apply_chirp(synth_gaussian(grid, 0.8, 0.8),
                          UNIT_I, 0.0, 0.3, UNIT_J, 0.0, -0.2)
    shifted = synth_gaussian(grid, 0.7, 0.7, center=(0.8, -0.6))
    return {"real": real, "quaternion": quat, "chirped": chirped,
            "shifted": shifted}


def parameter_sets(n=5, seed=2024, with_offsets=True, max_chirp_ratio=1.5):
    """Deterministic unimodular parameter pairs with b in [0.5, 2].

    The chirp ratio |a|/(2b) is capped so every pair satisfies the chirp
    resolution bound on grids with h * L <= 2 (all fixture grids).  Without
    offsets each draw keeps its matrix and sets tau = eta = 0.
    """
    rng = np.random.default_rng(seed)
    draws = [tuple(random_offset_params(rng, max_chirp_ratio=max_chirp_ratio)
                   for _ in range(2)) for _ in range(n)]
    if with_offsets:
        return draws
    return [tuple(replace(A, tau=0.0, eta=0.0) for A in pair) for pair in draws]


@pytest.fixture(scope="session")
def grid64():
    return Grid2D.centered(64, 14.0)


@pytest.fixture(scope="session")
def grid128():
    return Grid2D.centered(128, 16.0)


@pytest.fixture(scope="session")
def grid256():
    return Grid2D.centered(256, 16.0)


@pytest.fixture(scope="session")
def qft_case_pair():
    return QFT_CASE, QFT_CASE
