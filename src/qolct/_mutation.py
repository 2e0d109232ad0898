"""Defect injection hooks for exercising the verification suite.

``verify --mutate NAME`` plants a known bug so the check suite can prove it
would catch one.  Production code paths consult :func:`active` at one
documented injection point per mutation; with none armed the checks are free.
"""

from __future__ import annotations

from contextlib import contextmanager

MUTATIONS = {
    "right-kernel-sign": "flip the sign of the sine part of the right-hand "
                         "kernel in the dense QOLCT quadrature (qolct_direct)",
    "iqft-scale": "drop the 1/(2*pi)^2 normalization of every inverse "
                  "transform in the two-sided transform engine",
    "chirp-sign": "flip the sign of the quadratic input-chirp phase the QOLCT "
                  "hands to the two-sided transform engine",
    "planes-conj": "swap which plane of the planes split takes the conjugated "
                   "right-hand factor, in the FFT engine and every sandwich",
    "density-fold": "drop the 1/2 of the (P(v) + P(-v))/2 fold in the "
                    "two-FFT energy density every uncertainty report reads",
    "degenerate-chirp": "flip the sign of the phase of the output chirp on a "
                        "b = 0 axis of the forward QOLCT",
}

_current: str | None = None


def active(name: str) -> bool:
    return _current == name


@contextmanager
def inject(name: str | None):
    """Arm a named mutation for the duration of the context."""
    global _current
    if name is not None and name not in MUTATIONS:
        raise ValueError(f"unknown mutation {name!r}; known: {sorted(MUTATIONS)}")
    previous = _current
    _current = name
    try:
        yield
    finally:
        _current = previous
