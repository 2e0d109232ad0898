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
    "iqft-scale": "drop the 1/(2*pi) per axis that both inverse transforms, "
                  "iqft and qolct_inverse, take from qft._inverse_weight",
    "chirp-sign": "flip the sign of the quadratic input-chirp phase the QOLCT "
                  "hands to the two-sided transform engine",
    "planes-conj": "swap which plane of the planes split takes the conjugated "
                   "right-hand factor, in the FFT engine and every sandwich",
    "density-fold": "double the energy density every uncertainty report "
                    "reads: 1/2 in place of the 1/4 of its average over the "
                    "four mirror images of the forward transform",
    "degenerate-chirp": "flip the sign of the phase of the output chirp on a "
                        "b = 0 axis of the forward QOLCT",
}

_current: str | None = None


def active(name: str) -> bool:
    return _current == name


def armed() -> str | None:
    """The name of the armed mutation, or None."""
    return _current


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
