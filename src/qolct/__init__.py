"""Quaternionic offset linear canonical transform toolkit.

The judges load on demand, never with the package: the independent oracles
are ``qolct.oracle`` and the check suites ``qolct.verify``.
"""

from .quat import UNIT_I, UNIT_J, UNIT_K, PureUnit, qmul
from .field import (
    ComponentQuartet,
    Grid2D,
    QField,
    l2_norm,
    partial_derivative,
    synth_gaussian,
)
from .qft import QftPlan, iqft, qft_fast_ij
from .olct import OffsetParams, QolctPlan, qolct_forward, qolct_inverse, qolct_quartet

__version__ = "0.1.0"
