"""Quaternionic offset linear canonical transform toolkit."""

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
from .oracle import (
    GaussianSpec,
    analysis_quartet,
    gaussian_qolct_closed_form,
    kernel,
    qft_direct,
    qolct_direct,
)

__version__ = "0.1.0"
