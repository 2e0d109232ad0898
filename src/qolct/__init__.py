"""Quaternionic offset linear canonical transform toolkit."""

from .quat import (
    UNIT_I,
    UNIT_J,
    UNIT_K,
    PureUnit,
    axis_exp,
    inv_sqrt_unit,
    polar,
    qmul,
)
from .field import (
    ComponentQuartet,
    Grid2D,
    QField,
    l2_norm,
    partial_derivative,
    quartet_l2_norm,
    synth_gaussian,
)
from .qft import QftPlan, iqft, qft_fast_ij, qft_quartet
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
