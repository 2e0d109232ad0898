"""Quaternionic offset linear canonical transform toolkit."""

import os as _os

# Cap BLAS/OpenMP parallelism before numpy loads its backends.  Honored when
# this package is the first importer of numpy (always true for the CLI).
_threads = _os.environ.get("QOLCT_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .quat import (
    ONE,
    UNIT_I,
    UNIT_J,
    UNIT_K,
    PureUnit,
    Quaternion,
    axis_exp,
    inv_sqrt_unit,
    mul,
    polar,
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
