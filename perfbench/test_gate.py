"""The benchmark's gates are load-bearing: a planted defect fails the op.

    python3 -m pytest perfbench/test_gate.py
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from qolct import _mutation  # noqa: E402

import workloads  # noqa: E402


@pytest.fixture(scope="module")
def transform_ij(tmp_path_factory):
    """The first transform-ij cycle of seed 0, on the real Gaussian member,
    which the forward gate checks against the closed form."""
    wl = workloads.WORKLOADS["transform-ij"]
    state = wl.setup(0, HERE.parent, tmp_path_factory.mktemp("work"))
    _, plan = wl.draw(state, workloads.cycle_rng(0), 0)
    return wl, state, ("real", plan)


def test_unmutated_cycle_passes(transform_ij):
    wl, state, inputs = transform_ij
    assert [workloads.run_op(op).ok for op in wl.ops(state, inputs)] == [True, True]


def test_chirp_sign_fails_the_forward_op(transform_ij):
    wl, state, inputs = transform_ij
    forward, _ = wl.ops(state, inputs)
    with _mutation.inject("chirp-sign"):
        assert not workloads.run_op(forward).ok


def test_iqft_scale_fails_the_inverse_op(transform_ij):
    wl, state, inputs = transform_ij
    forward, inverse = wl.ops(state, inputs)
    assert workloads.run_op(forward).ok
    with _mutation.inject("iqft-scale"):
        assert not workloads.run_op(inverse).ok


@pytest.mark.parametrize("text", ['{"x": NaN}', '{"x": Infinity}', '{"x": -Infinity}'])
def test_strict_json_rejects_non_finite(text):
    with pytest.raises(ValueError):
        workloads.strict_json(text)
