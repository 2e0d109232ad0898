import math

import numpy as np
import pytest

from qolct import Grid2D, QField, UNIT_I, UNIT_J, l2_norm, synth_gaussian
from qolct.field import (
    ComponentQuartet,
    GridTooSmallError,
    apply_chirp,
    partial_derivative,
    quartet_l2_norm,
)
from qolct.quat import qmul, qnorm
from qolct.verify import fourier_shift


def test_grid_is_cell_centered():
    g = Grid2D(4, 4, 0.0, 0.0, 0.5, 0.5)
    t = g.axis_coords(1)
    assert np.allclose(t, [-0.75, -0.25, 0.25, 0.75])
    assert 0.0 not in t  # even n never samples the center
    assert g.extent1 == pytest.approx(2.0)
    godd = Grid2D(5, 5, 1.0, 0.0, 0.5, 0.5)
    assert np.allclose(godd.axis_coords(1), [0.0, 0.5, 1.0, 1.5, 2.0])


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2D(0, 4)
    with pytest.raises(ValueError):
        Grid2D(4, 4, spacing1=-1.0)
    with pytest.raises(ValueError, match="axis must be 1 or 2"):
        Grid2D(4, 4).axis_coords(3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["center1", "center2", "spacing1", "spacing2"])
def test_grid_rejects_non_finite(name, bad):
    # NaN compares false, so it would slip past the positive-spacing check
    fields = {"center1": 0.5, "center2": -1.0, "spacing1": 0.25, "spacing2": 0.5}
    fields[name] = bad
    with pytest.raises(ValueError, match="not finite"):
        Grid2D(8, 8, **fields)


def test_l2_norm_values():
    g = Grid2D.centered(256, 20.0)
    assert l2_norm(QField.zeros(g)) == 0.0
    f = synth_gaussian(g, 0.5, 0.5)
    assert l2_norm(f) == pytest.approx(math.sqrt(math.pi), rel=1e-10)
    # scaling by a quaternion constant scales the norm by its modulus
    c = np.array([1.0, -2.0, 0.5, 0.3])
    scaled = QField(g, qmul(c, f.samples))
    assert l2_norm(scaled) == pytest.approx(qnorm(c) * l2_norm(f), rel=1e-12)


def test_norms_sum_a_finite_norm_near_the_float_limit():
    # a random-sign 64^2 field of energy 5e307 on extent 16: its squares sum
    # past the largest float before the 1/16 cell scales them back
    from qolct import OffsetParams, QolctPlan, qolct_quartet

    g = Grid2D.centered(64, 16.0)
    signs = np.random.default_rng(7).choice([-1.0, 1.0], size=(64, 64, 4))
    big = QField(g, signs * math.sqrt(5e307 / 1024))
    small = QField(g, np.ldexp(big.samples, -500))
    assert l2_norm(big) == pytest.approx(math.sqrt(5e307), rel=1e-12)
    assert l2_norm(big) == math.ldexp(l2_norm(small), 500)
    qft = OffsetParams.qft_case()
    plan = QolctPlan.create(qft, qft, input_grid=g)
    norm = quartet_l2_norm(qolct_quartet(big, plan))
    assert norm == math.ldexp(quartet_l2_norm(qolct_quartet(small, plan)), 500)
    assert norm == pytest.approx(l2_norm(big), rel=1e-12)


def test_gaussian_truncation_converged():
    # doubling the extent beyond 12 sigma leaves the norm unchanged
    n1 = l2_norm(synth_gaussian(Grid2D.centered(128, 12.0), 1.0, 1.0))
    n2 = l2_norm(synth_gaussian(Grid2D.centered(256, 24.0), 1.0, 1.0))
    assert n1 == pytest.approx(n2, rel=1e-12)


def test_synth_gaussian_values_and_norm():
    g = Grid2D.centered(64, 12.0)
    t1, t2 = g.meshgrid()
    f = synth_gaussian(g, 1.0, 1.0)
    assert np.allclose(f.component(0), np.exp(-(t1 ** 2 + t2 ** 2)))
    assert np.abs(f.samples[..., 1:]).max() == 0.0

    beta = qmul([1, 0.5, 0, 0], [0.7, 0, -0.4, 0])
    fq = synth_gaussian(g, 1.0, 0.25, (1.0, 0.5), (0.7, -0.4), UNIT_I, UNIT_J)
    want = qnorm(beta) ** 2 * math.pi / (2.0 * math.sqrt(1.0 * 0.25))
    assert l2_norm(fq) ** 2 == pytest.approx(want, rel=1e-8)
    with pytest.raises(ValueError, match="pass lam"):
        synth_gaussian(g, 1.0, 1.0, (1.0, 0.5), (1.0, 0.0), mu=UNIT_J)
    with pytest.raises(ValueError, match="pass mu"):
        synth_gaussian(g, 1.0, 1.0, (1.0, 0.0), (0.7, -0.4), UNIT_I)

    with pytest.raises(ValueError):
        synth_gaussian(g, -1.0, 1.0)
    with pytest.raises(ValueError):
        synth_gaussian(g, 1.0, 1.0, (1.0, 0.5), (1.0, 0.0))  # lam required


def test_quartet_norms():
    g = Grid2D.centered(16, 4.0)
    rng = np.random.default_rng(5)
    f = QField(g, rng.normal(size=(16, 16, 4)))
    zero = QField.zeros(g)
    q = ComponentQuartet((f, zero, zero, zero))
    assert quartet_l2_norm(q) == pytest.approx(l2_norm(f), rel=1e-14)
    q4 = ComponentQuartet((f, f, f, f))
    assert quartet_l2_norm(q4) == pytest.approx(2.0 * l2_norm(f), rel=1e-14)
    assert quartet_l2_norm(ComponentQuartet((zero, zero, zero, zero))) == 0.0
    with pytest.raises(ValueError):
        ComponentQuartet((f, zero, zero))
    other = QField.zeros(Grid2D.centered(8, 4.0))
    with pytest.raises(ValueError):
        ComponentQuartet((f, zero, zero, other))


def test_partial_derivative_linear_ramp():
    g = Grid2D.centered(32, 8.0)
    t1, _ = g.meshgrid()
    f = QField.from_real(g, t1.copy())
    d = partial_derivative(f, 1)
    assert np.abs(d.component(0) - 1.0).max() <= 1e-10
    const = QField.from_real(g, np.full((32, 32), 3.7))
    assert np.abs(partial_derivative(const, 1).samples).max() <= 1e-10
    assert np.abs(partial_derivative(const, 2).samples).max() <= 1e-10


def test_partial_derivative_gaussian():
    # the h^4/30 * f^(5) truncation error at h = 0.05 sits just under 1e-5;
    # h = 0.03 brings it below 1e-6
    for h, tol in ((0.05, 1e-5), (0.03, 1e-6)):
        n = int(round(8.0 / h))
        g = Grid2D(n, 16, 0.0, 0.0, h, 0.5)
        t1, _ = g.meshgrid()
        f = QField.from_real(g, np.exp(-t1 ** 2))
        d = partial_derivative(f, 1)
        want = -2.0 * t1 * np.exp(-t1 ** 2)
        assert np.abs(d.component(0) - want).max() <= tol


def test_partial_derivative_fourth_order_convergence():
    errs = []
    for n in (128, 256):
        g = Grid2D(n, 8, 0.0, 0.0, 8.0 / n, 1.0)
        t1, _ = g.meshgrid()
        f = QField.from_real(g, np.exp(-t1 ** 2) * np.sin(1.3 * t1))
        d = partial_derivative(f, 1)
        want = np.exp(-t1 ** 2) * (1.3 * np.cos(1.3 * t1)
                                   - 2.0 * t1 * np.sin(1.3 * t1))
        errs.append(np.abs(d.component(0) - want).max())
    assert errs[0] / errs[1] >= 14.0


def test_partial_derivative_grid_too_small():
    g = Grid2D(4, 8, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(GridTooSmallError):
        partial_derivative(QField.zeros(g), 1)
    with pytest.raises(ValueError, match="axis must be 1 or 2"):
        partial_derivative(QField.zeros(g), 0)


def test_apply_chirp_order_and_modulus():
    g = Grid2D.centered(16, 4.0)
    rng = np.random.default_rng(7)
    f = QField(g, rng.normal(size=(16, 16, 4)))
    out = apply_chirp(f, UNIT_I, 0.3, 0.5, UNIT_J, -0.2, 0.1)
    # unit-modulus chirps preserve the pointwise modulus
    assert np.allclose(qnorm(out.samples), qnorm(f.samples))
    t1 = g.axis_coords(1)
    t2 = g.axis_coords(2)
    from qolct.quat import plane_to_quat, qmul
    left = plane_to_quat(np.exp(1j * (0.3 * t1 + 0.5 * t1 ** 2)), UNIT_I)
    right = plane_to_quat(np.exp(1j * (-0.2 * t2 + 0.1 * t2 ** 2)), UNIT_J)
    want = qmul(qmul(left[:, None, :], f.samples), right[None, :, :])
    assert np.allclose(out.samples, want)


def test_fourier_shift_matches_analytic_shift():
    g = Grid2D.centered(128, 20.0)
    f = synth_gaussian(g, 1.0, 0.8, (1.0, 0.3), (1.0, -0.2), UNIT_I, UNIT_J)
    shifted = fourier_shift(f, 0.37, -0.21)
    want = synth_gaussian(g, 1.0, 0.8, (1.0, 0.3), (1.0, -0.2), UNIT_I, UNIT_J,
                          center=(0.37, -0.21))
    assert np.abs(shifted.samples - want.samples).max() <= 1e-10


def test_qfield_immutable_and_validated():
    g = Grid2D.centered(8, 2.0)
    f = QField.zeros(g)
    with pytest.raises(ValueError):
        f.samples[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        QField(g, np.zeros((4, 4, 4)))


def test_qfield_copies_what_a_caller_could_still_write(monkeypatch):
    """A writeable array, a read-only view and a non-float64 array are copied:
    changing the caller's data later leaves the field as it was.  Engine
    results are read-only float64 arrays that own their data, and the field
    keeps them without a copy."""
    from qolct import QftPlan, QolctPlan, iqft, qft_fast_ij, qolct_forward, qolct_inverse
    from qolct import qft
    from qolct.olct import OffsetParams

    g = Grid2D.centered(16, 4.0)
    data = np.random.default_rng(4).normal(size=(16, 16, 4))
    f = QField(g, data)
    data[0, 0, 0] += 1.0
    assert f.samples[0, 0, 0] != data[0, 0, 0]
    base = data.copy()
    base.setflags(write=False)
    view = base[...]  # read-only, but its owner is still writeable
    assert not np.shares_memory(QField(g, view).samples, base)
    as_f32 = base.astype(np.float32)
    as_f32.setflags(write=False)
    assert QField(g, as_f32).samples.dtype == np.float64
    assert QField(g, base).samples is base  # read-only and owned: kept

    results = []
    engine = qft.in_planes

    def spy(*args):
        results.append(engine(*args))
        return results[-1]

    monkeypatch.setattr(qft, "in_planes", spy)
    plan = QftPlan.forward(g)
    A = OffsetParams(0.5, 1.0, -1.2, -0.4, 0.3, -0.2)
    qplan = QolctPlan.create(A, A, input_grid=g)
    F = qft_fast_ij(f, plan)
    O = qolct_forward(f, qplan)
    fields = [F, O, iqft(F, plan), qolct_inverse(O, qplan)]
    assert len(results) == len(fields)
    for field, result in zip(fields, results):
        assert field.samples is result
        assert field.samples.flags.owndata and not field.samples.flags.writeable
