import math

import numpy as np
import pytest

from qolct import Grid2D, QField, UNIT_I, UNIT_J, l2_norm, synth_gaussian
from qolct.field import (
    _ROW_BLOCK,
    ComponentQuartet,
    GridTooSmallError,
    PlanViolationError,
    _row_blocks,
    apply_chirp,
    partial_derivative,
)
from qolct.oracle import plane_to_quat
from qolct.quat import PureUnit, qmul, qnorm
from qolct.verify import QFT_CASE, fourier_shift, quartet_l2_norm

from conftest import meshgrid, zero_field

#: a real array x as the scalar part of a field: x[..., None] * SCALAR
SCALAR = np.array([1.0, 0.0, 0.0, 0.0])


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
    assert l2_norm(zero_field(g)) == 0.0
    f = synth_gaussian(g, 0.5, 0.5)
    assert l2_norm(f) == pytest.approx(math.sqrt(math.pi), rel=1e-10)
    # scaling by a quaternion constant scales the norm by its modulus
    c = np.array([1.0, -2.0, 0.5, 0.3])
    scaled = QField(g, qmul(c, f.samples))
    assert l2_norm(scaled) == pytest.approx(qnorm(c) * l2_norm(f), rel=1e-12)


def test_norms_sum_a_finite_norm_near_the_float_limit():
    # a random-sign 64^2 field of energy 5e307 on extent 16: its squares sum
    # past the largest float before the 1/16 cell scales them back
    from qolct import QolctPlan, qolct_quartet

    g = Grid2D.centered(64, 16.0)
    signs = np.random.default_rng(7).choice([-1.0, 1.0], size=(64, 64, 4))
    big = QField(g, signs * math.sqrt(5e307 / 1024))
    small = QField(g, np.ldexp(big.samples, -500))
    assert l2_norm(big) == pytest.approx(math.sqrt(5e307), rel=1e-12)
    assert l2_norm(big) == math.ldexp(l2_norm(small), 500)
    plan = QolctPlan.create(QFT_CASE, QFT_CASE, input_grid=g)
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
    t1, t2 = meshgrid(g)
    f = synth_gaussian(g, 1.0, 1.0)
    assert np.allclose(f.samples[..., 0], np.exp(-(t1 ** 2 + t2 ** 2)))
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


def _meshgrid_gaussian(grid, alpha1, alpha2, beta1_pair, beta2_pair, lam, mu, center):
    """synth_gaussian's samples as the meshgrid expression it once evaluated."""
    t1, t2 = meshgrid(grid)
    exponent = alpha1 * (t1 - center[0]) ** 2 + alpha2 * (t2 - center[1]) ** 2
    beta1 = np.array([beta1_pair[0], 0.0, 0.0, 0.0])
    if beta1_pair[1] != 0.0:
        beta1 = beta1 + beta1_pair[1] * lam.array
    beta2 = np.array([beta2_pair[0], 0.0, 0.0, 0.0])
    if beta2_pair[1] != 0.0:
        beta2 = beta2 + beta2_pair[1] * mu.array
    return np.exp(-exponent)[..., None] * qmul(beta1, beta2)


@pytest.mark.parametrize("grid", [Grid2D(24, 17), Grid2D(24, 17, 0.7, -1.3, 0.4, 0.55)],
                         ids=["origin", "off-origin"])
@pytest.mark.parametrize("center", [(0.0, 0.0), (0.8, -0.6)], ids=["centered", "shifted"])
@pytest.mark.parametrize("betas", [((1.0, 0.0), (1.0, 0.0)), ((1.0, 0.5), (0.7, -0.4))],
                         ids=["real", "quaternion"])
def test_synth_gaussian_equals_the_meshgrid_expression(grid, center, betas):
    lam, mu = PureUnit(1.0, 2.0, -0.5), PureUnit(0.3, -1.0, 2.0)
    f = synth_gaussian(grid, 0.35, 0.6, *betas, lam, mu, center=center)
    assert np.array_equal(f.samples,
                          _meshgrid_gaussian(grid, 0.35, 0.6, *betas, lam, mu, center))


def test_synth_gaussian_hands_its_field_one_read_only_array(monkeypatch):
    handed = []
    post_init = QField.__post_init__

    def spy(self):
        handed.append(self.samples)
        post_init(self)

    monkeypatch.setattr(QField, "__post_init__", spy)
    f = synth_gaussian(Grid2D(24, 17, 0.7, -1.3, 0.4, 0.55), 0.35, 0.6)
    assert len(handed) == 1 and f.samples is handed[0]  # kept, not copied
    assert f.samples.flags.owndata and not f.samples.flags.writeable


@pytest.mark.parametrize("alpha1, alpha2, center, extent", [
    (1e300, 1.0, (0.0, 0.0), 16.0),        # the exponent overflows at the edges
    (1.0, 1.0, (1e200, 0.0), 16.0),        # (t1 - c1)^2 overflows
    (1.5e306, 1.5e306, (0.0, 0.0), 16.0),  # each term finite, their sum not
    (1e3, 1.0, (0.0, 0.0), 64.0),          # every sample underflows
    (1.0, 1.0, (40.0, 0.0), 16.0),         # the peak sits far off the grid
])
def test_synth_gaussian_rejects_overflow_and_underflow(alpha1, alpha2, center, extent):
    g = Grid2D.centered(32, extent)
    with pytest.raises(PlanViolationError, match="overflows the largest float"):
        synth_gaussian(g, alpha1, alpha2, center=center)


def test_synth_gaussian_keeps_a_lone_surviving_sample():
    # every sample but the peak underflows: still a signal, not a rejection
    f = synth_gaussian(Grid2D.centered(5, 5.0), 1e3, 1e3)
    assert np.count_nonzero(f.samples) == 1 and f.samples[2, 2, 0] == 1.0


def test_quartet_norms():
    g = Grid2D.centered(16, 4.0)
    rng = np.random.default_rng(5)
    f = QField(g, rng.normal(size=(16, 16, 4)))
    zero = zero_field(g)
    q = ComponentQuartet((f, zero, zero, zero))
    assert quartet_l2_norm(q) == pytest.approx(l2_norm(f), rel=1e-14)
    q4 = ComponentQuartet((f, f, f, f))
    assert quartet_l2_norm(q4) == pytest.approx(2.0 * l2_norm(f), rel=1e-14)
    assert quartet_l2_norm(ComponentQuartet((zero, zero, zero, zero))) == 0.0
    with pytest.raises(ValueError):
        ComponentQuartet((f, zero, zero))
    other = zero_field(Grid2D.centered(8, 4.0))
    with pytest.raises(ValueError):
        ComponentQuartet((f, zero, zero, other))


def test_quartet_of_embeds_each_real_component():
    # member m is the transform of f_m as the scalar part of a field on f's grid
    g = Grid2D.centered(8, 4.0)
    f = QField(g, np.random.default_rng(6).normal(size=(8, 8, 4)))
    seen = []
    q = ComponentQuartet.of(f, lambda h: seen.append(h) or zero_field(Grid2D(3, 2)))
    assert q.grid == Grid2D(3, 2)
    for m, h in enumerate(seen):
        assert h.grid == g
        assert np.array_equal(h.samples, f.samples[..., m, None] * SCALAR)
    assert len(seen) == 4


def test_partial_derivative_linear_ramp():
    g = Grid2D.centered(32, 8.0)
    t1, _ = meshgrid(g)
    f = QField(g, t1[..., None] * SCALAR)
    d = partial_derivative(f, 1)
    assert np.abs(d.samples[..., 0] - 1.0).max() <= 1e-10
    const = QField(g, np.full((32, 32, 4), 3.7) * SCALAR)
    assert np.abs(partial_derivative(const, 1).samples).max() <= 1e-10
    assert np.abs(partial_derivative(const, 2).samples).max() <= 1e-10


def test_partial_derivative_gaussian():
    # the h^4/30 * f^(5) truncation error at h = 0.05 sits just under 1e-5;
    # h = 0.03 brings it below 1e-6
    for h, tol in ((0.05, 1e-5), (0.03, 1e-6)):
        n = int(round(8.0 / h))
        g = Grid2D(n, 16, 0.0, 0.0, h, 0.5)
        t1, _ = meshgrid(g)
        f = QField(g, np.exp(-t1 ** 2)[..., None] * SCALAR)
        d = partial_derivative(f, 1)
        want = -2.0 * t1 * np.exp(-t1 ** 2)
        assert np.abs(d.samples[..., 0] - want).max() <= tol


def test_partial_derivative_fourth_order_convergence():
    errs = []
    for n in (128, 256):
        g = Grid2D(n, 8, 0.0, 0.0, 8.0 / n, 1.0)
        t1, _ = meshgrid(g)
        wave = np.exp(-t1 ** 2) * np.sin(1.3 * t1)
        f = QField(g, wave[..., None] * SCALAR)
        d = partial_derivative(f, 1)
        want = np.exp(-t1 ** 2) * (1.3 * np.cos(1.3 * t1)
                                   - 2.0 * t1 * np.sin(1.3 * t1))
        errs.append(np.abs(d.samples[..., 0] - want).max())
    assert errs[0] / errs[1] >= 14.0



def test_partial_derivative_matches_the_stencil_expression_to_the_bit():
    # the interior and the one-sided edges, written out as whole-array
    # expressions; the result owns its read-only samples, so QField keeps
    # them without a copy
    g = Grid2D(37, 29, 0.3, -0.1, 0.07, 0.11)
    f = QField(g, np.random.default_rng(3).standard_normal((37, 29, 4)))
    for axis, h in ((1, g.spacing1), (2, g.spacing2)):
        data = f.samples if axis == 1 else np.swapaxes(f.samples, 0, 1)
        n = data.shape[0]
        want = np.empty_like(data)
        want[2:-2] = (data[:-4] - 8.0 * data[1:-3]
                      + 8.0 * data[3:-1] - data[4:]) / 12.0
        for row, stencil in enumerate(np.array([[-25.0, 48.0, -36.0, 16.0, -3.0],
                                                [-3.0, -10.0, 18.0, -6.0, 1.0]]) / 12.0):
            want[row] = np.tensordot(stencil, data[:5], axes=(0, 0))
            want[n - 1 - row] = -np.tensordot(stencil, data[n - 5:][::-1], axes=(0, 0))
        want /= h
        if axis == 2:
            want = np.swapaxes(want, 0, 1)
        d = partial_derivative(f, axis)
        assert d.samples.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert d.samples.flags.owndata and not d.samples.flags.writeable
        assert QField(g, d.samples).samples is d.samples


@pytest.mark.parametrize("n2", [1, 7, 8192, 8193])
@pytest.mark.parametrize("lo, hi", [(0, 0), (5, 6), (0, 18), (18, 37), (3, 20000)],
                         ids=["empty", "one row", "odd n1, first half",
                              "odd n1, second half", "many blocks"])
def test_row_blocks_visit_each_row_once_in_one_bounded_block(n2, lo, hi):
    # a block holds at most _ROW_BLOCK quaternions (256 KiB), or one row where
    # a row holds more, and every block is a slice of one scratch array
    assert _ROW_BLOCK * 4 * 8 == 256 * 1024
    visited, bases = [], set()
    for rows, block in _row_blocks(lo, hi, n2):
        assert rows.step is None and block.dtype == np.float64
        assert block.shape == (rows.stop - rows.start, n2, 4)
        assert 0 < block.shape[0] * n2 <= max(_ROW_BLOCK, n2)
        visited += range(rows.start, rows.stop)
        bases.add(id(block.base))
    assert visited == list(range(lo, hi))
    assert len(bases) <= 1


def test_partial_derivative_grid_too_small():
    g = Grid2D(4, 8, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(GridTooSmallError):
        partial_derivative(zero_field(g), 1)
    with pytest.raises(ValueError, match="axis must be 1 or 2"):
        partial_derivative(zero_field(g), 0)


def test_apply_chirp_order_and_modulus():
    g = Grid2D.centered(16, 4.0)
    rng = np.random.default_rng(7)
    f = QField(g, rng.normal(size=(16, 16, 4)))
    out = apply_chirp(f, UNIT_I, 0.3, 0.5, UNIT_J, -0.2, 0.1)
    # unit-modulus chirps preserve the pointwise modulus
    assert np.allclose(qnorm(out.samples), qnorm(f.samples))
    t1 = g.axis_coords(1)
    t2 = g.axis_coords(2)
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
    f = zero_field(g)
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
    from qolct import olct, qft
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
    engine = qft._planes_ft

    def spy(*args):
        results.append(engine(*args))
        return results[-1]

    monkeypatch.setattr(qft, "_planes_ft", spy)
    monkeypatch.setattr(olct, "_planes_ft", spy)
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
