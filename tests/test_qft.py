import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qolct import (
    ComponentQuartet,
    Grid2D,
    QField,
    QftPlan,
    UNIT_I,
    UNIT_J,
    iqft,
    l2_norm,
    qft_fast_ij,
    synth_gaussian,
)
from qolct import _mutation, qft
from qolct.oracle import _direct_apply, plane_to_quat, qft_direct
from qolct.qft import PlanViolationError, _planes_ft, centered_ft2
from qolct.quat import PureUnit, qmul
from qolct.verify import derivative_identity_check, quartet_l2_norm

from conftest import meshgrid, rel_max_err, zero_field

#: a real array x as the scalar part of a field: x[..., None] * SCALAR
SCALAR = np.array([1.0, 0.0, 0.0, 0.0])


def qft_quartet(f, plan):
    """The QFT of each real component of f, through the one quartet builder."""
    return ComponentQuartet.of(f, lambda g: qft_fast_ij(g, plan))


def test_plan_nyquist_validation():
    g = Grid2D.centered(16, 4.0)
    QftPlan.forward(g)  # the default grid sits exactly at the bound
    # input reach is 1.875, so du = 2 pushes du * reach past pi
    coarse = Grid2D(16, 16, 0.0, 0.0, 2.0, 2.0)
    with pytest.raises(PlanViolationError):
        QftPlan(g, coarse, UNIT_I, UNIT_J)


def _brute_ft2(x, ops):
    """T(x) with each axis's transform an explicit matrix: per axis (sign,
    matrix), a zero sign the identity, a None matrix the FFT of that sign,
    e^{sign 2 pi i q p / n}."""
    mats = []
    for (sign, mat), n in zip(ops, x.shape):
        if mat is None:
            p = np.arange(n)
            mat = np.exp(sign * 2j * np.pi * np.outer(p, p) / n) if sign else np.eye(n)
        mats.append(mat)
    return mats[0] @ x @ mats[1].T


def test_centered_ft2_matches_brute_force():
    """Every axis kind (FFT, dense matrix, sign 0) on a strided plane, as the
    planes engine hands it over: row-interleaved with the other plane, whose
    slot is left untouched.  The plane is transformed in place, or written
    into ``out`` in the same layout where a dense matrix changes its shape."""
    rng = np.random.default_rng(0)
    n = 8
    both = ((-1, -1), (-1, 1), (1, 1), (1, -1))
    one = ((0, -1), (0, 1), (-1, 0), (1, 0), (0, 0))  # a zero sign on each axis

    def dense(sign, m):  # a matrix e^{s i u (x) t}, m outputs from n samples
        u, t = rng.uniform(-3.0, 3.0, m), rng.uniform(-2.0, 2.0, n)
        return np.exp(1j * sign * np.outer(u, t))

    # output sizes per axis: FFTs keep n, matrices go to 8 or 5 samples
    for sizes, sign_sets in (((None, None), both), ((n, n), both), ((5, 5), both),
                             ((None, 5), both), ((None, None), one), ((n, 5), one)):
        for signs in sign_sets:
            ops = tuple((s, None if m is None or not s else dense(s, m))
                        for s, m in zip(signs, sizes))
            shape = tuple(n if mat is None else len(mat) for _, mat in ops)
            stack = rng.normal(size=(n, 2, n)) + 1j * rng.normal(size=(n, 2, n))
            x, other = stack[:, 1].copy(), stack[:, 0].copy()
            want = _brute_ft2(x, ops)
            plane = stack[:, 1]
            slots = stack if shape == (n, n) else np.zeros((shape[0], 2, shape[1]), complex)
            out = plane if slots is stack else slots[:, 1]
            assert centered_ft2(plane, ops, out) is out
            assert np.abs(slots[:, 1] - want).max() <= 1e-12, ops
            assert np.array_equal(stack[:, 0], other)
            assert slots is stack or not slots[:, 0].any()


AXIS_KINDS = ("fft", "dense", "zero")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kinds=st.tuples(st.sampled_from(AXIS_KINDS), st.sampled_from(AXIS_KINDS)),
       signs=st.tuples(st.sampled_from((-1, 1)), st.sampled_from((-1, 1))),
       relation=st.sampled_from(("free", "same", "opposite")),
       armed=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_planes_ft_matches_hamilton_sum(kinds, signs, relation, armed, seed):
    """The engine on every pair of axis kinds (FFT, dense, sign 0) equals
    sum_t L(u1, t1) f(t) R(u2, t2), the kernels and factors embedded on lam
    and mu, with pre and post factors of modulus other than 1 and mu = +-lam
    among the axes.  Under ``planes-conj`` the right factor is conjugated
    and the left one is not: the row factors act on the left of both planes."""
    rng = np.random.default_rng(seed)
    lam = PureUnit(*rng.normal(size=3))
    mu = {"free": PureUnit(*rng.normal(size=3)), "same": lam,
          "opposite": PureUnit(-lam.x, -lam.y, -lam.z)}[relation]
    n = rng.integers(2, 7, size=2)
    h = rng.uniform(0.3, 1.2, size=2)
    tg = Grid2D(n[0], n[1], *rng.uniform(-1.0, 1.0, size=2), *h)
    m, du = n.copy(), 2.0 * np.pi / (n * h)  # an FFT axis
    for k, kind in enumerate(kinds):
        if kind == "dense":
            m[k], du[k] = rng.integers(2, 7), du[k] * rng.uniform(0.5, 0.9)
    ug = Grid2D(m[0], m[1], *rng.uniform(-1.0, 1.0, size=2), *du)

    def factor(size):
        return rng.uniform(0.5, 2.0, size) * np.exp(1j * rng.uniform(-np.pi, np.pi, size))

    axes, kernels = [], []
    for k, kind in enumerate(kinds):
        sign = 0 if kind == "zero" else signs[k]
        pre, post = factor(n[k]), factor(m[k])
        t, u = tg.axis_coords(k + 1), ug.axis_coords(k + 1)
        kernel = (np.exp(1j * sign * np.outer(u, t)) * h[k] if sign
                  else np.eye(n[k]))
        axes.append((sign, pre, post))
        kernels.append(post[:, None] * kernel * pre[None, :])  # (u, t)
    f = rng.normal(size=(n[0], n[1], 4))
    left = plane_to_quat(kernels[0], lam)  # (u1, t1, 4)
    right = plane_to_quat(np.conj(kernels[1]) if armed else kernels[1], mu)
    lf = qmul(left[:, :, None, :], f[None])  # (u1, t1, t2, 4)
    want = qmul(lf[:, :, :, None, :], np.swapaxes(right, 0, 1)[None, None]).sum(axis=(1, 2))
    with _mutation.inject("planes-conj" if armed else None):
        got = _planes_ft(f, tg, ug, lam, mu, tuple(axes))
    assert rel_max_err(got, want) <= 1e-12


def test_engine_threads_keep_the_callers_errstate():
    """From 512^2 up the engine maps the second half of the rows on a second
    thread; numpy's errstate holds there, and what it raises is raised in
    the caller."""
    g = Grid2D.centered(512, 16.0)
    assert qft._THREADED_FROM <= g.n1 * g.n2
    x = np.zeros((g.n1, g.n2, 4))
    x[400, 7, 2] = np.inf
    f = QField(g, x)
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        qft_fast_ij(f, QftPlan.forward(g))


def test_gaussian_transform_analytic():
    # F{e^{-|t|^2/2}}(u) = 2 pi e^{-|u|^2/2} for any axes (real, even signal)
    g = Grid2D.centered(256, 20.0)
    f = synth_gaussian(g, 0.5, 0.5)
    plan = QftPlan.forward(g)
    F = qft_fast_ij(f, plan)
    u1, u2 = meshgrid(plan.output_grid)
    want = 2.0 * math.pi * np.exp(-(u1 ** 2 + u2 ** 2) / 2.0)
    assert np.abs(F.samples[..., 0] - want).max() / want.max() <= 1e-8
    assert np.abs(F.samples[..., 1:]).max() <= 1e-10


def test_zero_maps_to_zero():
    g = Grid2D.centered(16, 4.0)
    plan = QftPlan.forward(g)
    assert np.abs(qft_direct(zero_field(g), plan).samples).max() == 0.0
    assert np.abs(qft_fast_ij(zero_field(g), plan).samples).max() == 0.0
    zero_spectrum = zero_field(plan.output_grid)
    assert np.abs(iqft(zero_spectrum, plan).samples).max() == 0.0
    # iqft runs the forward plan backwards: its field lies on the output grid
    with pytest.raises(ValueError, match="plan output grid"):
        iqft(zero_field(g), QftPlan(g, Grid2D.centered(16, 8.0), UNIT_I, UNIT_J))


def test_fast_path_equals_direct():
    rng = np.random.default_rng(11)
    g = Grid2D.centered(16, 4.0)
    plan = QftPlan.forward(g)
    for _ in range(3):
        f = QField(g, rng.normal(size=(16, 16, 4)))
        a = qft_fast_ij(f, plan)
        b = qft_direct(f, plan)
        assert np.abs(a.samples - b.samples).max() <= 1e-10


ENGINE_AXES = {
    "ij": (UNIT_I, UNIT_J),
    "random": (PureUnit(0.3, -1.2, 0.8), PureUnit(-0.9, 0.4, 1.1)),
    "equal": (PureUnit(1, 1, 1), PureUnit(1, 1, 1)),
    "opposite": (PureUnit(0.2, -0.5, 0.9), PureUnit(-0.2, 0.5, -0.9)),
}


@pytest.mark.parametrize("axes", sorted(ENGINE_AXES))
def test_engine_equals_direct(axes, monkeypatch):
    """Every transform goes through the planes-split engine and matches the
    dense quadrature on any axes and grids; the quadrature is only the oracle."""
    from qolct import QolctPlan, oracle, qolct_forward, qolct_inverse, qolct_quartet
    from qolct.oracle import analysis_quartet, qolct_direct
    from qolct.field import apply_chirp
    from qolct.verify import random_offset_params

    direct_calls = []
    real_direct = oracle._direct_apply

    def spy(*args):
        direct_calls.append(args[2])
        return real_direct(*args)

    monkeypatch.setattr(oracle, "_direct_apply", spy)
    lam, mu = ENGINE_AXES[axes]
    rng = np.random.default_rng(23)
    for g in (Grid2D.centered(32, 6.0), Grid2D(32, 24, 0.0, 0.0, 0.2, 0.25)):
        f = QField(g, rng.normal(size=(g.n1, g.n2, 4)))
        plan = QftPlan.forward(g, lam, mu)
        F = qft_fast_ij(f, plan)
        want = [qft_direct(QField(g, f.samples[..., m, None] * SCALAR), plan)
                for m in range(4)]
        got = qft_quartet(f, plan)
        n_direct = len(direct_calls)
        back = iqft(F, plan)
        assert len(direct_calls) == n_direct  # the oracle calls above only
        assert rel_max_err(F.samples, qft_direct(f, plan).samples) <= 1e-12
        assert rel_max_err(back.samples, f.samples) <= 1e-12
        for m in range(4):
            assert rel_max_err(got.members[m].samples, want[m].samples) <= 1e-12

        A1 = random_offset_params(rng, max_chirp_ratio=1.5)
        A2 = random_offset_params(rng, max_chirp_ratio=1.5)
        qplan = QolctPlan.create(A1, A2, lam, mu, input_grid=g)
        n_direct = len(direct_calls)
        O = qolct_forward(f, qplan)
        back = qolct_inverse(O, qplan)
        quartet = qolct_quartet(f, qplan)
        analysis = analysis_quartet(f, qplan)
        assert len(direct_calls) == n_direct
        assert rel_max_err(O.samples, qolct_direct(f, qplan).samples) <= 1e-12
        assert rel_max_err(back.samples, f.samples) <= 1e-12
        # analysis member k is C1 F{g_k} C2 for the real components g_k of the
        # chirped signal: the direct transform of g_k with the chirps undone
        lin1, quad1 = A1.tau / A1.b, A1.a / (2.0 * A1.b)
        lin2, quad2 = A2.tau / A2.b, A2.a / (2.0 * A2.b)
        chirped = apply_chirp(f, lam, lin1, quad1, mu, lin2, quad2)
        for m in range(4):
            comp = QField(g, f.samples[..., m, None] * SCALAR)
            assert rel_max_err(quartet.members[m].samples,
                               qolct_direct(comp, qplan).samples) <= 1e-12
            chirped_m = QField(g, chirped.samples[..., m, None] * SCALAR)
            unchirped = apply_chirp(chirped_m, lam, -lin1, -quad1, mu, -lin2, -quad2)
            assert rel_max_err(analysis.members[m].samples,
                               qolct_direct(unchirped, qplan).samples) <= 1e-12

        # a finer, smaller output grid is not FFT-compatible: the engine runs
        # dense complex matrices, never the quaternion quadrature
        og = qplan.output_grid
        fine = Grid2D(20, 18, 0.1, -0.2, 0.8 * og.spacing1, 0.7 * og.spacing2)
        fplan = QolctPlan(A1, A2, lam, mu, g, fine)
        n_direct = len(direct_calls)
        O = qolct_forward(f, fplan)
        assert direct_calls[n_direct:] == []
        assert rel_max_err(O.samples, qolct_direct(f, fplan).samples) <= 1e-12


def test_direct_supports_equal_axes():
    # lam = mu = i is outside the fast path but fine for the quadrature
    rng = np.random.default_rng(13)
    g = Grid2D.centered(12, 4.0)
    plan = QftPlan.forward(g, UNIT_I, UNIT_I)
    f = QField(g, rng.normal(size=(12, 12, 4)))
    F = qft_direct(f, plan)
    # brute-force check at one output point
    q = (5, 7)
    t1, t2 = meshgrid(g)
    u1 = plan.output_grid.axis_coords(1)[q[0]]
    u2 = plan.output_grid.axis_coords(2)[q[1]]
    left = plane_to_quat(np.exp(-1j * u1 * t1), UNIT_I)
    right = plane_to_quat(np.exp(-1j * u2 * t2), UNIT_I)
    want = qmul(qmul(left, f.samples), right).sum(axis=(0, 1)) * g.cell_area
    assert np.abs(F.samples[q] - want).max() <= 1e-12


def test_inversion_round_trip():
    g = Grid2D.centered(128, 16.0)
    f = synth_gaussian(g, 1.0, 0.6, (1.0, 0.4), (0.9, -0.2), UNIT_I, UNIT_J)
    plan = QftPlan.forward(g)
    F = qft_fast_ij(f, plan)
    back = iqft(F, plan)
    assert rel_max_err(back.samples, f.samples) <= 1e-8
    assert l2_norm(back) == pytest.approx(l2_norm(f), rel=1e-8)
    # the dense quadrature inverse agrees with the fast inverse
    back_plan = QftPlan(plan.output_grid, plan.input_grid, plan.lam, plan.mu)
    back2 = _direct_apply(F, back_plan, 1, 1.0 / (4.0 * math.pi ** 2))
    assert np.abs(back2.samples - back.samples).max() <= 1e-10


def test_quartet_structure_and_plancherel():
    rng = np.random.default_rng(17)
    g = Grid2D.centered(32, 8.0)
    plan = QftPlan.forward(g)

    real = synth_gaussian(g, 1.0, 1.0)
    q = qft_quartet(real, plan)
    assert np.abs(q.members[1].samples).max() == 0.0
    assert np.abs(q.members[2].samples).max() == 0.0
    assert np.abs(q.members[3].samples).max() == 0.0
    # member 0 is the full transform of the real signal
    assert np.allclose(q.members[0].samples, qft_fast_ij(real, plan).samples)

    # f = i*g with g real routes to member 1
    gval = rng.normal(size=(32, 32))
    fi = QField(g, np.stack([np.zeros_like(gval), gval,
                             np.zeros_like(gval), np.zeros_like(gval)], axis=-1))
    qi = qft_quartet(fi, plan)
    assert np.abs(qi.members[0].samples).max() == 0.0
    assert np.allclose(qi.members[1].samples,
                       qft_quartet(QField(g, gval[..., None] * SCALAR), plan)
                       .members[0].samples)

    f = QField(g, rng.normal(size=(32, 32, 4)))
    ratio = quartet_l2_norm(qft_quartet(f, plan)) / (2.0 * math.pi * l2_norm(f))
    assert abs(ratio - 1.0) <= 1e-12


def test_quartet_rejects_a_field_off_the_plan_grid():
    # the quartet reads the samples on the plan's input grid, like qft_fast_ij
    f = synth_gaussian(Grid2D.centered(16, 6.0), 1.0, 1.0)
    plan = QftPlan.forward(Grid2D.centered(16, 4.0))
    for transform in (qft_fast_ij, qft_quartet):
        with pytest.raises(ValueError, match="field grid does not match plan input grid"):
            transform(f, plan)


def test_quartet_plancherel_general_axes():
    g = Grid2D.centered(64, 14.0)
    f = synth_gaussian(g, 0.7, 1.1, (1.0, 0.4), (0.8, -0.3),
                       PureUnit(1, 1, 1), PureUnit(0, 1, -1))
    plan = QftPlan.forward(g, PureUnit(1, 1, 1), PureUnit(0, 1, -1))
    ratio = quartet_l2_norm(qft_quartet(f, plan)) ** 2 / (
        4.0 * math.pi ** 2 * l2_norm(f) ** 2)
    assert abs(ratio - 1.0) <= 1e-6


def test_real_linearity():
    rng = np.random.default_rng(19)
    g = Grid2D.centered(16, 4.0)
    plan = QftPlan.forward(g)
    f = QField(g, rng.normal(size=(16, 16, 4)))
    h = QField(g, rng.normal(size=(16, 16, 4)))
    lhs = qft_fast_ij(QField(g, 1.7 * f.samples - 0.4 * h.samples), plan)
    rhs = 1.7 * qft_fast_ij(f, plan).samples - 0.4 * qft_fast_ij(h, plan).samples
    assert rel_max_err(lhs.samples, rhs) <= 1e-12


def test_dilation_identity():
    # F{f(k1 t1, k2 t2)}(w) = (1/(k1 k2)) F{f}(w1/k1, w2/k2)
    g = Grid2D.centered(128, 20.0)
    du = 2.0 * math.pi / 20.0
    base = synth_gaussian(g, 1.0, 1.0, (1.0, 0.3), (1.0, 0.0), UNIT_I, UNIT_J)
    for k1, k2 in ((2.0, 2.0), (0.5, 2.0), (2.0, 0.5)):
        scaled = synth_gaussian(g, k1 ** 2, k2 ** 2, (1.0, 0.3), (1.0, 0.0),
                                UNIT_I, UNIT_J)
        wgrid = Grid2D(64, 64, 0.0, 0.0, du / 2.0, du / 2.0)
        lhs = qft_direct(scaled, QftPlan(g, wgrid, UNIT_I, UNIT_J))
        over_k = Grid2D(64, 64, 0.0, 0.0, du / (2 * k1), du / (2 * k2))
        rhs = qft_direct(base, QftPlan(g, over_k, UNIT_I, UNIT_J))
        assert rel_max_err(lhs.samples, rhs.samples / (k1 * k2)) <= 1e-8


def test_derivative_identity():
    g = Grid2D.centered(256, 9.0)
    f = synth_gaussian(g, 1.0, 1.0)
    plan = QftPlan.forward(g)
    rep = derivative_identity_check(f, plan, 0, 0)
    assert rep.maxerr <= 1e-12
    for m, n in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2)):
        rep = derivative_identity_check(f, plan, m, n)
        assert rep.relerr <= 1e-5, (m, n, rep.relerr)


def test_derivative_identity_right_factor_order_matters():
    # placing the (mu u2) factor on the left instead of the right must break
    # the identity for a quaternion-valued signal
    g = Grid2D.centered(128, 9.0)
    f = synth_gaussian(g, 1.0, 1.0, (1.0, 0.5), (0.8, 0.3), UNIT_I, UNIT_J)
    plan = QftPlan.forward(g)
    rep = derivative_identity_check(f, plan, 0, 1)
    assert rep.relerr <= 1e-4
    u2 = plan.output_grid.axis_coords(2)
    base = qft_fast_ij(f, plan).samples
    wrong = qmul(plane_to_quat(1j * u2, UNIT_J)[None, :, :], base)
    assert rel_max_err(rep.lhs.samples, wrong) > 1e-2
