import gc
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qolct import (
    Grid2D,
    OffsetParams,
    QField,
    QftPlan,
    QolctPlan,
    UNIT_I,
    UNIT_J,
    iqft,
    l2_norm,
    qft_fast_ij,
    qolct_forward,
    qolct_inverse,
    qolct_quartet,
    synth_gaussian,
)
from qolct import _mutation
from qolct.field import _ROW_BLOCK, apply_chirp
from qolct.olct import analysis
from qolct.oracle import (
    _kernel_matrices,
    analysis_quartet,
    norm_field,
    plane_to_quat,
    qolct_direct,
)
from qolct.qft import PlanViolationError
from qolct.quat import PureUnit, qmul, qnorm
from qolct.uncertainty import heisenberg_report, log_up_check, pitt_check
from qolct.verify import (
    A1_REF,
    A2_REF,
    QFT_CASE,
    inv_sqrt_unit,
    modulation_covariance_check,
    moment_identity_check,
    qconj,
    quartet_l2_norm,
    random_offset_params,
    shift_covariance_check,
)

from conftest import corpus_signals, meshgrid, parameter_sets, rel_max_err, zero_field


def test_offset_params_validation():
    with pytest.raises(ValueError):
        OffsetParams(1.0, 1.0, 1.0, 1.0)  # det = 0
    A = QFT_CASE
    assert (A.a, A.b, A.c, A.d) == (0.0, 1.0, -1.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["a", "b", "c", "d", "tau", "eta"])
def test_offset_params_rejects_non_finite(name, bad):
    # a NaN entry would slip past the determinant check (NaN compares false)
    entries = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 2.0, "tau": 0.3, "eta": -0.2}
    entries[name] = bad
    with pytest.raises(ValueError, match="not finite"):
        OffsetParams(**entries)


def test_plan_rejects_negative_b_and_unresolved_chirp():
    g = Grid2D.centered(16, 4.0)
    with pytest.raises(ValueError, match="b < 0"):
        QolctPlan.create(OffsetParams(0.0, -1.0, 1.0, 0.0), A2_REF, input_grid=g)
    # |a|/(2b) * h * L = 2/(2*0.25) * 0.25 * 4 = 4 > pi
    steep = OffsetParams(2.0, 0.25, 1.0, 0.625)
    with pytest.raises(PlanViolationError):
        QolctPlan.create(steep, QFT_CASE,
                         input_grid=Grid2D.centered(16, 4.0))


@pytest.mark.parametrize("zero_axis", [1, 2])
def test_plan_checks_nyquist_beside_a_b_zero_axis(zero_axis):
    # the b = 1 axis of a grid moved by 2 along it reaches 5.9375, and its
    # derived spacing 0.785 puts the product past pi whatever the other holds
    deg, main = OffsetParams(1.0, 0.0, 0.5, 1.0), OffsetParams(1.0, 1.0, 0.0, 1.0)
    A1, A2 = (deg, main) if zero_axis == 1 else (main, deg)
    QolctPlan.create(A1, A2, input_grid=Grid2D.centered(64, 8.0))
    moved = Grid2D.centered(64, 8.0, (2.0, 0.0) if zero_axis == 2 else (0.0, 2.0))
    with pytest.raises(PlanViolationError, match=f"axis {3 - zero_axis}: output"):
        QolctPlan.create(A1, A2, input_grid=moved)


@pytest.mark.parametrize("zero_axis", [1, 2])
def test_plan_rejects_a_one_sample_b_zero_axis(zero_axis):
    # on a b = 0 axis of one sample the substitution reads that one sample,
    # an exact one-knot gather, beside a b > 0 axis
    deg = OffsetParams(1.0, 0.0, 0.3, 1.0, 0.2, -0.4)
    A1, A2 = (deg, QFT_CASE) if zero_axis == 1 else (QFT_CASE, deg)
    n1, n2 = (1, 8) if zero_axis == 1 else (8, 1)
    g = Grid2D(n1, n2, 0.0, 0.0, 1.0, 1.0)
    f = QField(g, np.random.default_rng(zero_axis).normal(size=(n1, n2, 4)))
    plan = QolctPlan.create(A1, A2, input_grid=g)
    assert rel_max_err(qolct_forward(f, plan).samples,
                       qolct_direct(f, plan).samples) <= 1e-12


def kernel(A, lam, t, u):
    """K_A(t, u) on axis ``lam``: the kernel parts qolct_direct contracts, on
    the one-point mesh (u, t)."""
    cosm, sinm = _kernel_matrices(A, np.array([t]), np.array([u]), transposed=False)
    return plane_to_quat(complex(cosm[0, 0], sinm[0, 0]), lam)


def test_kernel_values():
    # QFT-case kernel: (1/sqrt(2 pi)) e^{-i pi/4} e^{-i t u}
    A = QFT_CASE
    t, u = 0.7, -1.3
    got = kernel(A, UNIT_I, t, u)
    want_c = np.exp(1j * (-t * u - math.pi / 4)) / math.sqrt(2 * math.pi)
    assert np.abs(got - plane_to_quat(np.asarray(want_c), UNIT_I)).max() <= 1e-15

    # unit modulus scaled by 1/sqrt(2 pi b); K * conj(K) = 1/(2 pi b)
    A = A1_REF
    for t, u in ((0.0, 0.0), (1.2, -0.7), (-2.0, 3.1)):
        K = kernel(A, UNIT_I, t, u)
        assert qnorm(K) == pytest.approx(1.0 / math.sqrt(2 * math.pi * A.b),
                                         rel=1e-13)
        prod = qmul(K, qconj(K))
        assert np.abs(prod - [1.0 / (2 * math.pi * A.b), 0, 0, 0]).max() <= 1e-15
    with pytest.raises(ValueError):
        kernel(OffsetParams(1.0, 0.0, 0.0, 1.0), UNIT_I, 0.0, 0.0)


def test_forward_equals_direct_random_fields():
    rng = np.random.default_rng(31)
    g = Grid2D.centered(16, 4.0)
    for A1, A2 in parameter_sets(5, seed=7):
        plan = QolctPlan.create(A1, A2, input_grid=g)
        f = QField(g, rng.normal(size=(16, 16, 4)))
        a = qolct_forward(f, plan)
        b = qolct_direct(f, plan)
        assert np.abs(a.samples - b.samples).max() <= 1e-9


def test_forward_equals_direct_general_axes():
    rng = np.random.default_rng(37)
    g = Grid2D.centered(12, 4.0)
    lam = PureUnit(1.0, -0.5, 2.0)
    mu = PureUnit(0.3, 1.0, 0.4)
    plan = QolctPlan.create(A1_REF, A2_REF, lam, mu, input_grid=g)
    f = QField(g, rng.normal(size=(12, 12, 4)))
    a = qolct_forward(f, plan)   # falls back to the direct embedded QFT
    b = qolct_direct(f, plan)
    assert np.abs(a.samples - b.samples).max() <= 1e-9


def test_zero_field_and_real_linearity():
    rng = np.random.default_rng(41)
    g = Grid2D.centered(16, 4.0)
    plan = QolctPlan.create(A1_REF, A2_REF, input_grid=g)
    assert np.abs(qolct_direct(zero_field(g), plan).samples).max() == 0.0
    f = QField(g, rng.normal(size=(16, 16, 4)))
    h = QField(g, rng.normal(size=(16, 16, 4)))
    lhs = qolct_forward(QField(g, 0.6 * f.samples + 2.0 * h.samples), plan)
    rhs = 0.6 * qolct_forward(f, plan).samples + 2.0 * qolct_forward(h, plan).samples
    assert rel_max_err(lhs.samples, rhs) <= 1e-12


def test_qft_reduction():
    g = Grid2D.centered(64, 14.0)
    f = synth_gaussian(g, 0.8, 1.2, (1.0, 0.5), (0.7, -0.4), UNIT_I, UNIT_J)
    A = QFT_CASE
    plan = QolctPlan.create(A, A, input_grid=g)
    O = qolct_forward(f, plan)
    F = qft_fast_ij(f, QftPlan.forward(g))
    pred = qmul(qmul(inv_sqrt_unit(UNIT_I), F.samples),
                inv_sqrt_unit(UNIT_J)) / (2.0 * math.pi)
    assert np.abs(O.samples - pred).max() <= 1e-10
    assert plan.output_grid == QftPlan.forward(g).output_grid


def test_qlct_reduction_zero_offsets():
    # with tau = eta = 0 the kernel must equal the plain QLCT kernel
    A1 = OffsetParams(A1_REF.a, A1_REF.b, A1_REF.c, A1_REF.d)
    for t, u in ((0.4, 1.1), (-1.7, 0.2)):
        got = kernel(A1, UNIT_I, t, u)
        theta = (A1.a * t * t - 2 * t * u + A1.d * u * u) / (2 * A1.b) - math.pi / 4
        want = np.exp(1j * theta) / math.sqrt(2 * math.pi * A1.b)
        assert np.abs(got - plane_to_quat(np.asarray(want), UNIT_I)).max() <= 1e-15


def test_inverse_round_trip_and_plancherel(grid64):
    for name, f in corpus_signals(grid64).items():
        plan = QolctPlan.create(A1_REF, A2_REF, input_grid=grid64)
        F = qolct_forward(f, plan)
        back = qolct_inverse(F, plan)
        assert rel_max_err(back.samples, f.samples) <= 1e-7, name
        assert l2_norm(back) == pytest.approx(l2_norm(f), rel=1e-7)
        ratio = quartet_l2_norm(qolct_quartet(f, plan)) / l2_norm(f)
        assert abs(ratio - 1.0) <= 1e-6, name
    assert np.abs(qolct_inverse(zero_field(plan.output_grid), plan)
                  .samples).max() == 0.0


def test_quartet_component_routing(grid64):
    real = synth_gaussian(grid64, 1.0, 1.0)
    plan = QolctPlan.create(A1_REF, A2_REF, input_grid=grid64)
    q = qolct_quartet(real, plan)
    for m in (1, 2, 3):
        assert np.abs(q.members[m].samples).max() == 0.0
    assert np.allclose(q.members[0].samples, qolct_forward(real, plan).samples)


def test_quartet_is_four_forwards_on_general_axes(grid64):
    # member m is the forward of the real component f_m as a scalar field,
    # bit for bit, on axes outside (i, j), on every plan the forward serves
    f = corpus_signals(grid64)["quaternion"]
    for A1 in (A1_REF, OffsetParams(1.0, 0.0, 0.7, 1.0, 0.0, -0.6)):  # b1 > 0, b1 = 0
        plan = QolctPlan.create(A1, A2_REF, PureUnit(1.0, -0.5, 2.0),
                                PureUnit(0.3, 1.0, 0.4), input_grid=grid64)
        q = qolct_quartet(f, plan)
        for m, member in enumerate(q.members):
            component = np.zeros_like(f.samples)
            component[..., 0] = f.samples[..., m]
            want = qolct_forward(QField(grid64, component), plan)
            assert member.grid == want.grid
            assert np.array_equal(member.samples, want.samples)
            assert not member.samples.flags.writeable


def test_quartet_unit_sum_differs_from_full_transform(grid64):
    # sum_m unit_m * O{f_m} != O{f}: the j,k components see a conjugated
    # left kernel, so the unit-weighted member sum cannot rebuild O{f}
    f = apply_chirp(synth_gaussian(grid64, 0.8, 0.8),
                    UNIT_I, 0.0, 0.3, UNIT_J, 0.0, -0.2)
    plan = QolctPlan.create(A1_REF, A2_REF, input_grid=grid64)
    q = qolct_quartet(f, plan)
    units = np.eye(4)
    total = np.zeros_like(q.members[0].samples)
    for m in range(4):
        total += qmul(units[m], q.members[m].samples)
    full = qolct_forward(f, plan)
    assert rel_max_err(total, full.samples) > 1e-3


def test_analysis_quartet_matches_component_quartet_for_gaussians(grid64):
    # for signals with df parallel to f (any Gaussian) the two quartet norms
    # carry the same pointwise norm field
    f = synth_gaussian(grid64, 1.0, 0.5, (1.0, 0.5), (0.7, -0.4), UNIT_I, UNIT_J)
    plan = QolctPlan.create(A1_REF, A2_REF, input_grid=grid64)
    n1 = norm_field(qolct_quartet(f, plan))
    n2 = norm_field(analysis_quartet(f, plan))
    assert np.allclose(quartet_l2_norm(qolct_quartet(f, plan)),
                       quartet_l2_norm(analysis_quartet(f, plan)), rtol=1e-12)
    # pointwise the fields differ (mixing), but both integrate to |f|
    assert abs(float(np.sum(n1 ** 2) - np.sum(n2 ** 2))
               / float(np.sum(n1 ** 2))) <= 1e-12


# ---------------------------------------------------------------------------
# The energy density, read off the forward transform.

def _density_case(n1, n2, axes, seed, shifted=False):
    """A random field and plan on an n1 x n2 grid with h*L = 2 pi per axis,
    so |a|/(2b) <= 1/2 meets the chirp bound; ``shifted`` moves the input
    grid by half a cell, the most the Nyquist bound allows."""
    rng = np.random.default_rng(seed)
    h1, h2 = math.sqrt(2.0 * math.pi / n1), math.sqrt(2.0 * math.pi / n2)
    grid = Grid2D(n1, n2, h1 / 2 if shifted else 0.0,
                  -h2 / 2 if shifted else 0.0, h1, h2)
    if axes == "ij":
        lam, mu = UNIT_I, UNIT_J
    else:
        lam = PureUnit(*rng.normal(size=3))
        s = {"free": None, "same": 1.0, "opposite": -1.0}[axes]
        mu = (PureUnit(*rng.normal(size=3)) if s is None
              else PureUnit(s * lam.x, s * lam.y, s * lam.z))
    plan = QolctPlan.create(random_offset_params(rng, max_chirp_ratio=0.5),
                            random_offset_params(rng, max_chirp_ratio=0.5),
                            lam, mu, input_grid=grid)
    return QField(grid, rng.normal(size=(n1, n2, 4))), plan


def _spy_on(monkeypatch, module, name) -> list:
    """Count calls of ``module.name`` through that module."""
    calls = []

    def spy(*args, _real=getattr(module, name)):
        calls.append(1)
        return _real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def _density_err(f, plan):
    want = norm_field(analysis_quartet(f, plan)) ** 2
    return float(np.abs(analysis(f, plan).density - want).max() / want.max())


def _recentered(plan, center1, center2):
    """``plan`` with its output grid moved to center (center1, center2)."""
    og = plan.output_grid
    return QolctPlan(plan.A1, plan.A2, plan.lam, plan.mu, plan.input_grid,
                     Grid2D(og.n1, og.n2, center1, center2, og.spacing1,
                            og.spacing2))


@pytest.mark.parametrize("n1, n2", [(64, 64), (63, 63), (64, 48), (33, 50)])
@pytest.mark.parametrize("axes", ["ij", "free", "same", "opposite"])
def test_energy_density_equals_analysis_quartet(monkeypatch, n1, n2, axes):
    from qolct import olct, oracle
    calls = _spy_on(monkeypatch, oracle, "analysis_quartet")
    engine = _spy_on(monkeypatch, olct, "_planes_ft")

    def density_err(f, plan):
        # one forward per distinct mirror image of the output grid: one on
        # a grid centered at 0, two or four off center
        engine.clear()
        err = _density_err(f, plan)
        og = plan.output_grid
        assert len(engine) == 2 ** ((og.center1 != 0.0) + (og.center2 != 0.0))
        return err

    for seed, shifted in ((n1 * n2, False), (n1 + n2, True)):
        f, plan = _density_case(n1, n2, axes, seed, shifted)
        assert density_err(f, plan) <= 1e-12, (seed, shifted)
        # off center along one axis or both, -u is no index reversal there
        for center in ((0.3, -0.2), (0.3, 0.0), (0.0, -0.2)):
            err = density_err(f, _recentered(plan, *center))
            assert err <= 1e-12, (seed, shifted, center)
    # a smaller, finer centered output grid is not FFT-compatible: its one
    # forward takes the engine's dense branch
    og = plan.output_grid
    fine = Grid2D(20, 16, 0.0, 0.0, og.spacing1 / 2, og.spacing2 / 2)
    plan = QolctPlan(plan.A1, plan.A2, plan.lam, plan.mu, plan.input_grid, fine)
    assert density_err(f, plan) <= 1e-12
    assert not calls  # the density never runs the oracle


#: every draw of :func:`_density_case` up to 32^2
_DENSITY_CASES = dict(n1=st.integers(2, 32), n2=st.integers(2, 32),
                      axes=st.sampled_from(["ij", "free", "same", "opposite"]),
                      shifted=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(**_DENSITY_CASES, offset=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
def test_energy_density_property(n1, n2, axes, shifted, seed, offset):
    # output grids centered at 0 and moved by up to two samples per axis
    f, plan = _density_case(n1, n2, axes, seed, shifted)
    og = plan.output_grid
    plan = _recentered(plan, offset[0] * og.spacing1, offset[1] * og.spacing2)
    assert _density_err(f, plan) <= 1e-12


def test_transforms_reject_a_field_off_the_plan_grid():
    g = Grid2D.centered(32, 8.0)
    plan = QolctPlan.create(A1_REF, A2_REF, input_grid=g)
    off = synth_gaussian(Grid2D.centered(32, 6.0), 1.0, 1.0)
    for transform in (qolct_forward, qolct_quartet):
        with pytest.raises(ValueError, match="field grid does not match plan input grid"):
            transform(off, plan)
    with pytest.raises(ValueError, match="field grid does not match plan output grid"):
        qolct_inverse(off, plan)


def test_analysis_checks_its_signal_before_any_transform(monkeypatch, grid64):
    # a b = 0 plan, a field off the plan's input grid, or one whose energy
    # overflows, is rejected before the density's transforms run, and
    # without a warning
    from qolct import olct
    calls = []
    monkeypatch.setattr(olct, "_planes_ft", lambda *args: calls.append(1))
    plan = QolctPlan.create(A1_REF, A2_REF, input_grid=grid64)
    with pytest.raises(ValueError, match="plan input grid"):
        analysis(synth_gaussian(Grid2D.centered(64, 12.0), 0.5, 0.5), plan)
    huge = QField(grid64, synth_gaussian(grid64, 0.5, 0.5).samples * 1e300)
    with np.errstate(all="raise"), pytest.raises(PlanViolationError, match="overflows"):
        analysis(huge, plan)
    degenerate = QolctPlan.create(OffsetParams(1.0, 0.0, 0.0, 1.0), A2_REF,
                                  input_grid=grid64)
    with pytest.raises(ValueError, match="require b > 0"):
        analysis(synth_gaussian(grid64, 0.5, 0.5), degenerate)
    # a nonzero signal whose energy underflows
    tiny = QField(grid64, synth_gaussian(grid64, 0.5, 0.5).samples * 1e-160)
    with pytest.raises(PlanViolationError, match="underflows"):
        analysis(tiny, plan)
    assert not calls


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_analysis_accepts_a_finite_energy_whose_sample_sum_overflows():
    # a field of flat modulus and random signs (which spread its transform),
    # energy 5e307 on cells of 1/16: the sum of |f|^2 is 8e308, but the
    # energy and the density are finite
    g = Grid2D.centered(64, 16.0)
    A = QFT_CASE
    plan = QolctPlan.create(A, A, input_grid=g)
    signs = np.random.default_rng(0).choice([-1.0, 1.0], size=(64, 64, 4))
    an = analysis(QField(g, math.sqrt(5e307 / (4 * 64 * 64 * g.cell_area)) * signs),
                  plan)
    assert an.energy == pytest.approx(5e307, rel=1e-12)
    assert np.isfinite(an.density).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_analysis_rejects_an_overflowing_density():
    # a flat field's transform peaks at its energy times L^2 / (4 pi^2):
    # past the largest float at L = 64, though the energy itself is finite
    g = Grid2D.centered(64, 64.0)
    A = QFT_CASE
    flat = QField(g, np.full((64, 64, 4), math.sqrt(1e307 / 4096.0) / 2.0))
    with pytest.raises(PlanViolationError, match="energy density overflows"):
        analysis(flat, QolctPlan.create(A, A, input_grid=g))


# ---------------------------------------------------------------------------
# The analysis keeps its last result for the same signal object and plan.

def _memo_pair():
    g = Grid2D.centered(32, 8.0)
    return synth_gaussian(g, 0.5, 0.7), QolctPlan.create(A1_REF, A2_REF, input_grid=g)


def _count_transforms(monkeypatch):
    from qolct import olct
    calls = []

    def spy(*args, _real=olct._planes_ft):
        calls.append(1)
        return _real(*args)

    monkeypatch.setattr(olct, "_planes_ft", spy)
    return calls


_MEMO_REPORTS = {"pitt": lambda f, plan: pitt_check(f, plan, 1.0),
                 "logup": lambda f, plan: log_up_check(f, plan).slack,
                 "heisenberg": lambda f, plan: heisenberg_report(f, plan, 1)}


@pytest.mark.parametrize("first", sorted(_MEMO_REPORTS))
def test_analysis_memo_serves_later_reports_on_the_pair(monkeypatch, first):
    f, plan = _memo_pair()
    want = _MEMO_REPORTS[first](f, plan)
    calls = _count_transforms(monkeypatch)
    got = {name: report(f, plan) for name, report in _MEMO_REPORTS.items()}
    assert not calls and got[first] == want


_PLAN_CHANGES = {
    "A1": lambda plan: {"A1": replace(plan.A1, tau=0.5)},
    "A2": lambda plan: {"A2": replace(plan.A2, eta=0.1)},
    "lam": lambda plan: {"lam": PureUnit(0.0, 0.0, 1.0)},
    "mu": lambda plan: {"mu": PureUnit(1.0, 0.0, 0.0)},
    "output_grid": lambda plan: {"output_grid": replace(
        plan.output_grid, center1=plan.output_grid.spacing1 / 2.0)},
}


@pytest.mark.parametrize("change", ["signal", *_PLAN_CHANGES])
def test_analysis_memo_recomputes_another_pair(monkeypatch, change):
    f, plan = _memo_pair()
    first = analysis(f, plan)
    other_f, other_plan = f, plan
    if change == "signal":  # equal values, another object
        other_f = QField(f.grid, f.samples.copy())
    else:
        other_plan = replace(plan, **_PLAN_CHANGES[change](plan))
    calls = _count_transforms(monkeypatch)
    again = analysis(other_f, other_plan)
    assert calls and again is not first
    if change == "signal":
        np.testing.assert_array_equal(again.density, first.density)
    # a hit never skips the checks: a plan on another input grid is refused
    with pytest.raises(ValueError, match="plan input grid"):
        analysis(f, replace(plan, input_grid=Grid2D.centered(32, 6.0)))


def test_analysis_memo_keys_on_the_armed_mutation():
    from qolct import _mutation
    f, plan = _memo_pair()
    want = analysis(f, plan).density.copy()
    with _mutation.inject("density-fold"):
        np.testing.assert_array_equal(analysis(f, plan).density, 2.0 * want)
    np.testing.assert_array_equal(analysis(f, plan).density, want)


# Axis-pair- and grid-only arrays are cached read-only.  The plan factors are
# built per call, so each of the three fixtures that act inside them changes
# every call it is armed for, and no call after it.

def _fixture_runs():
    g = Grid2D.centered(32, 8.0)
    f = synth_gaussian(g, 0.5, 0.7, (1.0, 0.4), (0.7, -0.3), UNIT_I, UNIT_J)
    plan = QolctPlan.create(A1_REF, A2_REF, input_grid=g)
    degenerate = QolctPlan.create(OffsetParams(1.0, 0.0, 0.3, 1.0), A2_REF, input_grid=g)
    F = qolct_forward(f, plan)
    return {"chirp-sign": lambda: qolct_forward(f, plan),
            "iqft-scale": lambda: qolct_inverse(F, plan),
            "degenerate-chirp": lambda: qolct_forward(f, degenerate)}


@pytest.mark.parametrize("name", ["chirp-sign", "iqft-scale", "degenerate-chirp"])
def test_factor_fixtures_act_on_every_call(name):
    from qolct import _mutation
    run = _fixture_runs()[name]
    want = run().samples.tobytes()
    with _mutation.inject(name):
        armed = run().samples.tobytes()
    assert armed != want
    assert run().samples.tobytes() == want


def _cached_arrays():
    from qolct import olct, qft, quat
    g = Grid2D.centered(32, 8.0)
    plan = QolctPlan.create(A1_REF, A2_REF, input_grid=g)
    f = synth_gaussian(g, 0.5, 0.7)
    return {"plane basis": (quat.plane_basis(UNIT_I, UNIT_J),),
            "axis ramps": qft._axis_ramps(32, 0.0, 0.25, 0.0, 2.0 * math.pi / 8.0, -1),
            "kept forward": (olct.kept_forward(f, plan).samples,)}


@pytest.mark.parametrize("cache", ["plane basis", "axis ramps", "kept forward"])
def test_cached_arrays_are_read_only(cache):
    for values in _cached_arrays()[cache]:
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0


def test_kept_forward_lets_its_signal_go():
    from qolct import olct
    f, plan = _memo_pair()
    forward = weakref.ref(olct.kept_forward(f, plan))
    assert forward() is not None and olct.kept_forward(f, plan) is forward()
    del f
    gc.collect()
    assert forward() is None


def test_caches_stay_within_their_sizes():
    from qolct import qft, quat, uncertainty
    caches = (quat.plane_basis, qft._axis_ramps, uncertainty._radial_groups)
    rng = np.random.default_rng(7)
    for k in range(30):
        g = Grid2D.centered((16, 24, 32)[k % 3], 8.0)
        f = synth_gaussian(g, 0.5, 0.7)
        A1, A2 = (random_offset_params(rng, max_chirp_ratio=0.7) for _ in range(2))
        plan = QolctPlan.create(A1, A2,
                                PureUnit(*rng.normal(size=3)), PureUnit(*rng.normal(size=3)),
                                input_grid=g)
        qolct_inverse(qolct_forward(f, plan), plan)
        analysis(f, plan)
        uncertainty.beurling_integral(f, plan, 1.0, 2.0)
    for cache in caches:
        info = cache.cache_info()
        assert 0 < info.currsize <= info.maxsize, cache


def test_analysis_memo_hands_out_read_only_arrays():
    f, plan = _memo_pair()
    an = analysis(f, plan)
    for values in (an.density, an.e2):
        with pytest.raises(ValueError, match="read-only"):
            values[0, 0] = 0.0


def test_analysis_memo_lets_its_signal_go():
    f, plan = _memo_pair()
    density = weakref.ref(analysis(f, plan).density)
    assert density() is not None  # the memo holds it while f lives
    del f
    gc.collect()
    assert density() is None


@settings(max_examples=60, deadline=None)
@given(**_DENSITY_CASES)
def test_inverse_round_trip_property(n1, n2, axes, shifted, seed):
    f, plan = _density_case(n1, n2, axes, seed, shifted)
    back = qolct_inverse(qolct_forward(f, plan), plan)
    assert back.grid == f.grid
    assert rel_max_err(back.samples, f.samples) <= 1e-12


# ---------------------------------------------------------------------------
# Degenerate branches.

def test_degenerate_identity_matrices():
    g = Grid2D.centered(64, 14.0)
    f = synth_gaussian(g, 0.8, 1.2, (1.0, 0.5), (0.7, -0.4), UNIT_I, UNIT_J)
    ident = OffsetParams(1.0, 0.0, 0.0, 1.0)
    plan = QolctPlan.create(ident, ident, input_grid=g)
    got = qolct_forward(f, plan)
    assert np.abs(got.samples - f.samples).max() <= 1e-12
    assert plan.output_grid == g
    # at tau = 1e7 the derived grid's coordinates miss the samples by about
    # 2e-8 of h, their own rounding: still a plan, and still a gather, which
    # the dense quadrature reads within the same allowance
    g = Grid2D(64, 64, 0.1, 0.0, 16.3 / 64, 16.3 / 64)
    f = QField(g, np.random.default_rng(3).normal(size=(64, 64, 4)))
    far = OffsetParams(1.0, 0.0, 0.0, 1.0, 1e7, 0.0)
    plan = QolctPlan.create(far, far, input_grid=g)
    got = qolct_forward(f, plan)
    assert np.abs(got.samples - f.samples).max() <= 1e-12
    assert rel_max_err(got.samples, qolct_direct(f, plan).samples) <= 1e-12


def test_degenerate_branch_exact_when_substitution_hits_samples():
    # d = 1 and tau a multiple of the spacing: no interpolation at all
    g = Grid2D.centered(64, 16.0)
    f = synth_gaussian(g, 0.8, 1.2, (1.0, 0.5), (0.7, -0.4), UNIT_I, UNIT_J)
    h = g.spacing1
    A1 = OffsetParams(1.0, 0.0, 0.7, 1.0, 4 * h, -0.6)
    A2 = OffsetParams(1.0, 0.0, -0.3, 1.0, -2 * h, 0.8)
    og = Grid2D(40, 40, A1.tau, A2.tau, h, h)
    plan = QolctPlan(A1, A2, UNIT_I, UNIT_J, g, og)
    got = qolct_forward(f, plan)
    u1 = og.axis_coords(1)
    u2 = og.axis_coords(2)
    sub = synth_gaussian(
        Grid2D(40, 40, og.center1 - A1.tau, og.center2 - A2.tau, h, h),
        0.8, 1.2, (1.0, 0.5), (0.7, -0.4), UNIT_I, UNIT_J)
    ch1 = plane_to_quat(np.exp(1j * (A1.c * (u1 - A1.tau) ** 2 / 2
                                     + u1 * A1.eta)), UNIT_I)
    ch2 = plane_to_quat(np.exp(1j * (A2.c * (u2 - A2.tau) ** 2 / 2
                                     + u2 * A2.eta)), UNIT_J)
    want = qmul(qmul(ch1[:, None, :], sub.samples), ch2[None, :, :])
    assert rel_max_err(got.samples, want) <= 1e-12


@pytest.mark.parametrize("zero_axes", ["b1_zero", "b2_zero", "both_zero"])
def test_forward_serves_b_zero_axes(zero_axes):
    # qolct_forward, and so the quartet and the dense quadrature, pick the
    # substitution for every b = 0 axis from the plan alone; the inverse and
    # the analysis quartet still require b > 0 on both axes
    g = Grid2D.centered(24, 8.0)
    f = synth_gaussian(g, 0.8, 1.2, (1.0, 0.5), (0.7, -0.4), UNIT_I, UNIT_J)
    h = g.spacing1
    A1, A2 = A1_REF, A2_REF
    c1 = c2 = 0.0
    if zero_axes in ("b1_zero", "both_zero"):
        A1 = OffsetParams(1.0, 0.0, 0.7, 1.0, 3 * h, -0.6)
        c1 = A1.tau
    if zero_axes in ("b2_zero", "both_zero"):
        A2 = OffsetParams(1.0, 0.0, -0.3, 1.0, -2 * h, 0.8)
        c2 = A2.tau
    og = Grid2D(16, 16, c1, c2, h, h)
    plan = QolctPlan(A1, A2, UNIT_I, UNIT_J, g, og)
    got = qolct_forward(f, plan)

    assert got.grid == og
    assert rel_max_err(got.samples, qolct_direct(f, plan).samples) <= 1e-12
    # between the samples on every b = 0 axis: refused with the plan, naming
    # the first b = 0 axis
    half = Grid2D(16, 16, c1 + h / 2, c2 + h / 2, h, h)
    first = 2 if zero_axes == "b2_zero" else 1
    with pytest.raises(PlanViolationError, match=f"axis {first}: substituted coordinates"):
        QolctPlan(A1, A2, UNIT_I, UNIT_J, g, half)

    with pytest.raises(ValueError, match="require b > 0"):
        analysis_quartet(f, plan)
    with pytest.raises(ValueError, match="require b > 0"):
        qolct_inverse(got, plan)


@settings(max_examples=60, deadline=None)
@given(n1=st.integers(2, 24), n2=st.integers(2, 24), shifted=st.booleans(),
       derived=st.booleans(), zero=st.sampled_from(["none", "b1", "b2", "both"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_forward_property(n1, n2, shifted, derived, zero, seed):
    # odd, even, non-square and off-center input grids, random axes; derived
    # output grids, or smaller ones no FFT serves; b = 0 axes with random d,
    # nonzero c and eta, on a window of the input samples read with stride
    # 1, 2 or 3 (the whole axis on derived grids)
    f, plan = _density_case(n1, n2, "free", seed, shifted)
    rng = np.random.default_rng(seed)
    axes = []
    for k, A in enumerate((plan.A1, plan.A2)):
        t = f.grid.axis_coords(k + 1)
        m = t.size if derived else int(rng.integers(1, t.size + 1))
        if zero in (f"b{k + 1}", "both"):
            d = rng.uniform(0.5, 2.0)
            c, eta = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.5, 1.5, 2)
            A = OffsetParams(1.0 / d, 0.0, c, d, rng.uniform(-1.0, 1.0), eta)
            s = 1 if derived else int(rng.integers(1, 4))
            m = min(m, (t.size - 1) // s + 1)
            lo = int(rng.integers(0, t.size - (m - 1) * s))
            window = t[lo:lo + (m - 1) * s + 1:s]
            axes.append((A, m, A.tau + window.mean() / d, s * (t[1] - t[0]) / d))
        else:
            spacing = (plan.output_grid.spacing1, plan.output_grid.spacing2)[k]
            if derived:
                axes.append((A, m, 0.0, spacing))
            else:
                axes.append((A, m, rng.uniform(-2.0, 2.0) * spacing, 0.8 * spacing))
    (A1, m1, c1, s1), (A2, m2, c2, s2) = axes
    plan = QolctPlan(A1, A2, plan.lam, plan.mu, f.grid,
                     Grid2D(m1, m2, c1, c2, s1, s2))
    assert rel_max_err(qolct_forward(f, plan).samples,
                       qolct_direct(f, plan).samples) <= 1e-12


def test_degenerate_single_axis_consistent_with_main_limit():
    # compact version of the acceptance limit check: b1 = 1e-2 main branch
    # against the b1 = 0 branch, on input samples (stride 1, spacing h)
    n1, n2 = 4096, 8
    g = Grid2D(n1, n2, 0.0, 0.0, 7.6 / n1, 4.0 / n2)
    f = synth_gaussian(g, 0.8, 0.8, (1.0, 0.3), (1.0, -0.2), UNIT_I, UNIT_J)
    A2 = OffsetParams(1.0, 1.0, 0.5, 1.5, 0.2, 0.1)
    a1, c1, tau1, eta1 = 1.0, 0.8, 0.35, -0.55
    og = Grid2D(512, n2, tau1, 0.0, g.spacing1, 2 * np.pi / (n2 * g.spacing2))
    b1 = 1e-2
    plan_eps = QolctPlan(OffsetParams(a1, b1, c1, (1 + b1 * c1) / a1, tau1, eta1),
                         A2, UNIT_I, UNIT_J, g, og)
    F_eps = qolct_direct(f, plan_eps)
    plan0 = QolctPlan(OffsetParams(a1, 0.0, c1, 1.0 / a1, tau1, eta1),
                      A2, UNIT_I, UNIT_J, g, og)
    F0 = qolct_forward(f, plan0)
    rel = np.sqrt(np.sum((F_eps.samples - F0.samples) ** 2)
                  / np.sum(F0.samples ** 2))
    assert rel <= 1e-2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("A, axis", [
    (OffsetParams(0.0, 1.0, -1.0, 0.0, 1e300, 0.0), 1),  # tau^2 overflows
    (OffsetParams(0.0, 1e300, -1e-300, 0.0), 2),  # u^2 overflows on the u-grid
    (OffsetParams(1.0, 0.0, 0.0, 1.0, 0.0, 1e308), 2),  # b = 0: u * eta overflows
], ids=["tau", "b", "degenerate-eta"])
def test_forward_rejects_an_overflowing_kernel_phase(A, axis):
    # rejected before any transform runs, naming the axis, never NaN
    g = Grid2D.centered(16, 8.0)
    qft = QFT_CASE
    plan = QolctPlan.create(*((A, qft) if axis == 1 else (qft, A)), input_grid=g)
    with pytest.raises(PlanViolationError, match=f"axis {axis}: a kernel phase overflows"):
        qolct_forward(synth_gaussian(g, 0.5, 0.5), plan)


def test_degenerate_rejects_bad_inputs():
    g = Grid2D.centered(32, 8.0)
    ident = OffsetParams(1.0, 0.0, 0.0, 1.0)
    QolctPlan.create(ident, ident, input_grid=g)
    with pytest.raises(ValueError, match="axis 1: a b = 0 axis needs d > 0"):
        QolctPlan(OffsetParams(-1.0, 0.0, 0.0, -1.0), ident, UNIT_I, UNIT_J, g, g)
    # with b = 0 the determinant is a*d: a b = 0, d = 0 axis is not unimodular
    with pytest.raises(ValueError, match="determinant 0.0 is not 1"):
        OffsetParams(0.0, 0.0, 1.0, 0.0)
    # b = 0 with d < 0: the derived output grid u = t/d + tau would run backwards
    with pytest.raises(ValueError, match="axis 1: a b = 0 axis needs d > 0"):
        QolctPlan.derived_output_grid(OffsetParams(-1.0, 0.0, 0.5, -1.0), ident, g)


@pytest.mark.parametrize("axis", [1, 2])
def test_b_zero_substitution_outside_the_input_grid_is_a_plan_violation(axis):
    # a plan bound, like the chirp and Nyquist bounds: PlanViolationError,
    # which the CLI maps to exit 4, naming the axis
    g = Grid2D.centered(32, 8.0)
    ident = OffsetParams(1.0, 0.0, 0.0, 1.0)
    og = QolctPlan.derived_output_grid(ident, ident, g)
    wide = replace(og, **{f"spacing{axis}": 1.0})  # u reaches 4x past the t-grid
    with pytest.raises(PlanViolationError, match=f"axis {axis}: substituted coordinates"):
        QolctPlan(ident, ident, UNIT_I, UNIT_J, g, wide)


# ---------------------------------------------------------------------------
# Covariance and moment identities.

def test_shift_covariance(grid128):
    f = synth_gaussian(grid128, 1.0, 0.7, (1.0, 0.5), (0.7, -0.4),
                       UNIT_I, UNIT_J)
    planq = QolctPlan.create(QFT_CASE, QFT_CASE, input_grid=grid128)
    rep = shift_covariance_check(f, planq, (0.0, 0.0))
    assert rep.maxerr <= 1e-12
    rep = shift_covariance_check(f, planq, (0.5, 0.0))
    assert rep.maxerr <= 1e-6
    plan = QolctPlan.create(A1_REF, A2_REF, input_grid=grid128)
    rep = shift_covariance_check(f, plan, (0.4, -0.3))
    assert rep.maxerr <= 1e-6


def test_shift_covariance_zero_a_has_no_argument_shift(grid128):
    # with a1 = a2 = 0 the argument of O{f} is unshifted: pure phase factor
    f = synth_gaussian(grid128, 1.0, 0.7)
    A1 = OffsetParams(0.0, 1.0, -1.0, 0.7, 0.4, -0.3)
    A2 = OffsetParams(0.0, 0.8, -1.25, 0.2, -0.6, 0.1)
    plan = QolctPlan.create(A1, A2, input_grid=grid128)
    k = (0.5, -0.4)
    rep = shift_covariance_check(f, plan, k)
    assert rep.maxerr <= 1e-6
    base = qolct_forward(f, plan)
    u1 = plan.output_grid.axis_coords(1)
    u2 = plan.output_grid.axis_coords(2)
    ph1 = A1.c * (2 * k[0] * u1) / 2.0 + k[0] * (-A1.c * A1.tau)
    ph2 = A2.c * (2 * k[1] * u2) / 2.0 + k[1] * (-A2.c * A2.tau)
    pred = qmul(qmul(plane_to_quat(np.exp(1j * ph1), UNIT_I)[:, None, :],
                     base.samples),
                plane_to_quat(np.exp(1j * ph2), UNIT_J)[None, :, :])
    assert rel_max_err(rep.lhs.samples, pred) <= 1e-6


def test_shift_covariance_rejects_uncontained_shift(grid64):
    f = synth_gaussian(grid64, 0.02, 0.02)  # slab filling the grid
    plan = QolctPlan.create(QFT_CASE, QFT_CASE,
                            input_grid=grid64)
    with pytest.raises(ValueError):
        shift_covariance_check(f, plan, (2.0, 0.0))


def test_modulation_covariance(grid128):
    f = synth_gaussian(grid128, 1.0, 0.7, (1.0, 0.5), (0.7, -0.4),
                       UNIT_I, UNIT_J)
    planq = QolctPlan.create(QFT_CASE, QFT_CASE, input_grid=grid128)
    rep = modulation_covariance_check(f, planq, (0.0, 0.0))
    assert rep.maxerr <= 1e-12
    rep = modulation_covariance_check(f, planq, (1.0, 0.0))
    assert rep.maxerr <= 1e-6
    plan = QolctPlan.create(A1_REF, A2_REF, input_grid=grid128)
    rep = modulation_covariance_check(f, plan, (0.8, 0.6))
    assert rep.maxerr <= 1e-6


def test_shift_phase_variants_coincide_at_zero_offsets():
    # derived shift phase: c(2ku - ak^2)/2 + k(a eta - c tau); an
    # alternative couples the offsets as -k a (d tau - b eta)/b instead.
    # The two must coincide when tau = eta = 0.
    u = np.linspace(-3, 3, 11)
    for A1, A2 in parameter_sets(3, seed=5, with_offsets=False):
        for A in (A1, A2):
            k = 0.7
            derived = (A.c * (2 * k * u - A.a * k ** 2) / 2.0
                       + k * (A.a * A.eta - A.c * A.tau))
            alt_form = ((2 * k * u - A.a * k ** 2) * A.b * A.c
                        - 2 * k * A.a * (A.d * A.tau - A.b * A.eta)) / (2 * A.b)
            assert np.abs(derived - alt_form).max() <= 1e-12


def test_covariance_checks_are_order_independent(grid64):
    # both checks are pure functions of (f, plan, vector): running them in
    # either order yields identical reports
    f = synth_gaussian(grid64, 1.0, 0.7)
    plan = QolctPlan.create(A1_REF, A2_REF, input_grid=grid64)
    m1 = modulation_covariance_check(f, plan, (0.8, 0.6)).maxerr
    s1 = shift_covariance_check(f, plan, (0.4, -0.3)).maxerr
    s2 = shift_covariance_check(f, plan, (0.4, -0.3)).maxerr
    m2 = modulation_covariance_check(f, plan, (0.8, 0.6)).maxerr
    assert m1 == m2 and s1 == s2


def test_moment_identities(grid256):
    f = synth_gaussian(grid256, 0.5, 0.8, (1.0, 0.5), (0.7, -0.4),
                       UNIT_I, UNIT_J)
    plan = QolctPlan.create(A1_REF, A2_REF, input_grid=grid256)
    for axis in (1, 2):
        rep = moment_identity_check(f, plan, axis)
        assert rep.relerr <= 1e-5, (axis, rep.relerr)
    zero = zero_field(grid256)
    rep = moment_identity_check(zero, plan, 1)
    assert rep.lhs == 0.0 and rep.rhs == 0.0


def test_moment_identity_offset_term(grid256):
    # tau1 shifts the linear term of the right-hand side; verified with
    # tau1 = 1 against tau1 = 0
    f = synth_gaussian(grid256, 0.5, 0.8)
    A1_tau = OffsetParams(1.0, 1.0, 1.0, 2.0, 1.0, 0.0)
    A1_no = OffsetParams(1.0, 1.0, 1.0, 2.0, 0.0, 0.0)
    A2 = OffsetParams(0.5, 1.5, -0.4, 0.8)
    rep_tau = moment_identity_check(f, QolctPlan.create(A1_tau, A2,
                                                        input_grid=grid256), 1)
    rep_no = moment_identity_check(f, QolctPlan.create(A1_no, A2,
                                                       input_grid=grid256), 1)
    assert rep_tau.relerr <= 1e-5
    assert rep_no.relerr <= 1e-5
    # analytic difference: b^2 int ((a t + tau)^2 - (a t)^2)/b^2 |f|^2 (the
    # cross term vanishes by parity): int (2 a t tau + tau^2) |f|^2
    t1, _ = meshgrid(grid256)
    e2 = np.sum(f.samples ** 2, axis=-1)
    want = float(np.sum((2 * 1.0 * t1 * 1.0 + 1.0) * e2)) * grid256.cell_area
    assert rep_tau.rhs - rep_no.rhs == pytest.approx(want, rel=1e-10)


def test_moment_identity_chirped_signal():
    # the analysis-quartet norm makes the identity hold even when the
    # signal carries its own phase
    g = Grid2D.centered(256, 14.0)
    f = apply_chirp(synth_gaussian(g, 0.8, 0.8),
                    UNIT_I, 0.0, 0.3, UNIT_J, 0.0, -0.2)
    plan = QolctPlan.create(A1_REF, A2_REF, input_grid=g)
    for axis in (1, 2):
        rep = moment_identity_check(f, plan, axis)
        assert rep.relerr <= 1e-5, (axis, rep.relerr)


def test_factor_pairs_run_no_field_sized_hamilton_product(monkeypatch, grid64):
    # per-axis factors act in the planes split: the only Hamilton products
    # left on these paths build the 4x4 plane basis
    import sys
    from qolct import quat
    sizes = []

    def spy(a, b, _real=quat.qmul):
        out = _real(a, b)
        sizes.append(out.size)
        return out

    for name, module in list(sys.modules.items()):
        if name.startswith("qolct") and hasattr(module, "qmul"):
            monkeypatch.setattr(module, "qmul", spy)
    f = corpus_signals(grid64)["quaternion"]
    lam, mu = PureUnit(1.0, 2.0, -0.5), PureUnit(0.3, -1.0, 2.0)
    plan = QolctPlan.create(A1_REF, A2_REF, lam, mu, input_grid=grid64)
    qolct_inverse(qolct_forward(f, plan), plan)
    analysis(f, plan)
    heisenberg_report(f, plan, 1)
    apply_chirp(f, lam, 0.3, 0.2, mu, -0.1, 0.4)
    assert sizes and max(sizes) <= 16


@pytest.mark.parametrize("armed", [None, "planes-conj"])
@pytest.mark.parametrize("n, threaded_from", [(64, 1), (512, 1 << 40)])
def test_engine_threads_change_no_output_byte(monkeypatch, armed, n, threaded_from):
    """The planes engine's threads leave every output byte as it is: at 64^2
    (one thread by default) forced onto two, and at 512^2 (two by default)
    forced onto one, on FFT plans, grid-changing dense plans, the sign-0
    pass (apply_chirp) and a b = 0 plan."""
    from qolct import qft
    g = Grid2D.centered(n, 16.0)
    h = g.spacing1
    f = synth_gaussian(g, 0.5, 0.7, (1.0, 0.5), (0.7, -0.4), UNIT_I, UNIT_J)
    lam, mu = PureUnit(1.0, 2.0, -0.5), PureUnit(-0.3, 0.4, 1.0)
    plan = QolctPlan.create(A1_REF, A2_REF, input_grid=g)
    og = plan.output_grid
    fine = Grid2D(n // 2 + 3, n // 2 - 5, 0.1, -0.2, 0.8 * og.spacing1, 0.7 * og.spacing2)
    b_zero = QolctPlan(OffsetParams(1.0, 0.0, 0.7, 1.0, 3 * h, -0.6), A2_REF,
                       UNIT_I, UNIT_J, g, Grid2D(2 * (n // 3), 2 * (n // 3), 3 * h, 0.0, h, h))

    def outputs():
        qp = QftPlan.forward(g, lam, mu)
        F, O = qft_fast_ij(f, qp), qolct_forward(f, plan)
        fields = {"qft": F, "iqft": iqft(F, qp), "qolct": O,
                  "qolct inverse": qolct_inverse(O, plan),
                  "dense": qolct_forward(f, QolctPlan(A1_REF, A2_REF, lam, mu, g, fine)),
                  "chirp": apply_chirp(f, lam, 0.3, 0.1, mu, -0.2, 0.05),
                  "b = 0": qolct_forward(f, b_zero)}
        return {k: v.samples.tobytes() for k, v in fields.items()}

    with _mutation.inject(armed):
        default = outputs()
        monkeypatch.setattr(qft, "_THREADED_FROM", threaded_from)
        forced = outputs()
    assert [k for k in default if forced[k] != default[k]] == []


def test_threaded_forward_matches_the_gaussian_closed_form(monkeypatch):
    """No verify check reaches the engine's threaded stages (from 2^18
    samples per plane): at 512^2, random axes and random parameters with
    offsets, the threaded forward of a quaternion Gaussian on those axes
    against its closed form, at verify's 1e-6."""
    import threading

    from qolct import qft
    from qolct.oracle import GaussianSpec, gaussian_qolct_closed_form_field
    from qolct.verify import _random_axis

    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(qft.threading, "Thread", Counted)
    rng = np.random.default_rng(0)
    lam, mu = _random_axis(rng), _random_axis(rng)
    A1, A2 = (random_offset_params(rng, max_chirp_ratio=1.5) for _ in range(2))
    spec = GaussianSpec(0.9, 0.6, 0.8, -0.5, 1.0, 0.7)
    g = Grid2D.centered(512, 16.0)
    f = synth_gaussian(g, spec.alpha1, spec.alpha2, (spec.beta11, spec.beta12),
                       (spec.beta21, spec.beta22), lam, mu)
    plan = QolctPlan.create(A1, A2, lam, mu, input_grid=g)
    got = qolct_forward(f, plan)
    assert len(started) == 3  # map in, transform and map back, each on two threads
    want = gaussian_qolct_closed_form_field(spec, A1, A2, lam, mu, plan.output_grid)
    assert rel_max_err(got.samples, want.samples) <= 1e-6


def test_forward_allocates_one_full_array(monkeypatch):
    """Beyond its input, one forward at 512^2 peaks at one (n1, n2, 4) float64
    array, which holds both planes, and per half of the rows the engine's
    256 KiB scratch block and the buffers numpy's ufuncs take for one
    strided complex multiply, plus the per-row maps in and back, their
    temporaries and the axis factors; no working plane.  The field keeps
    the engine's array, owned and read-only, also on a dense plan whose
    grid changes."""
    from qolct import olct
    g = Grid2D.centered(512, 16.0)
    f = synth_gaussian(g, 0.5, 0.7, (1.0, 0.5), (0.7, -0.4), UNIT_I, UNIT_J)
    plan = QolctPlan.create(A1_REF, A2_REF, input_grid=g)
    qolct_forward(f, plan)  # fills the plan's factor caches
    tracemalloc.start()
    try:
        O = qolct_forward(f, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    full, scratch, buffers = 512 * 512 * 4 * 8, _ROW_BLOCK * 4 * 8, 2 * np.getbufsize() * 16
    maps = 4 * 512 * 4 * 4 * 8
    assert full <= peak <= full + 2 * (scratch + buffers) + maps
    del O

    og = plan.output_grid
    fine = Grid2D(40, 36, 0.1, -0.2, 0.8 * og.spacing1, 0.7 * og.spacing2)
    made = []

    def spy(*args, _real=olct._planes_ft):
        made.append(_real(*args))
        return made[-1]

    monkeypatch.setattr(olct, "_planes_ft", spy)
    for p in (plan, QolctPlan(A1_REF, A2_REF, UNIT_I, UNIT_J, g, fine)):
        O = qolct_forward(f, p)
        assert O.samples is made[-1] and O.grid == p.output_grid
        assert O.samples.flags.owndata and not O.samples.flags.writeable
