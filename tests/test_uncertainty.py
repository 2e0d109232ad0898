import math
import warnings

import numpy as np
import pytest
import scipy.special as sp

from qolct import (
    Grid2D,
    OffsetParams,
    QField,
    QolctPlan,
    UNIT_I,
    UNIT_J,
    l2_norm,
    synth_gaussian,
)
from qolct.field import apply_chirp
from qolct.olct import analysis
from qolct.oracle import digamma, plane_to_quat
from qolct.qft import PlanViolationError
from qolct.quat import PureUnit, qmul
from qolct.uncertainty import (
    LOG_UP_CONSTANT,
    beurling_integral,
    hardy_envelope_fit,
    hardy_report,
    heisenberg_report,
    log_up_check,
    pitt_check,
    pitt_constants,
)
from qolct.verify import QFT_CASE

from conftest import corpus_signals, meshgrid, parameter_sets, rel_max_err, zero_field

EULER_GAMMA = 0.5772156649015329


# ---------------------------------------------------------------------------
# Gamma / digamma / constants.

def test_gamma_classical_values():
    assert math.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert math.gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert math.gamma(5.0) == pytest.approx(24.0, rel=1e-13)
    with pytest.raises(ValueError):
        digamma(-1.0)


def test_gamma_digamma_against_scipy():
    xs = np.linspace(0.25, 10.0, 391)
    for x in xs:
        assert math.gamma(float(x)) == pytest.approx(float(sp.gamma(x)), rel=1e-12)
        assert digamma(float(x)) == pytest.approx(float(sp.digamma(x)),
                                                  rel=1e-12, abs=1e-13)


def test_gamma_recurrence():
    for x in np.linspace(0.25, 10.0, 40):
        assert math.gamma(x + 1.0) == pytest.approx(x * math.gamma(x), rel=1e-13)


def test_digamma_half_frozen_value():
    # psi(1/2) = -gamma - 2 ln 2 (duplication identity)
    assert digamma(0.5) == pytest.approx(-1.9635100260214235, abs=1e-12)


def test_log_up_constant():
    # A = ln 2 + psi(1/2) = -gamma - ln 2
    assert LOG_UP_CONSTANT == pytest.approx(-1.2703628454614782, abs=1e-12)
    assert LOG_UP_CONSTANT == pytest.approx(-EULER_GAMMA - math.log(2.0),
                                            abs=1e-12)
    # cross-check via numerical differentiation of Gamma
    h = 1e-6
    dlog = (math.log(math.gamma(0.5 + h)) - math.log(math.gamma(0.5 - h))) / (2 * h)
    assert abs((math.log(2.0) + dlog) - LOG_UP_CONSTANT) <= 1e-8


def test_pitt_constants():
    assert abs(pitt_constants(0.0) - 4.0 * math.pi ** 2) <= 1e-12
    assert abs(pitt_constants(1e-6) - 4.0 * math.pi ** 2) <= 1e-3
    want = 4 * math.pi ** 2 / 2.0 * (sp.gamma(0.25) / sp.gamma(0.75)) ** 2
    assert pitt_constants(1.0) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        pitt_constants(2.0)
    with pytest.raises(ValueError):
        pitt_constants(-0.1)


# ---------------------------------------------------------------------------
# Heisenberg-Weyl.

def test_heisenberg_classical_minimizer(grid128):
    f = synth_gaussian(grid128, 0.5, 0.5)
    A = QFT_CASE
    plan = QolctPlan.create(A, A, input_grid=grid128)
    for axis in (1, 2):
        rep = heisenberg_report(f, plan, axis)
        assert rep.spatial_spread == pytest.approx(math.pi / 2, rel=1e-10)
        assert rep.spectral_spread == pytest.approx(1.0 / (8 * math.pi),
                                                    rel=1e-10)
        assert abs(rep.cov) <= 1e-12
        assert abs(rep.gap) / rep.rhs <= 1e-2  # classical equality
    with pytest.raises(ValueError, match="axis must be 1 or 2"):
        heisenberg_report(f, plan, 3)


def test_heisenberg_chirped_equality_case():
    # pure quadratic chirp saturates the covariance-corrected bound
    g = Grid2D.centered(256, 14.0)
    f = apply_chirp(synth_gaussian(g, 0.8, 0.8),
                    UNIT_I, 0.0, 0.3, UNIT_J, 0.0, -0.2)
    A = QFT_CASE
    plan = QolctPlan.create(A, A, input_grid=g)
    rep = heisenberg_report(f, plan, 1)
    # analytic covariance for phase rate 2 q t: (q/pi) int t^2 |f|^2
    t1, _ = meshgrid(g)
    e2 = np.sum(f.samples ** 2, axis=-1)
    want_cov = 0.3 / math.pi * float(np.sum(t1 ** 2 * e2)) * g.cell_area
    assert rep.cov == pytest.approx(want_cov, rel=1e-5)
    assert abs(rep.gap) / rep.rhs <= 1e-3  # equality within numerics


def test_heisenberg_corpus_inequality():
    g = Grid2D.centered(256, 14.0)
    signals = corpus_signals(g)
    sets = parameter_sets(5, seed=2024)
    for name, f in signals.items():
        for A1, A2 in sets:
            plan = QolctPlan.create(A1, A2, input_grid=g)
            rep = heisenberg_report(f, plan, 1)
            assert rep.gap >= -1e-6 * rep.rhs, (name, A1, A2, rep.gap / rep.rhs)
            # the weak bound never needs the covariance numerics
            assert rep.lhs >= rep.base_bound * (1.0 - 1e-6), name
            assert rep.spatial_spread >= 0 and rep.spectral_spread >= 0
            assert rep.rhs == pytest.approx(rep.base_bound + rep.cov ** 2)


def _exact_real_cov(f, plan, k):
    """COV of a real positive signal: its unit phase u is 1, so |d/dt_k w| is
    the chirp's |phi_k'| = |tau_k + a_k t_k|/b_k alone."""
    A = plan.A1 if k == 1 else plan.A2
    t = f.grid.axis_coords(k).reshape((-1, 1) if k == 1 else (1, -1))
    e2 = np.sum(f.samples ** 2, axis=-1)
    return (float(np.sum(np.abs(t) * e2 * np.abs(A.tau + A.a * t) / A.b))
            * f.grid.cell_area / (2.0 * math.pi))


@pytest.mark.parametrize("n, tau1", [(64, 0.3), (128, 0.3), (64, 8.0)])
def test_heisenberg_covariance_is_exact_on_real_signals(n, tau1):
    # COV differentiates no chirp: on a real Gaussian it is the plain sum,
    # on a general (i, j) plan, a random-axes plan and both axes alike.
    # tau1 = 8 turns the chirp by 2 rad per sample, which the plan accepts
    g = Grid2D.centered(n, 16.0)
    f = synth_gaussian(g, 0.6, 0.9, center=(0.5, -0.4))
    A1 = OffsetParams(1.0, 1.0, 1.0, 2.0, tau1, -0.2)
    A2 = OffsetParams(0.5, 1.5, -0.4, 0.8, -0.1, 0.4)
    rng = np.random.default_rng(7)
    lam, mu = (PureUnit(*rng.standard_normal(3)) for _ in range(2))
    for plan in (QolctPlan.create(A1, A2, input_grid=g),
                 QolctPlan.create(A1, A2, lam, mu, input_grid=g)):
        for k in (1, 2):
            want = _exact_real_cov(f, plan, k)
            assert heisenberg_report(f, plan, k).cov == pytest.approx(want, rel=1e-12)


def test_heisenberg_axes_take_two_derivatives_and_no_engine_call(monkeypatch):
    # both axes of one pair take two derivatives and no engine call beyond
    # the analysis's one forward; a new plan, a new signal or another armed
    # fixture recomputes both, and either axis order gives the same reports.
    # The signal's unit phase varies, so the stencil fixture moves COV.
    import sys
    from qolct import _mutation, uncertainty
    g = Grid2D.centered(96, 12.0)
    f = apply_chirp(synth_gaussian(g, 0.6, 0.9, (1.0, 0.4), (0.7, -0.3), UNIT_I, UNIT_J),
                    UNIT_I, 0.2, 0.3, UNIT_J, -0.1, -0.2)
    (A1, A2), (B1, B2) = parameter_sets(2, seed=11)
    plan = QolctPlan.create(A1, A2, input_grid=g)
    calls = {"_planes_ft": 0, "partial_derivative": 0}
    engines = [(m, "_planes_ft") for k, m in list(sys.modules.items())
               if k.startswith("qolct") and hasattr(m, "_planes_ft")]
    for module, name in [*engines, (uncertainty, "partial_derivative")]:
        def spy(*args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, spy)

    def both(f, plan, order=(1, 2)):
        before = dict(calls)
        reports = {axis: heisenberg_report(f, plan, axis) for axis in order}
        assert {k: calls[k] - before[k] for k in calls} == {"_planes_ft": 1,
                                                            "partial_derivative": 2}
        return repr((reports[1], reports[2]))

    first = both(f, plan)
    assert both(f, QolctPlan.create(B1, B2, input_grid=g)) != first
    assert both(QField(g, f.samples.copy()), plan) == first
    with _mutation.inject("stencil"):
        assert both(f, plan) != first
    assert both(QField(g, f.samples.copy()), plan, order=(2, 1)) == first


def test_heisenberg_short_axis_fails_only_its_own_report():
    # the covariance pair is computed at once, but an axis too short for the
    # derivative fails only the report on that axis, every time it is asked
    g = Grid2D(64, 4, 0.0, 0.0, 0.25, 1.0)
    f = synth_gaussian(g, 0.5, 0.1)
    plan = QolctPlan.create(QFT_CASE, QFT_CASE, input_grid=g)
    for _ in range(2):
        with pytest.raises(PlanViolationError, match="axis 2 needs >= 5 samples, has 4"):
            heisenberg_report(f, plan, 2)
        assert abs(heisenberg_report(f, plan, 1).cov) <= 1e-12


# ---------------------------------------------------------------------------
# Hardy.

def test_envelope_fit_exact_model(grid64):
    f = synth_gaussian(grid64, 2.0, 2.0)
    fit = hardy_envelope_fit(f)
    assert fit.alpha == pytest.approx(2.0, abs=1e-10)
    assert fit.residual <= 1e-10
    with pytest.raises(ValueError, match="zero field"):
        hardy_envelope_fit(zero_field(grid64))
    spike = np.zeros((64, 64, 4))
    spike[10:12, 20:23, 0] = 1.0  # 6 samples above the floor, 8 needed
    with pytest.raises(ValueError, match="too few samples"):
        hardy_envelope_fit(QField(grid64, spike))


def test_hardy_critical_product_qft_case(grid128):
    f = synth_gaussian(grid128, 0.5, 0.5)
    A = QFT_CASE
    plan = QolctPlan.create(A, A, input_grid=grid128)
    rep = hardy_report(f, plan)
    assert rep.product == pytest.approx(0.25, abs=1e-3)


def _case_ii_signal(grid, alpha, A1, A2, amp):
    """exp(-lam q1(t1)) * amp * exp(-alpha|t|^2) * exp(-mu q2(t2)): the
    derivation-faithful Hardy case (ii) form."""
    t1 = grid.axis_coords(1)
    t2 = grid.axis_coords(2)
    base = synth_gaussian(grid, alpha, alpha)
    mid = qmul(amp, base.samples)
    left = plane_to_quat(np.exp(-1j * (A1.a / (2 * A1.b) * t1 ** 2
                                       + t1 * A1.tau / A1.b)), UNIT_I)
    right = plane_to_quat(np.exp(-1j * (A2.a / (2 * A2.b) * t2 ** 2
                                        + t2 * A2.tau / A2.b)), UNIT_J)
    return QField(grid, qmul(qmul(left[:, None, :], mid), right[None, :, :]))


def test_hardy_case_ii_general_params(grid128):
    # chirp-compensated Gaussian: alpha*beta = 1/4 for any (a, b, tau)
    A1 = OffsetParams(0.7, 1.2, 0.5, 2.2857142857142856, 0.4, -0.1)
    A2 = OffsetParams(-0.5, 0.9, -0.8, -0.5599999999999999, -0.3, 0.2)
    alpha = 0.5
    amp = np.array([1.0, 0.5, -0.3, 0.2])
    f = _case_ii_signal(grid128, alpha, A1, A2, amp)
    plan = QolctPlan.create(A1, A2, input_grid=grid128)
    rep = hardy_report(f, plan)
    assert rep.alpha_hat == pytest.approx(alpha, abs=1e-6)
    assert rep.product == pytest.approx(0.25, abs=1e-3)

    # reconstruction: f times the inverse modulated-Gaussian form is a
    # constant quaternion
    f_rec = _case_ii_signal(grid128, rep.alpha_hat, A1, A2, amp)
    assert rel_max_err(f_rec.samples, f.samples) <= 1e-4


def test_hardy_case_ii_real_amplitude_commuted_order(grid128):
    # a real amplitude commutes with the chirps, so A e^{-alpha|t|^2}
    # e^{-lam q1} e^{-mu q2} with A leftmost is the same signal; check the
    # reconstruction holds for that ordering too
    A1 = OffsetParams(0.7, 1.2, 0.5, 2.2857142857142856, 0.4, -0.1)
    A2 = OffsetParams(-0.5, 0.9, -0.8, -0.5599999999999999, -0.3, 0.2)
    alpha, amp = 0.5, 1.3
    t1 = grid128.axis_coords(1)
    t2 = grid128.axis_coords(2)
    base = synth_gaussian(grid128, alpha, alpha)
    left = plane_to_quat(np.exp(-1j * (A1.a / (2 * A1.b) * t1 ** 2
                                       + t1 * A1.tau / A1.b)), UNIT_I)
    right = plane_to_quat(np.exp(-1j * (A2.a / (2 * A2.b) * t2 ** 2
                                        + t2 * A2.tau / A2.b)), UNIT_J)
    commuted = QField(grid128, amp * qmul(qmul(base.samples, left[:, None, :]),
                                          right[None, :, :]))
    sandwiched = _case_ii_signal(grid128, alpha, A1, A2,
                                 np.array([amp, 0.0, 0.0, 0.0]))
    assert np.abs(commuted.samples - sandwiched.samples).max() <= 1e-14
    plan = QolctPlan.create(A1, A2, input_grid=grid128)
    rep = hardy_report(commuted, plan)
    assert rep.product == pytest.approx(0.25, abs=1e-3)


# ---------------------------------------------------------------------------
# Beurling.

def test_beurling_diagnostic(grid64):
    f = synth_gaussian(grid64, 1.0, 1.0)
    A = QFT_CASE
    plan = QolctPlan.create(A, A, input_grid=grid64)
    zero = beurling_integral(zero_field(grid64), plan, 4.0, 4.0)
    assert zero == 0.0
    values = [beurling_integral(f, plan, 4.0, R) for R in (1.0, 2.0, 4.0)]
    assert values[0] < values[1] < values[2]  # grows with truncation radius
    by_d = [beurling_integral(f, plan, d, 4.0) for d in (4.0, 10.0, 50.0)]
    assert by_d[0] > by_d[1] > by_d[2]  # monotone in d
    with pytest.raises(ValueError):
        beurling_integral(f, plan, -1.0, 4.0)


def _beurling_all_pairs(f, density, vgrid, d, truncation):
    """The sum over every (t, v) sample pair inside the truncation."""
    t1, t2 = meshgrid(f.grid)
    rt = np.sqrt(t1 ** 2 + t2 ** 2).ravel()
    ft = f.modulus().ravel()
    v1, v2 = meshgrid(vgrid)
    rv = np.sqrt(v1 ** 2 + v2 ** 2).ravel()
    fv = np.sqrt(density).ravel()
    keep_t, keep_v = rt <= truncation, rv <= truncation
    rt, ft, rv, fv = rt[keep_t], ft[keep_t], rv[keep_v], fv[keep_v]
    total = sum(w * float(np.sum(np.exp(r * rv) / (1.0 + r + rv) ** d * fv))
                for r, w in zip(rt, ft))
    return total * f.grid.cell_area * vgrid.cell_area


@pytest.mark.parametrize("n", [33, 64])
def test_beurling_radius_sums_match_all_pairs(n):
    # grouping each side by radius regroups the all-pairs sum exactly; the
    # general plan has b1 != b2, so its v-grid is not square
    grid = Grid2D.centered(n, 14.0)
    signals = corpus_signals(grid)
    A = QFT_CASE
    for plan in (QolctPlan.create(A, A, input_grid=grid),
                 QolctPlan.create(*parameter_sets(1, seed=4)[0], input_grid=grid)):
        for name in ("quaternion", "shifted"):
            f = signals[name]
            density, vgrid = analysis(f, plan).density, plan.scaled_freq_grid()
            for R in (1.0, 2.5, 0.45 * 14.0):
                value = beurling_integral(f, plan, 4.0, R)
                want = _beurling_all_pairs(f, density, vgrid, 4.0, R)
                assert abs(value - want) <= 1e-12 * want, (name, R)


def test_beurling_rejects_overflowing_truncations():
    # the largest |t||v| on an n^2 grid is about pi n, past ln(max float)
    # = 709.78 from n = 226 on; the check comes before any exp
    grid = Grid2D.centered(256, 16.0)
    f = synth_gaussian(grid, 0.5, 0.5)
    A = QFT_CASE
    plan = QolctPlan.create(A, A, input_grid=grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(beurling_integral(f, plan, 4.0, 30.0))
        with pytest.raises(PlanViolationError, match=r"ln\(max float\) = 709\.78"):
            beurling_integral(f, plan, 4.0, 100.0)
    # every e^(|t||v|) is finite at radius 30, but this sum is not; the
    # signal energy (about 1e280 times f's) still is, so the sum is reached
    huge = QField(grid, f.samples * 1e140)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PlanViolationError, match="weighted sum exceeds"):
            beurling_integral(huge, plan, 4.0, 30.0)


# ---------------------------------------------------------------------------
# Pitt and logarithmic inequalities.

def test_pitt_requires_ij_axes(grid64):
    f = synth_gaussian(grid64, 0.5, 0.5)
    plan = QolctPlan.create(QFT_CASE, QFT_CASE,
                            PureUnit(1, 1, 0), UNIT_J, input_grid=grid64)
    with pytest.raises(ValueError):
        pitt_check(f, plan, 1.0)
    with pytest.raises(ValueError):
        log_up_check(f, plan)


def test_singular_weights_reject_origin_samples():
    # odd n centered: both t = 0 and v = 0 are samples
    odd = Grid2D.centered(33, 10.0)
    f = synth_gaussian(odd, 0.5, 0.5)
    A = QFT_CASE
    plan = QolctPlan.create(A, A, input_grid=odd)
    with pytest.raises(PlanViolationError, match="singular at the origin"):
        pitt_check(f, plan, 1.0)
    with pytest.raises(PlanViolationError, match="n1=33"):
        log_up_check(f, plan)
    # alpha = 0 has no singular weight
    rep = pitt_check(f, plan, 0.0)
    assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs)

    # even n shifted by half a cell: t = 0 is a sample, v = 0 is not
    h = 10.0 / 32
    shifted = Grid2D(32, 32, h / 2, h / 2, h, h)
    assert 0.0 in shifted.axis_coords(1)
    f = synth_gaussian(shifted, 0.5, 0.5)
    plan = QolctPlan.create(A, A, input_grid=shifted)
    rep = pitt_check(f, plan, 1.0)  # |t|^alpha is finite at t = 0
    assert math.isfinite(rep.slack)
    with pytest.raises(PlanViolationError, match="ln\\|t\\|"):
        log_up_check(f, plan)


def test_pitt_checks_on_one_pair_share_one_analysis(monkeypatch, grid64):
    from qolct import olct
    f = synth_gaussian(grid64, 0.7, 0.5, center=(0.4, -0.2))
    plan = QolctPlan.create(OffsetParams(1.0, 1.0, 1.0, 2.0, 0.3, -0.2),
                            OffsetParams(0.5, 1.5, -0.4, 0.8, -0.1, 0.4),
                            input_grid=grid64)
    calls = []

    def spy(*args, _real=olct._planes_ft):
        calls.append(1)
        return _real(*args)

    monkeypatch.setattr(olct, "_planes_ft", spy)
    for alpha in (0.0, 0.5, 1.0, 1.75):
        pitt_check(f, plan, alpha)
    assert len(calls) == 1  # the grid is centered: one forward


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_weighted_reports_reject_non_finite_figures():
    # a 1e153 gaussian has a finite energy, but D_1.9 times its
    # |t|^1.9-weighted energy does not: the report raises, it returns no inf
    grid = Grid2D.centered(64, 16.0)
    A = QFT_CASE
    plan = QolctPlan.create(A, A, input_grid=grid)
    big = synth_gaussian(grid, 1.0, 1.0, (1e153, 0.0))
    assert math.isfinite(pitt_check(big, plan, 1.0).slack)
    with pytest.raises(PlanViolationError, match=r"alpha = 1\.9: rhs, slack: not finite"):
        pitt_check(big, plan, 1.9)
    # a gaussian of energy 1e308 centered at (10, 10), on unit cells: its
    # lhs is about 2.4e308 and its slack 3.6e308, past the largest float
    grid = Grid2D.centered(64, 64.0)
    plan = QolctPlan.create(A, A, input_grid=grid)
    far = synth_gaussian(grid, 0.5, 0.5, (math.sqrt(1e308 / math.pi), 0.0),
                         center=(10.0, 10.0))
    assert math.isfinite(analysis(far, plan).energy)
    with pytest.raises(PlanViolationError, match="logarithmic inequality: lhs, slack"):
        log_up_check(far, plan)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_weighted_energies_overflow_only_past_the_largest_float():
    # a field of flat modulus and random signs, energy 1e307 on cells of
    # 1/16: each sum of |f|^2 times a weight passes the largest float before
    # the cell scales it, but the weighted energies do not
    grid = Grid2D.centered(64, 16.0)
    A = QFT_CASE
    plan = QolctPlan.create(A, A, input_grid=grid)
    signs = np.random.default_rng(0).choice([-1.0, 1.0], size=(64, 64, 4))
    f = QField(grid, math.sqrt(1e307 / (4 * 64 * 64 * grid.cell_area)) * signs)
    rep = log_up_check(f, plan)
    assert rep.signal_term == pytest.approx(1.71e307, rel=1e-2)
    assert math.isfinite(rep.slack) and rep.slack > 0.0
    assert math.isfinite(pitt_check(f, plan, 0.5).slack)
    # its t^2-weighted energy is past the largest float: rejected, not warned
    with pytest.raises(PlanViolationError, match="axis 1: lhs, rhs, gap: not finite"):
        heisenberg_report(f, plan, 1)


def test_pitt_alpha_zero_is_plancherel(grid128):
    f = synth_gaussian(grid128, 0.5, 0.5)
    for A1, A2 in parameter_sets(2, seed=9):
        plan = QolctPlan.create(A1, A2, input_grid=grid128)
        rep = pitt_check(f, plan, 0.0)
        assert abs(rep.slack) / rep.rhs <= 1e-6
        assert rep.rhs == pytest.approx(l2_norm(f) ** 2, rel=1e-9)


def test_pitt_slack_nonnegative_corpus():
    g = Grid2D.centered(128, 16.0)
    signals = corpus_signals(g)
    A1 = OffsetParams(1.0, 1.0, 1.0, 2.0, 0.3, -0.2)
    A2 = OffsetParams(0.5, 1.5, -0.4, 0.8, -0.1, 0.4)
    plan = QolctPlan.create(A1, A2, input_grid=g)
    for name, f in signals.items():
        for alpha in (0.0, 0.5, 1.0, 1.5):
            rep = pitt_check(f, plan, alpha)
            assert rep.slack >= -1e-6 * rep.rhs, (name, alpha)


def test_logup_slack_and_gaussian_value(grid256):
    # unit Gaussian under the QFT-case matrices: both log integrals equal
    # -pi*gamma/2 and the slack is pi*ln(2)
    f = synth_gaussian(grid256, 0.5, 0.5)
    A = QFT_CASE
    plan = QolctPlan.create(A, A, input_grid=grid256)
    rep = log_up_check(f, plan)
    want_term = -math.pi * EULER_GAMMA / 2.0
    assert rep.signal_term == pytest.approx(want_term, abs=5e-3)
    # the v-grid spacing is 2 pi / extent, so the ln|v| singularity is
    # sampled 6x coarser than ln|t|; the O(h^2 ln h) error budget is larger
    assert rep.transform_term == pytest.approx(want_term, abs=6e-2)
    assert rep.slack == pytest.approx(math.pi * math.log(2.0), abs=6e-2)
    assert rep.slack >= -1e-5 * rep.energy


def test_logup_corpus_slack():
    g = Grid2D.centered(128, 16.0)
    signals = corpus_signals(g)
    for name, f in signals.items():
        for A1, A2 in parameter_sets(3, seed=11):
            plan = QolctPlan.create(A1, A2, input_grid=g)
            rep = log_up_check(f, plan)
            assert rep.slack >= -1e-5 * rep.energy, (name, A1, A2)


def test_logup_homogeneity(grid128):
    # scaling f by a real constant scales both sides (and the slack) by c^2
    f = synth_gaussian(grid128, 0.5, 0.5)
    A = QFT_CASE
    plan = QolctPlan.create(A, A, input_grid=grid128)
    base = log_up_check(f, plan)
    c = 2.7
    scaled = log_up_check(QField(grid128, c * f.samples), plan)
    assert scaled.lhs == pytest.approx(c ** 2 * base.lhs, rel=1e-12)
    assert scaled.rhs == pytest.approx(c ** 2 * base.rhs, rel=1e-12)
    assert scaled.slack == pytest.approx(c ** 2 * base.slack, rel=1e-12)


def test_logup_width_balance():
    # widening the Gaussian (alpha -> alpha/4) moves ln-weighted energy from
    # the transform side to the signal side by ln(2) * energy on each side
    A = QFT_CASE
    g = Grid2D.centered(256, 40.0)
    narrow = synth_gaussian(g, 0.5, 0.5)
    wide = synth_gaussian(g, 0.125, 0.125)
    plan = QolctPlan.create(A, A, input_grid=g)
    rep_n = log_up_check(narrow, plan)
    rep_w = log_up_check(wide, plan)
    shift_t = rep_w.signal_term / rep_w.energy - rep_n.signal_term / rep_n.energy
    shift_z = rep_w.transform_term / rep_w.energy \
        - rep_n.transform_term / rep_n.energy
    assert shift_t == pytest.approx(math.log(2.0), abs=2e-2)
    assert shift_z == pytest.approx(-math.log(2.0), abs=2e-2)
