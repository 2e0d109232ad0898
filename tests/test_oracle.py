import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest

from qolct import (
    Grid2D,
    OffsetParams,
    QField,
    QftPlan,
    QolctPlan,
    UNIT_I,
    UNIT_J,
    qolct_forward,
    synth_gaussian,
)
from qolct import oracle
from qolct.oracle import (
    GaussianSpec,
    analysis_quartet,
    gaussian_qolct_closed_form_field,
    gaussian_qolct_log_modulus,
    plane_to_quat,
    qft_direct,
    qolct_direct,
)
from qolct.quat import PureUnit, qmul, qnorm
from qolct.verify import QFT_CASE, inv_sqrt_unit

from conftest import rel_max_err

SWEEP = [
    # (a, b, c, d, tau, eta) per axis; includes nonzero offsets and a = 0
    (OffsetParams(1.0, 1.0, 1.0, 2.0, 0.3, -0.2),
     OffsetParams(1.0, 1.0, 1.0, 2.0, 0.3, -0.2)),
    (OffsetParams(0.5, 1.5, -0.4, 0.8, -0.1, 0.4),
     OffsetParams(1.2, 0.7, 0.6, 1.18333333333333333, 0.9, 0.5)),
    (OffsetParams(0.0, 1.0, -1.0, 1.3, 0.5, -0.7),
     OffsetParams(0.8, 2.0, 0.1, 1.5, 0.0, 0.0)),
    (OffsetParams(-0.9, 1.1, 0.7, -1.9666666666666668, -0.8, 0.3),
     OffsetParams(1.0, 0.5, 1.0, 1.5, 0.2, -0.9)),
    (OffsetParams(2.0, 1.0, 1.0, 1.0, 1.0, 1.0),
     OffsetParams(0.6, 1.25, -0.2, 1.25, -0.4, 0.6)),
]


def _closed_form_at(spec, A1, A2, lam, mu, u):
    """The closed form at one point u, the grid form on a one-sample grid."""
    grid = Grid2D(1, 1, u[0], u[1], 1.0, 1.0)
    return gaussian_qolct_closed_form_field(spec, A1, A2, lam, mu, grid).samples[0, 0]


def test_qft_case_reduces_to_classical_gaussian_transform():
    # alpha = 1/2, beta = 1: closed form = e^{-l pi/4} e^{-|u|^2/2} e^{-m pi/4}
    spec = GaussianSpec(0.5, 0.5)
    A = QFT_CASE
    for u in ((0.0, 0.0), (0.7, -1.3), (2.0, 1.5)):
        got = _closed_form_at(spec, A, A, UNIT_I, UNIT_J, u)
        env = math.exp(-(u[0] ** 2 + u[1] ** 2) / 2.0)
        want = qmul(inv_sqrt_unit(UNIT_I) * env, inv_sqrt_unit(UNIT_J))
        assert np.abs(got - want).max() <= 1e-14


def test_envelope_peaks_at_offsets():
    spec = GaussianSpec(1.0, 0.5, 1.0, 0.4, 0.6, -0.3)
    A1, A2 = SWEEP[1]
    peak = qnorm(_closed_form_at(spec, A1, A2, UNIT_I, UNIT_J, (A1.tau, A2.tau)))
    for du in (0.3, 1.0, 2.5):
        off = qnorm(_closed_form_at(spec, A1, A2, UNIT_I, UNIT_J,
                                    (A1.tau + du, A2.tau - du)))
        assert off < peak


@pytest.mark.parametrize("seed", [17, 60, 63, 81])
def test_envelope_peak_check_ignores_underflowed_corners(seed):
    from qolct.verify import envelope_peak_defect, oracle_checks, random_offset_params

    [rec] = [r for r in oracle_checks(seed)
             if r["check"] == "envelope-peak-at-offset"]
    assert rec["pass"], rec
    # same draw as the check: at its far corners a plain sqrt(sum q_m^2)
    # underflows to exactly 0 although the samples are representable
    rng = np.random.default_rng(seed)
    A1 = random_offset_params(rng, max_chirp_ratio=1.5)
    A2 = random_offset_params(rng, max_chirp_ratio=1.5)
    spec = GaussianSpec(0.9, 0.6, 0.8, -0.5, 1.0, 0.7)
    grid = QolctPlan.create(A1, A2, input_grid=Grid2D.centered(128, 16.0)).output_grid
    want = gaussian_qolct_closed_form_field(spec, A1, A2, UNIT_I, UNIT_J, grid)
    peak = float(qnorm(_closed_form_at(spec, A1, A2, UNIT_I, UNIT_J,
                                       (A1.tau, A2.tau))))
    log_mod = gaussian_qolct_log_modulus(spec, A1, A2, grid)
    assert np.any(np.sqrt(np.sum(want.samples ** 2, axis=-1)) == 0.0)
    assert np.all(want.modulus() > 0.0)
    assert envelope_peak_defect(want.samples, peak, log_mod) <= 1e-12
    # a zero planted where the modulus is representable still fails, down to
    # the smallest representable sample
    live = np.where(log_mod > math.log(np.finfo(float).tiny), log_mod, np.inf)
    for at in (np.unravel_index(np.argmax(log_mod), log_mod.shape),
               np.unravel_index(np.argmin(live), log_mod.shape)):
        planted = want.samples.copy()
        planted[at] = 0.0
        assert envelope_peak_defect(planted, peak, log_mod) == 1.0


def test_closed_form_matches_direct_quadrature_sweep():
    spec = GaussianSpec(1.0, 0.5, 1.0, 0.4, 0.6, -0.3)
    g = Grid2D.centered(48, 10.0)
    f = synth_gaussian(g, spec.alpha1, spec.alpha2, (spec.beta11, spec.beta12),
                       (spec.beta21, spec.beta22), UNIT_I, UNIT_J)
    for A1, A2 in SWEEP:
        plan = QolctPlan.create(A1, A2, input_grid=g)
        got = qolct_direct(f, plan)
        want = gaussian_qolct_closed_form_field(spec, A1, A2, UNIT_I, UNIT_J,
                                                plan.output_grid)
        assert rel_max_err(got.samples, want.samples) <= 1e-6


def test_contract_blocks_rows_without_changing_a_bit(monkeypatch):
    # 24 output rows in blocks of 5 (the last holding 4) give the one-block
    # sums bit for bit: each row's sum is the same ops either way
    g = Grid2D.centered(24, 6.0)
    f = QField(g, np.random.default_rng(5).normal(size=(24, 24, 4)))
    lam, mu = PureUnit(1.0, -0.5, 2.0), PureUnit(0.3, 1.0, 0.4)
    qplan = QolctPlan.create(*SWEEP[1], lam, mu, input_grid=g)
    qft_plan = QftPlan.forward(g, lam, mu)

    def results():
        return [qolct_direct(f, qplan).samples, qft_direct(f, qft_plan).samples,
                *(m.samples for m in analysis_quartet(f, qplan).members)]

    whole = results()
    monkeypatch.setattr(oracle, "_CONTRACT_BLOCK", 5)
    for got, want in zip(results(), whole, strict=True):
        assert np.array_equal(got, want)


def test_root_variant_arbitration():
    # the square root (a + 2 b alpha lam)^(-1/2) matches the quadrature;
    # the all-imaginary variant ((2 b alpha + a) lam)^(-1/2) does not.  Both
    # roots lie in one axis plane, so the variant is r1 * good * r2 with
    # r_k = sqrt(a + 2 b alpha axis) / sqrt((2 b alpha + a) axis)
    spec = GaussianSpec(1.0, 0.5)
    A1 = OffsetParams(1.0, 1.0, 1.0, 2.0, 0.3, -0.2)
    g = Grid2D.centered(64, 16.0)
    f = synth_gaussian(g, spec.alpha1, spec.alpha2)
    plan = QolctPlan.create(A1, A1, input_grid=g)
    got = qolct_forward(f, plan)
    good = gaussian_qolct_closed_form_field(spec, A1, A1, UNIT_I, UNIT_J,
                                            plan.output_grid)
    r1, r2 = (cmath.sqrt(complex(A1.a, 2.0 * A1.b * alpha))
              / cmath.sqrt(complex(0.0, 2.0 * A1.b * alpha + A1.a))
              for alpha in (spec.alpha1, spec.alpha2))
    bad = qmul(qmul(plane_to_quat(r1, UNIT_I), good.samples), plane_to_quat(r2, UNIT_J))
    assert rel_max_err(got.samples, good.samples) <= 1e-9
    assert rel_max_err(got.samples, bad) > 1e-2


def test_general_axes_closed_form():
    lam = PureUnit(1.0, 1.0, 0.0)
    mu = PureUnit(0.0, 1.0, -1.0)
    spec = GaussianSpec(1.0, 0.8, 1.0, 0.4, 0.6, -0.3)
    g = Grid2D.centered(48, 10.0)
    f = synth_gaussian(g, spec.alpha1, spec.alpha2, (spec.beta11, spec.beta12),
                       (spec.beta21, spec.beta22), lam, mu)
    A1, A2 = SWEEP[0]
    plan = QolctPlan.create(A1, A2, lam, mu, input_grid=g)
    got = qolct_direct(f, plan)
    want = gaussian_qolct_closed_form_field(spec, A1, A2, lam, mu,
                                            plan.output_grid)
    assert rel_max_err(got.samples, want.samples) <= 1e-6


def test_left_factor_stays_in_lam_plane():
    # all left-factor arithmetic (beta1, square root, phase, envelope) runs
    # in span{1, lam}: embedding it as a quaternion leaves the two
    # orthogonal units exactly zero, and the envelope stays in (0, 1]
    from qolct.oracle import _axis_factor

    spec = GaussianSpec(1.0, 0.5, 1.0, 0.4, 1.0, 0.0)
    A1, _ = SWEEP[1]
    lam = PureUnit(0.0, 0.0, 1.0)
    u = np.linspace(-4.0, 4.0, 33)
    env, z = _axis_factor(spec.alpha1, A1, u)
    assert np.all(env > 0.0) and np.all(env <= 1.0)
    left = plane_to_quat(complex(spec.beta11, spec.beta12) * env * z, lam)
    assert np.abs(left[:, 1]).max() <= 1e-13   # i component
    assert np.abs(left[:, 2]).max() <= 1e-13   # j component
    assert np.abs(left[:, 3]).max() > 0.0      # lives along lam = k


def test_spec_validation():
    with pytest.raises(ValueError):
        GaussianSpec(-1.0, 1.0)
    with pytest.raises(ValueError):
        _closed_form_at(GaussianSpec(1.0, 1.0), OffsetParams(1.0, 0.0, 0.0, 1.0),
                        QFT_CASE, UNIT_I, UNIT_J, (0.0, 0.0))


#: the production modules that may import one of the two: the CLI's
#: ``verify`` command runs the suites (loading them only then)
BOUNDARY_EXCEPTIONS = {"cli": {"verify"}}


def test_production_modules_import_no_oracle_or_verify():
    import qolct

    modules = sorted(Path(qolct.__file__).parent.glob("*.py"))
    assert len(modules) > 2
    for path in modules:
        if path.stem in ("oracle", "verify"):
            continue
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").rsplit(".", 1)[-1])
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {a.name.rsplit(".", 1)[-1] for a in node.names}
        forbidden = {"oracle", "verify"} - BOUNDARY_EXCEPTIONS.get(path.stem, set())
        assert not imported & forbidden, path.name
