import ast
import math
from pathlib import Path

import numpy as np
import pytest

from qolct import (
    Grid2D,
    OffsetParams,
    QolctPlan,
    UNIT_I,
    UNIT_J,
    qolct_forward,
    synth_gaussian,
)
from qolct.oracle import (
    GaussianSpec,
    gaussian_integral_complex_offset,
    gaussian_qolct_closed_form,
    gaussian_qolct_closed_form_field,
    gaussian_qolct_log_modulus,
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


def test_qft_case_reduces_to_classical_gaussian_transform():
    # alpha = 1/2, beta = 1: closed form = e^{-l pi/4} e^{-|u|^2/2} e^{-m pi/4}
    spec = GaussianSpec(0.5, 0.5)
    A = QFT_CASE
    for u in ((0.0, 0.0), (0.7, -1.3), (2.0, 1.5)):
        got = gaussian_qolct_closed_form(spec, A, A, UNIT_I, UNIT_J, u)
        env = math.exp(-(u[0] ** 2 + u[1] ** 2) / 2.0)
        want = qmul(inv_sqrt_unit(UNIT_I) * env, inv_sqrt_unit(UNIT_J))
        assert np.abs(got - want).max() <= 1e-14


def test_envelope_peaks_at_offsets():
    spec = GaussianSpec(1.0, 0.5, 1.0, 0.4, 0.6, -0.3)
    A1, A2 = SWEEP[1]
    peak = qnorm(gaussian_qolct_closed_form(spec, A1, A2, UNIT_I, UNIT_J,
                                            (A1.tau, A2.tau)))
    for du in (0.3, 1.0, 2.5):
        off = qnorm(gaussian_qolct_closed_form(spec, A1, A2, UNIT_I, UNIT_J,
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
    peak = float(qnorm(gaussian_qolct_closed_form(spec, A1, A2, UNIT_I, UNIT_J,
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


def test_root_variant_arbitration():
    # the square root (a + 2 b alpha lam)^(-1/2) matches the quadrature;
    # the all-imaginary variant ((2 b alpha + a) lam)^(-1/2) does not
    spec = GaussianSpec(1.0, 0.5)
    A1 = OffsetParams(1.0, 1.0, 1.0, 2.0, 0.3, -0.2)
    g = Grid2D.centered(64, 16.0)
    f = synth_gaussian(g, spec.alpha1, spec.alpha2)
    plan = QolctPlan.create(A1, A1, input_grid=g)
    got = qolct_forward(f, plan)
    good = gaussian_qolct_closed_form_field(spec, A1, A1, UNIT_I, UNIT_J,
                                            plan.output_grid, "derivation")
    bad = gaussian_qolct_closed_form_field(spec, A1, A1, UNIT_I, UNIT_J,
                                           plan.output_grid, "display")
    assert rel_max_err(got.samples, good.samples) <= 1e-9
    assert rel_max_err(got.samples, bad.samples) > 1e-2


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
    from qolct.oracle import _axis_factor, plane_to_quat

    spec = GaussianSpec(1.0, 0.5, 1.0, 0.4, 1.0, 0.0)
    A1, _ = SWEEP[1]
    lam = PureUnit(0.0, 0.0, 1.0)
    u = np.linspace(-4.0, 4.0, 33)
    env, z = _axis_factor(spec.alpha1, A1, u, "derivation")
    assert np.all(env > 0.0) and np.all(env <= 1.0)
    left = plane_to_quat(complex(spec.beta11, spec.beta12) * env * z, lam)
    assert np.abs(left[:, 1]).max() <= 1e-13   # i component
    assert np.abs(left[:, 2]).max() <= 1e-13   # j component
    assert np.abs(left[:, 3]).max() > 0.0      # lives along lam = k


def test_gaussian_integral_complex_offset():
    def q(*c):
        return np.array(c, dtype=float)

    # real case
    got = gaussian_integral_complex_offset(q(1, 0, 0, 0), q(0, 0, 0, 0))
    assert got[0] == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    # z = 1 + i against 1D quadrature
    t = np.linspace(-40.0, 40.0, 800001)
    zc = 1.0 + 1.0j
    want = np.trapezoid(np.exp(-zc * t ** 2), t)
    got = gaussian_integral_complex_offset(q(1, 1, 0, 0), q(0, 0, 0, 0))
    assert abs(got[0] - want.real) <= 1e-10
    assert abs(got[1] - want.imag) <= 1e-10

    # offset invariance: z' != 0 leaves the value unchanged
    got_off = gaussian_integral_complex_offset(q(1, 1, 0, 0), q(0.5, -0.25, 0, 0))
    assert np.abs(got_off - got).max() <= 1e-14
    want_off = np.trapezoid(np.exp(-zc * (t + (0.5 - 0.25j)) ** 2), t)
    assert abs(got_off[0] - want_off.real) <= 1e-10

    with pytest.raises(ValueError):
        gaussian_integral_complex_offset(q(-1, 1, 0, 0), q(0, 0, 0, 0))
    with pytest.raises(ValueError):
        gaussian_integral_complex_offset(q(1, 1, 0, 0), q(0, 0, 1, 0))  # mixed planes


def test_spec_validation():
    with pytest.raises(ValueError):
        GaussianSpec(-1.0, 1.0)
    with pytest.raises(ValueError):
        gaussian_qolct_closed_form(GaussianSpec(1.0, 1.0),
                                   OffsetParams(1.0, 0.0, 0.0, 1.0),
                                   QFT_CASE, UNIT_I, UNIT_J,
                                   (0.0, 0.0))


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
