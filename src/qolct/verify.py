"""Deterministic invariant checks behind ``qolct verify``.

Each check returns a record ``{check, params, observed, tolerance, pass}``;
``observed`` is the measured defect (error magnitude, slack deficit, ...)
compared against ``tolerance``.  All randomness flows from one seed, so a
report is reproducible bit for bit.  The identity checks below compare the
two sides of the paper's derivative, covariance and moment identities; the
other routes to the transforms' numbers live in ``oracle``.  The quaternion
helpers only the algebra suite calls (the polar form, axis exponentials,
``qinv`` and ``qconj``) live here beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .field import (
    ComponentQuartet,
    Grid2D,
    QField,
    _cell_sum,
    apply_chirp,
    l2_norm,
    partial_derivative,
    synth_gaussian,
)
from .olct import (
    OffsetParams,
    QolctPlan,
    analysis,
    qolct_forward,
    qolct_inverse,
    qolct_quartet,
)
from .oracle import (
    GaussianSpec,
    _qlct_reference,
    analysis_quartet,
    gaussian_integral_complex_offset,
    gaussian_qolct_closed_form,
    gaussian_qolct_closed_form_field,
    gaussian_qolct_log_modulus,
    kernel_sum,
    norm_field,
    plane_to_quat,
    qft_direct,
    qolct_direct,
)
from .qft import QftPlan, iqft, qft_fast_ij
from .quat import UNIT_I, UNIT_J, UNIT_K, PureUnit, qmul, qnorm
from .uncertainty import (
    LOG_UP_CONSTANT,
    beurling_integral,
    hardy_report,
    heisenberg_report,
    log_up_check,
    pitt_check,
    pitt_constants,
)

#: (0, 1, -1, 0 | 0, 0) on both axes recovers the plain two-sided QFT
QFT_CASE = OffsetParams(0.0, 1.0, -1.0, 0.0)
#: the reference matrices, with offsets, of the checks on one fixed plan
A1_REF = OffsetParams(1.0, 1.0, 1.0, 2.0, 0.3, -0.2)
A2_REF = OffsetParams(0.5, 1.5, -0.4, 0.8, -0.1, 0.4)


def _record(check, params, observed, tolerance):
    return {"check": check, "params": params, "observed": float(observed),
            "tolerance": float(tolerance), "pass": bool(observed <= tolerance)}


def _random_quat(rng, shape=()):
    return rng.uniform(-1.0, 1.0, shape + (4,))


def _random_axis(rng) -> PureUnit:
    v = rng.normal(size=3)
    while float(v @ v) < 1e-3:
        v = rng.normal(size=3)
    return PureUnit(float(v[0]), float(v[1]), float(v[2]))


def random_offset_params(rng, max_chirp_ratio=None) -> OffsetParams:
    """Random unimodular parameters with b in [0.5, 2) and |a|,|c|,|d| <= 2.

    ``max_chirp_ratio`` caps |a|/(2b) so every draw satisfies the chirp
    resolution bound of the grid the caller plans to use.
    """
    while True:
        a = rng.uniform(-2.0, 2.0)
        c = rng.uniform(-2.0, 2.0)
        b = rng.uniform(0.5, 2.0)
        if abs(a) < 0.3:
            continue
        if max_chirp_ratio is not None and abs(a) / (2.0 * b) > max_chirp_ratio:
            continue
        d = (1.0 + b * c) / a
        if abs(d) <= 2.0:
            break
    tau, eta = rng.uniform(-1.0, 1.0, 2)
    return OffsetParams(a, b, c, d, float(tau), float(eta))


# ---------------------------------------------------------------------------
# Identity checks: both sides of an identity, and their distance.

def fourier_shift(f: QField, k1: float, k2: float) -> QField:
    """Resample f(t - k) by spectral interpolation of each real component.

    Exact for signals whose periodized spectrum is well-contained on the
    grid; intended for smooth, decaying test signals.
    """
    g = f.grid
    shifted = np.empty_like(f.samples)
    w1 = np.fft.fftfreq(g.n1, g.spacing1) * 2.0 * np.pi
    w2 = np.fft.fftfreq(g.n2, g.spacing2) * 2.0 * np.pi
    phase = np.exp(-1j * (w1[:, None] * k1 + w2[None, :] * k2))
    for m in range(4):
        spec = np.fft.fft2(f.samples[..., m])
        shifted[..., m] = np.fft.ifft2(spec * phase).real
    return QField(g, shifted)


@dataclass(frozen=True)
class IdentityReport:
    lhs: QField
    rhs: QField
    maxerr: float
    relerr: float


def _factored_report(lhs: QField, base: QField, plan, left, right) -> IdentityReport:
    """Compare lhs with left(x1) base right(x2), the per-axis complex factors
    on the plan's lam and mu, relative to the latter's peak modulus.  The
    latter is two Hamilton products, not the planes split the engine uses."""
    rhs = QField(lhs.grid, qmul(qmul(plane_to_quat(left[:, None], plan.lam),
                                     base.samples),
                                plane_to_quat(right[None, :], plan.mu)))
    maxerr = float(qnorm(lhs.samples - rhs.samples).max())
    scale = float(qnorm(rhs.samples).max())
    return IdentityReport(lhs, rhs, maxerr, maxerr / scale if scale else maxerr)


def derivative_identity_check(f: QField, plan: QftPlan, m: int,
                              n: int) -> IdentityReport:
    """Compare F{d^(m+n) f} against (lam u1)^m F{f} (mu u2)^n.

    The derivative side uses finite differences; the multiplier side applies
    the powers in the stated left/right order, which is load-bearing.
    """
    if m + n > 2 or m < 0 or n < 0:
        raise ValueError("orders must satisfy 0 <= m + n <= 2")
    df = f
    for _ in range(m):
        df = partial_derivative(df, 1)
    for _ in range(n):
        df = partial_derivative(df, 2)
    u1 = plan.output_grid.axis_coords(1)
    u2 = plan.output_grid.axis_coords(2)
    return _factored_report(qft_fast_ij(df, plan), qft_fast_ij(f, plan), plan,
                            (1j * u1) ** m, (1j * u2) ** n)


def _shifted_output_plan(plan: QolctPlan, s1: float, s2: float) -> QolctPlan:
    g = plan.output_grid
    shifted = Grid2D(g.n1, g.n2, g.center1 - s1, g.center2 - s2,
                     g.spacing1, g.spacing2)
    return QolctPlan(plan.A1, plan.A2, plan.lam, plan.mu,
                     plan.input_grid, shifted)


def _check_containment(f: QField, k1: float, k2: float):
    g = f.grid
    m1 = max(2, int(math.ceil(abs(k1) / g.spacing1)) + 2)
    m2 = max(2, int(math.ceil(abs(k2) / g.spacing2)) + 2)
    if 2 * m1 >= g.n1 or 2 * m2 >= g.n2:
        raise ValueError("shift too large for the grid")
    e2 = np.sum(f.samples * f.samples, axis=-1)
    total = float(e2.sum())
    interior = float(e2[m1:-m1, m2:-m2].sum())
    if total > 0.0 and (total - interior) > 1e-9 * total:
        raise ValueError("shifted signal is not well-contained in the grid")


def shift_covariance_check(f: QField, plan: QolctPlan, k) -> IdentityReport:
    """Compare O{f(.-k)} with the phase-factored O{f}(u - k*a).

    The phase per axis is c*(2*k*u - a*k^2)/2 + k*(a*eta - c*tau); the
    offset coupling drops out when tau = eta = 0.
    """
    k1, k2 = k
    _check_containment(f, k1, k2)
    lhs = qolct_forward(fourier_shift(f, k1, k2), plan)
    split_plan = _shifted_output_plan(plan, k1 * plan.A1.a, k2 * plan.A2.a)
    base = qolct_forward(f, split_plan)
    u1 = plan.output_grid.axis_coords(1)
    u2 = plan.output_grid.axis_coords(2)
    A1, A2 = plan.A1, plan.A2
    ph1 = (A1.c * (2.0 * k1 * u1 - A1.a * k1 ** 2) / 2.0
           + k1 * (A1.a * A1.eta - A1.c * A1.tau))
    ph2 = (A2.c * (2.0 * k2 * u2 - A2.a * k2 ** 2) / 2.0
           + k2 * (A2.a * A2.eta - A2.c * A2.tau))
    return _factored_report(lhs, base, plan, np.exp(1j * ph1), np.exp(1j * ph2))


def modulation_covariance_check(f: QField, plan: QolctPlan, xi) -> IdentityReport:
    """Compare O{e^(lam t1 xi1) f e^(mu t2 xi2)} with the phase-factored
    O{f}(u - b*xi); phases re-derived as -(d/2)(b xi^2 - 2 u xi) - xi (d tau - b eta)."""
    xi1, xi2 = xi
    lhs = qolct_forward(apply_chirp(f, plan.lam, xi1, 0.0, plan.mu, xi2, 0.0),
                        plan)
    split_plan = _shifted_output_plan(plan, plan.A1.b * xi1, plan.A2.b * xi2)
    base = qolct_forward(f, split_plan)
    u1 = plan.output_grid.axis_coords(1)
    u2 = plan.output_grid.axis_coords(2)
    A1, A2 = plan.A1, plan.A2
    ph1 = -(A1.d / 2.0 * (A1.b * xi1 ** 2 - 2.0 * u1 * xi1)
            + xi1 * (A1.d * A1.tau - A1.b * A1.eta))
    ph2 = -(A2.d / 2.0 * (A2.b * xi2 ** 2 - 2.0 * u2 * xi2)
            + xi2 * (A2.d * A2.tau - A2.b * A2.eta))
    return _factored_report(lhs, base, plan, np.exp(1j * ph1), np.exp(1j * ph2))


@dataclass(frozen=True)
class MomentReport:
    lhs: float
    rhs: float
    relerr: float


def moment_identity_check(f: QField, plan: QolctPlan, axis: int) -> MomentReport:
    """Second-moment identity: the u_k^2-weighted transform energy equals the
    b_k^2-weighted energy of lam*(a t/b + tau/b) f + df/dt (axis 1) or of
    (a t/b + tau/b) f mu + df/dt (axis 2; mu multiplies from the right).

    The transform energy is measured in the analysis-quartet norm; with the
    plain component quartet the two sides differ for signals whose phase
    varies along the axis (the cross term 2 s Sc(lam f conj(df)) survives).
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    w2 = analysis(f, plan).density
    uk = plan.output_grid.axis_coords(axis)
    uk2 = uk[:, None] ** 2 if axis == 1 else uk[None, :] ** 2
    lhs = float(np.sum(uk2 * w2)) * plan.output_grid.cell_area

    A = plan.A1 if axis == 1 else plan.A2
    tk = f.grid.axis_coords(axis)
    slope = 1j * (A.a * tk + A.tau) / A.b  # lam*slope on the left, mu*slope on the right
    lin = (qmul(plane_to_quat(slope[:, None], plan.lam), f.samples) if axis == 1
           else qmul(f.samples, plane_to_quat(slope[None, :], plan.mu)))
    r = lin + partial_derivative(f, axis).samples
    rhs = A.b ** 2 * float(np.sum(r * r)) * f.grid.cell_area
    rel = abs(lhs - rhs) / rhs if rhs else abs(lhs - rhs)
    return MomentReport(lhs, rhs, rel)


# ---------------------------------------------------------------------------
# Quaternion helpers the algebra suite holds to their identities.

class DegenerateAxisError(ValueError):
    """Polar decomposition of a real quaternion has no canonical axis."""


def polar(q, fallback_axis: PureUnit | None = None):
    """Decompose a (4,) quaternion q = magnitude * (cos(angle) + axis*sin(angle)).

    Returns ``(magnitude, axis, angle)`` with ``angle`` in [0, pi].  When the
    vector part vanishes (q real) there is no canonical axis; the caller must
    supply ``fallback_axis`` or a :class:`DegenerateAxisError` is raised.
    """
    q0, q1, q2, q3 = (float(v) for v in q)
    vec = np.array([q1, q2, q3])
    vnorm = math.sqrt(float(vec @ vec))
    mag = math.sqrt(q0 ** 2 + q1 ** 2 + q2 ** 2 + q3 ** 2)
    angle = math.atan2(vnorm, q0)
    if vnorm <= 1e-300:
        if fallback_axis is None:
            raise DegenerateAxisError(
                "quaternion has (numerically) zero vector part; pass fallback_axis")
        return mag, fallback_axis, angle
    return mag, PureUnit(q1, q2, q3), angle


def axis_exp(axis: PureUnit, theta: float) -> np.ndarray:
    """exp(axis*theta) = cos(theta) + axis*sin(theta); always unit norm."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([c, s * axis.x, s * axis.y, s * axis.z])


def inv_sqrt_unit(axis: PureUnit) -> np.ndarray:
    """The reciprocal square root exp(-axis*pi/4) = (sqrt(2)/2)(1 - axis)."""
    return axis_exp(axis, -math.pi / 4.0)


def qinv(q) -> np.ndarray:
    """conj(q)/|q|^2 of a (4,) quaternion; zero has no inverse."""
    q0, q1, q2, q3 = (float(v) for v in q)
    n2 = q0 ** 2 + q1 ** 2 + q2 ** 2 + q3 ** 2
    if n2 == 0.0:
        raise ZeroDivisionError("zero quaternion has no inverse")
    return np.array([q0 / n2, -q1 / n2, -q2 / n2, -q3 / n2])


def qconj(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    out = a.copy()
    out[..., 1:] *= -1.0
    return out


def quartet_l2_norm(q: ComponentQuartet) -> float:
    """sqrt(integral of the squared pointwise quartet norm)."""
    return math.sqrt(sum(_cell_sum(m.samples * m.samples, q.grid.cell_area)
                         for m in q.members))


# ---------------------------------------------------------------------------

def algebra_checks(seed: int):
    rng = np.random.default_rng(seed)
    out = []

    units = {"i": UNIT_I.array, "j": UNIT_J.array, "k": UNIT_K.array}
    table = [("i", "j", units["k"]), ("j", "k", units["i"]), ("k", "i", units["j"]),
             ("j", "i", -units["k"]), ("k", "j", -units["i"]), ("i", "k", -units["j"])]
    worst = 0.0
    for a, b, want in table:
        got = qmul(units[a], units[b])
        worst = max(worst, float(np.abs(got - want).max()))
    out.append(_record("hamilton-multiplication-table", "ij=k and cyclic", worst, 0.0))

    p = _random_quat(rng, (1000,))
    q = _random_quat(rng, (1000,))
    r = _random_quat(rng, (1000,))
    assoc = np.abs(qmul(qmul(p, q), r) - qmul(p, qmul(q, r))).max()
    out.append(_record("product-associativity", "1000 random triples in [-1,1]^4",
                       assoc, 2e-14))

    pq = qmul(p, q)
    anti = np.abs(qconj(pq) - qmul(qconj(q), qconj(p))).max()
    out.append(_record("conjugation-anti-involution", "1000 random pairs", anti, 1e-14))

    p = _random_quat(rng, (10000,))
    q = _random_quat(rng, (10000,))
    norm_rel = (np.abs(qnorm(qmul(p, q)) - qnorm(p) * qnorm(q))
                / np.maximum(qnorm(p) * qnorm(q), 1e-300)).max()
    out.append(_record("norm-multiplicativity", "1e4 random pairs", norm_rel, 1e-13))

    worst = 0.0
    for _ in range(200):
        ax = _random_axis(rng)
        alpha, beta = rng.uniform(-6.0, 6.0, 2)
        lhs = qmul(axis_exp(ax, alpha), axis_exp(ax, beta))
        rhs = axis_exp(ax, alpha + beta)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    out.append(_record("same-axis-exponential-addition", "200 random axes/angles",
                       worst, 1e-13))

    worst = 0.0
    for _ in range(100):
        ax = _random_axis(rng)
        sq = qmul(qinv(inv_sqrt_unit(ax)), qinv(inv_sqrt_unit(ax)))
        worst = max(worst, float(np.abs(sq - ax.array).max()))
    out.append(_record("inverse-sqrt-squares-to-axis", "100 random axes", worst, 1e-14))

    worst = 0.0
    for _ in range(200):
        qq = rng.uniform(-1, 1, 4)
        if qnorm(qq) < 1e-3:
            continue
        mag, ax, ang = polar(qq, fallback_axis=UNIT_I)
        rec = mag * axis_exp(ax, ang)
        worst = max(worst, float(np.abs(rec - qq).max()))
    out.append(_record("polar-reconstruction", "200 random quaternions", worst, 1e-13))

    worst = 0.0
    for _ in range(200):
        qq = rng.uniform(-1, 1, 4)
        if qnorm(qq) < 1e-3:
            continue
        got = qmul(qq, qinv(qq))
        worst = max(worst, float(np.abs(got - np.array([1, 0, 0, 0])).max()))
    out.append(_record("inverse-identity", "200 random quaternions", worst, 1e-14))
    return out


# ---------------------------------------------------------------------------

def qft_checks(seed: int):
    rng = np.random.default_rng(seed)
    out = []

    tg = Grid2D.centered(16, 4.0)
    f = QField(tg, _random_quat(rng, (16, 16)))
    plan = QftPlan.forward(tg)
    diff = qnorm(qft_fast_ij(f, plan).samples - qft_direct(f, plan).samples).max()
    out.append(_record("fast-equals-direct", "random 16^2 field", diff, 1e-10))

    g64 = Grid2D.centered(64, 14.0)
    gau = synth_gaussian(g64, 0.7, 1.1, (1.0, 0.4), (0.8, -0.3), UNIT_I, UNIT_J)
    plan64 = QftPlan.forward(g64)
    quartet = ComponentQuartet.of(gau, lambda g: qft_fast_ij(g, plan64))
    ratio = quartet_l2_norm(quartet) ** 2 / (4 * math.pi ** 2 * l2_norm(gau) ** 2)
    out.append(_record("plancherel-4pi2", "gaussian 64^2, axes (i, j)",
                       abs(ratio - 1.0), 1e-6))

    lam, mu = _random_axis(rng), _random_axis(rng)
    plan_gen = QftPlan.forward(g64, lam, mu)
    quartet = ComponentQuartet.of(gau, lambda g: qft_fast_ij(g, plan_gen))
    ratio = quartet_l2_norm(quartet) ** 2 / (4 * math.pi ** 2 * l2_norm(gau) ** 2)
    out.append(_record("plancherel-4pi2-random-axes", "gaussian 64^2, random axes",
                       abs(ratio - 1.0), 1e-6))

    F = qft_fast_ij(gau, plan64)
    back = iqft(F, plan64)
    rel = qnorm(back.samples - gau.samples).max() / qnorm(gau.samples).max()
    out.append(_record("inversion-round-trip", "gaussian 64^2", rel, 1e-7))

    # dilation: F{f(k1 t1, k2 t2)}(w) = (1/(k1 k2)) F{f}(w1/k1, w2/k2),
    # evaluated on a fine central w-grid so both output grids stay resolved
    g128 = Grid2D.centered(128, 20.0)
    du = 2.0 * math.pi / 20.0
    base = synth_gaussian(g128, 1.0, 1.0, (1.0, 0.3), (1.0, 0.0), UNIT_I, UNIT_J)
    worst = 0.0
    for k1, k2 in ((2.0, 2.0), (0.5, 2.0)):
        scaled = synth_gaussian(g128, k1 ** 2, k2 ** 2, (1.0, 0.3), (1.0, 0.0),
                                UNIT_I, UNIT_J)
        wgrid = Grid2D(64, 64, 0.0, 0.0, du / 2.0, du / 2.0)
        lhs = qft_direct(scaled, QftPlan(g128, wgrid, UNIT_I, UNIT_J))
        over_k = Grid2D(64, 64, 0.0, 0.0, du / (2.0 * k1), du / (2.0 * k2))
        rhs = qft_direct(base, QftPlan(g128, over_k, UNIT_I, UNIT_J))
        diff = qnorm(lhs.samples - rhs.samples / (k1 * k2)).max()
        worst = max(worst, diff / qnorm(lhs.samples).max())
    out.append(_record("dilation-identity", "k in {1/2, 2}, 128^2", worst, 1e-7))

    g192 = Grid2D.centered(192, 9.0)
    gau2 = synth_gaussian(g192, 1.0, 1.0)
    rep = derivative_identity_check(gau2, QftPlan.forward(g192), 1, 0)
    out.append(_record("derivative-identity-m1", "gaussian 192^2", rep.relerr, 1e-5))
    rep = derivative_identity_check(gau2, QftPlan.forward(g192), 0, 1)
    out.append(_record("derivative-identity-n1", "gaussian 192^2", rep.relerr, 1e-5))

    f2 = QField(tg, _random_quat(rng, (16, 16)))
    a, b = 0.7, -1.3
    lin_lhs = qft_fast_ij(QField(tg, a * f.samples + b * f2.samples), plan)
    lin_rhs = (a * qft_fast_ij(f, plan).samples + b * qft_fast_ij(f2, plan).samples)
    scale = qnorm(lin_rhs).max()
    out.append(_record("real-linearity", "random 16^2 fields",
                       qnorm(lin_lhs.samples - lin_rhs).max() / scale, 1e-12))
    return out


# ---------------------------------------------------------------------------

def qolct_checks(seed: int):
    rng = np.random.default_rng(seed)
    out = []

    tg = Grid2D.centered(16, 4.0)
    worst = 0.0
    for _ in range(3):
        A1 = random_offset_params(rng)
        A2 = random_offset_params(rng)
        plan = QolctPlan.create(A1, A2, input_grid=tg)
        f = QField(tg, _random_quat(rng, (16, 16)))
        diff = qnorm(qolct_forward(f, plan).samples
                     - qolct_direct(f, plan).samples).max()
        worst = max(worst, diff)
    out.append(_record("forward-equals-direct", "3 random parameter sets, 16^2",
                       worst, 1e-9))

    # 128^2 at extent 14 satisfies the chirp bound for every in-range draw
    g128p = Grid2D.centered(128, 14.0)
    gau128p = synth_gaussian(g128p, 0.8, 1.2, (1.0, 0.5), (0.7, -0.4),
                             UNIT_I, UNIT_J)
    worst = 0.0
    for _ in range(2):
        plan = QolctPlan.create(random_offset_params(rng), random_offset_params(rng),
                                input_grid=g128p)
        ratio = quartet_l2_norm(qolct_quartet(gau128p, plan)) / l2_norm(gau128p)
        worst = max(worst, abs(ratio - 1.0))
    out.append(_record("quartet-plancherel", "2 random parameter sets, 128^2",
                       worst, 1e-6))

    g64 = Grid2D.centered(64, 14.0)
    gau = synth_gaussian(g64, 0.8, 1.2, (1.0, 0.5), (0.7, -0.4), UNIT_I, UNIT_J)
    plan = QolctPlan.create(A1_REF, A2_REF, input_grid=g64)
    F = qolct_forward(gau, plan)
    back = qolct_inverse(F, plan)
    rel = qnorm(back.samples - gau.samples).max() / qnorm(gau.samples).max()
    out.append(_record("inversion-round-trip", "general params, 64^2", rel, 1e-7))

    planq = QolctPlan.create(QFT_CASE, QFT_CASE, input_grid=g64)
    O = qolct_forward(gau, planq)
    Fq = qft_fast_ij(gau, QftPlan.forward(g64))
    pred = qmul(qmul(inv_sqrt_unit(UNIT_I), Fq.samples),
                inv_sqrt_unit(UNIT_J)) / (2.0 * math.pi)
    out.append(_record("qft-reduction", "A = (0,1,-1,0|0,0) both axes",
                       qnorm(O.samples - pred).max(), 1e-10))

    # independent QLCT quadrature (no offset machinery) at tau = eta = 0
    tg12 = Grid2D.centered(12, 4.0)
    A1z, A2z = (replace(A, tau=0.0, eta=0.0) for A in (A1_REF, A2_REF))
    planz = QolctPlan.create(A1z, A2z, input_grid=tg12)
    f12 = QField(tg12, _random_quat(rng, (12, 12)))
    got = qolct_forward(f12, planz)
    ref = _qlct_reference(f12, A1z, A2z, planz.output_grid)
    out.append(_record("qlct-reduction", "tau = eta = 0 vs independent QLCT",
                       qnorm(got.samples - ref).max(), 1e-10))

    rep = shift_covariance_check(gau, planq, (0.5, 0.0))
    out.append(_record("shift-covariance-qft-case", "k = (0.5, 0)", rep.maxerr, 1e-6))
    rep = shift_covariance_check(gau, plan, (0.4, -0.3))
    out.append(_record("shift-covariance-general", "k = (0.4, -0.3)", rep.maxerr, 1e-6))
    rep = modulation_covariance_check(gau, planq, (1.0, 0.0))
    out.append(_record("modulation-covariance-qft-case", "xi = (1, 0)",
                       rep.maxerr, 1e-6))
    rep = modulation_covariance_check(gau, plan, (0.8, 0.6))
    out.append(_record("modulation-covariance-general", "xi = (0.8, 0.6)",
                       rep.maxerr, 1e-6))

    ident = OffsetParams(1.0, 0.0, 0.0, 1.0)
    plan_id = QolctPlan.create(ident, ident, input_grid=g64)
    got = qolct_forward(gau, plan_id)
    out.append(_record("degenerate-identity", "b = 0, identity matrices",
                       qnorm(got.samples - gau.samples).max(), 1e-12))

    g128 = Grid2D.centered(128, 14.0)
    gau128 = synth_gaussian(g128, 0.5, 0.8, (1.0, 0.5), (0.7, -0.4), UNIT_I, UNIT_J)
    plan128 = QolctPlan.create(A1_REF, A2_REF, input_grid=g128)
    rep = moment_identity_check(gau128, plan128, 1)
    out.append(_record("moment-identity-axis1", "gaussian 128^2", rep.relerr, 5e-4))
    rep = moment_identity_check(gau128, plan128, 2)
    out.append(_record("moment-identity-axis2", "gaussian 128^2", rep.relerr, 5e-4))

    decay = qnorm(F.samples)
    n_edge = max(
        decay[:2].max(), decay[-2:].max(), decay[:, :2].max(), decay[:, -2:].max())
    out.append(_record("transform-decay", "edge vs peak modulus",
                       n_edge / decay.max(), 1e-3))

    # the reports read the transform only through this density; their
    # weights are even in v, so only a pointwise check sees a mirror defect
    g32 = Grid2D.centered(32, 10.0)
    plan32 = QolctPlan.create(random_offset_params(rng, max_chirp_ratio=1.0),
                              random_offset_params(rng, max_chirp_ratio=1.0),
                              _random_axis(rng), _random_axis(rng), input_grid=g32)
    f32 = QField(g32, _random_quat(rng, (32, 32)))
    want = norm_field(analysis_quartet(f32, plan32)) ** 2
    diff = np.abs(analysis(f32, plan32).density - want).max() / want.max()
    out.append(_record("density-equals-analysis-quartet",
                       "random params and axes, 32^2", diff, 1e-12))

    # b = 0 with c, eta != 0, so the output chirp is no identity: b1 = 0 on
    # the derived grid (FFT on axis 2), b2 = 0 on a smaller one (dense axis 1)
    g24 = Grid2D.centered(24, 6.0)
    f24 = QField(g24, _random_quat(rng, (24, 24)))
    t = g24.axis_coords(1)
    deg = [OffsetParams(1.0, 0.0, c, 1.0, float(rng.choice(t)), eta)
           for c, eta in rng.uniform(0.5, 1.5, (2, 2))]
    lam, mu = _random_axis(rng), _random_axis(rng)
    worst = 0.0
    for plan in (QolctPlan.create(deg[0], random_offset_params(rng), lam, mu,
                                  input_grid=g24),
                 QolctPlan(random_offset_params(rng), deg[1], lam, mu, g24,
                           Grid2D(16, 16, 0.1, deg[1].tau, 0.45, g24.spacing2))):
        want = kernel_sum(f24, plan)
        got = qolct_forward(f24, plan).samples
        worst = max(worst, float(qnorm(got - want).max() / qnorm(want).max()))
    out.append(_record("degenerate-equals-kernel-sum",
                       "b1 = 0 and b2 = 0 with c, eta != 0, 24^2", worst, 1e-12))
    return out


# ---------------------------------------------------------------------------

def oracle_checks(seed: int):
    rng = np.random.default_rng(seed)
    out = []

    spec = GaussianSpec(1.0, 0.5, 1.0, 0.4, 0.6, -0.3)
    g = Grid2D.centered(48, 10.0)
    f = synth_gaussian(g, spec.alpha1, spec.alpha2, (spec.beta11, spec.beta12),
                       (spec.beta21, spec.beta22), UNIT_I, UNIT_J)
    plan = QolctPlan.create(A1_REF, A1_REF, input_grid=g)
    got = qolct_direct(f, plan)
    want = gaussian_qolct_closed_form_field(spec, A1_REF, A1_REF, UNIT_I, UNIT_J,
                                            plan.output_grid)
    rel = qnorm(got.samples - want.samples).max() / qnorm(want.samples).max()
    out.append(_record("closed-form-vs-direct", "general params, 48^2", rel, 1e-6))

    g128 = Grid2D.centered(128, 16.0)
    spec2 = GaussianSpec(0.9, 0.6, 0.8, -0.5, 1.0, 0.7)
    A1b = random_offset_params(rng, max_chirp_ratio=1.5)
    A2b = random_offset_params(rng, max_chirp_ratio=1.5)
    f2 = synth_gaussian(g128, spec2.alpha1, spec2.alpha2,
                        (spec2.beta11, spec2.beta12), (spec2.beta21, spec2.beta22),
                        UNIT_I, UNIT_J)
    plan2 = QolctPlan.create(A1b, A2b, input_grid=g128)
    got = qolct_forward(f2, plan2)
    want = gaussian_qolct_closed_form_field(spec2, A1b, A2b, UNIT_I, UNIT_J,
                                            plan2.output_grid)
    rel = qnorm(got.samples - want.samples).max() / qnorm(want.samples).max()
    out.append(_record("closed-form-vs-forward", "random params, 128^2", rel, 1e-6))

    peak = float(qnorm(gaussian_qolct_closed_form(spec2, A1b, A2b, UNIT_I, UNIT_J,
                                                  (A1b.tau, A2b.tau))))
    log_mod = gaussian_qolct_log_modulus(spec2, A1b, A2b, plan2.output_grid)
    out.append(_record("envelope-peak-at-offset", "modulus peaks at u = tau, > 0",
                       envelope_peak_defect(want.samples, peak, log_mod), 1e-12))

    z = np.array([1.0, 0.0, 0.6, 0.0])
    zp = np.array([0.3, 0.0, -0.4, 0.0])
    got = gaussian_integral_complex_offset(z, zp)
    t = np.linspace(-30.0, 30.0, 600001)
    zc = complex(1.0, 0.6)
    zpc = complex(0.3, -0.4)
    # the trapezoid rule by blocks of 2^14 cells that share their end points,
    # so each block's temporaries stay in cache and the suite's peak small
    ref = sum(np.trapezoid(np.exp(-zc * (ts + zpc) ** 2), ts)
              for ts in (t[lo:lo + 2**14 + 1] for lo in range(0, t.size - 1, 2**14)))
    refq = plane_to_quat(np.asarray(ref), UNIT_J)
    out.append(_record("offset-gaussian-integral", "z = 1 + 0.6j (j-plane)",
                       float(np.abs(got - refq).max()), 1e-10))
    return out


def envelope_peak_defect(samples, peak: float, log_mod) -> float:
    """|O| factors as (unit phases) * roots * envelope, so the modulus must
    peak exactly at u = tau and stay > 0, asked only where the analytic
    ln|O| (``log_mod``) is above the smallest normal float."""
    modulus = qnorm(samples)
    defect = max(float(modulus.max()) / peak - 1.0, 0.0)
    representable = log_mod > math.log(np.finfo(float).tiny)
    if not np.all(modulus[representable] > 0.0):
        defect = 1.0
    return defect


# ---------------------------------------------------------------------------

def uncertainty_checks(seed: int):
    rng = np.random.default_rng(seed)
    out = []

    xs = np.linspace(0.25, 10.0, 40)
    rec = max(abs(math.gamma(x + 1.0) - x * math.gamma(x)) / (x * math.gamma(x))
              for x in xs)
    out.append(_record("gamma-recurrence", "x in [0.25, 10]", rec, 1e-13))
    out.append(_record("gamma-half", "Gamma(1/2) = sqrt(pi)",
                       abs(math.gamma(0.5) - math.sqrt(math.pi)), 1e-14))

    h = 1e-6
    dnum = (math.log(math.gamma(0.5 + h)) - math.log(math.gamma(0.5 - h))) / (2 * h)
    out.append(_record("log-constant-cross-check",
                       "closed form vs numerical d/dx log Gamma at 1/2",
                       abs((math.log(2.0) + dnum) - LOG_UP_CONSTANT), 1e-8))
    out.append(_record("pitt-constant-continuity", "C_alpha -> 4 pi^2",
                       abs(pitt_constants(1e-6).C - 4 * math.pi ** 2), 1e-3))

    g = Grid2D.centered(64, 14.0)
    f = synth_gaussian(g, 0.5, 0.5)
    plan = QolctPlan.create(A1_REF, A2_REF, input_grid=g)
    planq = QolctPlan.create(QFT_CASE, QFT_CASE, input_grid=g)

    rep = pitt_check(f, planq, 0.0)
    out.append(_record("pitt-equality-alpha0", "gaussian, alpha = 0",
                       abs(rep.slack) / rep.rhs, 1e-6))
    reps = [pitt_check(f, plan, alpha) for alpha in (0.5, 1.0, 1.5)]
    worst = max(0.0, *(-r.slack / r.rhs for r in reps))
    out.append(_record("pitt-slack-nonnegative", "alpha in {0.5, 1, 1.5}",
                       worst, 1e-6))

    logrep = log_up_check(f, planq)
    out.append(_record("logup-slack-nonnegative", "gaussian, QFT case",
                       -logrep.slack / logrep.energy, 1e-5))

    chirped = synth_gaussian(g, 0.9, 0.7, (1.0, 0.3), (1.0, -0.5), UNIT_I, UNIT_J)
    worst = 0.0
    for sig in (f, chirped):
        for pl in (plan, planq):
            hrep = heisenberg_report(sig, pl, 1)
            worst = max(worst, (hrep.base_bound - hrep.lhs) / hrep.rhs)
    out.append(_record("heisenberg-weak-bound", "2 signals x 2 parameter sets",
                       worst, 1e-6))

    hrep = heisenberg_report(f, planq, 1)
    out.append(_record("heisenberg-classical-equality",
                       "real unit gaussian, QFT case",
                       abs(hrep.gap) / hrep.rhs, 1e-2))

    hd = hardy_report(f, planq)
    out.append(_record("hardy-critical-product", "gaussian, QFT case",
                       abs(hd.product - 0.25), 1e-3))

    g32 = Grid2D.centered(32, 10.0)
    f32 = synth_gaussian(g32, 1.0, 1.0)
    plan32 = QolctPlan.create(QFT_CASE, QFT_CASE, input_grid=g32)
    vals = [beurling_integral(f32, plan32, 4.0, R) for R in (2.0, 4.0)]
    out.append(_record("beurling-growth-with-radius", "value(R/2) < value(R)",
                       0.0 if vals[0] < vals[1] else 1.0, 0.0))
    vals_d = [beurling_integral(f32, plan32, d, 4.0) for d in (4.0, 50.0)]
    out.append(_record("beurling-decreasing-in-d", "d = 4 vs d = 50",
                       0.0 if vals_d[1] < vals_d[0] else 1.0, 0.0))
    # Beckner, Proc. AMS 123 (1995): the isotropic Gaussian leaves slack
    # ln 2 * E; the quadrature error is 0.028 at 64^2 and falls as h
    out.append(_record("logup-gaussian-sharp", "|slack/E - ln 2|, gaussian 64^2",
                       abs(logrep.slack / logrep.energy - math.log(2.0)), 0.04))
    return out


_SUITE_FNS = {
    "algebra": algebra_checks,
    "qft": qft_checks,
    "qolct": qolct_checks,
    "oracle": oracle_checks,
    "uncertainty": uncertainty_checks,
}


def run_suite(suite: str, seed: int):
    """Run one named suite (or 'all'); returns the list of check records.
    ``_SUITE_FNS`` is the one list of suite names."""
    if suite != "all" and suite not in _SUITE_FNS:
        raise ValueError(f"unknown suite {suite!r}; known: all, {', '.join(_SUITE_FNS)}")
    records = []
    for name in _SUITE_FNS if suite == "all" else (suite,):
        for rec in _SUITE_FNS[name](seed):
            rec["check"] = f"{name}:{rec['check']}"
            records.append(rec)
    return records
