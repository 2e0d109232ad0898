import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qolct.field import Grid2D
from qolct.oracle import plane_to_quat
from qolct.qft import _planes_ft
from qolct.quat import UNIT_I, UNIT_J, UNIT_K, PureUnit, qmul, qnorm
from qolct.verify import axis_exp, inv_sqrt_unit, qconj, qinv

UNITY = np.array([1.0, 0.0, 0.0, 0.0])
I, J, K = UNIT_I.array, UNIT_J.array, UNIT_K.array

components = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
quaternions = st.tuples(components, components, components, components).map(np.array)


def q_isclose(p, q, tol=1e-12):
    return np.abs(p - q).max() <= tol


def test_hamilton_rules():
    assert q_isclose(qmul(I, J), K)
    assert q_isclose(qmul(J, K), I)
    assert q_isclose(qmul(K, I), J)
    assert q_isclose(qmul(J, I), -K)
    assert q_isclose(qmul(I, I), -UNITY)
    assert q_isclose(qmul(J, J), -UNITY)
    assert q_isclose(qmul(K, K), -UNITY)


def test_identity_and_distributive_expansion():
    q = np.array([0.3, -0.7, 1.4, 0.2])
    assert q_isclose(qmul(UNITY, q), q)
    # (1+i)(1+j) = 1 + j + i + ij = 1 + i + j + k
    assert q_isclose(qmul(UNITY + I, UNITY + J), np.ones(4))


@given(quaternions, quaternions, quaternions)
@settings(max_examples=200)
def test_associativity(p, q, r):
    lhs = qmul(qmul(p, q), r)
    rhs = qmul(p, qmul(q, r))
    assert np.abs(lhs - rhs).max() <= 2e-14


@given(quaternions, quaternions)
@settings(max_examples=200)
def test_conjugation_anti_involution(p, q):
    lhs = qconj(qmul(p, q))
    rhs = qmul(qconj(q), qconj(p))
    assert np.abs(lhs - rhs).max() <= 1e-14
    assert np.array_equal(qconj(qconj(q)), q)
    assert qconj(q)[0] == q[0]
    assert np.array_equal(qconj(q)[1:], -q[1:])


@given(quaternions, quaternions)
@settings(max_examples=200)
def test_norm_multiplicativity(p, q):
    assert abs(qnorm(qmul(p, q)) - qnorm(p) * qnorm(q)) <= 1e-13 * max(
        qnorm(p) * qnorm(q), 1.0)


@given(quaternions)
@settings(max_examples=200)
def test_inverse(q):
    if qnorm(q) < 1e-6:
        return
    got = qmul(q, qinv(q))
    assert np.abs(got - UNITY).max() <= 1e-13


def test_inverse_matches_conjugate_over_norm():
    q = np.array([1.0, -2.0, 0.5, 3.0])
    want = qconj(q) * (1.0 / qnorm(q) ** 2)
    assert q_isclose(qinv(q), want, 1e-15)
    with pytest.raises(ZeroDivisionError):
        qinv(np.zeros(4))


def test_axis_exp_values():
    assert q_isclose(axis_exp(UNIT_I, math.pi / 2), I, 1e-15)
    assert q_isclose(axis_exp(UNIT_J, 0.0), UNITY)
    want = np.array([math.sqrt(2) / 2, 0.0, math.sqrt(2) / 2, 0.0])
    assert q_isclose(axis_exp(UNIT_J, math.pi / 4), want, 1e-15)


@given(st.floats(-10, 10), st.floats(-10, 10))
@settings(max_examples=100)
def test_same_axis_exponentials_add(a, b):
    axis = PureUnit(0.3, -1.2, 0.5)
    lhs = qmul(axis_exp(axis, a), axis_exp(axis, b))
    rhs = axis_exp(axis, a + b)
    assert np.abs(lhs - rhs).max() <= 1e-13


def test_inv_sqrt_unit():
    got = inv_sqrt_unit(UNIT_I)
    s = math.sqrt(2) / 2
    assert q_isclose(got, np.array([s, -s, 0, 0]), 1e-15)
    assert q_isclose(inv_sqrt_unit(UNIT_J), np.array([s, 0, -s, 0]), 1e-15)
    # squaring the reciprocal recovers the axis
    for axis in (UNIT_I, UNIT_J, UNIT_K, PureUnit(1, 2, -0.5)):
        r = qinv(inv_sqrt_unit(axis))
        assert q_isclose(qmul(r, r), axis.array, 1e-14)


def test_pure_unit_normalizes_and_squares_to_minus_one():
    axis = PureUnit(3.0, -4.0, 12.0)
    q = axis.array
    assert qnorm(q) == pytest.approx(1.0, abs=1e-14)
    assert q[0] == 0.0
    assert np.abs(qmul(q, q) - (-UNITY)).max() <= 1e-13
    with pytest.raises(ValueError):
        PureUnit(0.0, 0.0, 0.0)


@pytest.mark.parametrize("v, want", [
    ((1e200, 1e200, 0.0), (math.sqrt(0.5), math.sqrt(0.5), 0.0)),  # squares overflow
    ((1e308, -1e308, 1e308), (1 / math.sqrt(3.0), -1 / math.sqrt(3.0), 1 / math.sqrt(3.0))),
    ((1e-320, 0.0, 0.0), (1.0, 0.0, 0.0)),  # subnormal: squares underflow to 0
    ((0.0, 5e-324, -5e-324), (0.0, math.sqrt(0.5), -math.sqrt(0.5))),
], ids=["1e200", "1e308", "1e-320", "5e-324"])
def test_pure_unit_normalizes_every_finite_nonzero_vector(v, want):
    axis = PureUnit(*v)
    assert (axis.x, axis.y, axis.z) == pytest.approx(want, rel=2e-16, abs=0.0)


def test_plane_to_quat():
    z = np.array([1 + 2j, -0.5j])
    emb = plane_to_quat(z, UNIT_K)
    assert np.allclose(emb, [[1, 0, 0, 2], [0, 0, 0, -0.5]])


def test_qnorm_neither_underflows_nor_overflows():
    from qolct import QField
    rows = np.array([
        [3e-160, 4e-160, 0.0, 0.0],        # squares subnormal
        [0.0, 1e-170, 0.0, 1e-170],        # squares underflow to 0
        [5e-324, 0.0, 0.0, 0.0],           # smallest subnormal
        [1e200, 1e200, 1e200, 1e200],      # squares overflow
        [0.0, 3e300, 0.0, 4e300],
        [1.0, 2.0, 2.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [np.inf, 1.0, 0.0, 0.0],
    ])
    want = [5e-160, math.sqrt(2.0) * 1e-170, 5e-324, 2e200, 5e300, 3.0, 0.0, np.inf]
    assert qnorm(rows) == pytest.approx(want, rel=4e-16, abs=0.0)
    field = QField(Grid2D(2, 4, 0.0, 0.0, 1.0, 1.0), rows.reshape(2, 4, 4))
    assert field.modulus() == pytest.approx(np.reshape(want, (2, 4)), rel=4e-16, abs=0.0)



def test_qnorm_is_bit_identical_to_its_reference_forms():
    # in-range rows equal sqrt(np.sum(r*r, -1)) to the bit; exact-zero rows
    # are 0 and every other out-of-range row equals the nested hypot
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((200, 4)) * 10.0 ** rng.integers(-140, 140, (200, 1))
    rows[:20] = 0.0
    rows[20:25] = -0.0
    rows[25:30] = 1e-200 * rng.standard_normal((5, 4))   # squares underflow
    rows[30:35] = 1e200 * rng.standard_normal((5, 4))    # squares overflow
    rows[35] = [np.inf, 1.0, 0.0, 0.0]
    rows[36] = [0.0, 0.0, -np.inf, np.nan]
    rows[37] = [np.nan, 0.0, 0.0, 0.0]
    rows[38] = [0.0, 0.0, 0.0, 5e-324]
    with np.errstate(over="ignore"):
        summed = np.sqrt(np.sum(rows * rows, axis=-1))
    hypot = np.hypot(np.hypot(rows[:, 0], rows[:, 1]), np.hypot(rows[:, 2], rows[:, 3]))
    in_range = (summed > 1e-150) & (summed < 1e150)
    assert in_range[39:].all() and not in_range[:39].any()
    want = np.where(in_range, summed, hypot)
    got = qnorm(rows)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert got[:25].tolist() == [0.0] * 25 and not np.signbit(got[:25]).any()
    assert np.isnan(got[37]) and got[35] == got[36] == np.inf
    # any leading shape, a single quaternion included
    assert np.array_equal(qnorm(rows.reshape(10, 20, 4)), got.reshape(10, 20),
                          equal_nan=True)
    assert qnorm(rows[50]).shape == () and qnorm(rows[50]) == got[50]

axes = st.tuples(components, components, components).filter(
    lambda v: v[0] ** 2 + v[1] ** 2 + v[2] ** 2 > 1e-2).map(lambda v: PureUnit(*v))


@settings(max_examples=80, deadline=None)
@given(n1=st.integers(1, 32), n2=st.integers(1, 32), lam=axes, mu=axes,
       relation=st.sampled_from(["free", "same", "opposite"]),
       has_left=st.booleans(), has_right=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sandwich_matches_hamilton_products(n1, n2, lam, mu, relation,
                                            has_left, has_right, seed):
    # the planes engine with no axis transformed must reproduce left * f *
    # right, including mu = +-lam (where a fixed plane basis degenerates) and
    # non-unimodular factors
    if relation != "free":
        s = 1.0 if relation == "same" else -1.0
        mu = PureUnit(s * lam.x, s * lam.y, s * lam.z)
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=(n1, n2, 4))

    def factor(n):
        return rng.uniform(0.1, 3.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))

    left = factor(n1) if has_left else None
    right = factor(n2) if has_right else None
    want = samples
    if left is not None:
        want = qmul(plane_to_quat(left, lam)[:, None, :], want)
    if right is not None:
        want = qmul(want, plane_to_quat(right, mu)[None, :, :])
    grid = Grid2D(n1, n2, 0.0, 0.0, 1.0, 1.0)
    got = _planes_ft(samples, grid, grid, lam, mu, ((0, left, None), (0, right, None)))
    assert got.shape == want.shape
    assert qnorm(got - want).max() <= 1e-14 * qnorm(want).max()
