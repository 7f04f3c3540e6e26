import copy
import dataclasses
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from biquat.algebra import (
    UNIT_TOL,
    Biquaternion,
    PureUnit,
    Quaternion,
    biquat_mul,
    check_tolerance,
    dot_cross,
    mul_coefficients,
    quat_mul,
    square_residual,
)
from oracles import _to_complex, complex_hamilton, square_via_complex_view

ONE = Quaternion(1, 0, 0, 0)
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)

BASIS = {"1": ONE, "i": I, "j": J, "k": K}

# full multiplication table of {1, i, j, k}
HAMILTON_TABLE = {
    ("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
    ("i", "1"): "i", ("j", "1"): "j", ("k", "1"): "k",
    ("i", "i"): "-1", ("i", "j"): "k", ("i", "k"): "-j",
    ("j", "i"): "-k", ("j", "j"): "-1", ("j", "k"): "i",
    ("k", "i"): "j", ("k", "j"): "-i", ("k", "k"): "-1",
}


def _signed(symbol):
    if symbol.startswith("-"):
        return -BASIS[symbol[1:]]
    return BASIS[symbol]


def rand_quat(rng, scale=10.0):
    return Quaternion(*rng.uniform(-scale, scale, 4))


def rand_pure(rng, scale=2.0):
    return Quaternion(0.0, *rng.uniform(-scale, scale, 3))


def rand_biquat(rng, scale=10.0):
    return Biquaternion.from_coefficients(*rng.uniform(-scale, scale, 8))


def test_hamilton_basis_table_exact():
    for (left, right), product in HAMILTON_TABLE.items():
        assert quat_mul(BASIS[left], BASIS[right]) == _signed(product)
        assert BASIS[left] * BASIS[right] == _signed(product)


def test_identity_element():
    rng = np.random.default_rng(1)
    for _ in range(50):
        q = rand_quat(rng)
        assert quat_mul(ONE, q) == q
        assert quat_mul(q, ONE) == q


def test_pure_anticommutation_example():
    # (j - k)(i + j + k) + (i + j + k)(j - k) vanishes exactly
    u = J - K
    v = I + J + K
    total = quat_mul(u, v) + quat_mul(v, u)
    assert total == Quaternion(0, 0, 0, 0)


def test_biquat_square_examples():
    # sqrt(2) i + j I squares to -1
    q = Biquaternion.from_coefficients(0, math.sqrt(2), 0, 0, 0, 0, 1, 0)
    assert biquat_mul(q, q).isclose(Biquaternion.from_scalar(-1.0), 1e-12)

    # (i + j + k) + (j - k) I squares to -1
    q = Biquaternion.from_coefficients(0, 1, 1, 1, 0, 0, 1, -1)
    assert biquat_mul(q, q).isclose(Biquaternion.from_scalar(-1.0), 1e-12)

    # i + j I squares to zero exactly (a zero divisor, not a root)
    q = Biquaternion.from_coefficients(0, 1, 0, 0, 0, 0, 1, 0)
    assert biquat_mul(q, q).coefficient_norm() == 0.0


def test_biquat_mul_reduces_to_quat_mul():
    rng = np.random.default_rng(2)
    zero = Quaternion(0, 0, 0, 0)
    for _ in range(50):
        p, q = rand_quat(rng), rand_quat(rng)
        product = biquat_mul(Biquaternion(p, zero), Biquaternion(q, zero))
        assert Biquaternion(p, zero) * Biquaternion(q, zero) == product
        assert product.qr == quat_mul(p, q)
        assert product.qi == zero


def test_biquat_mul_matches_complex_view_route():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        p, q = rand_biquat(rng), rand_biquat(rng)
        got = biquat_mul(p, q).coefficients()
        want = complex_hamilton(p.coefficients(), q.coefficients())
        assert np.allclose(got, want, rtol=0, atol=1e-10)


def test_square_matches_complex_view_route():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        q = rand_biquat(rng)
        got = biquat_mul(q, q).coefficients()
        assert np.allclose(got, square_via_complex_view(q.coefficients()),
                           rtol=0, atol=1e-10)


def test_mul_coefficients_on_arrays_matches_scalar_product():
    rng = np.random.default_rng(5)
    p, q = rng.uniform(-10, 10, (8, 50)), rng.uniform(-10, 10, (8, 50))
    got = np.array(mul_coefficients(p, q))
    for col in range(50):
        want = biquat_mul(Biquaternion.from_coefficients(*p[:, col]),
                          Biquaternion.from_coefficients(*q[:, col]))
        assert tuple(got[:, col]) == want.coefficients()


def test_mul_coefficients_on_identity_gives_multiplication_matrices():
    rng = np.random.default_rng(6)
    eye = np.eye(8)
    for _ in range(20):
        x, y = rng.uniform(-3, 3, 8), rng.uniform(-3, 3, 8)
        left = np.array(mul_coefficients(x, eye))
        right = np.array(mul_coefficients(eye, x))
        assert np.allclose(left @ y, mul_coefficients(x, y), rtol=0, atol=1e-12)
        assert np.allclose(right @ y, mul_coefficients(y, x), rtol=0, atol=1e-12)


def test_square_residual_examples():
    assert square_residual(Biquaternion.from_coefficients(0, 0, 0, 0, 1, 0, 0, 0)) == 0.0
    assert square_residual(Biquaternion.from_coefficients(0, 1, 0, 0, 0, 0, 0, 0)) == 0.0
    assert square_residual(Biquaternion.from_scalar(1.0)) == 2.0
    # (1 + i)^2 + 1 = 1 + 2i
    assert square_residual(Biquaternion.from_coefficients(1, 1, 0, 0, 0, 0, 0, 0)) \
        == pytest.approx(math.sqrt(5), abs=1e-15)
    # finite inputs whose square overflows
    assert square_residual(Biquaternion.from_scalar(1e200)) == math.inf
    # (1e200 i + 1e200 jI)^2: the overflowed terms cancel to nan in the
    # real scalar and the kI coefficient, and no coefficient is inf
    q = Biquaternion.from_coefficients(0, 1e200, 0, 0, 0, 0, 1e200, 0)
    assert square_residual(q) == math.inf


def test_complex_components_example():
    q = Biquaternion(Quaternion(1, 2, 0, 0), Quaternion(3, 0, 0, 0))
    assert q.complex_components() == (complex(1, 3), complex(2, 0), 0j, 0j)
    assert all(type(c) is complex for c in q.complex_components())


def test_complex_components_zero():
    zero = Biquaternion.from_scalar(0.0)
    assert zero.complex_components() == (0j, 0j, 0j, 0j)
    assert Biquaternion.from_complex_components(0j, 0j, 0j, 0j) == zero


def test_complex_components_round_trip_is_exact():
    rng = np.random.default_rng(5)
    for _ in range(200):
        q = rand_biquat(rng)
        assert q.complex_components() == _to_complex(q.coefficients())
        assert Biquaternion.from_complex_components(*q.complex_components()) == q


def test_dot_cross_examples():
    s3, s2 = 1 / math.sqrt(3), 1 / math.sqrt(2)
    mu = Quaternion(0, s3, s3, s3)
    nu = Quaternion(0, 0, s2, -s2)
    dot, _ = dot_cross(mu, nu)
    assert abs(dot) <= 1e-15

    dot, cross = dot_cross(I, I)
    assert dot == 1.0 and cross == Quaternion(0, 0, 0, 0)
    dot, cross = dot_cross(I, J)
    assert dot == 0.0 and cross == K


def test_dot_cross_rejects_nonpure():
    with pytest.raises(ValueError, match="pure"):
        dot_cross(Quaternion(1, 1, 0, 0), I)
    with pytest.raises(ValueError, match="pure"):
        dot_cross(I, Quaternion(1e-6, 0, 1, 0))


def test_pure_product_identity():
    # u v = -dot(u, v) + cross(u, v) for pure u, v
    rng = np.random.default_rng(7)
    for _ in range(2000):
        u, v = rand_pure(rng), rand_pure(rng)
        dot, cross = dot_cross(u, v)
        expected = Quaternion(-dot, 0, 0, 0) + cross
        assert quat_mul(u, v).isclose(expected, 1e-12)
        dot_rev, cross_rev = dot_cross(v, u)
        assert dot_rev == dot
        assert cross_rev == -cross


def test_pure_anticommutator_is_minus_two_dot():
    rng = np.random.default_rng(8)
    for _ in range(2000):
        u, v = rand_pure(rng), rand_pure(rng)
        dot, _ = dot_cross(u, v)
        anticommutator = quat_mul(u, v) + quat_mul(v, u)
        assert abs(anticommutator.w - (-2.0 * dot)) <= 1e-12
        assert math.hypot(anticommutator.x, anticommutator.y,
                          anticommutator.z) <= 1e-12


def test_biquat_mul_associative_and_bilinear():
    rng = np.random.default_rng(9)
    for _ in range(300):
        p, q, r = (rand_biquat(rng) for _ in range(3))
        left = biquat_mul(biquat_mul(p, q), r)
        right = biquat_mul(p, biquat_mul(q, r))
        scale = max(1.0, left.coefficient_norm())
        assert (left - right).coefficient_norm() / scale <= 1e-10

        alpha, beta = rng.uniform(-3, 3, 2)
        combo = biquat_mul(alpha * p + beta * q, r)
        expanded = alpha * biquat_mul(p, r) + beta * biquat_mul(q, r)
        scale = max(1.0, combo.coefficient_norm())
        assert (combo - expanded).coefficient_norm() / scale <= 1e-10


def test_imaginary_operator_commutes():
    imaginary = Biquaternion(Quaternion(0, 0, 0, 0), Quaternion(1, 0, 0, 0))
    rng = np.random.default_rng(10)
    for _ in range(200):
        q = rand_biquat(rng)
        assert biquat_mul(imaginary, q).isclose(biquat_mul(q, imaginary), 1e-12)


def test_scalar_operands_and_unsupported_operands():
    q = Biquaternion.from_coefficients(1, 2, 3, 4, 5, 6, 7, 8)
    assert 1.0 + q == q + 1.0 == Biquaternion.from_coefficients(2, 2, 3, 4, 5, 6, 7, 8)
    assert q - 1.0 == Biquaternion.from_coefficients(0, 2, 3, 4, 5, 6, 7, 8)
    assert 2 * q == q * 2.0 == Biquaternion.from_coefficients(2, 4, 6, 8, 10, 12, 14, 16)
    # a Python complex is not a biquaternion (its j is not the I of qi)
    for a, b in ((q, 1j), (1j, q), (q.qr, 1j), (1j, q.qr)):
        with pytest.raises(TypeError):
            a * b
    for a, b in ((q, 1j), (1j, q)):
        with pytest.raises(TypeError):
            a + b
    with pytest.raises(TypeError):
        q - 1j
    # a quaternion takes no scalar operand in a sum
    for a, b in ((q.qr, 1.0), (q.qr, 1j)):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b


def test_coefficient_order_round_trip():
    coeffs = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
    q = Biquaternion.from_coefficients(*coeffs)
    assert q.coefficients() == coeffs
    assert q.qr == Quaternion(1, 2, 3, 4)
    assert q.qi == Quaternion(5, 6, 7, 8)
    assert q.coefficient_norm() == math.hypot(*coeffs)


def test_nonfinite_coefficients_rejected():
    with pytest.raises(ValueError, match="finite"):
        Quaternion(float("nan"), 0, 0, 0)
    with pytest.raises(ValueError, match="finite"):
        Biquaternion.from_coefficients(0, 1, 0, 0, 0, 0, float("inf"), 0)
    with pytest.raises(ValueError, match="finite"):
        Biquaternion.from_complex_components(complex(0, float("-inf")), 0j, 0j, 0j)
    # finite coefficients are accepted even where their sum overflows
    q = Quaternion(1e308, 1e308, 0.0, 0.0)
    assert (q.w, q.x, q.y, q.z) == (1e308, 1e308, 0.0, 0.0)


def test_quaternion_stores_plain_floats():
    for q in (Quaternion(1, 2, 3, 4), Quaternion(*np.arange(4.0)),
              Quaternion(1.0, 2.0, 3.0, np.float64(4.0)), Quaternion(0.5, 1.5, -2.0, 3.0)):
        assert all(type(v) is float for v in (q.w, q.x, q.y, q.z))
    with pytest.raises(ValueError, match="Quaternion coefficients must be finite, got inf"):
        Quaternion(0.0, 1.0, float("inf"), 2.0)
    with pytest.raises(ValueError, match="Quaternion coefficients must be finite, got nan"):
        Quaternion(0, 1, 2, np.float64("nan"))


def test_pure_unit_stores_plain_floats():
    for u in (PureUnit(1, 0, 0), PureUnit(*np.array([0.0, 0.6, 0.8])),
              PureUnit(0.6, np.float64(0.8), 0.0), PureUnit(0.0, 0.6, -0.8),
              PureUnit.from_vector(*np.array([0.0, 3.0, 4.0])),
              PureUnit.from_vector(3, np.float64(4.0), 0),
              PureUnit.from_vector(*np.array([5e-324, 0.0, 0.0]))):
        assert all(type(v) is float for v in (u.x, u.y, u.z))
    with pytest.raises(ValueError, match="PureUnit coefficients must be finite, got inf"):
        PureUnit(0.0, float("inf"), 0.0)
    with pytest.raises(ValueError, match="PureUnit coefficients must be finite, got nan"):
        PureUnit(1, 0, np.float64("nan"))
    with pytest.raises(ValueError, match="unit norm"):
        PureUnit(0.6, 0.6, 0.0)


def test_check_tolerance():
    check_tolerance("tol", 1e-9)
    check_tolerance("tol", 1)
    check_tolerance("perp_tol", 0.0, allow_zero=True)
    for bad in (math.nan, math.inf, -math.inf, -1.0, 0.0):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            check_tolerance("tol", bad)
    for bad in (math.nan, math.inf, -1e-300):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            check_tolerance("perp_tol", bad, allow_zero=True)


def test_pure_unit_validation():
    PureUnit(1, 0, 0)
    PureUnit(1 / math.sqrt(3), 1 / math.sqrt(3), 1 / math.sqrt(3))
    with pytest.raises(ValueError, match="unit"):
        PureUnit(1, 1, 0)
    u = PureUnit.from_vector(3.0, 4.0, 0.0)
    assert u.isclose(PureUnit(0.6, 0.8, 0.0), 1e-15)
    with pytest.raises(ValueError, match="zero"):
        PureUnit.from_vector(0.0, 0.0, 0.0)
    # hypot(5e-324, 5e-324) rounds to 5e-324 itself
    half = math.sqrt(0.5)
    assert PureUnit.from_vector(5e-324, 5e-324, 0.0).isclose(PureUnit(half, half, 0.0), 1e-15)
    # and hypot(1.7e308, 1.7e308) overflows to inf
    assert PureUnit.from_vector(1.7e308, 1.7e308, 0.0).isclose(PureUnit(half, half, 0.0), 1e-15)
    # an infinite modulus from an infinite input names that input, not inf / inf
    with pytest.raises(ValueError, match="^PureUnit coefficients must be finite, got inf$"):
        PureUnit.from_vector(math.inf, 0.0, 0.0)
    with pytest.raises(ValueError, match="^PureUnit coefficients must be finite, got -inf$"):
        PureUnit.from_vector(1.0, -math.inf, 0.0)
    for v in ((math.nan, 0.0, 0.0), (1.0, 2.0, math.nan), (math.nan, math.inf, 0.0)):
        with pytest.raises(ValueError, match="^PureUnit coefficients must be finite, got nan$"):
            PureUnit.from_vector(*v)
    assert (-u).isclose(PureUnit(-0.6, -0.8, 0.0), 1e-15)
    assert u.dot(u) == pytest.approx(1.0, abs=1e-15)
    assert u.as_quaternion() == Quaternion(0, 0.6, 0.8, 0)


VALUES = (Quaternion(1, -2.5, 0.0, 4), PureUnit(0.6, 0.8, 0.0),
          PureUnit.from_vector(1.0, -2.0, 2.0), Biquaternion.from_coefficients(1, 2, 3, 4, -5, 6, 7, 8))


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_types_are_frozen_dataclass_values(value):
    fields = dataclasses.fields(value)
    # a field added later without a line in __init__ would be left unset
    assert all(hasattr(value, f.name) for f in fields)
    for f in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, getattr(value, f.name))
    kwargs = {f.name: getattr(value, f.name) for f in fields}
    assert type(value)(**kwargs) == value
    assert dataclasses.replace(value) == value
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)


def test_replace_validates_like_the_constructor():
    with pytest.raises(ValueError, match="^PureUnit requires unit norm, got 2.0$"):
        dataclasses.replace(PureUnit(1.0, 0.0, 0.0), x=2.0)
    with pytest.raises(ValueError, match="^PureUnit requires unit norm, got 1.5$"):
        dataclasses.replace(PureUnit.from_vector(1.0, 0.0, 0.0), x=1.5)
    with pytest.raises(ValueError, match="^Quaternion coefficients must be finite, got nan$"):
        dataclasses.replace(Quaternion(1, 2, 3, 4), y=math.nan)
    assert dataclasses.replace(PureUnit(1.0, 0.0, 0.0), x=0.0, z=-1).z == -1.0


def test_biquaternion_parts_must_be_quaternions():
    q = Biquaternion.from_coefficients(1, 2, 3, 4, 5, 6, 7, 8)
    with pytest.raises(TypeError, match="^Biquaternion qi must be a Quaternion, got str$"):
        Biquaternion(q.qr, "x")
    with pytest.raises(TypeError, match="^Biquaternion qr must be a Quaternion, got float$"):
        Biquaternion(1.0, "x")
    with pytest.raises(TypeError, match="^Biquaternion qi must be a Quaternion, got float$"):
        dataclasses.replace(q, qi=1.0)
    with pytest.raises(TypeError, match="^Biquaternion qr must be a Quaternion, got PureUnit$"):
        Biquaternion(PureUnit(1.0, 0.0, 0.0), q.qi)


MANTISSA = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=300, deadline=None, database=None)
@given(st.tuples(MANTISSA, MANTISSA, MANTISSA), st.integers(-320, 300))
def test_from_vector_is_unit_at_every_scale(direction, exponent):
    x, y, z = (m * 10.0 ** exponent for m in direction)
    assume(not x == y == z == 0.0)
    u = PureUnit.from_vector(x, y, z)
    assert abs(math.hypot(u.x, u.y, u.z) - 1.0) <= UNIT_TOL
    n = math.hypot(x, y, z)
    if n >= sys.float_info.min:   # no rescaling: the quotients themselves, bit for bit
        v = PureUnit(x / n, y / n, z / n)
        assert [c.hex() for c in (u.x, u.y, u.z)] == [c.hex() for c in (v.x, v.y, v.z)]
