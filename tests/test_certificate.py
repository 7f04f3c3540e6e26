"""Symbolic identities the numerics rely on, and property tests of the
wire format, the residual, the classifier and the CLI's exit codes.

The identities run the library's own product formulas (``algebra.hamilton``
and ``algebra.mul_coefficients`` take any number type) on sympy symbols and
check them by expansion alone; ``sympy.solve`` is never used.
"""

import contextlib
import io
import json
import math
import sys
from unittest import mock

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from biquat.algebra import (
    DEFAULT_TOL,
    RESIDUAL_ROUNDOFF,
    Biquaternion,
    PureUnit,
    hamilton,
    mul_coefficients,
    square_residual,
)
from biquat.cli import format_coefficients, main, parse_coefficients
from biquat.roots import (
    Nontrivial,
    RootClassification,
    TheoremViolationError,
    UnitPure,
    classify_coefficients,
    decompose,
    make_nontrivial_root,
)

PROPERTY = settings(max_examples=200, deadline=None, database=None)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
EIGHT_FINITE = st.tuples(*[FINITE] * 8)
# -0.0, the smallest subnormal, the smallest normal and +-DBL_MAX
EDGES = (-0.0, 5e-324, -5e-324, sys.float_info.min, sys.float_info.max,
         -sys.float_info.max, 0.0, 1.0)


def test_census_cross_term_vanishes():
    # the census kernel drops the term 2ab t1.t2 of |a t1 + b t2|^2: for any
    # quaternion qi and pure m, t1 = 2 qi is orthogonal to t2 = m qi + qi m
    c, x, y, z, mx, my, mz = sympy.symbols("c x y z m_x m_y m_z", real=True)
    qi, m = (c, x, y, z), (0, mx, my, mz)
    t2 = [u + v for u, v in zip(hamilton(m, qi), hamilton(qi, m))]
    assert sympy.expand(sum(2 * u * v for u, v in zip(qi, t2))) == 0
    # t2 = (-2 m.V, 2c m) with V = (x, y, z)
    expected = (-2 * (mx * x + my * y + mz * z), 2 * c * mx, 2 * c * my, 2 * c * mz)
    assert all(sympy.expand(u - v) == 0 for u, v in zip(t2, expected))


def test_negating_either_part_flips_only_the_imaginary_part():
    # the census computes a quarter of the grid: with q = qr + qi I, negating
    # qr or qi changes q^2 + 1 only by the sign of its I-part, so |q^2 + 1|
    # is the same at (a, b, c, d), (-a, -b, c, d) and (a, b, -c, -d)
    q = sympy.symbols("q0:8", real=True)
    square = mul_coefficients(q, q)
    want = [*square[:4], *(-u for u in square[4:])]
    for signs in ([-1] * 4 + [1] * 4, [1] * 4 + [-1] * 4):
        p = [s * u for s, u in zip(signs, q)]
        assert all(sympy.expand(u - v) == 0 for u, v in zip(mul_coefficients(p, p), want))


def test_square_in_the_complex_view():
    # certificate step 1: with q = w + v, w a complex scalar and v a complex
    # 3-vector (the complex unit being I), q^2 = (w^2 - v.v) + 2 w v
    q = sympy.symbols("q0:8", real=True)
    w = q[0] + sympy.I * q[4]
    v = [q[k] + sympy.I * q[k + 4] for k in (1, 2, 3)]
    view = [sympy.expand(w * w - sum(u * u for u in v))] + [sympy.expand(2 * w * u) for u in v]
    expected = [part.as_real_imag()[0] for part in view] + [part.as_real_imag()[1] for part in view]
    assert all(sympy.expand(got - want) == 0
               for got, want in zip(mul_coefficients(q, q), expected))


def test_v_dot_v_on_unit_directions():
    # certificate step 4: for v = b mu + I d nu with unit mu and nu,
    # v.v = b^2 - d^2 + 2 I b d (mu.nu) modulo |mu|^2 - 1 and |nu|^2 - 1; so the
    # one complex check |v.v - 1| stands for the hyperbola b^2 - d^2 = 1 and
    # the perpendicularity of mu and nu together
    b, d = sympy.symbols("b d", real=True)
    mu = sympy.symbols("mu_x mu_y mu_z", real=True)
    nu = sympy.symbols("nu_x nu_y nu_z", real=True)
    v = [b * m + sympy.I * d * n for m, n in zip(mu, nu)]
    units = [sum(m * m for m in mu) - 1, sum(n * n for n in nu) - 1]
    _, remainder = sympy.reduced(sympy.expand(sum(u * u for u in v)), units, *mu, *nu)
    dot = sum(m * n for m, n in zip(mu, nu))
    assert sympy.expand(remainder - (b * b - d * d + 2 * sympy.I * b * d * dot)) == 0


def test_residual_norm_identity():
    # the identity behind classify_root's proof: with q = w + v,
    # |q^2 + 1|^2 = |w^2 + 1 - v.v|^2 + 4 |w|^2 |v|^2, where |v|^2 = sum |v_k|^2
    q = sympy.symbols("q0:8", real=True)
    w = q[0] + sympy.I * q[4]
    v = [q[k] + sympy.I * q[k + 4] for k in (1, 2, 3)]
    sq = mul_coefficients(q, q)
    lhs = (sq[0] + 1) ** 2 + sum(c * c for c in sq[1:])
    s = w * w + 1 - sum(u * u for u in v)
    rhs = s * sympy.conjugate(s) + 4 * w * sympy.conjugate(w) * sum(
        u * sympy.conjugate(u) for u in v)
    assert sympy.expand(lhs - rhs) == 0


def _bits(values):
    return [v.hex() for v in values]   # tells -0.0 from 0.0


@PROPERTY
@given(EIGHT_FINITE)
@example(EDGES)
def test_text_form_round_trips_bit_exactly(coeffs):
    text = format_coefficients(Biquaternion.from_coefficients(*coeffs), 17)
    assert _bits(parse_coefficients(text)) == _bits(coeffs)


@PROPERTY
@given(EIGHT_FINITE)
@example(EDGES)
def test_json_form_round_trips_bit_exactly(coeffs):
    text = json.dumps({"qr": list(coeffs[:4]), "qi": list(coeffs[4:])})
    assert _bits(parse_coefficients(text)) == _bits(coeffs)


@PROPERTY
@given(EIGHT_FINITE)
@example(EDGES)
@example((0.0, 5e-324, 5e-324, 0.0, 1.0, 0.0, 0.0, 0.0))   # I plus a subnormal v
@example((0.0, 1.0, 0.0, 0.0, 0.0, 5e-324, 5e-324, 0.0))   # i plus a subnormal vI
def test_classify_coefficients_is_total_on_finite_input(coeffs):
    try:
        classification, residual = classify_coefficients(coeffs)
    except TheoremViolationError:
        return
    assert isinstance(classification, RootClassification)
    assert residual >= 0.0    # inf when the square overflows, never nan


# coefficients whose squares and sums of squares stay below DBL_MAX
BOUNDED = st.floats(-2.0 ** 500, 2.0 ** 500)
# a coefficient whose own square overflows
HUGE = st.floats(2.0 ** 512, sys.float_info.max) | st.floats(-sys.float_info.max, -2.0 ** 512)


def _hamilton_residual(coeffs):
    sq = mul_coefficients(coeffs, coeffs)
    residual = math.hypot(sq[0] + 1.0, *sq[1:])
    return math.inf if math.isnan(residual) else residual


@PROPERTY
@given(st.tuples(*[BOUNDED] * 8))
@example(EDGES[:3] + (0.0, 1.0, 0.0, 0.0, 0.0))
@example((2.0 ** 500,) * 8)
def test_square_residual_agrees_with_the_hamilton_route(coeffs):
    # the complex view (w^2 - v.v + 1) + 2wv and the Hamilton product
    # q*q + 1 agree within the residual's roundoff bound
    norm = math.hypot(*coeffs)
    got, want = square_residual(coeffs), _hamilton_residual(coeffs)
    assert math.isfinite(got) and math.isfinite(want)
    assert abs(got - want) <= RESIDUAL_ROUNDOFF * (norm * norm + 1.0)


@PROPERTY
@given(st.tuples(*[FINITE] * 7), HUGE, st.integers(0, 7))
@example((0.0,) * 7, 1e200, 0)
@example((0.0, 0.0, 0.0, 0.0, 0.0, 1e200, 0.0), 1e200, 1)   # 1e200 i + 1e200 jI
def test_square_residual_is_inf_on_an_overflowing_square(rest, huge, index):
    coeffs = rest[:index] + (huge,) + rest[index:]
    assert square_residual(coeffs) == _hamilton_residual(coeffs) == math.inf


def _unit(v):
    assume(math.hypot(*v) >= 0.1)
    return PureUnit.from_vector(*v)


UNIT_VECTOR = st.tuples(*[st.floats(-1.0, 1.0)] * 3)


@st.composite
def perpendicular_pairs(draw):
    mu = _unit(draw(UNIT_VECTOR))
    v = draw(UNIT_VECTOR)
    dot = mu.x * v[0] + mu.y * v[1] + mu.z * v[2]
    return mu, _unit((v[0] - dot * mu.x, v[1] - dot * mu.y, v[2] - dot * mu.z))


@PROPERTY
@given(perpendicular_pairs(), st.floats(0.0, 5.0, exclude_min=True))
@example((PureUnit(1, 0, 0), PureUnit(0, 1, 0)), 5.0)
@example((PureUnit(1, 0, 0), PureUnit(0, 1, 0)), 5e-324)
def test_make_nontrivial_root_round_trips_through_the_classifier(directions, t):
    mu, nu = directions
    c = make_nontrivial_root(mu, nu, t).coefficients()
    classification, residual = classify_coefficients(c)
    assert residual <= DEFAULT_TOL
    if decompose(c).d <= DEFAULT_TOL:
        # within tol of the unit pure root mu
        assert isinstance(classification, UnitPure) and classification.mu.isclose(mu, 1e-15)
        return
    assert isinstance(classification, Nontrivial)
    assert classification.mu.isclose(mu, 1e-15) and classification.nu.isclose(nu, 1e-15)
    assert math.isclose(classification.t, t, rel_tol=1e-13)


# roots as the CLI reads them: make_nontrivial_root at t = 0 is exactly the unit pure mu
ROOT_LINE = (st.builds(lambda pair, t: format_coefficients(make_nontrivial_root(*pair, t), 17),
                       perpendicular_pairs(), st.floats(0.0, 5.0))
             | st.sampled_from(["0 0 0 0 1 0 0 0", "0 0 0 0 -1 0 0 0"]))
# q = a + v with a real, |a| >= 1e-3: |q^2 + 1|^2 = |a^2 + 1 - v.v|^2 + 4 a^2 |v|^2
# is at least min(|a|, 3/4)^2, far above tol and the roundoff at this size
NON_ROOT_LINE = st.builds(
    lambda c: format_coefficients(Biquaternion.from_coefficients(*c), 17),
    st.tuples(st.floats(1e-3, 10.0) | st.floats(-10.0, -1e-3), *[st.floats(-10.0, 10.0)] * 7))


@settings(max_examples=50, deadline=None, database=None)
@given(st.lists(st.tuples(st.just(True), ROOT_LINE) | st.tuples(st.just(False), NON_ROOT_LINE),
                min_size=1, max_size=8))
def test_classify_exit_code_contract(lines):
    # exit 0 when every line is a root, 1 when any line is not
    is_root = [flag for flag, _ in lines]
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO("".join(f"{text}\n" for _, text in lines))), \
            contextlib.redirect_stdout(out):
        code = main(["classify"])
    assert code == (0 if all(is_root) else 1)
    assert [not line.startswith("not-a-root") for line in out.getvalue().splitlines()] == is_root
