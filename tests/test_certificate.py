"""Symbolic identities the numerics rely on, and property tests of the wire format.

The identities run the library's own product formulas (``algebra.hamilton``
and ``algebra.mul_coefficients`` take any number type) on sympy symbols and
check them by expansion alone; ``sympy.solve`` is never used.
"""

import json
import sys

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from biquat.algebra import Biquaternion, hamilton, mul_coefficients
from biquat.cli import format_coefficients, parse_coefficients
from biquat.roots import RootClassification, TheoremViolationError, classify_coefficients

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
def test_classify_coefficients_is_total_on_finite_input(coeffs):
    try:
        classification, residual = classify_coefficients(coeffs)
    except TheoremViolationError:
        return
    assert isinstance(classification, RootClassification)
    assert residual >= 0.0    # inf when the square overflows, never nan
