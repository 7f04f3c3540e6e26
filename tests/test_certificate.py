"""Symbolic identities the numerics rely on, and property tests of the
wire format, the residual, the classifier, the lattice census and the
CLI's exit codes.

The identities run the library's own product formulas (``algebra.hamilton``,
``algebra.mul_coefficients`` and ``algebra.square_plus_one`` take any number
type) on sympy symbols and check them by expansion and ideal membership
alone; ``sympy.solve`` is never used.
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
    square_plus_one,
    square_residual,
)
from biquat.cli import format_coefficients, main, parse_coefficients
from biquat.oracle import LatticeSpec, lattice_search
from biquat import roots
from biquat.roots import (
    ImaginaryUnit,
    Nontrivial,
    NotRoot,
    RootClassification,
    TheoremViolationError,
    UnitPure,
    classify_coefficients,
    constraint_residuals,
    decompose,
    make_nontrivial_root,
)
from test_oracle import _brute_force_hits

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
    # two of the census's three sign maps: with q = qr + qi I, negating qr
    # or qi changes q^2 + 1 only by the sign of its I-part, so |q^2 + 1| is
    # the same at (a, b, c, d), (-a, -b, c, d) and (a, b, -c, -d)
    q = sympy.symbols("q0:8", real=True)
    square = mul_coefficients(q, q)
    want = [*square[:4], *(-u for u in square[4:])]
    for signs in ([-1] * 4 + [1] * 4, [1] * 4 + [-1] * 4):
        p = [s * u for s, u in zip(signs, q)]
        assert all(sympy.expand(u - v) == 0 for u, v in zip(mul_coefficients(p, p), want))


def test_negating_the_vector_coefficients_negates_those_of_the_square():
    # the census's third sign map, which lets it compute an eighth of the
    # grid: conjugating both parts of q negates its six vector coefficients
    # and those of q^2 and q^2 + 1, so |q^2 + 1| is the same at (a, b, c, d)
    # and (a, -b, c, -d)
    q = sympy.symbols("q0:8", real=True)
    signs = [1, -1, -1, -1] * 2
    p = [s * u for s, u in zip(signs, q)]
    want = [s * u for s, u in zip(signs, mul_coefficients(q, q))]
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


def test_v_zero_branch_is_plus_or_minus_I():
    # certificate step 3: at v = 0, q^2 + 1 is the scalar w^2 + 1 = (w - i)(w + i),
    # so, C having no zero divisors, q is a root exactly at w = +-i: the roots +-I
    w = sympy.symbols("w")
    scalar, *vector = square_plus_one(w, 0, 0, 0)
    assert sympy.expand(scalar - (w - sympy.I) * (w + sympy.I)) == 0
    assert vector == [0, 0, 0]
    for sign in (1, -1):
        assert all(sympy.expand(part) == 0 for part in square_plus_one(sign * sympy.I, 0, 0, 0))


def test_w_zero_families_square_to_minus_one():
    # certificate step 5, the converse for both w = 0 families: with
    # v = b mu + I d nu, every real and imaginary part of q^2 + 1 lies in the
    # ideal of |mu|^2 - 1, |nu|^2 - 1, mu.nu and b^2 - d^2 - 1; d = 0 is the
    # unit pure root mu, d > 0 the nontrivial one, where b = cosh t and
    # d = sinh t meet the hyperbola
    b, d, t = sympy.symbols("b d t", real=True)
    mu = sympy.symbols("mu_x mu_y mu_z", real=True)
    nu = sympy.symbols("nu_x nu_y nu_z", real=True)
    v = [b * m + sympy.I * d * n for m, n in zip(mu, nu)]
    ideal = sympy.groebner([sum(m * m for m in mu) - 1, sum(n * n for n in nu) - 1,
                            sum(m * n for m, n in zip(mu, nu)), b * b - d * d - 1],
                           b, d, *mu, *nu, order="grevlex")
    parts = [sympy.expand(p).as_real_imag() for p in square_plus_one(0, *v)]
    assert all(ideal.contains(part) for pair in parts for part in pair)
    assert not ideal.contains(parts[0][0] - 1)   # membership is not vacuous
    hyperbola = sympy.cosh(t) ** 2 - sympy.sinh(t) ** 2 - 1
    assert sympy.expand(hyperbola.rewrite(sympy.exp)) == 0


def test_constraint_residuals_closed_forms():
    # the paper's closed forms of q^2 + 1 in constraint_residuals' docstring:
    # with qr = a + b mu and qi = c + d nu for unit mu and nu, they are the
    # parts of the complex view's components (algebra.square_plus_one)
    # modulo |mu|^2 - 1 and |nu|^2 - 1
    a, b, c, d = sympy.symbols("a b c d", real=True)
    mu = sympy.symbols("mu_x mu_y mu_z", real=True)
    nu = sympy.symbols("nu_x nu_y nu_z", real=True)
    v = [b * m + sympy.I * d * n for m, n in zip(mu, nu)]
    parts = square_plus_one(a + sympy.I * c, *v)
    got = ([sympy.expand(p).as_real_imag()[0] for p in parts]
           + [sympy.expand(p).as_real_imag()[1] for p in parts])
    dot = sum(m * n for m, n in zip(mu, nu))
    closed = ([a * a - b * b - c * c + d * d + 1]                        # real_scalar
              + [2 * a * b * m - 2 * c * d * n for m, n in zip(mu, nu)]  # real_vector
              + [2 * a * c - 2 * b * d * dot]                            # imag_scalar
              + [2 * a * d * n + 2 * b * c * m for m, n in zip(mu, nu)])  # imag_vector
    units = [sum(m * m for m in mu) - 1, sum(n * n for n in nu) - 1]
    for part, form in zip(got, closed):
        _, remainder = sympy.reduced(sympy.expand(part - form), units, *mu, *nu)
        assert sympy.expand(remainder) == 0


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


# number tokens that are valid in both wire forms, and finite: repr of a
# double, decimal integers beyond 17 digits, signed zeros, exponent forms
NUMBER_TOKEN = (FINITE.map(repr)
                | st.integers(-10 ** 30, 10 ** 30).map(str)
                | st.sampled_from(["-0", "-0.0", "0", "0.0", "-0e5", "0E-3"])
                | st.builds("{}{}.{}{}{}".format, st.sampled_from(["", "-"]),
                            st.integers(0, 10 ** 20), st.integers(0, 10 ** 6),
                            st.sampled_from(["e", "E", "e+", "E-", "e-"]),
                            st.integers(0, 280)))


def _run_cli(argv, line):
    """Exit code, stdout and stderr of ``main(argv)`` on one stdin line."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(line + "\n")), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None, database=None)   # 8 CLI runs an example
@given(st.tuples(*[NUMBER_TOKEN] * 8))
@example(("-0", "0", "-0.0", "0", "-0", "0", "0", "0"))
@example(("123456789012345678901234567890", "-1E+280", "1e-330", "5e-324",
          "1.7976931348623157e+308", "-0", "1.000000000000000000001", "0"))
def test_text_and_json_forms_are_one_format(tokens):
    # the same 8 tokens as a text line and as {"qr", "qi"}: the same doubles
    # bit for bit, and the same square and classify runs
    text = " ".join(tokens)
    structured = f'{{"qr": [{", ".join(tokens[:4])}], "qi": [{", ".join(tokens[4:])}]}}'
    assert _bits(parse_coefficients(text)) == _bits(parse_coefficients(structured))
    for argv in (["square"], ["square", "--json"], ["classify"], ["classify", "--json"]):
        assert _run_cli(argv, text) == _run_cli(argv, structured)


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


@PROPERTY
@given(EIGHT_FINITE)
@example(EDGES)
@example((1e154, 1e154, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))   # w^2 - v.v finite, 2wv not
def test_constraint_residuals_are_the_parts_of_the_square(coeffs):
    # an error exactly when square_residual is inf; otherwise the same
    # aggregate bit for bit, and the parts reassemble to the Hamilton
    # route's q*q + 1 within the residual's roundoff bound
    q = Biquaternion.from_coefficients(*coeffs)
    residual = square_residual(coeffs)
    if residual == math.inf:
        with pytest.raises(ValueError, match="^q\\^2 overflows a double$"):
            constraint_residuals(q)
        return
    res = constraint_residuals(q)
    assert res.aggregate.hex() == residual.hex()
    norm = math.hypot(*coeffs)
    bound = RESIDUAL_ROUNDOFF * (norm * norm + 1.0)
    sq = mul_coefficients(coeffs, coeffs)
    want = (sq[0] + 1.0,) + sq[1:]
    assert all(abs(got - w) <= bound for got, w in zip(res.reassemble().coefficients(), want))


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


UNIT = st.builds(_unit, UNIT_VECTOR)
# random pairs, nu = +-mu, and exactly perpendicular pairs of axes
DIRECTION_PAIRS = (st.tuples(UNIT, UNIT)
                   | st.builds(lambda mu, s: (mu, PureUnit(s * mu.x, s * mu.y, s * mu.z)),
                               UNIT, st.sampled_from((1.0, -1.0)))
                   | st.permutations((PureUnit(1, 0, 0), PureUnit(0, 1, 0),
                                      PureUnit(0, 0, 1))).map(lambda axes: axes[:2]))


@settings(max_examples=30, deadline=None, database=None)
@given(DIRECTION_PAIRS, st.integers(1, 4), st.floats(0.125, 1.5),
       st.sampled_from((1e-9, 0.0625, 0.5, 4.0)))
@example((PureUnit(1, 0, 0), PureUnit(0, 1, 0)), 4, 0.25, 1e-9)
@example((PureUnit(0, 0, 1), PureUnit(0, 0, -1)), 4, 0.5, 4.0)
def test_lattice_search_is_the_brute_force_census(directions, half, step, tol):
    # the scan computes an eighth of the grid and re-checks each candidate's
    # eight images; point by point, the scalar route must find the same hits
    spec = LatticeSpec(half * step, step, *directions)
    report = lattice_search(spec, tol)
    assert report.hits == _brute_force_hits(spec, tol)
    assert report.violations == ()


def _decomposed_classify(c, tol=DEFAULT_TOL):
    """The classifier's earlier route, kept as a reference: the family read
    off ``decompose``, then the same checks on the coefficients."""
    residual = roots.square_residual(c)
    if residual > tol:
        return NotRoot(residual), residual
    form = decompose(c)
    if form.b <= tol and form.d <= tol:
        return ImaginaryUnit(1 if form.c >= 0.0 else -1), residual
    x, y, z = complex(c[1], c[5]), complex(c[2], c[6]), complex(c[3], c[7])
    w, vv = abs(complex(c[0], c[4])), abs(x * x + y * y + z * z - 1.0)
    norm = math.hypot(*c)
    bound = tol + RESIDUAL_ROUNDOFF * (norm * norm + 1.0)
    if w > bound or vv > bound:
        failures = [f"{name} = {value!r} > tol"
                    for name, value in (("|w|", w), ("|v.v - 1|", vv)) if value > bound]
        raise TheoremViolationError(Biquaternion.from_coefficients(*c), residual, failures)
    # b = 0 passes the checks only under a faked residual and a bound made
    # huge by |w|; decompose has no mu there, the classifier's normalization fails
    mu = form.mu if form.mu is not None else PureUnit.from_vector(*c[1:4])
    if form.d <= tol:
        return UnitPure(mu), residual
    nu = form.nu
    dot = mu.dot(nu)
    if abs(dot) > tol:
        nu = PureUnit.from_vector(nu.x - dot * mu.x, nu.y - dot * mu.y, nu.z - dot * mu.z)
    return Nontrivial(mu, nu, math.asinh(form.d)), residual


def _outcome(classify, c):
    # a verdict with its fields and residual bit for bit, or what was raised
    try:
        result, residual = classify(c)
    except TheoremViolationError as exc:
        return "violation", exc.failures, exc.residual.hex()
    except Exception as exc:   # only a faked residual gets here
        return type(exc), str(exc)
    return result, repr(result), residual.hex()


ROOTS = (st.builds(lambda pair, t: make_nontrivial_root(*pair, t).coefficients(),
                   perpendicular_pairs(), st.floats(0.0, 5.0, exclude_min=True))
         | st.builds(lambda mu: (0.0, mu.x, mu.y, mu.z, 0.0, 0.0, 0.0, 0.0), UNIT)
         | st.sampled_from([(0.0,) * 4 + (sign,) + (0.0,) * 3 for sign in (1.0, -1.0)]))
# noise about 1e-10 off the root, or subnormal vector parts
NOISE = (st.tuples(*[st.floats(-1e-10, 1e-10)] * 8)
         | st.tuples(*[st.floats(-sys.float_info.min, sys.float_info.min)] * 8))
NEAR_ROOTS = st.builds(lambda c, e: tuple(u + v for u, v in zip(c, e)), ROOTS, NOISE)


@PROPERTY
@given(EIGHT_FINITE | NEAR_ROOTS)
@example(EDGES)
@example((0.0, 5e-324, 5e-324, 0.0, 1.0, 0.0, 0.0, 0.0))   # I plus a subnormal v
@example((0.0, 1.0, 0.0, 0.0, 0.0, 5e-324, 5e-324, 0.0))   # i plus a subnormal vI
@example((0.0, math.sqrt(1.0 + 1e-8), 0.0, 0.0, 0.0, 1.5e-13, 1e-4, 0.0))   # |dot| ~ 1.5 tol
@example((0.0, 1.0, 0.0, 0.0, 1e-9, 0.0, 0.0, 0.0))   # c at tol
@example((0.0, 1e-9, 0.0, 0.0, 1.0, 1e-9, 0.0, 0.0))   # b and d at tol
@example((0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))   # unit-pure shaped, |v.v - 1| = 0.75
@example((1e20, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0))   # b = 0, checks pass on a faked residual
def test_one_pass_classifier_is_the_decomposed_route(coeffs):
    # same verdict, fields and residual bit for bit; and with the residual
    # faked to 0, so that the family checks run on any input, the same
    # failures or the same error
    assert _outcome(classify_coefficients, coeffs) == _outcome(_decomposed_classify, coeffs)
    with mock.patch.object(roots, "square_residual", lambda c: 0.0):
        assert (_outcome(classify_coefficients, coeffs)
                == _outcome(_decomposed_classify, coeffs))


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
