import itertools
import math

import numpy as np
import pytest

from biquat.algebra import Biquaternion, PureUnit, Quaternion, biquat_mul
from biquat import roots
from biquat.cli import main as cli_main
from biquat.oracle import sample_perpendicular, sample_root, sample_unit_pure
from biquat.roots import (
    ImaginaryUnit,
    Nontrivial,
    NotRoot,
    PerpendicularityError,
    TheoremViolationError,
    UnitPure,
    classify_root,
    constraint_residuals,
    decompose,
    make_nontrivial_root,
)
from oracles import square_via_complex_view

MU_I = PureUnit(1, 0, 0)
NU_J = PureUnit(0, 1, 0)
MINUS_ONE = Biquaternion.from_scalar(-1.0)


def rand_biquat(rng, scale=10.0):
    return Biquaternion.from_coefficients(*rng.uniform(-scale, scale, 8))


def test_make_root_example_sqrt2():
    q = make_nontrivial_root(MU_I, NU_J, math.asinh(1.0))
    expected = Biquaternion.from_coefficients(0, math.sqrt(2), 0, 0, 0, 0, 1, 0)
    assert q.isclose(expected, 1e-12)


def test_make_root_example_sqrt3():
    s3, s2 = 1 / math.sqrt(3), 1 / math.sqrt(2)
    mu = PureUnit(s3, s3, s3)
    nu = PureUnit(0, s2, -s2)
    q = make_nontrivial_root(mu, nu, math.asinh(math.sqrt(2)))
    expected = Biquaternion.from_coefficients(0, 1, 1, 1, 0, 0, 1, -1)
    assert q.isclose(expected, 1e-12)


def test_make_root_t_zero_is_exactly_mu():
    mu = PureUnit.from_vector(0.3, -1.2, 0.4)
    nu_vec = np.cross([mu.x, mu.y, mu.z], [0, 0, 1.0])
    nu = PureUnit.from_vector(*nu_vec)
    q = make_nontrivial_root(mu, nu, 0.0)
    assert q.coefficients() == (0.0, mu.x, mu.y, mu.z, 0.0, 0.0, 0.0, 0.0)


def test_make_root_rejects_nonperpendicular(capsys):
    s2 = 1 / math.sqrt(2)
    with pytest.raises(PerpendicularityError) as excinfo:
        make_nontrivial_root(MU_I, PureUnit(s2, s2, 0), 1.0)
    assert excinfo.value.dot == pytest.approx(s2, abs=1e-15)
    assert make_nontrivial_root(MU_I, NU_J, 1.0, perp_tol=0.0) == \
        make_nontrivial_root(MU_I, NU_J, 1.0)
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="perp_tol must be finite and nonnegative"):
            make_nontrivial_root(MU_I, MU_I, 1.0, perp_tol=bad)
    # the command line names its own --tol flag, not the library keyword
    for bad in ("nan", "-1"):
        assert cli_main(["make-root", "--mu", "1 0 0", "--nu", "0 1 0",
                         "--t", "1", "--tol", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tol must be finite and nonnegative, got {float(bad)!r}\n"


def test_make_root_rejects_nonfinite_t():
    with pytest.raises(ValueError, match="finite"):
        make_nontrivial_root(MU_I, NU_J, float("nan"))
    for t in (1000.0, -1000.0):   # finite t whose cosh is not
        with pytest.raises(ValueError, match="overflows"):
            make_nontrivial_root(MU_I, NU_J, t)


def test_generator_soundness_sweep():
    # seeded perpendicular pairs, t uniform in [-5, 5]
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        mu = sample_unit_pure(rng)
        nu = sample_perpendicular(mu, rng)
        t = rng.uniform(-5.0, 5.0)
        q = make_nontrivial_root(mu, nu, t)
        worst = max(worst, (biquat_mul(q, q) + 1.0).coefficient_norm())
    assert worst <= 1e-9


def test_decompose_example_moduli():
    q = Biquaternion.from_coefficients(0, 1, 1, 1, 0, 0, 1, -1)
    form = decompose(q)
    assert form.a == 0.0 and form.c == 0.0
    assert form.b == pytest.approx(math.sqrt(3), abs=1e-15)
    assert form.d == pytest.approx(math.sqrt(2), abs=1e-15)
    s3, s2 = 1 / math.sqrt(3), 1 / math.sqrt(2)
    assert form.mu.isclose(PureUnit(s3, s3, s3), 1e-15)
    assert form.nu.isclose(PureUnit(0, s2, -s2), 1e-15)


def test_decompose_real_unit():
    form = decompose(Biquaternion.from_scalar(1.0))
    assert (form.a, form.b, form.mu) == (1.0, 0.0, None)
    assert (form.c, form.d, form.nu) == (0.0, 0.0, None)


def test_decompose_absorbs_sign_into_direction():
    q = Biquaternion.from_coefficients(0, 0, 0, 0, 0, 0, -2, 0)  # -2 j I
    form = decompose(q)
    assert form.b == 0.0 and form.mu is None
    assert form.d == 2.0
    assert form.nu == PureUnit(0, -1, 0)


def test_decompose_reconstruction_property():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        q = rand_biquat(rng)
        form = decompose(q)
        assert form.b >= 0.0 and form.d >= 0.0
        assert (form.mu is None) == (form.b == 0.0)
        assert (form.nu is None) == (form.d == 0.0)
        rebuilt = form.reconstruct()
        assert all(abs(a - b) <= 1e-12
                   for a, b in zip(rebuilt.coefficients(), q.coefficients()))


@pytest.mark.parametrize("coeffs", [
    (0, 1.7e308, 1.7e308, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1.0, 0, -1.7e308, -1.7e308),
], ids=["real-vector", "imaginary-vector"])
def test_overflowing_modulus_decomposes_and_is_not_a_root(coeffs):
    # hypot of the vector part overflows: decompose still gives a unit
    # direction with modulus inf, the closed forms of the square refuse it,
    # and the classifier reads the infinite residual first
    q = Biquaternion.from_coefficients(*coeffs)
    form = decompose(q)
    s2 = math.sqrt(0.5)
    if coeffs[1]:
        assert form.b == math.inf and form.mu.isclose(PureUnit(s2, s2, 0), 1e-15)
    else:
        assert form.d == math.inf and form.nu.isclose(PureUnit(0, -s2, -s2), 1e-15)
    with pytest.raises(ValueError, match="overflows a double"):
        constraint_residuals(q)
    assert classify_root(q) == NotRoot(math.inf)


def test_residuals_of_exact_root_vanish():
    q = Biquaternion.from_coefficients(0, math.sqrt(2), 0, 0, 0, 0, 1, 0)
    res = constraint_residuals(q)
    assert abs(res.real_scalar) <= 1e-12
    assert res.real_vector.norm() <= 1e-12
    assert abs(res.imag_scalar) <= 1e-12
    assert res.imag_vector.norm() <= 1e-12
    assert res.aggregate <= 1e-12


def test_residuals_of_real_unit():
    res = constraint_residuals(Biquaternion.from_scalar(1.0))
    assert res.real_scalar == 2.0
    assert res.real_vector == Quaternion(0, 0, 0, 0)
    assert res.imag_scalar == 0.0
    assert res.imag_vector == Quaternion(0, 0, 0, 0)
    assert res.aggregate == 2.0


def test_residuals_of_zero_divisor():
    # (i + j I)^2 = 0, so q^2 + 1 is exactly 1
    res = constraint_residuals(Biquaternion.from_coefficients(0, 1, 0, 0, 0, 0, 1, 0))
    assert res.real_scalar == 1.0
    assert res.real_vector.norm() == 0.0
    assert res.imag_scalar == 0.0
    assert res.imag_vector.norm() == 0.0
    assert res.aggregate == 1.0


def _residuals_from_quaternions(q):
    """constraint_residuals as six Quaternion builds, for the test below."""
    form = decompose(q)
    a, b, c, d, mu, nu = form.a, form.b, form.c, form.d, form.mu, form.nu

    def scaled(factor, direction):
        if direction is None or factor == 0.0:
            return Quaternion(0.0, 0.0, 0.0, 0.0)
        return Quaternion(0.0, factor * direction.x, factor * direction.y,
                          factor * direction.z)

    imag_scalar = 2.0 * a * c
    if mu is not None and nu is not None:
        imag_scalar -= 2.0 * b * d * mu.dot(nu)
    return (a * a - b * b - c * c + d * d + 1.0,
            scaled(2.0 * a * b, mu) - scaled(2.0 * c * d, nu),
            imag_scalar,
            scaled(2.0 * a * d, nu) + scaled(2.0 * b * c, mu),
            roots.square_residual(q))


def _hex_fields(real_scalar, real_vector, imag_scalar, imag_vector, aggregate):
    rv, iv = real_vector, imag_vector
    return [x.hex() for x in (real_scalar, rv.w, rv.x, rv.y, rv.z, imag_scalar,
                              iv.w, iv.x, iv.y, iv.z, aggregate)]


def test_constraint_residuals_bit_identical_to_quaternion_route():
    rng = np.random.default_rng(13)
    rows = [rng.uniform(-10, 10, 8).tolist() for _ in range(500)]
    # every subset of a, b, c, d set to zero of either sign; b = d = 0
    # leaves both directions None
    groups = ((0,), (1, 2, 3), (4,), (5, 6, 7))
    for zero in (0.0, -0.0):
        for chosen in itertools.product((False, True), repeat=4):
            indices = {k for group, on in zip(groups, chosen) if on for k in group}
            for row in rows[:20]:
                rows.append([zero if k in indices else v for k, v in enumerate(row)])
    for row in rows:
        q = Biquaternion.from_coefficients(*row)
        got = constraint_residuals(q)
        assert (_hex_fields(got.real_scalar, got.real_vector, got.imag_scalar,
                            got.imag_vector, got.aggregate)
                == _hex_fields(*_residuals_from_quaternions(q)))
    # a closed form that overflows is an error on both routes
    q = Biquaternion.from_coefficients(1e200, 1e200, 0, 0, 0, 0, 0, 0)
    for route in (constraint_residuals, _residuals_from_quaternions):
        with pytest.raises(ValueError, match="must be finite"):
            route(q)


def test_residual_closed_forms_match_generic_product():
    rng = np.random.default_rng(12)
    for _ in range(2000):
        q = rand_biquat(rng)
        res = constraint_residuals(q)
        want = np.array(square_via_complex_view(q.coefficients()))
        want[0] += 1.0
        got = np.array(res.reassemble().coefficients())
        assert np.allclose(got, want, rtol=0, atol=1e-9)
        # aggregate agrees with the closed-form components
        assert res.aggregate == pytest.approx(float(np.linalg.norm(want)), abs=1e-9)


def test_classify_nontrivial_example():
    q = Biquaternion.from_coefficients(0, math.sqrt(2), 0, 0, 0, 0, 1, 0)
    result = classify_root(q)
    assert isinstance(result, Nontrivial)
    assert result.mu.isclose(MU_I, 1e-15)
    assert result.nu.isclose(NU_J, 1e-15)
    assert result.t == pytest.approx(math.asinh(1.0), abs=1e-15)


def test_classify_unit_pure_example():
    result = classify_root(Biquaternion.from_coefficients(0, 0, 0, 1, 0, 0, 0, 0))
    assert isinstance(result, UnitPure)
    assert result.mu == PureUnit(0, 0, 1)


def test_classify_not_root_example():
    # (1 + i)^2 = 2i, so the residual is |1 + 2i| = sqrt(5)
    result = classify_root(Biquaternion.from_coefficients(1, 1, 0, 0, 0, 0, 0, 0))
    assert isinstance(result, NotRoot)
    assert result.residual == pytest.approx(math.sqrt(5), abs=1e-12)
    # finite input whose square overflows
    result = classify_root(Biquaternion.from_coefficients(1e200, 0, 0, 0, 0, 0, 0, 0))
    assert result == NotRoot(math.inf)


def test_classify_decomposes_only_roots_and_only_once(monkeypatch):
    calls = []
    monkeypatch.setattr(roots, "decompose", lambda q: calls.append(q) or decompose(q))
    classify_root(Biquaternion.from_coefficients(1, 1, 0, 0, 0, 0, 0, 0))
    assert calls == []
    classify_root(make_nontrivial_root(MU_I, NU_J, 1.0))
    assert len(calls) == 1


def test_classify_coefficients_returns_verdict_and_residual():
    rng = np.random.default_rng(15)
    mu = sample_unit_pure(rng)
    qs = [make_nontrivial_root(mu, sample_perpendicular(mu, rng), 1.5),
          Biquaternion.from_coefficients(0, mu.x, mu.y, mu.z, 0, 0, 0, 0),
          Biquaternion.from_coefficients(0, 0, 0, 0, -1, 0, 0, 0),
          rand_biquat(rng)]
    for q in qs:
        c = q.coefficients()
        assert decompose(c) == decompose(q)
        assert roots.classify_coefficients(c) == (classify_root(q), roots.square_residual(q))
    # a skew near-root that a sloppy tolerance admits: nu is reported
    # projected off mu
    b, d = math.cosh(0.3), math.sinh(0.3)
    c = (0, b, 0, 0, 0, d * 0.3, d * math.sqrt(1 - 0.09), 0)
    result, residual = roots.classify_coefficients(c, tol=0.25)
    assert residual == roots.square_residual(c) <= 0.25
    assert isinstance(result, Nontrivial) and result.mu == MU_I
    assert result.nu.isclose(NU_J, 1e-15)


def test_classify_imaginary_unit_both_signs():
    plus = classify_root(Biquaternion.from_coefficients(0, 0, 0, 0, 1, 0, 0, 0))
    minus = classify_root(Biquaternion.from_coefficients(0, 0, 0, 0, -1, 0, 0, 0))
    assert plus == ImaginaryUnit(1)
    assert minus == ImaginaryUnit(-1)


def test_classify_rejects_bad_tolerance():
    with pytest.raises(ValueError, match="tol"):
        classify_root(MINUS_ONE, tol=0.0)
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            classify_root(MINUS_ONE, tol=bad)


def test_classifier_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        mu = sample_unit_pure(rng)
        nu = sample_perpendicular(mu, rng)
        t = 5.0 * (1.0 - rng.random())
        result = classify_root(make_nontrivial_root(mu, nu, t))
        assert isinstance(result, Nontrivial)
        assert abs(result.t - t) <= 1e-9
        assert result.mu.isclose(mu, 1e-9)
        assert result.nu.isclose(nu, 1e-9)


def test_classify_degenerate_boundary_t_zero():
    mu = PureUnit.from_vector(1.0, 2.0, -2.0)
    nu = PureUnit.from_vector(2.0, -1.0, 0.0)
    result = classify_root(make_nontrivial_root(mu, nu, 0.0))
    assert isinstance(result, UnitPure)
    assert result.mu.isclose(mu, 1e-15)


def test_negation_closure():
    rng = np.random.default_rng(14)
    roots = [make_nontrivial_root(MU_I, NU_J, 1.5),
             Biquaternion.from_coefficients(0, 0, 1, 0, 0, 0, 0, 0),
             Biquaternion.from_coefficients(0, 0, 0, 0, 1, 0, 0, 0)]
    for _ in range(100):
        mu = sample_unit_pure(rng)
        nu = sample_perpendicular(mu, rng)
        roots.append(make_nontrivial_root(mu, nu, rng.uniform(0.1, 4.0)))
    for q in roots:
        assert not isinstance(classify_root(q), NotRoot)
        assert not isinstance(classify_root(-q), NotRoot)


def test_classification_soundness():
    # any root verdict implies q^2 = -1 within 10 * tol per coefficient
    tol = 1e-9
    rng = np.random.default_rng(15)
    candidates = [Biquaternion.from_coefficients(0, 0, 0, 0, -1, 0, 0, 0),
                  Biquaternion.from_coefficients(0, 1, 0, 0, 0, 0, 0, 0)]
    for _ in range(300):
        mu = sample_unit_pure(rng)
        nu = sample_perpendicular(mu, rng)
        candidates.append(make_nontrivial_root(mu, nu, rng.uniform(0.0, 5.0)))
    for q in candidates:
        result = classify_root(q, tol)
        assert not isinstance(result, NotRoot)
        square = biquat_mul(q, q)
        assert all(abs(got - want) <= 10 * tol for got, want
                   in zip(square.coefficients(), MINUS_ONE.coefficients()))


def test_sloppy_tolerance_admits_a_skew_near_root():
    # at tol 0.25 a near-root with non-perpendicular directions passes the
    # residual test and the family checks with it (|v.v - 1| = 2 b d dot,
    # about 0.19): it is nontrivial, its nu projected off mu
    dot = 0.3
    nu = PureUnit(dot, math.sqrt(1 - dot * dot), 0)
    t = 0.3
    q = Biquaternion(
        Quaternion(0, math.cosh(t), 0, 0),
        math.sinh(t) * nu.as_quaternion())
    residual = (biquat_mul(q, q) + 1.0).coefficient_norm()
    assert residual <= 0.25  # sanity: inside the loose tolerance
    result = classify_root(q, tol=0.25)
    assert isinstance(result, Nontrivial) and result.mu == MU_I
    assert result.nu.isclose(NU_J, 1e-15) and abs(result.t - t) <= 1e-15
    # at a sane tolerance the same input is just not a root
    assert isinstance(classify_root(q), NotRoot)


def test_every_family_check_reports_its_failure(monkeypatch):
    # the residual test keeps these checks out of reach: fake a residual of
    # 0 so that classify_coefficients runs them on points that are no roots
    monkeypatch.setattr(roots, "square_residual", lambda c: 0.0)
    cases = (
        ((1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0),
         ("|w| = 1.0 > tol", "|v.v - 1| = 2.0 > tol")),
        ((0.0, 2.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0),
         ("|w| = 1.0 > tol", "|v.v - 1| = 2.0 > tol")),
    )
    for coeffs, messages in cases:
        with pytest.raises(TheoremViolationError) as excinfo:
            roots.classify_coefficients(coeffs)
        assert excinfo.value.failures == messages
        assert excinfo.value.residual == 0.0
        # the violation carries the biquaternion it was found at
        assert excinfo.value.q == Biquaternion.from_coefficients(*coeffs)


def test_noise_amplified_direction_is_reported_perpendicular():
    # residual bounds dot(mu, nu) only via 2*b*d*dot, so a near-root with
    # d barely above tol can carry a direction tilted by far more than tol:
    # it is nontrivial, and the reported nu is projected off mu
    d = 1e-4
    b = math.sqrt(1.0 + d * d)
    nu = PureUnit.from_vector(2e-9, 1.0, 0.0)
    q = Biquaternion(Quaternion(0, b, 0, 0), d * nu.as_quaternion())
    assert (biquat_mul(q, q) + 1.0).coefficient_norm() <= 1e-9
    result = classify_root(q)
    assert isinstance(result, Nontrivial)
    assert abs(result.mu.dot(result.nu)) <= 1e-15
    # away from the boundary the residual itself polices the direction: the
    # same tilt gives residual 2*b*d*dot above tol, a plain NotRoot
    tilted = Biquaternion(Quaternion(0, math.cosh(1.0), 0, 0),
                          math.sinh(1.0) * nu.as_quaternion())
    assert isinstance(classify_root(tilted), NotRoot)
    # and a tilt within tol is reported as it is
    nu_fine = PureUnit.from_vector(2e-10, 1.0, 0.0)
    fine = Biquaternion(Quaternion(0, math.cosh(1.0), 0, 0),
                        math.sinh(1.0) * nu_fine.as_quaternion())
    assert classify_root(fine).nu == nu_fine


@pytest.mark.parametrize("tol", [1e-9, 1e-3, 0.25, 0.49])
def test_family_checks_pass_wherever_the_residual_does(tol):
    # in exact arithmetic residual <= tol implies |w| < tol and
    # |v.v - 1| <= tol (see classify_root): noisy roots near the gate
    # never raise TheoremViolationError
    rng = np.random.default_rng(16)
    passed = 0
    for _ in range(5000):
        q = sample_root(rng, 5.0)
        c = tuple((np.array(q.coefficients()) + rng.normal(0.0, tol / 4, 8)).tolist())
        passed += not isinstance(roots.classify_coefficients(c, tol)[0], NotRoot)
    assert passed >= 100   # the gate is reached, not only the NotRoot branch


def test_nonfinite_input_is_unrepresentable():
    # finiteness is enforced at construction, before classification
    with pytest.raises(ValueError, match="finite"):
        Biquaternion.from_coefficients(0, float("nan"), 0, 0, 0, 0, 1, 0)
