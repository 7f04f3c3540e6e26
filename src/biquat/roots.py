"""Square roots of -1 in the biquaternions.

Every root falls into one of three families:

* nontrivial roots ``b*mu + d*nu*I`` with perpendicular unit pure
  directions mu, nu and moduli on the hyperbola ``b^2 - d^2 = 1``,
  parameterized as ``b = cosh(t)``, ``d = sinh(t)``;
* the unit pure quaternions ``q = mu``;
* the imaginary units ``q = +I`` and ``q = -I``.

This module constructs nontrivial roots, decomposes arbitrary
biquaternions into the ``(a + b*mu) + (c + d*nu)*I`` form, evaluates the
residuals of ``q^2 + 1`` split by component class, and classifies
biquaternions against the families.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .algebra import (
    DEFAULT_TOL,
    RESIDUAL_ROUNDOFF,
    Biquaternion,
    PureUnit,
    Quaternion,
    check_tolerance,
    square_residual,
)


class PerpendicularityError(ValueError):
    """Raised when mu and nu are not perpendicular within tolerance.

    Carries the offending dot product as ``.dot``.
    """

    def __init__(self, dot: float, tol: float):
        super().__init__(
            f"mu and nu must be perpendicular: |dot| = {abs(dot)!r} > {tol!r}")
        self.dot = dot
        self.tol = tol


class TheoremViolationError(RuntimeError):
    """Internal-consistency failure: q passes the residual test for a root
    of -1 but does not fit any of the three families.

    This is unreachable in exact arithmetic (see ``classify_root``); it is
    raised loudly instead of being mapped to a not-a-root outcome so that a
    genuine counterexample, or a roundoff or decomposition bug, could never
    be absorbed silently.
    """

    def __init__(self, q: Biquaternion, residual: float, failures: list[str]):
        super().__init__(
            "root classification inconsistency: residual "
            f"{residual!r} passes but {'; '.join(failures)}")
        self.q = q
        self.residual = residual
        self.failures = tuple(failures)


@dataclass(frozen=True, slots=True)
class DecomposedForm:
    """Canonical decomposition ``q = (a + b*mu) + (c + d*nu)*I``.

    b and d are nonnegative (signs are absorbed into mu and nu), and a
    direction is None exactly when its modulus is zero.
    """

    a: float
    b: float
    mu: PureUnit | None
    c: float
    d: float
    nu: PureUnit | None

    def reconstruct(self) -> Biquaternion:
        """Rebuild the biquaternion this form was decomposed from."""
        return Biquaternion(Quaternion(self.a, *_scaled(self.b, self.mu)),
                            Quaternion(self.c, *_scaled(self.d, self.nu)))


@dataclass(frozen=True, slots=True)
class Nontrivial:
    """Root ``cosh(t)*mu + sinh(t)*nu*I`` with mu perpendicular to nu, t > 0."""

    mu: PureUnit
    nu: PureUnit
    t: float


@dataclass(frozen=True, slots=True)
class UnitPure:
    """Degenerate root ``q = mu`` for a unit pure quaternion mu."""

    mu: PureUnit


@dataclass(frozen=True, slots=True)
class ImaginaryUnit:
    """Degenerate root ``q = sign * I`` with sign in {+1, -1}.

    Both signs square to -1 and both are accepted.
    """

    sign: int


@dataclass(frozen=True, slots=True)
class NotRoot:
    """q^2 + 1 has residual above tolerance; q is not a root of -1."""

    residual: float


RootClassification = Nontrivial | UnitPure | ImaginaryUnit | NotRoot


@dataclass(frozen=True, slots=True)
class Residuals:
    """Components of ``q^2 + 1`` grouped by class.

    real_scalar and real_vector are the plain-quaternion part, imag_scalar
    and imag_vector the coefficient of I. ``aggregate`` is the Euclidean
    norm of the eight coefficients of ``q^2 + 1``, squared in the complex
    view (``algebra.square_residual``) and not through the decomposition;
    it is the ground truth the closed forms are checked against and
    vanishes exactly on the root manifold.
    """

    real_scalar: float
    real_vector: Quaternion
    imag_scalar: float
    imag_vector: Quaternion
    aggregate: float

    def reassemble(self) -> Biquaternion:
        """Recombine the four components into ``q^2 + 1``."""
        rv, iv = self.real_vector, self.imag_vector
        return Biquaternion(
            Quaternion(self.real_scalar, rv.x, rv.y, rv.z),
            Quaternion(self.imag_scalar, iv.x, iv.y, iv.z),
        )


def _scaled(factor: float, direction: PureUnit | None) -> tuple[float, float, float]:
    if direction is None or factor == 0.0:
        return 0.0, 0.0, 0.0
    return factor * direction.x, factor * direction.y, factor * direction.z


def make_nontrivial_root(mu: PureUnit, nu: PureUnit, t: float,
                         perp_tol: float = DEFAULT_TOL) -> Biquaternion:
    """Construct the nontrivial root ``cosh(t)*mu + sinh(t)*nu*I``.

    The hyperbolic identity cosh^2 - sinh^2 = 1 puts the moduli on the
    constraint surface by construction, so the result squares to -1 (to
    roundoff, which grows like cosh(t)^2 * eps; at |t| <= 5 the aggregate
    residual stays below 1e-11). At t = 0 the result is exactly mu.

    Raises PerpendicularityError if |dot(mu, nu)| exceeds ``perp_tol``,
    which must be finite and nonnegative.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    check_tolerance("perp_tol", perp_tol, allow_zero=True)
    dot = mu.dot(nu)
    if abs(dot) > perp_tol:
        raise PerpendicularityError(dot, perp_tol)
    try:
        b, d = math.cosh(t), math.sinh(t)
    except OverflowError:
        raise ValueError(f"cosh(t) overflows a double at t = {t!r}") from None
    return Biquaternion(Quaternion(0.0, *_scaled(b, mu)),
                        Quaternion(0.0, *_scaled(d, nu)))


def decompose(q: Biquaternion | Sequence[float]) -> DecomposedForm:
    """Split q into scalars a, c, moduli b, d >= 0 and unit directions.

    ``q`` is a Biquaternion or its 8 coefficients in canonical order.
    Total on all finite inputs: at zero modulus the direction is undefined
    and recorded as None, and a modulus that overflows a double is inf with
    a unit direction. A negative-direction vector part is canonicalized
    by flipping the direction, keeping the modulus nonnegative, so each
    biquaternion has exactly one decomposed form.
    """
    wr, xr, yr, zr, wi, xi, yi, zi = q.coefficients() if isinstance(q, Biquaternion) else q
    b = math.hypot(xr, yr, zr)
    d = math.hypot(xi, yi, zi)
    mu = PureUnit.from_vector(xr, yr, zr) if b > 0.0 else None
    nu = PureUnit.from_vector(xi, yi, zi) if d > 0.0 else None
    return DecomposedForm(wr, b, mu, wi, d, nu)


def constraint_residuals(q: Biquaternion) -> Residuals:
    """Evaluate the four components of ``q^2 + 1`` in decomposed variables.

    With q = (a + b*mu) + (c + d*nu)*I, expanding the square and grouping
    by component class gives

        real_scalar = a^2 - b^2 - c^2 + d^2 + 1
        real_vector = 2ab*mu - 2cd*nu
        imag_scalar = 2ac - 2bd*dot(mu, nu)
        imag_vector = 2ad*nu + 2bc*mu

    (mu*nu + nu*mu collapses to -2*dot(mu, nu) because the cross products
    cancel). The ``aggregate`` field is computed independently, by
    ``algebra.square_residual`` in the complex view, not from these closed
    forms. A vector part whose modulus overflows a double is a
    ``ValueError``, as is a vector component of q^2 + 1 that overflows; a
    scalar component that overflows is +-inf.
    """
    coeffs = q.coefficients()
    form = decompose(coeffs)
    a, b, c, d = form.a, form.b, form.c, form.d
    mu, nu = form.mu, form.nu
    if math.isinf(b) or math.isinf(d):
        raise ValueError("q^2 overflows a double: a vector part has modulus inf")

    real_scalar = a * a - b * b - c * c + d * d + 1.0
    abx, aby, abz = _scaled(2.0 * a * b, mu)
    cdx, cdy, cdz = _scaled(2.0 * c * d, nu)
    imag_scalar = 2.0 * a * c
    if mu is not None and nu is not None:
        imag_scalar -= 2.0 * b * d * mu.dot(nu)
    adx, ady, adz = _scaled(2.0 * a * d, nu)
    bcx, bcy, bcz = _scaled(2.0 * b * c, mu)

    return Residuals(real_scalar, Quaternion(0.0, abx - cdx, aby - cdy, abz - cdz),
                     imag_scalar, Quaternion(0.0, adx + bcx, ady + bcy, adz + bcz),
                     square_residual(coeffs))


def classify_root(q: Biquaternion, tol: float = DEFAULT_TOL) -> RootClassification:
    """Classify q against the three root families.

    The aggregate residual of q^2 + 1 is tested first and is the ground
    truth: above ``tol`` the outcome is NotRoot. Otherwise the family is
    read off the decomposition:

    * b and d both below tol: imaginary unit, sign taken from c;
    * d below tol and |c| below tol: unit pure root q = mu;
    * otherwise nontrivial with t = asinh(d).

    In the nontrivial case the family structure is asserted in the complex
    view q = w + v, with w = a + c*I and v = b*mu + d*nu*I. There q is a
    root iff w = 0 and v.v = (b^2 - d^2) + 2*b*d*dot(mu, nu)*I = 1, which
    is a = c = 0, b^2 - d^2 = 1 and mu perpendicular to nu at once; so two
    checks, |w| <= tol and |v.v - 1| <= tol, are made. A failed check while
    the residual passes raises TheoremViolationError rather than degrading
    to NotRoot.

    In exact arithmetic no check can fail once the residual passes, at any
    tol. With |v|^2 = b^2 + d^2, the residual satisfies
    |q^2 + 1|^2 = |w^2 + 1 - v.v|^2 + 4 |w|^2 |v|^2, and this branch has
    |v| > tol. Then |v| > 1/2 too: for tol < 1/2, |v| <= 1/2 would give
    |w| < 1/2 by 2 |w| |v| <= tol, and so |w^2 + 1 - v.v| > 1/2 > tol.
    Hence |w| < tol. With u = |w|^2, |v.v - 1| <= |w^2 + 1 - v.v| + u is
    below sqrt(tol^2 - u) + u for tol < 1/2 (as 4 |v|^2 > 1) and below
    tol*sqrt(1 - 4u) + u for tol >= 1/2 (as |v| > tol); both decrease in u
    from tol. So each check allows only the residual's roundoff bound
    (``RESIDUAL_ROUNDOFF``): at w = 0, |v.v - 1| is the residual, rounded
    differently, and a tie must not split. TheoremViolationError stays a
    loud guard against roundoff and decomposition bugs.

    v.v bounds dot(mu, nu) only through 2*b*d*dot, so for d near 0 the
    decomposed nu can tilt by up to tol/(2*b*d). Where |dot| > tol the
    reported nu is projected off mu, which moves the root it names by at
    most d*|dot| <= tol/(2*b).
    """
    return classify_coefficients(q.coefficients(), tol)[0]


def classify_coefficients(c: Sequence[float],
                          tol: float = DEFAULT_TOL) -> tuple[RootClassification, float]:
    """``classify_root`` on 8 coefficients in canonical order, with its residual.

    Returns ``(classification, square_residual(c))``, each computed once;
    a Biquaternion is built only to report a TheoremViolationError.
    """
    check_tolerance("tol", tol)
    residual = square_residual(c)
    if residual > tol:
        return NotRoot(residual), residual

    form = decompose(c)
    if form.b <= tol and form.d <= tol:
        return ImaginaryUnit(1 if form.c >= 0.0 else -1), residual
    if form.d <= tol and abs(form.c) <= tol:
        return UnitPure(form.mu), residual

    # the two checks of the complex view, each allowed the residual's roundoff
    x, y, z = complex(c[1], c[5]), complex(c[2], c[6]), complex(c[3], c[7])
    w, vv = abs(complex(c[0], c[4])), abs(x * x + y * y + z * z - 1.0)
    norm = math.hypot(*c)
    bound = tol + RESIDUAL_ROUNDOFF * (norm * norm + 1.0)
    if w > bound or vv > bound:
        failures = [f"{name} = {value!r} > tol"
                    for name, value in (("|w|", w), ("|v.v - 1|", vv)) if value > bound]
        raise TheoremViolationError(Biquaternion.from_coefficients(*c), residual, failures)
    # keep the reported nu perpendicular to mu
    mu, nu = form.mu, form.nu
    dot = mu.dot(nu)
    if abs(dot) > tol:
        nu = PureUnit.from_vector(nu.x - dot * mu.x, nu.y - dot * mu.y, nu.z - dot * mu.z)
    return Nontrivial(mu, nu, math.asinh(form.d)), residual

