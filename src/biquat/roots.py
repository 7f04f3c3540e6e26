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
    Biquaternion,
    PureUnit,
    Quaternion,
    check_tolerance,
    square_residual,
)

# Default tolerance for the |dot(mu, nu)| perpendicularity check.
PERP_TOL = 1e-9


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

    This should be unreachable for sane tolerances; it is raised loudly
    instead of being mapped to a not-a-root outcome so that a genuine
    counterexample could never be absorbed silently.
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
        return Biquaternion(_part(self.a, self.b, self.mu),
                            _part(self.c, self.d, self.nu))


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
    norm of the eight coefficients of ``q^2 + 1`` computed by generic
    multiplication; it is the ground truth the closed forms are checked
    against and vanishes exactly on the root manifold.
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


def _part(scalar: float, modulus: float, direction: PureUnit | None) -> Quaternion:
    if direction is None:
        return Quaternion(scalar, 0.0, 0.0, 0.0)
    return Quaternion(scalar, modulus * direction.x,
                      modulus * direction.y, modulus * direction.z)


def _scaled_vector(factor: float, direction: PureUnit | None) -> Quaternion:
    if direction is None or factor == 0.0:
        return Quaternion(0.0, 0.0, 0.0, 0.0)
    return Quaternion(0.0, factor * direction.x, factor * direction.y,
                      factor * direction.z)


def make_nontrivial_root(mu: PureUnit, nu: PureUnit, t: float,
                         perp_tol: float = PERP_TOL) -> Biquaternion:
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
    return Biquaternion(_scaled_vector(b, mu), _scaled_vector(d, nu))


def decompose(q: Biquaternion | Sequence[float]) -> DecomposedForm:
    """Split q into scalars a, c, moduli b, d >= 0 and unit directions.

    ``q`` is a Biquaternion or its 8 coefficients in canonical order.
    Total on all inputs: at zero modulus the direction is undefined and
    recorded as None. A negative-direction vector part is canonicalized
    by flipping the direction, keeping the modulus nonnegative, so each
    biquaternion has exactly one decomposed form.
    """
    wr, xr, yr, zr, wi, xi, yi, zi = q.coefficients() if isinstance(q, Biquaternion) else q
    b = math.hypot(xr, yr, zr)
    d = math.hypot(xi, yi, zi)
    mu = PureUnit(xr / b, yr / b, zr / b) if b > 0.0 else None
    nu = PureUnit(xi / d, yi / d, zi / d) if d > 0.0 else None
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
    cancel). The ``aggregate`` field is computed independently from the
    generic product, not from these closed forms.
    """
    form = decompose(q)
    a, b, c, d = form.a, form.b, form.c, form.d
    mu, nu = form.mu, form.nu

    real_scalar = a * a - b * b - c * c + d * d + 1.0
    real_vector = _scaled_vector(2.0 * a * b, mu) - _scaled_vector(2.0 * c * d, nu)
    imag_scalar = 2.0 * a * c
    if mu is not None and nu is not None:
        imag_scalar -= 2.0 * b * d * mu.dot(nu)
    imag_vector = _scaled_vector(2.0 * a * d, nu) + _scaled_vector(2.0 * b * c, mu)

    aggregate = square_residual(q)
    return Residuals(real_scalar, real_vector, imag_scalar, imag_vector, aggregate)


def classify_root(q: Biquaternion, tol: float = DEFAULT_TOL) -> RootClassification:
    """Classify q against the three root families.

    The aggregate residual of q^2 + 1 is tested first and is the ground
    truth: above ``tol`` the outcome is NotRoot. Otherwise the family is
    read off the decomposition:

    * b and d both below tol: imaginary unit, sign taken from c;
    * d below tol and |c| below tol: unit pure root q = mu;
    * otherwise nontrivial with t = asinh(d).

    In the nontrivial case the family structure (a = c = 0, b^2 - d^2 = 1,
    mu perpendicular to nu) is asserted. A failed assertion while the
    residual passes raises TheoremViolationError rather than degrading to
    NotRoot; with default tolerances that path should be unreachable.

    Boundary caveat: the residual constrains dot(mu, nu) only through the
    product 2*b*d*dot, so just above d = tol the direction is noise
    amplified by 1/(2*b*d) and a near-root whose coefficients carry
    generic noise (e.g. a Newton-refined point) can fail the
    perpendicularity assertion even though it sits on the manifold to
    within tol. The diagnostic fires there too: certification stays loud
    instead of absorbing a direction it cannot confirm.
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

    failures = []
    if abs(form.a) > tol:
        failures.append(f"|a| = {abs(form.a)!r} > tol")
    if abs(form.c) > tol:
        failures.append(f"|c| = {abs(form.c)!r} > tol")
    hyper = form.b * form.b - form.d * form.d - 1.0
    if abs(hyper) > tol:
        failures.append(f"|b^2 - d^2 - 1| = {abs(hyper)!r} > tol")
    if form.mu is None or form.nu is None:
        failures.append("missing direction for a nontrivial root")
    elif abs(form.mu.dot(form.nu)) > tol:
        failures.append(f"|dot(mu, nu)| = {abs(form.mu.dot(form.nu))!r} > tol")
    if failures:
        raise TheoremViolationError(Biquaternion.from_coefficients(*c), residual, failures)
    return Nontrivial(form.mu, form.nu, math.asinh(form.d)), residual


def recover_parameter(classification: Nontrivial) -> tuple[float, float, float]:
    """Return the moduli (b, d) = (cosh t, sinh t) and t of a nontrivial root."""
    if not isinstance(classification, Nontrivial):
        raise TypeError(
            f"expected a Nontrivial classification, got {type(classification).__name__}")
    t = classification.t
    return math.cosh(t), math.sinh(t), t
