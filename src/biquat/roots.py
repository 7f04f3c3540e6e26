"""Square roots of -1 in the biquaternions.

Every root falls into one of three families:

* nontrivial roots ``b*mu + d*nu*I`` with perpendicular unit pure
  directions mu, nu and moduli on the hyperbola ``b^2 - d^2 = 1``,
  parameterized as ``b = cosh(t)``, ``d = sinh(t)``;
* the unit pure quaternions ``q = mu``;
* the imaginary units ``q = +I`` and ``q = -I``.

This module constructs nontrivial roots, reports the components of
``q^2 + 1`` by class, squared in the complex view, and classifies
biquaternions against the families. The classifier follows the theorem's
case split of q = w + v: v = 0 gives +-I, and otherwise w = 0 and
v.v = 1 are checked, after which d alone tells the unit pure root (d = 0,
the t = 0 slice of the nontrivial family) from the nontrivial one. It
reads b, d and c straight off the stored coefficients; ``decompose`` gives
callers the paper's ``(a + b*mu) + (c + d*nu)*I`` form of any biquaternion.
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
    coefficients_of,
    square_plus_one,
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
    and imag_vector the coefficient of I: the real and imaginary parts of
    the complex components of ``q^2 + 1`` (``algebra.square_plus_one``).
    ``aggregate`` is the Euclidean norm of those eight coefficients, equal
    to ``algebra.square_residual(q)`` bit for bit; it vanishes exactly on
    the root manifold.
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
    wr, xr, yr, zr, wi, xi, yi, zi = coefficients_of(q)
    b = math.hypot(xr, yr, zr)
    d = math.hypot(xi, yi, zi)
    mu = PureUnit.from_vector(xr, yr, zr) if b > 0.0 else None
    nu = PureUnit.from_vector(xi, yi, zi) if d > 0.0 else None
    return DecomposedForm(wr, b, mu, wi, d, nu)


def constraint_residuals(q: Biquaternion) -> Residuals:
    """The four components of ``q^2 + 1`` by class, and their norm.

    They are the parts of the complex view's q^2 + 1 = (w^2 - v.v + 1) + 2wv
    (``algebra.square_plus_one``): real_scalar and imag_scalar are those of
    its scalar component, real_vector and imag_vector those of its vector
    components. In the decomposed variables q = (a + b*mu) + (c + d*nu)*I,
    with b*mu and d*nu the stored vector parts, they are the paper's

        real_scalar = a^2 - b^2 - c^2 + d^2 + 1
        real_vector = 2ab*mu - 2cd*nu
        imag_scalar = 2ac - 2bd*dot(mu, nu)
        imag_vector = 2ad*nu + 2bc*mu

    (mu*nu + nu*mu collapses to -2*dot(mu, nu) because the cross products
    cancel). A square that overflows a double, so that the norm
    ``square_residual(q)`` is inf, is a ``ValueError``.
    """
    s, x, y, z = square_plus_one(*q.complex_components())
    aggregate = math.hypot(s.real, x.real, y.real, z.real, s.imag, x.imag, y.imag, z.imag)
    if not math.isfinite(aggregate):
        raise ValueError("q^2 overflows a double")
    return Residuals(s.real, Quaternion(0.0, x.real, y.real, z.real),
                     s.imag, Quaternion(0.0, x.imag, y.imag, z.imag), aggregate)


def classify_root(q: Biquaternion, tol: float = DEFAULT_TOL) -> RootClassification:
    """Classify q against the three root families.

    The aggregate residual of q^2 + 1 is tested first and is the ground
    truth: above ``tol`` the outcome is NotRoot. Otherwise the family is
    decided by the theorem's case split in the complex view q = w + v, with
    w = a + c*I and v = b*mu + d*nu*I, reading the moduli
    b = |x_r, y_r, z_r| and d = |x_i, y_i, z_i| and the scalar c = w_i off
    the stored coefficients, without building the decomposed form
    (``decompose`` is the paper's form for callers):

    * v = 0, that is b and d both below tol: imaginary unit, sign taken
      from c;
    * otherwise w = 0 and v.v = 1, checked, and then d alone splits the
      branch: d below tol is the unit pure root q = mu, and d above it the
      nontrivial root with t = asinh(d).

    In the second branch q is a root iff w = 0 and
    v.v = (b^2 - d^2) + 2*b*d*dot(mu, nu)*I = 1, which is a = c = 0,
    b^2 - d^2 = 1 and mu perpendicular to nu at once; so two checks,
    |w| <= tol and |v.v - 1| <= tol, are made before either family is
    named. A failed check while the residual passes raises
    TheoremViolationError rather than degrading to NotRoot.

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


def classify_coefficients(q: Biquaternion | Sequence[float],
                          tol: float = DEFAULT_TOL) -> tuple[RootClassification, float]:
    """``classify_root`` on a Biquaternion or its 8 coefficients in canonical
    order, with its residual.

    Returns ``(classification, square_residual(q))``, each computed once, in
    one pass over the coefficients: NotRoot above tol; the imaginary unit
    when the moduli b = |x_r, y_r, z_r| and d = |x_i, y_i, z_i| are both
    below tol, its sign read off the scalar c = w_i; otherwise the two
    checks, then the unit pure root at d below tol and the nontrivial one
    above it. The directions are normalized only where a family reports
    them. No ``DecomposedForm`` is built; a Biquaternion is built only to
    report a TheoremViolationError.
    """
    check_tolerance("tol", tol)
    residual = square_residual(q)
    if residual > tol:
        return NotRoot(residual), residual

    c = coefficients_of(q)
    wr, xr, yr, zr, wi, xi, yi, zi = c
    b = math.hypot(xr, yr, zr)
    d = math.hypot(xi, yi, zi)
    if b <= tol and d <= tol:
        return ImaginaryUnit(1 if wi >= 0.0 else -1), residual

    # the two checks of the complex view, each allowed the residual's roundoff
    x, y, z = complex(xr, xi), complex(yr, yi), complex(zr, zi)
    w, vv = abs(complex(wr, wi)), abs(x * x + y * y + z * z - 1.0)
    norm = math.hypot(*c)
    bound = tol + RESIDUAL_ROUNDOFF * (norm * norm + 1.0)
    if w > bound or vv > bound:
        failures = [f"{name} = {value!r} > tol"
                    for name, value in (("|w|", w), ("|v.v - 1|", vv)) if value > bound]
        raise TheoremViolationError(Biquaternion.from_coefficients(*c), residual, failures)
    mu = PureUnit.from_vector(xr, yr, zr)
    if d <= tol:
        return UnitPure(mu), residual
    nu = PureUnit.from_vector(xi, yi, zi)
    # keep the reported nu perpendicular to mu
    dot = mu.dot(nu)
    if abs(dot) > tol:
        nu = PureUnit.from_vector(nu.x - dot * mu.x, nu.y - dot * mu.y, nu.z - dot * mu.z)
    return Nontrivial(mu, nu, math.asinh(d)), residual
