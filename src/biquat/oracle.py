"""Numerical evidence that the three root families are the only ones.

The completeness of the family list is a symbolic fact; this module
probes it numerically, desk-scale, from three directions:

* seeded samplers that generate roots all over the solution manifold;
* an exhaustive lattice census over the decomposed coefficients
  (a, b, c, d) with fixed directions, covering both the perpendicular
  and the non-perpendicular direction case;
* Newton refinement that projects perturbed points back onto the
  manifold ``{q : q^2 = -1}``, after which the landing point must
  classify into a known family.

The census scan squares through ``algebra.hamilton``, the one copy of
the product formula, on coefficient arrays, and Newton measures its
iterates by ``algebra.square_residual``. The scan takes the products of
one (c, d) plane once and scores every (a, b) from them by bilinearity
alone, with none of the closed forms of ``roots``; its residuals differ
from the scalar route by roundoff, so each point near the tolerance is
decided by ``classify_coefficients``.

All sampling is reproducible: a run is fully determined by the seed and
parameters. The lattice scan reports hits in lattice index order (a
outermost, then b, c, d).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    Biquaternion,
    PureUnit,
    check_tolerance,
    hamilton,
    square_residual,
)
from .roots import (
    NotRoot,
    RootClassification,
    TheoremViolationError,
    classify_coefficients,
    make_nontrivial_root,
)

_MAX_LATTICE_POINTS = 100_000_000
_NEWTON_ITERATIONS = 25
_NEWTON_TARGET = 1e-12
_NEWTON_BASIN = 0.1


class NonConvergenceError(RuntimeError):
    """Newton missed its target; carries its best iterate ``.best`` and ``.residual``."""

    def __init__(self, best: Biquaternion, residual: float, message: str):
        super().__init__(f"{message} (best residual {residual!r})")
        self.best = best
        self.residual = residual


def sample_unit_pure(rng: np.random.Generator) -> PureUnit:
    """Draw a uniformly distributed point on the unit sphere.

    Normalizes a triple of independent Gaussians, exactly uniform, and redraws
    one of norm <= 1e-9. Identical generator states yield identical outputs.
    """
    while True:
        v = rng.standard_normal(3).tolist()
        if math.hypot(*v) > 1e-9:
            return PureUnit.from_vector(*v)


def sample_perpendicular(mu: PureUnit, rng: np.random.Generator) -> PureUnit:
    """Draw a unit vector uniformly from the circle perpendicular to mu.

    A uniform sphere point is projected onto the plane perpendicular to
    mu and normalized; draws that land nearly parallel to mu (projected
    magnitude < 1e-6) are discarded and redrawn. A second projection pass
    keeps |dot(mu, result)| at roundoff level (< 1e-12) even for the
    worst accepted draws.
    """
    while True:
        v = sample_unit_pure(rng)
        s = v.dot(mu)
        x, y, z = v.x - s * mu.x, v.y - s * mu.y, v.z - s * mu.z
        if math.hypot(x, y, z) >= 1e-6:
            break
    w = PureUnit.from_vector(x, y, z)
    s = w.dot(mu)
    return PureUnit.from_vector(w.x - s * mu.x, w.y - s * mu.y, w.z - s * mu.z)


def sample_root(rng: np.random.Generator, t_max: float) -> Biquaternion:
    """Draw a random nontrivial root with t uniform in (0, t_max], t_max finite."""
    check_tolerance("t_max", t_max)
    mu = sample_unit_pure(rng)
    nu = sample_perpendicular(mu, rng)
    t = t_max * (1.0 - rng.random())
    return make_nontrivial_root(mu, nu, t)


@dataclass(frozen=True)
class LatticeSpec:
    """Grid over the decomposed coefficients with fixed directions.

    Each of a, b, c, d ranges over multiples of ``step`` in
    [-bound, bound]; ``bound`` must be an integer multiple of ``step`` so
    the grid contains 0 exactly (and +/-1 whenever step divides 1).
    Scanning only the four coefficients is what makes the census
    exhaustive: once mu and nu are fixed, the family structure lives
    entirely in (a, b, c, d), and one perpendicular plus one
    non-perpendicular direction pair covers both constraint branches.
    """

    bound: float
    step: float
    mu: PureUnit
    nu: PureUnit

    def __post_init__(self):
        if self.bound <= 0.0 or self.step <= 0.0:
            raise ValueError("bound and step must be positive")
        ratio = self.bound / self.step
        if not all(map(math.isfinite, (self.bound, self.step, ratio))):
            raise ValueError(f"bound, step and bound/step must be finite, got "
                             f"{self.bound!r}, {self.step!r} and {ratio!r}")
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(
                f"bound/step must be an integer, got {ratio!r}")

    def axis(self) -> np.ndarray:
        n = round(self.bound / self.step)
        return np.arange(-n, n + 1) * self.step

    def point_count(self) -> int:
        return (2 * round(self.bound / self.step) + 1) ** 4


@dataclass(frozen=True)
class LatticeHit:
    a: float
    b: float
    c: float
    d: float
    residual: float
    classification: RootClassification


@dataclass(frozen=True)
class SearchReport:
    """Census result: every hit has residual <= tolerance and must
    classify into a root family; anything else lands in ``violations``."""

    hits: tuple[LatticeHit, ...]
    scanned: int
    tolerance: float
    violations: tuple[str, ...]


def _plane_terms(mu: PureUnit, qi) -> np.ndarray:
    """The three (4, P) coefficient arrays of a scan plane, stacked.

    For q = qr + qi*I with qr = a + b*m and m = (0, mu), the product is
    bilinear, so q^2 + 1 = (qr*qr + 1 - qi*qi) + (a*(2*qi) + b*(m*qi + qi*m))*I.
    The terms are ``1 - qi*qi`` (1 on row 0 only), ``2*qi`` and
    ``m*qi + qi*m``, each from ``algebra.hamilton`` on the stored floats.
    """
    m = (0.0, mu.x, mu.y, mu.z)
    terms = np.empty((3, 4, qi[0].size))
    np.negative(hamilton(qi, qi), out=terms[0])
    terms[0, 0] += 1.0
    np.multiply(qi, 2.0, out=terms[1])
    np.add(hamilton(m, qi), hamilton(qi, m), out=terms[2])
    return terms


def _square_residual_arrays(a: float, b: float, mu: PureUnit, terms: np.ndarray,
                            buf: np.ndarray) -> np.ndarray:
    """Euclidean norm of q^2 + 1 over a plane, at the real part a + b*mu.

    The scan kernel: ``terms`` comes from ``_plane_terms`` and ``buf`` is
    an (8, P) scratch array that receives the coefficients of q^2 + 1.
    Only ``qr*qr`` is a product here, on four floats; the rest combines the
    plane's terms by bilinearity alone. The operation order is not that of
    ``mul_coefficients``, so each residual differs from the scalar
    ``algebra.square_residual`` by roundoff, within 20 eps (|q|^2 + 1).
    Points whose square overflows come out inf or nan (callers silence the
    warnings).
    """
    qr = (a, b * mu.x, b * mu.y, b * mu.z)
    np.add(np.array(hamilton(qr, qr))[:, None], terms[0], out=buf[:4])
    np.multiply(terms[1], a, out=buf[4:])
    buf[4:] += b * terms[2]
    res = np.einsum("ij,ij->j", buf, buf)
    return np.sqrt(res, out=res)


def _scan_residuals(spec: LatticeSpec):
    """Yield ``(a, b, residuals)`` for every (a, b), a outermost.

    ``residuals`` is a fresh array over the (c, d) plane, c outermost, from
    ``_square_residual_arrays``; the plane's terms are built once per scan.
    """
    axis = spec.axis()
    nu = spec.nu
    cc, dd = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
    terms = _plane_terms(spec.mu, (cc, dd * nu.x, dd * nu.y, dd * nu.z))
    buf = np.empty((8, cc.size))
    for a, b in itertools.product(axis.tolist(), repeat=2):
        yield a, b, _square_residual_arrays(a, b, spec.mu, terms, buf)


def lattice_search(spec: LatticeSpec, tol: float = DEFAULT_TOL) -> SearchReport:
    """Scan every lattice point, square it, and census the hits.

    Each point (a, b, c, d) becomes q = (a + b*mu) + (c + d*nu)*I; q is
    squared and points with aggregate residual <= tol are recorded along
    with their classification. A hit that fails to classify into a root
    family is a reportable finding, recorded in ``violations`` rather
    than raised. ``tol`` must be finite and positive.

    The scan builds the products of one (c, d) plane with itself and with
    mu once, then scores each (a, b), a outermost, by combining them
    bilinearly with the real part ``a + b*mu`` (see ``_plane_terms``); it
    uses no closed form of ``roots``. Its residuals differ from the scalar
    route by roundoff, so every point within a roundoff margin of ``tol``
    is re-checked by ``classify_coefficients``, whose residual alone
    decides a hit. Hits come in lattice index order (a, then b, c, d),
    and the working set is one plane, whatever the grid.
    """
    check_tolerance("tol", tol)
    total_points = spec.point_count()
    if total_points > _MAX_LATTICE_POINTS:
        raise ValueError(
            f"grid of {total_points} points exceeds the {_MAX_LATTICE_POINTS} cap")

    # On the grid |q|^2 <= 4 bound^2, and the kernel residual is within
    # 20 eps (|q|^2 + 1) of the scalar one; so every point within the margin
    # below is re-checked by the scalar route, which alone decides a hit.
    # The cap keeps residuals that overflowed to inf out.
    margin = 64.0 * sys.float_info.epsilon * (4.0 * spec.bound * spec.bound + 1.0)
    cut = min(tol + margin, sys.float_info.max)
    mu, nu = spec.mu, spec.nu
    values = spec.axis().tolist()
    n = len(values)
    hits: list[LatticeHit] = []
    violations: list[str] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b, res in _scan_residuals(spec):
            for idx in (res <= cut).nonzero()[0].tolist():
                c, d = values[idx // n], values[idx % n]
                coeffs = (a, b * mu.x, b * mu.y, b * mu.z, c, d * nu.x, d * nu.y, d * nu.z)
                try:
                    classification, residual = classify_coefficients(coeffs, tol)
                except TheoremViolationError as exc:
                    violations.append(f"point {(a, b, c, d)}: {exc}")
                    continue
                if not isinstance(classification, NotRoot):
                    hits.append(LatticeHit(a, b, c, d, residual, classification))

    return SearchReport(tuple(hits), total_points, tol, tuple(violations))


def _newton_step(x) -> tuple[float, ...]:
    """The Newton step -(q + q^-1)/2 of q^2 + 1 = 0 at the coefficients x.

    In the complex view q = w + v, q^-1 = (w - v)/N with N = w^2 + v.v, so
    the step is -w (1/2 + r) - v (1/2 - r) with r = 1/(2N).
    """
    w, a, b, c = (complex(x[k], x[k + 4]) for k in range(4))
    r = 0.5 / (w * w + a * a + b * b + c * c)
    w, s = w * -(0.5 + r), r - 0.5
    a, b, c = a * s, b * s, c * s
    return (w.real, a.real, b.real, c.real, w.imag, a.imag, b.imag, c.imag)


def refine_root(q0: Biquaternion) -> Biquaternion:
    """Newton-project a near-root onto the manifold ``{q : q^2 = -1}``.

    Newton's equation q*delta + delta*q = -(q^2 + 1) has the closed-form
    solution delta = -(q + q^-1)/2, so each iterate is the Newton point
    (q - q^-1)/2, the sign-function iteration of matrix analysis, computed
    on plain floats through the complex view (see ``_newton_step``). It
    needs N = w^2 + v.v != 0, which holds in the basin: at N = 0 the
    residual is at least sqrt(|1 + 2 w^2|^2 + 4 |w|^4) >= 0.707, and
    accepted steps only lower the residual. A step that fails to lower it
    is halved.

    Residuals are ``square_residual``'s. Inputs above the basin 0.1 raise
    ``ValueError``: far from the manifold Newton has no convergence story.
    The target is 1e-12; inputs already there come back unchanged, and 25
    iterations short of it raise ``NonConvergenceError``.
    """
    x = q0.coefficients()
    residual = square_residual(x)
    if residual > _NEWTON_BASIN:
        raise ValueError(f"initial residual {residual!r} outside the refinement "
                         f"basin {_NEWTON_BASIN!r}")
    if residual <= _NEWTON_TARGET:
        return q0

    for _ in range(_NEWTON_ITERATIONS):
        step = _newton_step(x)
        scale = 1.0
        for _ in range(30):
            x_new = tuple(c + scale * d for c, d in zip(x, step))
            residual_new = square_residual(x_new)
            if residual_new < residual:
                break
            scale *= 0.5
        else:
            raise NonConvergenceError(
                Biquaternion.from_coefficients(*x), residual,
                "damped Newton step failed to reduce the residual")
        x, residual = x_new, residual_new
        if residual <= _NEWTON_TARGET:
            return Biquaternion.from_coefficients(*x)

    raise NonConvergenceError(
        Biquaternion.from_coefficients(*x), residual,
        f"no convergence within {_NEWTON_ITERATIONS} iterations")
