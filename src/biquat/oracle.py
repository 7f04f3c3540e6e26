"""Numerical evidence that the three root families are the only ones.

The completeness of the family list is a symbolic fact; this module
probes it numerically, desk-scale, from three directions:

* seeded samplers that generate roots all over the solution manifold;
* an exhaustive lattice census over the decomposed coefficients
  (a, b, c, d) with fixed directions, covering both the perpendicular
  and the non-perpendicular direction case;
* Newton refinement, which converges onto the manifold
  ``{q : q^2 = -1}`` from almost any start, after which the landing
  point must classify into a known family.

The census scan writes the squared residual |q^2 + 1|^2 as a dot
product of eight features of (a, b) with eight features of (c, d), both
built once per scan through ``algebra.hamilton``, the one copy of the
product formula, with none of the closed forms of ``roots``. Negating qr
or qi in q = qr + qi*I flips only the sign of the I-part of q^2 + 1, and
conjugating both parts, (a, b, c, d) -> (a, -b, c, -d), conjugates
q^2 + 1; so an eighth of the grid is computed, one matrix product per
a <= 0 over b <= 0, and each other point takes the value of its
representative there. Its values differ from the
scalar route (``algebra.square_residual``, which squares in the complex
view) by roundoff, so each point near the tolerance is decided by
``classify_coefficients``. Newton stays in the complex view: it iterates
on the four complex components of q and measures them with
``algebra.complex_residual``, the formula of ``square_residual``.

All sampling is reproducible: a run is fully determined by the seed and
parameters. The lattice scan reports hits in lattice index order (a
outermost, then b, c, d).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    RESIDUAL_ROUNDOFF,
    Biquaternion,
    PureUnit,
    check_tolerance,
    complex_residual,
    hamilton,
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
_T_MAX = math.acosh(sys.float_info.max)   # the largest t whose cosh is finite

# Error of the scan's squared residual, in units of eps (|q|^2 + 1)^2.
# The eight terms F_j G_j, products of ``_scan_features``' two tables, have
# moduli adding up to
#   |h|^2 + 2|h||t0| + |t0|^2 + a^2 |t1|^2 + b^2 |t2|^2
#   <= (|h| + |t0|)^2 + 4 |qr|^2 |qi|^2 <= 2 (|q|^2 + 1)^2,
# with |h| = |qr|^2, |t0| <= 1 + |qi|^2 and |t1|, |t2| <= 2|qi|. Each
# feature is a sum of at most four products of Hamilton products of the
# stored floats, and to first order lies within 27 eps of its exact value
# at the scale of its term: 20 eps for |h|^2, 24 for |t0|^2 and |t2|^2,
# plus one rounding of a^2 or b^2 and 2 eps for using b and mu apart
# where the scalar route uses their rounded product. The 8-term dot
# product adds gamma_8 ~ 8 eps in any summation order (Higham, Accuracy and
# Stability of Numerical Algorithms, 3.1). So the scan value is within
# (27 + 8) * 2 = 70 eps (|q|^2 + 1)^2 of the exact squared residual; the
# constant more than triples that, for the eps^2 terms and for |mu| and
# |nu| being 1 only to within 1e-9.
# A point off the scanned eighth takes the value of its representative.
# Negating qr or qi gives the same features bit for bit. Conjugation,
# (b, d) -> (-b, -d), does not: the features' sums add negated products to
# unnegated ones, which round apart. But the conjugate's stored
# coefficients are exact negations of the representative's, so the two
# points have the same |q| and, as conjugation conjugates q^2 + 1, the same
# exact residual; the bound, which speaks only of those, covers both.
_SCAN_ERROR = 256.0


class NonConvergenceError(RuntimeError):
    """Newton missed its target; carries its last finite iterate ``.best``
    and that iterate's ``square_residual`` as ``.residual``."""

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


def check_t_max(t_max: float) -> None:
    """Reject a t_max that is not finite and positive, or whose cosh overflows.

    Checking the bound, not each draw, makes the verdict independent of the seed.
    """
    check_tolerance("t_max", t_max)
    if t_max > _T_MAX:
        raise ValueError(f"t_max must be at most acosh(DBL_MAX) = {_T_MAX!r}, "
                         f"got {t_max!r}")


def sample_root(rng: np.random.Generator, t_max: float) -> Biquaternion:
    """Draw a random nontrivial root with t uniform in (0, t_max]; see ``check_t_max``."""
    check_t_max(t_max)
    mu = sample_unit_pure(rng)
    nu = sample_perpendicular(mu, rng)
    t = t_max * (1.0 - rng.random())
    return make_nontrivial_root(mu, nu, t)


@dataclass(frozen=True)
class LatticeSpec:
    """Grid over the decomposed coefficients with fixed directions.

    Each of a, b, c, d ranges over multiples of ``step`` in
    [-bound, bound]; ``bound/step`` must round, to a few ulps, to a
    positive integer, so the grid contains 0 exactly (and +/-1 whenever
    step divides 1) and reaches bound.
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
        n = round(ratio)   # a few ulps off n is the rounding of bound/step
        if n < 1 or abs(ratio - n) > 4.0 * sys.float_info.epsilon * n:
            raise ValueError(f"bound/step must be a positive integer, got {ratio!r}")

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


def _scan_features(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """The (k, k, 8) table of (a, b) features and the (8, (n*n + 1)/2) one
    of (c, d), for an axis of n values and k = n//2 + 1.

    Rows are [a, b] for a, b <= 0 and columns c*n + d up to the centre
    c = d = 0, in axis indices. For q = qr + qi*I with qr = a + b*m and
    m = (0, mu), q^2 + 1 = (h + t0) + (a*t1 + b*t2)*I with h = qr*qr,
    t0 = 1 - qi*qi, t1 = 2*qi and t2 = m*qi + qi*m, each from
    ``algebra.hamilton`` on the stored floats. As t1.t2 = 0 for any
    qi = (c, V) (t2 = (-2 m.V, 2c m)), |q^2 + 1|^2 is the dot product of the
    (a, b) features [|h|^2, 2h_0..2h_3, 1, a^2, b^2] with the (c, d) features
    [1, t0_0..t0_3, |t0|^2, |t1|^2, |t2|^2]. The axis is symmetric and
    negation exact, so the features of (-a, -b) and of (-c, -d) are these,
    bit for bit; those of (a, -b) and of (c, -d) are not (see ``_SCAN_ERROR``).
    """
    axis = spec.axis()
    n = axis.size
    mu, nu = spec.mu, spec.nu
    # the first axis outermost: (c, d) for the plane, (a, b) for the rows
    x, y = (g.ravel()[:(n * n + 1) // 2] for g in np.meshgrid(axis, axis, indexing="ij"))
    qi, m = (x, y * nu.x, y * nu.y, y * nu.z), (0.0, mu.x, mu.y, mu.z)
    t0 = -np.array(hamilton(qi, qi))
    t0[0] += 1.0
    t1, t2 = 2.0 * np.array(qi), np.add(hamilton(m, qi), hamilton(qi, m))
    plane = np.stack((np.ones_like(x), *t0, *((t * t).sum(0) for t in (t0, t1, t2))))
    k = n // 2 + 1
    x, y = (g.ravel() for g in np.meshgrid(axis[:k], axis[:k], indexing="ij"))
    qr = (x, y * mu.x, y * mu.y, y * mu.z)
    h = np.array(hamilton(qr, qr))
    rows = np.stack(((h * h).sum(0), *(2.0 * h), np.ones_like(x), x * x, y * y),
                    axis=-1).reshape(k, k, 8)
    return rows, plane


def lattice_search(spec: LatticeSpec, tol: float = DEFAULT_TOL) -> SearchReport:
    """Scan every lattice point, square it, and census the hits.

    Each point (a, b, c, d) becomes q = (a + b*mu) + (c + d*nu)*I; q is
    squared and points with aggregate residual <= tol are recorded along
    with their classification. A hit that fails to classify into a root
    family is a reportable finding, recorded in ``violations`` rather
    than raised. ``tol`` must be finite and positive.

    The scan writes |q^2 + 1|^2 as a dot product of eight features of
    (a, b) with eight features of (c, d), built once by ``algebra.hamilton``
    with no closed form of ``roots``, and computes an eighth of the grid:
    a <= 0 and b <= 0 against the first half of the (c, d) plane, one
    matrix product per a. Every other point takes the value of its
    representative there under the sign maps (a, b) -> (-a, -b),
    (c, d) -> (-c, -d) and (b, d) -> (-b, -d), which leave |q^2 + 1|
    unchanged. The values may be negative near a root, and differ from the
    exact ones by up to ``_SCAN_ERROR`` eps (|q|^2 + 1)^2. So every point
    within a roundoff margin of ``tol`` is re-checked by
    ``classify_coefficients``, whose residual alone decides a hit. Each
    candidate's eight images go into one set of (a, b, c, d) axis-index
    tuples, sorted once, so hits come in lattice index order (a, then b, c,
    d); the working set is one block of k*(n*n + 1)/2 doubles,
    k = n//2 + 1 (about 2 MB at the point cap), plus the candidate tuples.
    """
    check_tolerance("tol", tol)
    total_points = spec.point_count()
    if total_points > _MAX_LATTICE_POINTS:
        raise ValueError(
            f"grid of {total_points} points exceeds the {_MAX_LATTICE_POINTS} cap")

    # On the grid |q|^2 + 1 <= s = 4 bound^2 + 1. The scalar residual is
    # within RESIDUAL_ROUNDOFF * s of the exact one r, so a hit has
    # r <= near, and its scan value res2 is within _SCAN_ERROR eps s^2 of
    # r^2. Every point under the cut below is re-checked by the scalar
    # route, which alone decides a hit; res2 is compared squared, as it may
    # be negative. Products, not powers, so that a huge grid gives inf
    # rather than OverflowError; the clamp keeps residuals that overflowed
    # to inf out.
    eps = sys.float_info.epsilon
    s = 4.0 * spec.bound * spec.bound + 1.0
    near = tol + RESIDUAL_ROUNDOFF * s
    cut2 = min(near * near + _SCAN_ERROR * eps * s * s, sys.float_info.max)
    mu, nu = spec.mu, spec.nu
    values = spec.axis().tolist()
    n = len(values)
    last = n - 1
    hits: list[LatticeHit] = []
    violations: list[str] = []

    points: set[tuple[int, int, int, int]] = set()
    with np.errstate(over="ignore", invalid="ignore"):
        rows, half = _scan_features(spec)
        k, width = len(rows), half.shape[1]
        res2 = np.empty((k, width))
        for a in range(k):
            np.matmul(rows[a], half, out=res2)
            for idx in np.flatnonzero(res2 <= cut2).tolist():
                b, cd = divmod(idx, width)
                c, d = divmod(cd, n)
                # its images under (a, b) -> (-a, -b), (c, d) -> (-c, -d) and
                # (b, d) -> (-b, -d); axis index last - i is the negation of i
                for ra, rb in ((a, b), (last - a, last - b)):
                    for rc, rd in ((c, d), (last - c, last - d)):
                        points.update(((ra, rb, rc, rd), (ra, last - rb, rc, last - rd)))
    for ia, ib, ic, id_ in sorted(points):
        a, b, c, d = values[ia], values[ib], values[ic], values[id_]
        coeffs = (a, b * mu.x, b * mu.y, b * mu.z, c, d * nu.x, d * nu.y, d * nu.z)
        try:
            classification, residual = classify_coefficients(coeffs, tol)
        except TheoremViolationError as exc:
            violations.append(f"point {(a, b, c, d)}: {exc}")
            continue
        if not isinstance(classification, NotRoot):
            hits.append(LatticeHit(a, b, c, d, residual, classification))

    return SearchReport(tuple(hits), total_points, tol, tuple(violations))


def refine_root(q0: Biquaternion) -> Biquaternion:
    """Newton-iterate from any start onto the manifold ``{q : q^2 = -1}``.

    Newton's equation q*delta + delta*q = -(q^2 + 1) has the closed-form
    solution delta = -(q + q^-1)/2, so each iterate is the Newton point
    (q - q^-1)/2. In the complex view q = w + v, q^-1 = (w - v)/N with
    N = w^2 + v.v, so the step is -w (1/2 + r) - v (1/2 - r) with
    r = 1/(2N); the iteration runs on the four complex components of q and
    builds a Biquaternion only on exit. As a 2x2 complex matrix q has
    eigenvalues w +/- sqrt(-v.v), and each maps to (lambda - 1/lambda)/2:
    this is the sign-function iteration of matrix analysis, which converges
    globally (Higham, Functions of Matrices, ch. 5). An eigenvalue in the
    upper half-plane goes to +i and one in the lower to -i; so q lands on +I
    or -I when both lie on one side, and on the nontrivial or unit-pure
    family when they lie on opposite sides. Only starts with a real
    eigenvalue, a set of measure zero, fail.

    Residuals are ``square_residual``'s, from the same components. The
    target is 1e-12; inputs already there come back unchanged.
    ``NonConvergenceError`` is raised when an iterate is singular
    (N = w^2 + v.v = 0), when a step gives a non-finite iterate, or after
    25 iterations short of the target.
    """
    w, x, y, z = q0.complex_components()
    residual = complex_residual(w, x, y, z)
    if residual <= _NEWTON_TARGET:
        return q0

    message = f"no convergence within {_NEWTON_ITERATIONS} iterations"
    for _ in range(_NEWTON_ITERATIONS):
        try:
            r = 0.5 / (w * w + x * x + y * y + z * z)
        except ZeroDivisionError:
            message = "singular iterate, w^2 + v.v = 0"
            break
        m, s = -(0.5 + r), r - 0.5
        new = w + w * m, x + x * s, y + y * s, z + z * s
        if not all(map(cmath.isfinite, new)):
            message = "non-finite Newton iterate"
            break
        w, x, y, z = new
        residual = complex_residual(w, x, y, z)
        if residual <= _NEWTON_TARGET:
            return Biquaternion.from_complex_components(w, x, y, z)

    raise NonConvergenceError(Biquaternion.from_complex_components(w, x, y, z),
                              residual, message)
