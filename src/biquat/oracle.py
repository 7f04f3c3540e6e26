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

The census scan and the Newton step square through ``algebra.hamilton``,
the one copy of the product formula, on coefficient arrays and vectors.

All sampling is reproducible: a run is fully determined by the seed and
parameters. Batch sampling split across workers should derive one child
generator per task from the master seed with ``Generator.spawn``, which
is itself deterministic. The lattice scan accumulates hits in lattice
index order (a outermost, then b, c, d), so chunked or parallel
execution merges to the identical report as a serial one provided chunks
are concatenated in index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    Biquaternion,
    PureUnit,
    biquat_mul,
    check_tolerance,
    hamilton,
    mul_coefficients,
)
from .roots import (
    NotRoot,
    RootClassification,
    TheoremViolationError,
    classify_coefficients,
    make_nontrivial_root,
)

_MAX_LATTICE_POINTS = 100_000_000
_EYE8 = np.eye(8)


def _jacobian_basis() -> np.ndarray:
    """The Jacobian of q -> q^2 + 1 as an (8, 64) linear map of q.

    Row k holds the flattened L(e_k) + R(e_k); products[i, k, j] is
    component i of e_k * e_j, so its transpose in (k, j) gives e_j * e_k.
    """
    products = np.array(mul_coefficients(_EYE8[:, :, None], _EYE8[:, None, :]))
    return (products + products.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(8, 64)


_JACOBIAN_BASIS = _jacobian_basis()


class NonConvergenceError(RuntimeError):
    """Newton refinement failed to reach the target residual.

    Carries the best iterate as ``.best`` and its residual as ``.residual``.
    """

    def __init__(self, best: Biquaternion, residual: float, message: str):
        super().__init__(f"{message} (best residual {residual!r})")
        self.best = best
        self.residual = residual


def sample_unit_pure(rng: np.random.Generator) -> PureUnit:
    """Draw a uniformly distributed point on the unit sphere.

    Normalizes a triple of independent Gaussians: rejection-free and
    exactly uniform. Identical generator states yield identical outputs.
    """
    while True:
        v = rng.standard_normal(3).tolist()
        n = math.hypot(v[0], v[1], v[2])
        if n > 1e-9:
            return PureUnit(v[0] / n, v[1] / n, v[2] / n)


def sample_perpendicular(mu: PureUnit, rng: np.random.Generator) -> PureUnit:
    """Draw a unit vector uniformly from the circle perpendicular to mu.

    A uniform sphere point is projected onto the plane perpendicular to
    mu and normalized; draws that land nearly parallel to mu (projected
    magnitude < 1e-6) are discarded and redrawn. A second projection pass
    keeps |dot(mu, result)| at roundoff level (< 1e-12) even for the
    worst accepted draws.
    """
    m = np.array([mu.x, mu.y, mu.z])
    while True:
        v = sample_unit_pure(rng)
        w = np.array([v.x, v.y, v.z])
        w -= (w @ m) * m
        norm = np.linalg.norm(w)
        if norm >= 1e-6:
            break
    w /= norm
    w -= (w @ m) * m
    w /= np.linalg.norm(w)
    return PureUnit(w[0], w[1], w[2])


def sample_root(rng: np.random.Generator, t_max: float) -> Biquaternion:
    """Draw a random nontrivial root with t uniform in (0, t_max]."""
    if t_max <= 0.0:
        raise ValueError(f"t_max must be positive, got {t_max!r}")
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


def _square_residual_arrays(qr, qi):
    """Euclidean norm of q^2 + 1 for arrays of coefficients.

    The array form of ``algebra.square_residual``, used only as the scan
    kernel; hits are re-verified with the scalar path before reporting.
    It keeps the four ``hamilton`` products alive through the sum; freeing
    them first (as ``mul_coefficients`` does) re-faults fresh pages on
    every slice and cost 10-20% of scan throughput. Points whose square
    overflows come out inf or nan, quietly; neither passes ``res <= tol``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rr, ii = hamilton(qr, qr), hamilton(qi, qi)
        ri, ir = hamilton(qr, qi), hamilton(qi, qr)
        re = [u - v for u, v in zip(rr, ii)]
        im = [u + v for u, v in zip(ri, ir)]
        re[0] = re[0] + 1.0
        total = re[0] * re[0]
        for comp in re[1:] + im:
            total = total + comp * comp
        return np.sqrt(total)


def lattice_search(spec: LatticeSpec, tol: float = DEFAULT_TOL,
                   max_points: int = _MAX_LATTICE_POINTS) -> SearchReport:
    """Scan every lattice point, square it, and census the hits.

    Each point (a, b, c, d) becomes q = (a + b*mu) + (c + d*nu)*I; q is
    squared and points with aggregate residual <= tol are recorded along
    with their classification. A hit that fails to classify into a root
    family is a reportable finding, recorded in ``violations`` rather
    than raised. ``tol`` must be finite and positive.
    """
    check_tolerance("tol", tol)
    total_points = spec.point_count()
    if total_points > max_points:
        raise ValueError(
            f"grid of {total_points} points exceeds the {max_points} cap")

    axis = spec.axis()
    mu, nu = spec.mu, spec.nu
    bb, cc, dd = (g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij"))
    xi, yi, zi = dd * nu.x, dd * nu.y, dd * nu.z

    hits: list[LatticeHit] = []
    violations: list[str] = []
    for a in axis:
        qr = (np.full_like(bb, a), bb * mu.x, bb * mu.y, bb * mu.z)
        qi = (cc, xi, yi, zi)
        res = _square_residual_arrays(qr, qi)
        for idx in np.flatnonzero(res <= tol):
            point = (float(a), float(bb[idx]), float(cc[idx]), float(dd[idx]))
            coeffs = (point[0], point[1] * mu.x, point[1] * mu.y, point[1] * mu.z,
                      point[2], point[3] * nu.x, point[3] * nu.y, point[3] * nu.z)
            try:
                classification, residual = classify_coefficients(coeffs, tol)
            except TheoremViolationError as exc:
                violations.append(f"point {point}: {exc}")
                continue
            if isinstance(classification, NotRoot):
                violations.append(
                    f"point {point}: scan hit reclassified as not-a-root "
                    f"(residual {classification.residual!r})")
                continue
            hits.append(LatticeHit(*point, residual, classification))

    return SearchReport(tuple(hits), total_points, tol, tuple(violations))


def _squared_plus_one(x: np.ndarray) -> np.ndarray:
    c = x.tolist()
    return np.array(mul_coefficients(c, c)) + _EYE8[0]


def _jacobian(x: np.ndarray) -> np.ndarray:
    """L(x) + R(x): every entry is 0 or +/-2 x_k, so the contraction is exact."""
    return (x @ _JACOBIAN_BASIS).reshape(8, 8)


def refine_root(q0: Biquaternion, max_iter: int = 25, *,
                target: float = 1e-12, basin: float = 0.1) -> Biquaternion:
    """Newton-project a near-root onto the manifold ``{q : q^2 = -1}``.

    Iterates on the 8-dimensional map F(q) = coefficients of q^2 + 1. F is
    quadratic, so its Jacobian L(q) + R(q) (the matrices of left and right
    multiplication by q) is linear in q: it is read off a constant basis,
    built once from the product on the identity, by one small matmul per
    iteration, with F itself evaluated on plain floats. The root manifold is
    4-dimensional, which makes the Jacobian rank-deficient at every
    solution; steps therefore come from an SVD least-squares solve that
    cuts singular values below 1e-6 of the largest, the standard damped
    treatment of a singular Newton system. Failed steps are halved.

    Inputs with aggregate residual above ``basin`` are rejected: far from
    the manifold the iteration has no convergence story. Inputs already
    at the target residual are returned unchanged. ``target`` and
    ``basin`` must be finite and positive.
    """
    check_tolerance("target", target)
    check_tolerance("basin", basin)
    x = np.array(q0.coefficients())
    f = _squared_plus_one(x)
    residual = float(np.linalg.norm(f))
    if residual > basin:
        raise ValueError(
            f"initial residual {residual!r} outside the refinement basin {basin!r}")
    if residual <= target:
        return q0

    for _ in range(max_iter):
        step, *_ = np.linalg.lstsq(_jacobian(x), -f, rcond=1e-6)
        scale = 1.0
        for _ in range(30):
            x_new = x + scale * step
            f_new = _squared_plus_one(x_new)
            residual_new = float(np.linalg.norm(f_new))
            if residual_new < residual:
                break
            scale *= 0.5
        else:
            raise NonConvergenceError(
                Biquaternion.from_coefficients(*x.tolist()), residual,
                "damped Newton step failed to reduce the residual")
        x, f, residual = x_new, f_new, residual_new
        if residual <= target:
            return Biquaternion.from_coefficients(*x.tolist())

    raise NonConvergenceError(
        Biquaternion.from_coefficients(*x.tolist()), residual,
        f"no convergence within {max_iter} iterations")


@dataclass(frozen=True)
class TermTable:
    """Pairwise products of the summands of a biquaternion.

    Entry (r, c) is summands[r] * summands[c]; by distributivity the
    entries sum to the square of the total, so the table lays out exactly
    which terms cancel when a root squares to -1.
    """

    parts: tuple[Biquaternion, ...]
    entries: tuple[tuple[Biquaternion, ...], ...]

    @property
    def total(self) -> Biquaternion:
        total = Biquaternion.from_scalar(0.0)
        for row in self.entries:
            for entry in row:
                total = total + entry
        return total

    def render(self, digits: int = 17) -> str:
        labels = [format_terms(p, digits) for p in self.parts]
        cells = [[format_terms(e, digits) for e in row] for row in self.entries]
        widths = [max(len(labels[c]), *(len(row[c]) for row in cells))
                  for c in range(len(labels))]
        row_width = max(len(lbl) for lbl in labels)
        lines = [" " * row_width + " | " +
                 "  ".join(lbl.rjust(w) for lbl, w in zip(labels, widths))]
        lines.append("-" * len(lines[0]))
        for lbl, row in zip(labels, cells):
            lines.append(lbl.rjust(row_width) + " | " +
                         "  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)


def term_table(parts: list[Biquaternion] | tuple[Biquaternion, ...]) -> TermTable:
    """Tabulate all pairwise products of the given summands."""
    if not parts:
        raise ValueError("term_table needs at least one summand")
    parts = tuple(parts)
    entries = tuple(tuple(biquat_mul(r, c) for c in parts) for r in parts)
    return TermTable(parts, entries)


_UNIT_LABELS = ("", "i", "j", "k", "I", "iI", "jI", "kI")


def format_terms(q: Biquaternion, digits: int = 17) -> str:
    """Compact basis-term rendering, e.g. ``-1``, ``k``, ``1.5i-2jI``."""
    pieces = []
    for coeff, label in zip(q.coefficients(), _UNIT_LABELS):
        if coeff == 0.0:
            continue
        sign = "-" if coeff < 0.0 else ("+" if pieces else "")
        magnitude = format(abs(coeff), f".{digits}g")
        if label and magnitude == "1":
            magnitude = ""
        pieces.append(f"{sign}{magnitude}{label}")
    return "".join(pieces) if pieces else "0"
