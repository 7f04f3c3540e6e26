"""Real quaternion and biquaternion arithmetic on double coefficients.

A biquaternion is stored canonically as a pair of real quaternions
``qr + qi*I``, where ``I`` is an imaginary unit that commutes with the
quaternion units ``i, j, k``. Coefficient order, used for coefficient
tuples and wire formats throughout the package, is
``(w_r, x_r, y_r, z_r, w_i, x_i, y_i, z_i)``.

The equivalent presentation as four complex components is a relabeling
of the same eight reals (see ``Biquaternion.complex_components``), never
a second copy. ``UNIT_SYMBOLS`` names the basis unit of each coefficient;
``format_terms`` and ``unit_biquaternion`` write and read biquaternions in
those symbols, and ``term_table`` lays out the pairwise products of a
sum's terms, as the worked examples of the paper do.

All types are immutable values and all operations are pure functions,
so they are safe to share between threads.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

# Absolute tolerances, one per concern. DEFAULT_TOL is the default of every
# ``tol`` keyword; the other two are fixed.
DEFAULT_TOL = 1e-9   # generic approximate comparisons
UNIT_TOL = 1e-9      # unit-norm validation of PureUnit
PURE_TOL = 1e-12     # zero-scalar-part validation in dot_cross


def _check_finite(kind: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{kind} coefficients must be finite, got {v!r}")


def check_tolerance(name: str, value: float, *, allow_zero: bool = False) -> None:
    """Reject a tolerance that is not finite and positive (or zero, if allowed).

    A nan or infinite tolerance makes every comparison against it
    meaningless, so it is a usage error (``ValueError``), not a verdict.
    """
    if not (math.isfinite(value) and (value > 0.0 or allow_zero and value == 0.0)):
        kind = "nonnegative" if allow_zero else "positive"
        raise ValueError(f"{name} must be finite and {kind}, got {value!r}")


@dataclass(frozen=True, slots=True)
class Quaternion:
    """Real quaternion ``w + x*i + y*j + z*k``."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        w, x, y, z = self.w, self.x, self.y, self.z
        if not (type(w) is type(x) is type(y) is type(z) is float):
            w, x, y, z = float(w), float(x), float(y), float(z)
            object.__setattr__(self, "w", w)
            object.__setattr__(self, "x", x)
            object.__setattr__(self, "y", y)
            object.__setattr__(self, "z", z)
        if not (math.isfinite(w) and math.isfinite(x)
                and math.isfinite(y) and math.isfinite(z)):
            _check_finite("Quaternion", w, x, y, z)

    def __add__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> Quaternion:
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return quat_mul(self, other)
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self.__mul__(other)
        return NotImplemented

    def norm(self) -> float:
        return math.hypot(self.w, self.x, self.y, self.z)

    def isclose(self, other: Quaternion, tol: float = DEFAULT_TOL) -> bool:
        return (abs(self.w - other.w) <= tol and abs(self.x - other.x) <= tol
                and abs(self.y - other.y) <= tol and abs(self.z - other.z) <= tol)


@dataclass(frozen=True, slots=True)
class PureUnit:
    """Unit pure quaternion: zero scalar part, ``x^2 + y^2 + z^2 = 1``."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        x, y, z = self.x, self.y, self.z
        if not (type(x) is type(y) is type(z) is float):
            x, y, z = float(x), float(y), float(z)
            object.__setattr__(self, "x", x)
            object.__setattr__(self, "y", y)
            object.__setattr__(self, "z", z)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            _check_finite("PureUnit", x, y, z)
        n = math.hypot(x, y, z)
        if abs(n - 1.0) > UNIT_TOL:
            raise ValueError(f"PureUnit requires unit norm, got {n!r}")

    @classmethod
    def from_vector(cls, x: float, y: float, z: float) -> PureUnit:
        """Normalize an arbitrary nonzero 3-vector into a PureUnit.

        A modulus below the smallest normal double keeps only a few bits,
        and one above the largest is inf, so such a vector is first scaled
        by an exact power of two.
        """
        n = math.hypot(x, y, z)
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        if n < sys.float_info.min:
            x, y, z = x * 2.0 ** 600, y * 2.0 ** 600, z * 2.0 ** 600
            n = math.hypot(x, y, z)
        elif n > sys.float_info.max:
            x, y, z = x * 2.0 ** -600, y * 2.0 ** -600, z * 2.0 ** -600
            n = math.hypot(x, y, z)
        return cls(x / n, y / n, z / n)

    def dot(self, other: PureUnit) -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def as_quaternion(self) -> Quaternion:
        return Quaternion(0.0, self.x, self.y, self.z)

    def __neg__(self) -> PureUnit:
        return PureUnit(-self.x, -self.y, -self.z)

    def isclose(self, other: PureUnit, tol: float = DEFAULT_TOL) -> bool:
        return (abs(self.x - other.x) <= tol and abs(self.y - other.y) <= tol
                and abs(self.z - other.z) <= tol)


@dataclass(frozen=True, slots=True)
class Biquaternion:
    """Biquaternion ``qr + qi*I`` with real-quaternion parts ``qr`` and ``qi``."""

    qr: Quaternion
    qi: Quaternion

    @classmethod
    def from_coefficients(cls, wr, xr, yr, zr, wi, xi, yi, zi) -> Biquaternion:
        return cls(Quaternion(wr, xr, yr, zr), Quaternion(wi, xi, yi, zi))

    @classmethod
    def from_scalar(cls, value: float) -> Biquaternion:
        return cls(Quaternion(value, 0.0, 0.0, 0.0), Quaternion(0.0, 0.0, 0.0, 0.0))

    @classmethod
    def from_complex_components(cls, w: complex, x: complex, y: complex,
                                z: complex) -> Biquaternion:
        """Inverse of ``complex_components``; the round trip is bit-exact.

        Non-finite parts raise ``ValueError``, as for ``Quaternion``.
        """
        return cls.from_coefficients(w.real, x.real, y.real, z.real,
                                     w.imag, x.imag, y.imag, z.imag)

    def complex_components(self) -> tuple[complex, complex, complex, complex]:
        """The complex components ``(w, x, y, z)`` of ``w + x*i + y*j + z*k``.

        Each pairs one coefficient of ``qr`` with the same one of ``qi``,
        as in ``w = complex(qr.w, qi.w)``, so ``I`` reads as Python's
        imaginary unit and the eight reals move without arithmetic.
        """
        qr, qi = self.qr, self.qi
        return (complex(qr.w, qi.w), complex(qr.x, qi.x),
                complex(qr.y, qi.y), complex(qr.z, qi.z))

    def coefficients(self) -> tuple[float, ...]:
        """The eight reals in canonical order (w_r, x_r, y_r, z_r, w_i, x_i, y_i, z_i)."""
        return (self.qr.w, self.qr.x, self.qr.y, self.qr.z,
                self.qi.w, self.qi.x, self.qi.y, self.qi.z)

    def coefficient_norm(self) -> float:
        """Euclidean norm of the eight coefficients.

        This is the definite magnitude used for residuals. The algebraic
        biquaternion norm is complex-valued and can vanish on nonzero
        elements, which makes it useless as a test magnitude.
        """
        return math.hypot(*self.coefficients())

    def __add__(self, other):
        if isinstance(other, Biquaternion):
            return Biquaternion(self.qr + other.qr, self.qi + other.qi)
        if isinstance(other, (int, float)):
            return Biquaternion(
                Quaternion(self.qr.w + other, self.qr.x, self.qr.y, self.qr.z),
                self.qi)
        return NotImplemented

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if isinstance(other, Biquaternion):
            return Biquaternion(self.qr - other.qr, self.qi - other.qi)
        if isinstance(other, (int, float)):
            return self.__add__(-other)
        return NotImplemented

    def __neg__(self) -> Biquaternion:
        return Biquaternion(-self.qr, -self.qi)

    def __mul__(self, other):
        if isinstance(other, Biquaternion):
            return biquat_mul(self, other)
        if isinstance(other, (int, float)):
            return Biquaternion(self.qr * other, self.qi * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self.__mul__(other)
        return NotImplemented

    def isclose(self, other: Biquaternion, tol: float = DEFAULT_TOL) -> bool:
        return all(abs(a - b) <= tol
                   for a, b in zip(self.coefficients(), other.coefficients()))


def hamilton(p, q):
    """Hamilton product of (w, x, y, z) sequences, from i^2 = j^2 = k^2 = ijk = -1.

    Entries may be floats or numpy arrays that broadcast together.
    """
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw)


def quat_mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product of two quaternions."""
    return Quaternion(*hamilton((p.w, p.x, p.y, p.z), (q.w, q.x, q.y, q.z)))


def mul_coefficients(p, q) -> tuple:
    """Biquaternion product on 8-coefficient sequences in canonical order.

    Because I commutes with i, j, k and I^2 = -1:
    (p_r + p_i I)(q_r + q_i I) = (p_r q_r - p_i q_i) + (p_r q_i + p_i q_r) I.
    Entries may be floats or numpy arrays, as for ``hamilton``.
    """
    rr, ii = hamilton(p[:4], q[:4]), hamilton(p[4:], q[4:])
    ri, ir = hamilton(p[:4], q[4:]), hamilton(p[4:], q[:4])
    return (rr[0] - ii[0], rr[1] - ii[1], rr[2] - ii[2], rr[3] - ii[3],
            ri[0] + ir[0], ri[1] + ir[1], ri[2] + ir[2], ri[3] + ir[3])


def biquat_mul(p: Biquaternion, q: Biquaternion) -> Biquaternion:
    """Biquaternion product (see ``mul_coefficients``)."""
    return Biquaternion.from_coefficients(
        *mul_coefficients(p.coefficients(), q.coefficients()))


def square_residual(q: Biquaternion | Sequence[float]) -> float:
    """Euclidean norm of the coefficients of ``q^2 + 1``; zero exactly on the roots.

    ``q`` is a Biquaternion or its 8 coefficients in canonical order. The
    square is taken in the complex view q = w + v, where
    q^2 + 1 = (w^2 - v.v + 1) + 2wv (see ``complex_residual``). A finite q
    whose square overflows gets ``inf``, not an error.
    """
    c = q.coefficients() if isinstance(q, Biquaternion) else q
    return complex_residual(complex(c[0], c[4]), complex(c[1], c[5]),
                            complex(c[2], c[6]), complex(c[3], c[7]))


def complex_residual(w: complex, x: complex, y: complex, z: complex) -> float:
    """``square_residual`` of the complex components ``w + x*i + y*j + z*k``.

    The four complex components of q^2 + 1 are s = w^2 - (x^2 + y^2 + z^2) + 1
    and 2w times x, y and z; their 8 parts go to ``math.hypot`` in canonical
    order. Overflow gives ``inf``, never ``nan``.
    """
    s = w * w - (x * x + y * y + z * z) + 1.0
    w2 = w + w
    x, y, z = w2 * x, w2 * y, w2 * z
    residual = math.hypot(s.real, x.real, y.real, z.real, s.imag, x.imag, y.imag, z.imag)
    return math.inf if math.isnan(residual) else residual


# square_residual(q) is within RESIDUAL_ROUNDOFF * (|q|^2 + 1) of the exact
# |q^2 + 1|: each part of w^2 - v.v sums 8 products whose moduli add up to at
# most |q|^2, and each part of 2wv sums 2 products. A check that must agree
# with the residual test at a tie allows this much slack, so that the two
# roundings cannot split the tie.
RESIDUAL_ROUNDOFF = 64.0 * sys.float_info.epsilon


def dot_cross(u: Quaternion, v: Quaternion) -> tuple[float, Quaternion]:
    """Dot and cross product of two pure quaternions.

    Rejects inputs whose scalar part exceeds ``PURE_TOL``. For pure u, v
    the Hamilton product satisfies u*v = -dot(u, v) + cross(u, v), the
    identity behind all the perpendicularity arguments in this package.
    """
    if abs(u.w) > PURE_TOL or abs(v.w) > PURE_TOL:
        raise ValueError(
            f"dot_cross requires pure quaternions, got scalar parts "
            f"{u.w!r} and {v.w!r}")
    dot = u.x * v.x + u.y * v.y + u.z * v.z
    cross = Quaternion(0.0,
                       u.y * v.z - u.z * v.y,
                       u.z * v.x - u.x * v.z,
                       u.x * v.y - u.y * v.x)
    return dot, cross


# The basis unit of each coefficient, in coefficient order.
UNIT_SYMBOLS = ("1", "i", "j", "k", "I", "iI", "jI", "kI")


def unit_biquaternion(symbol: str) -> Biquaternion:
    """The basis unit a symbol of ``UNIT_SYMBOLS`` names, negated by a leading "-"."""
    sign = 1.0
    if symbol.startswith("-"):
        sign, symbol = -1.0, symbol[1:]
    coeffs = [0.0] * 8
    coeffs[UNIT_SYMBOLS.index(symbol)] = sign
    return Biquaternion.from_coefficients(*coeffs)


_UNIT_LABELS = ("",) + UNIT_SYMBOLS[1:]   # a scalar term carries no label


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
