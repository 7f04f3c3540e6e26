"""Reference results the benchmark checks the library's outputs against.

Nothing here calls the library: products are computed in the
complex-components view (four complex coefficients w, x, y, z), and the
lattice census is enumerated in exact integer arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _complex_view(c):
    return (complex(c[0], c[4]), complex(c[1], c[5]),
            complex(c[2], c[6]), complex(c[3], c[7]))


def square(c) -> tuple[float, ...]:
    """q*q for the 8 coefficients ``c``, via the complex-components view."""
    w, x, y, z = _complex_view(c)
    # Hamilton product of q with itself; the complex unit I commutes with i, j, k.
    sw = w * w - x * x - y * y - z * z
    sx = 2.0 * w * x
    sy = 2.0 * w * y
    sz = 2.0 * w * z
    return (sw.real, sx.real, sy.real, sz.real, sw.imag, sx.imag, sy.imag, sz.imag)


def square_tolerance(c) -> float:
    """Allowed difference between two float evaluations of q*q.

    Each coefficient of q*q sums at most 16 products of coefficients, so
    evaluations in different orders differ by a few ulps of (sum |c|)^2.
    """
    return 1e-13 * (1.0 + sum(abs(v) for v in c)) ** 2


def residual(c) -> float:
    """Euclidean norm of the 8 coefficients of q*q + 1."""
    s = square(c)
    return math.hypot(s[0] + 1.0, *s[1:])


def residual_slack(c) -> float:
    """Roundoff between two float evaluations of ``residual``: 8 ulps of |q|^2.

    A point the library measures at exactly its Newton target can read a
    little above it here; the observed gap is below 2 ulps of |q|^2.
    """
    return 8.0 * 2.0 ** -52 * sum(v * v for v in c)


# --- exact lattice census ---------------------------------------------------
#
# A lattice point (a, b, c, d) is q = (a + b*mu) + (c + d*nu)*I. Expanding
# q^2 + 1, its real vector part is 2ab*mu - 2cd*nu and its imaginary
# vector part is 2ad*nu + 2bc*mu. For linearly independent mu and nu both
# vanish only if ab = cd = ad = bc = 0, so every root lies on the plane
# a = c = 0 or on the plane b = d = 0. The census enumerates those two
# planes and decides each point by squaring it exactly.
#
# Exactness: the directions are held as 2*mu and 2*nu in Z[sqrt 2]^3 (see
# inputs.DirectionPair), so scaling q by k = 2/step makes every coefficient
# an element x + y*sqrt 2 of Z[sqrt 2], stored as the integer pair (x, y);
# then q^2 + 1 = 0 iff (kq)^2 + k^2 = 0.


def _zmul(p, q):
    return (p[0] * q[0] + 2 * p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _zadd(p, q):
    return (p[0] + q[0], p[1] + q[1])


def _zsub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _hamilton(p, q):
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    m = _zmul
    return (
        _zsub(_zsub(_zsub(m(pw, qw), m(px, qx)), m(py, qy)), m(pz, qz)),
        _zsub(_zadd(_zadd(m(pw, qx), m(px, qw)), m(py, qz)), m(pz, qy)),
        _zadd(_zadd(_zsub(m(pw, qy), m(px, qz)), m(py, qw)), m(pz, qx)),
        _zadd(_zsub(_zadd(m(pw, qz), m(px, qy)), m(py, qx)), m(pz, qw)),
    )


def _is_root(qr, qi, k: int) -> bool:
    rr, ii = _hamilton(qr, qr), _hamilton(qi, qi)
    ri, ir = _hamilton(qr, qi), _hamilton(qi, qr)
    real = [_zsub(u, v) for u, v in zip(rr, ii)]
    imag = [_zadd(u, v) for u, v in zip(ri, ir)]
    real[0] = _zadd(real[0], (k * k, 0))
    return all(v == (0, 0) for v in real + imag)


def expected_family(a, b, c, d) -> str:
    """Family of a census hit, read off its decomposed coefficients."""
    if b == 0 and d == 0:
        return f"imaginary-unit sign={1 if c > 0 else -1:+d}"
    if d == 0:
        return "unit-pure"
    return "nontrivial"


def census_hits(bound: float, step: float, pair) -> dict:
    """Exact hits of the lattice census: {(a, b, c, d): family} as Fractions."""
    step_q = Fraction(step)
    n = Fraction(bound) / step_q
    k = 2 / step_q
    if n.denominator != 1 or k.denominator != 1:
        raise ValueError(f"grid bound {bound} / step {step} is not exact")
    n, k = int(n), int(k)
    hits = {}
    idx = range(-n, n + 1)
    # With a = i*step, b = j*step, ..., k*q has scalar parts 2i and 2m and
    # vector parts j*(2 mu) and l*(2 nu).
    for i, j, m, l in ([(0, j, 0, l) for j in idx for l in idx]
                       + [(i, 0, m, 0) for i in idx for m in idx if i or m]):
        qr = [(2 * i, 0)] + [(j * x, j * y) for x, y in pair.mu2]
        qi = [(2 * m, 0)] + [(l * x, l * y) for x, y in pair.nu2]
        if _is_root(qr, qi, k):
            point = tuple(v * step_q for v in (i, j, m, l))
            hits[point] = expected_family(*point)
    return hits
