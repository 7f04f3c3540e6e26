"""Independent reference implementations used only by the tests.

The library multiplies biquaternions through their real quaternion
parts. The reference route here works in the other presentation: four
complex components combined with the Hamilton formula under Python's
complex arithmetic. Agreement between the two routes is what several
tests assert, so this module must stay free of biquat imports.
"""

import os
from pathlib import Path


def child_env():
    """The environment for a child Python that imports this checkout's biquat."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        src, os.environ.get("PYTHONPATH")))))


def complex_hamilton(p, q):
    """Hamilton product of two biquaternions given as 8-coefficient tuples."""
    pw, px, py, pz = _to_complex(p)
    qw, qx, qy, qz = _to_complex(q)
    return _from_complex(
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    )


def square_via_complex_view(coeffs):
    """Coefficients of q^2 for an 8-coefficient tuple q."""
    return complex_hamilton(coeffs, coeffs)


def _to_complex(coeffs):
    wr, xr, yr, zr, wi, xi, yi, zi = coeffs
    return (complex(wr, wi), complex(xr, xi), complex(yr, yi), complex(zr, zi))


def _from_complex(w, x, y, z):
    return (w.real, x.real, y.real, z.real, w.imag, x.imag, y.imag, z.imag)
