"""Seeded inputs for the benchmark, generated without calling the library.

Roots are built here as ``cosh(t)*mu + sinh(t)*nu*I`` from the same
distributions the library's samplers use (mu uniform on the sphere, nu
uniform on the circle perpendicular to mu, t uniform). Building them
outside the library keeps the inputs identical across library changes,
so two commits are always measured on the same data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Stream mix, in shares of the line count (they sum to 1).
STREAM_MIX = (("nontrivial", 0.60), ("unit-pure", 0.10),
              ("imaginary-unit", 0.05), ("not-a-root", 0.25))
STREAM_T_MAX = 5.0          # the CLI's `sample --t-max` default
NON_ROOT_RANGE = 10.0       # non-roots are uniform in [-10, 10]^8

# Probe recipe of acceptance criterion 8: t in [0.01, 3], noise +/-1e-3.
PROBE_T_RANGE = (0.01, 3.0)
PROBE_NOISE = 1e-3


def _unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _perpendicular(rng: np.random.Generator, mu: np.ndarray) -> np.ndarray:
    # Project a sphere point off mu twice so |dot| stays at roundoff level.
    w = _unit_vectors(rng, len(mu))
    for _ in range(2):
        w -= np.sum(w * mu, axis=1, keepdims=True) * mu
        w /= np.linalg.norm(w, axis=1, keepdims=True)
    return w


def nontrivial_roots(rng: np.random.Generator, t: np.ndarray) -> np.ndarray:
    """Rows of 8 coefficients of ``cosh(t)*mu + sinh(t)*nu*I``."""
    mu = _unit_vectors(rng, len(t))
    nu = _perpendicular(rng, mu)
    out = np.zeros((len(t), 8))
    out[:, 1:4] = np.cosh(t)[:, None] * mu
    out[:, 5:8] = np.sinh(t)[:, None] * nu
    return out


@dataclass(frozen=True)
class StreamInput:
    """Stdin text for `biquat classify` / `biquat square`, one input per line.

    ``labels[k]`` is the constructed family of line k; for the imaginary
    units it carries the sign, e.g. ``imaginary-unit sign=-1``.
    """

    text: str
    coefficients: tuple[tuple[float, ...], ...]
    labels: tuple[str, ...]


def stream_input(rng: np.random.Generator, lines: int) -> StreamInput:
    counts = {family: int(round(share * lines)) for family, share in STREAM_MIX}
    counts["not-a-root"] = lines - sum(n for f, n in counts.items() if f != "not-a-root")

    n = counts["nontrivial"]
    rows = [nontrivial_roots(rng, STREAM_T_MAX * (1.0 - rng.random(n)))]
    labels = ["nontrivial"] * n

    n = counts["unit-pure"]
    unit = np.zeros((n, 8))
    unit[:, 1:4] = _unit_vectors(rng, n)
    rows.append(unit)
    labels += ["unit-pure"] * n

    n = counts["imaginary-unit"]
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    imag = np.zeros((n, 8))
    imag[:, 4] = signs
    rows.append(imag)
    labels += [f"imaginary-unit sign={int(s):+d}" for s in signs]

    n = counts["not-a-root"]
    rows.append(rng.uniform(-NON_ROOT_RANGE, NON_ROOT_RANGE, (n, 8)))
    labels += ["not-a-root"] * n

    order = rng.permutation(lines)
    table = np.concatenate(rows)[order]
    coefficients = tuple(tuple(float(v) for v in row) for row in table)
    text = "".join(" ".join(repr(v) for v in row) + "\n" for row in coefficients)
    return StreamInput(text, coefficients, tuple(labels[k] for k in order))


def probe_input(rng: np.random.Generator, roots: int) -> tuple[tuple[float, ...], ...]:
    """Perturbed nontrivial roots, each a row of 8 coefficients."""
    t = rng.uniform(*PROBE_T_RANGE, roots)
    noisy = nontrivial_roots(rng, t) + rng.uniform(-PROBE_NOISE, PROBE_NOISE, (roots, 8))
    return tuple(tuple(float(v) for v in row) for row in noisy)


@dataclass(frozen=True)
class DirectionPair:
    """A census direction pair, held exactly.

    ``mu2`` and ``nu2`` are twice the unit directions, with each
    component an element ``x + y*sqrt(2)`` of Z[sqrt 2] stored as ``(x, y)``.
    """

    name: str
    mu2: tuple[tuple[int, int], ...]
    nu2: tuple[tuple[int, int], ...]

    @staticmethod
    def _floats(v2):
        return tuple((x + y * math.sqrt(2.0)) / 2.0 for x, y in v2)

    @property
    def mu(self) -> tuple[float, float, float]:
        return self._floats(self.mu2)

    @property
    def nu(self) -> tuple[float, float, float]:
        return self._floats(self.nu2)


# mu = i with nu = j (perpendicular) and nu = (i + j)/sqrt 2 (not perpendicular).
CENSUS_PAIRS = (
    DirectionPair("perpendicular", ((2, 0), (0, 0), (0, 0)), ((0, 0), (2, 0), (0, 0))),
    DirectionPair("skew", ((2, 0), (0, 0), (0, 0)), ((0, 1), (0, 1), (0, 0))),
)
