"""Host speed, sampled by fixed units of interpreter and numpy work.

On a shared VM the speed of interpreted Python drifts by tens of percent
in phases of seconds to minutes, so two runs of unchanged code can read
20-30% apart. Two units of fixed work, written here and untouched by
library changes, are timed right before every timed sample of a run. Each
result is then reported at a reference host speed, scaled by the mean
time of its unit over ``NOMINAL_S``: the Python unit for the CLI and
probe rates and set-up time, the numpy unit for the vectorised lattice
scan.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Median unit times on the host the benchmark was defined on (2-vCPU Xeon
# VM, CPython 3.11.7, numpy 2.4.6). They only fix the scale; any constants
# would do, but they must stay the same for results to stay comparable.
NOMINAL_S = {"python": 0.0065, "numpy": 0.010}

_ARRAY = np.linspace(-1.0, 1.0, 57 ** 3)


def _python_unit() -> float:
    # Float arithmetic, small tuples and str <-> float conversions: the
    # mix the CLI and the scalar Newton path spend their time on.
    acc = 0.0
    for i in range(1500):
        row = (i * 0.5, i * 0.25, -i * 0.125, 1.0)
        text = " ".join(repr(v) for v in row)
        acc += sum(float(tok) for tok in text.split())
    return acc


def _numpy_unit() -> float:
    # Elementwise passes over an array the size of one lattice-scan slice.
    a = _ARRAY
    total = a * a
    for _ in range(6):
        total = total + (a * 0.5 - a) * (a + 1.0)
    return float(np.sqrt(np.abs(total)).sum())


_UNITS = {"python": _python_unit, "numpy": _numpy_unit}


class HostSpeed:
    """Unit times of each kind, sampled through a run."""

    def __init__(self):
        self.unit_times = {kind: [] for kind in _UNITS}

    def sample(self) -> None:
        for kind, unit in _UNITS.items():
            start = perf_counter()
            unit()
            self.unit_times[kind].append(perf_counter() - start)

    def slowdown(self, kind: str) -> float:
        """Mean unit time over the nominal: above 1 on a slow host.

        A mean, not a median: the host alternates between speed phases,
        and a mean weighs each phase by its share of the run, as the
        throughputs it scales do.
        """
        times = self.unit_times[kind]
        return sum(times) / len(times) / NOMINAL_S[kind]
