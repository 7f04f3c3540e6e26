"""Per-layer measurements taken only in the traced run.

* ``import.*``: fresh-interpreter import times, and whether importing the
  CLI loads numpy;
* ``micro.*``: one timing per function of the ROADMAP baseline line
  (``timeit``, best of several repeats);
* ``acceptance.c4_s`` ... ``c9_s``: the wall times the acceptance module
  prints for its time-budgeted criteria, run with ``pytest -s``.
"""

from __future__ import annotations

import math
import re
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

import numpy as np

from biquat import algebra, oracle, roots
from biquat.algebra import Biquaternion, PureUnit, Quaternion

IMPORT_STARTS = 5
MICRO_REPEATS = 5
MICRO_REPEAT_S = 0.02          # each timeit repeat runs at least this long
CLI_STARTS = 3
BUDGETED_CRITERIA = (4, 5, 6, 7, 8, 9)
_CRITERION_LINE = re.compile(r"(PASS|FAIL) criterion (\d+):.*\[(\d+\.\d+)s\]\s*$")


def _child_float(code: str, env: dict, root: Path) -> float:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=root, timeout=60, check=True)
    return float(proc.stdout.strip())


def import_metrics(env: dict, root: Path) -> dict:
    timed = "import time; t = time.perf_counter(); import {0}; print(time.perf_counter() - t)"
    return {
        "import.biquat_s": statistics.median(
            _child_float(timed.format("biquat"), env, root) for _ in range(IMPORT_STARTS)),
        "import.numpy_s": statistics.median(
            _child_float(timed.format("numpy"), env, root) for _ in range(IMPORT_STARTS)),
        "import.numpy_loaded_by_cli": _child_float(
            "import sys, biquat.cli; print(int('numpy' in sys.modules))", env, root),
    }


def _best_us(fn) -> float:
    timer = timeit.Timer(fn)
    number = 1
    while timer.timeit(number) < MICRO_REPEAT_S and number < 1 << 20:
        number *= 4
    return min(timer.repeat(MICRO_REPEATS, number)) / number * 1e6


def micro_metrics(env: dict, root: Path) -> dict:
    mu, nu = PureUnit(1.0, 0.0, 0.0), PureUnit(0.0, 1.0, 0.0)
    p, q = Quaternion(1.0, 2.0, 3.0, 4.0), Quaternion(-0.5, 0.25, 1.5, -2.0)
    root_q = roots.make_nontrivial_root(mu, nu, math.asinh(1.0))
    noisy = Biquaternion.from_coefficients(
        *(np.array(root_q.coefficients()) + 1e-3 * np.linspace(-1.0, 1.0, 8)))
    rng = np.random.default_rng(0)
    small_grid = oracle.LatticeSpec(2.0, 0.25, mu, nu)          # 17^4 points
    single = [sys.executable, "-m", "biquat", "classify", "0 1.4142135623730951 0 0 0 0 1 0"]

    def cli_us() -> float:
        best = math.inf
        for _ in range(CLI_STARTS):
            start = timeit.default_timer()
            subprocess.run(single, capture_output=True, env=env, cwd=root,
                           timeout=60, check=True)
            best = min(best, timeit.default_timer() - start)
        return best * 1e6

    return {
        "micro.algebra.Quaternion_us": _best_us(lambda: Quaternion(1.0, 2.0, 3.0, 4.0)),
        "micro.algebra.quat_mul_us": _best_us(lambda: algebra.quat_mul(p, q)),
        "micro.algebra.biquat_mul_us": _best_us(lambda: algebra.biquat_mul(root_q, root_q)),
        "micro.roots.decompose_us": _best_us(lambda: roots.decompose(root_q)),
        "micro.roots.constraint_residuals_us":
            _best_us(lambda: roots.constraint_residuals(root_q)),
        "micro.roots.classify_root_us": _best_us(lambda: roots.classify_root(root_q)),
        "micro.roots.make_nontrivial_root_us":
            _best_us(lambda: roots.make_nontrivial_root(mu, nu, 0.8)),
        "micro.oracle.sample_root_us": _best_us(lambda: oracle.sample_root(rng, 5.0)),
        "micro.oracle.refine_root_us": _best_us(lambda: oracle.refine_root(noisy)),
        "micro.oracle.lattice_search_us": _best_us(lambda: oracle.lattice_search(small_grid)),
        "micro.cli.classify_us": cli_us(),
    }


def acceptance_metrics(env: dict, root: Path) -> dict:
    """Wall times of the time-budgeted criteria, whatever their verdicts."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         "tests/test_acceptance.py"],
        capture_output=True, text=True, env=env, cwd=root, timeout=170)
    times = {int(m.group(2)): float(m.group(3))
             for m in map(_CRITERION_LINE.search, proc.stdout.splitlines()) if m}
    missing = [c for c in BUDGETED_CRITERIA if c not in times]
    if missing:
        raise RuntimeError(f"acceptance run printed no time for criteria {missing}:\n"
                           f"{proc.stdout[-2000:]}")
    return {f"acceptance.c{c}_s": times[c] for c in BUDGETED_CRITERIA}
