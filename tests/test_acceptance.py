"""Acceptance gate: one test per criterion, one printed line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines;
each criterion asserts at its stated tolerance (and time budget where one
is stated).
"""

import math
import subprocess
import sys
import time

import numpy as np

from biquat.algebra import (
    Biquaternion,
    PureUnit,
    Quaternion,
    biquat_mul,
    dot_cross,
    quat_mul,
    term_table,
    unit_biquaternion,
)
from biquat.cli import (
    EXAMPLE1_INPUT,
    EXAMPLE2_SUMMANDS,
    EXAMPLE2_TABLE,
    EXAMPLE3_SUMMANDS,
    parse_biquaternion,
)
from biquat.oracle import (
    LatticeSpec,
    lattice_search,
    refine_root,
    sample_perpendicular,
    sample_unit_pure,
)
from biquat.roots import (
    ImaginaryUnit,
    Nontrivial,
    NotRoot,
    TheoremViolationError,
    UnitPure,
    classify_root,
    constraint_residuals,
    make_nontrivial_root,
)
from oracles import child_env

MINUS_ONE = Biquaternion.from_scalar(-1.0)

def _max_coeff_error(got, expected):
    return max(abs(g - e) for g, e in zip(got.coefficients(), expected.coefficients()))


def _report(number, description, ok, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"{status} criterion {number}: {description}{timing}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_example_sqrt2():
    q = parse_biquaternion(EXAMPLE1_INPUT)
    err = _max_coeff_error(biquat_mul(q, q), MINUS_ONE)
    _report(1, f"sqrt(2)i + jI squares to -1 (max error {err:.2e})", err <= 1e-12)


def test_criterion_2_example_table():
    parts = [unit_biquaternion(s) for s in EXAMPLE2_SUMMANDS]
    q = sum(parts[1:], parts[0])
    err = _max_coeff_error(biquat_mul(q, q), MINUS_ONE)

    table = term_table(parts)
    table_err = max(
        _max_coeff_error(entry, unit_biquaternion(symbol))
        for row, expected_row in zip(table.entries, EXAMPLE2_TABLE)
        for entry, symbol in zip(row, expected_row))
    total_err = _max_coeff_error(table.total, MINUS_ONE)
    ok = err <= 1e-12 and table_err == 0.0 and total_err <= 1e-12
    _report(2, "(i+j+k) + (j-k)I squares to -1 and the 5x5 term table matches "
               f"entry for entry with total -1 (square error {err:.2e})", ok)


def test_criterion_3_example_diagonal_blocks():
    parts = [parse_biquaternion(t) for t in EXAMPLE3_SUMMANDS]
    q = parts[0] + parts[1]
    err = _max_coeff_error(biquat_mul(q, q), MINUS_ONE)
    table = term_table(parts)
    diag_err = max(_max_coeff_error(table.entries[0][0], Biquaternion.from_scalar(-9.0)),
                   _max_coeff_error(table.entries[1][1], Biquaternion.from_scalar(8.0)))
    total_err = _max_coeff_error(table.total, MINUS_ONE)
    ok = err <= 1e-12 and diag_err <= 1e-12 and total_err <= 1e-12
    _report(3, "3nu + 2sqrt(2)mu I squares to -1 with -9 and +8 on the "
               f"term-table diagonal (square error {err:.2e})", ok)


def test_criterion_4_generator_soundness():
    rng = np.random.default_rng(40)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        mu = sample_unit_pure(rng)
        nu = sample_perpendicular(mu, rng)
        t = 5.0 * (1.0 - rng.random())
        q = make_nontrivial_root(mu, nu, t)
        worst = max(worst, (biquat_mul(q, q) + 1.0).coefficient_norm())
    elapsed = time.perf_counter() - start
    _report(4, f"10^4 seeded roots with t in (0, 5] have aggregate residual "
               f"<= 1e-9 (worst {worst:.2e})", worst <= 1e-9 and elapsed < 1.0,
            elapsed)


def test_criterion_5_residual_identity():
    rng = np.random.default_rng(50)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        q = Biquaternion.from_coefficients(*rng.uniform(-10, 10, 8))
        reassembled = constraint_residuals(q).reassemble()
        reference = biquat_mul(q, q) + 1.0
        worst = max(worst, _max_coeff_error(reassembled, reference))
    elapsed = time.perf_counter() - start
    _report(5, f"residual components reassemble to q^2 + 1 on 10^4 random "
               f"biquaternions (worst coefficient error {worst:.2e})",
            worst <= 1e-9 and elapsed < 1.0, elapsed)


def test_criterion_6_classifier_round_trip():
    rng = np.random.default_rng(60)
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for _ in range(1000):
        mu = sample_unit_pure(rng)
        nu = sample_perpendicular(mu, rng)
        t = 5.0 * (1.0 - rng.random())
        result = classify_root(make_nontrivial_root(mu, nu, t))
        if not isinstance(result, Nontrivial):
            ok = False
            break
        worst = max(worst, abs(result.t - t),
                    abs(result.mu.x - mu.x), abs(result.mu.y - mu.y),
                    abs(result.mu.z - mu.z), abs(result.nu.x - nu.x),
                    abs(result.nu.y - nu.y), abs(result.nu.z - nu.z))
    elapsed = time.perf_counter() - start
    _report(6, f"10^3 classifier round trips recover family, directions and t "
               f"(worst error {worst:.2e})", ok and worst <= 1e-9 and elapsed < 1.0,
            elapsed)


def test_criterion_7_lattice_census():
    mu, nu = PureUnit(1, 0, 0), PureUnit(0, 1, 0)
    expected_perp = {
        (0.0, -1.25, 0.0, -0.75): Nontrivial,
        (0.0, -1.25, 0.0, 0.75): Nontrivial,
        (0.0, -1.0, 0.0, 0.0): UnitPure,
        (0.0, 0.0, -1.0, 0.0): ImaginaryUnit,
        (0.0, 0.0, 1.0, 0.0): ImaginaryUnit,
        (0.0, 1.0, 0.0, 0.0): UnitPure,
        (0.0, 1.25, 0.0, -0.75): Nontrivial,
        (0.0, 1.25, 0.0, 0.75): Nontrivial,
    }
    start = time.perf_counter()
    report = lattice_search(LatticeSpec(2.0, 0.25, mu, nu), 1e-9)
    elapsed_perp = time.perf_counter() - start
    ok_perp = (
        report.violations == ()
        and {(h.a, h.b, h.c, h.d) for h in report.hits} == set(expected_perp)
        and all(isinstance(h.classification, expected_perp[(h.a, h.b, h.c, h.d)])
                for h in report.hits)
        and elapsed_perp < 10.0)

    s2 = 1 / math.sqrt(2)
    start = time.perf_counter()
    report = lattice_search(LatticeSpec(2.0, 0.25, mu, PureUnit(s2, s2, 0)), 1e-9)
    elapsed_skew = time.perf_counter() - start
    ok_skew = (
        report.violations == ()
        and {(h.a, h.b, h.c, h.d) for h in report.hits} == {
            (0.0, -1.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
            (0.0, 0.0, -1.0, 0.0), (0.0, 0.0, 1.0, 0.0)}
        and not any(isinstance(h.classification, Nontrivial) for h in report.hits)
        and elapsed_skew < 10.0)
    _report(7, "lattice census: 8 hits for perpendicular directions, 4 hits "
               "and no nontrivial ones for non-perpendicular, zero violations",
            ok_perp and ok_skew, elapsed_perp + elapsed_skew)


def test_criterion_8_newton_completeness_probe():
    # t >= 0.01 has no numerical need, since landing points near d = 0
    # classify as well (tests/test_oracle.py probes them), but it stays so
    # that the criterion's inputs do not change; t <= 3 keeps the 1e-3
    # perturbation small next to the root (initial residual
    # ~ 2 cosh(t) |noise|), so Newton lands back on the perturbed root's own
    # family
    rng = np.random.default_rng(80)
    start = time.perf_counter()
    worst = 0.0
    violations = 0
    converged = 0
    for _ in range(1000):
        mu = sample_unit_pure(rng)
        nu = sample_perpendicular(mu, rng)
        q = make_nontrivial_root(mu, nu, rng.uniform(0.01, 3.0))
        noisy = Biquaternion.from_coefficients(
            *(np.array(q.coefficients()) + rng.uniform(-1e-3, 1e-3, 8)))
        refined = refine_root(noisy)
        residual = (biquat_mul(refined, refined) + 1.0).coefficient_norm()
        worst = max(worst, residual)
        if residual <= 1e-12:
            converged += 1
        try:
            if isinstance(classify_root(refined), NotRoot):
                violations += 1
        except TheoremViolationError:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = converged == 1000 and violations == 0 and elapsed < 5.0
    _report(8, f"10^3 perturbed roots refine to residual <= 1e-12 and classify "
               f"into a family (worst residual {worst:.2e}, violations "
               f"{violations})", ok, elapsed)


def test_criterion_9_pure_product_identities():
    rng = np.random.default_rng(90)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        u = Quaternion(0.0, *rng.uniform(-2, 2, 3))
        v = Quaternion(0.0, *rng.uniform(-2, 2, 3))
        dot, cross = dot_cross(u, v)
        identity = quat_mul(u, v) - (Quaternion(-dot, 0, 0, 0) + cross)
        anticommutator = quat_mul(u, v) + quat_mul(v, u)
        worst = max(worst, identity.norm(),
                    abs(anticommutator.w + 2.0 * dot),
                    math.hypot(anticommutator.x, anticommutator.y, anticommutator.z))
    elapsed = time.perf_counter() - start
    _report(9, f"u*v = -dot + cross and u*v + v*u = -2*dot on 10^4 pure pairs "
               f"(worst error {worst:.2e})", worst <= 1e-12 and elapsed < 1.0,
            elapsed)


def test_criterion_10_verify_examples_cli():
    result = subprocess.run(
        [sys.executable, "-m", "biquat", "verify-examples"],
        capture_output=True, text=True, env=child_env())
    lines = result.stdout.splitlines()
    ok = (result.returncode == 0 and len(lines) == 3
          and all(line.startswith("PASS example") for line in lines))
    _report(10, "verify-examples reproduces the three examples end to end "
                "and exits 0", ok)
