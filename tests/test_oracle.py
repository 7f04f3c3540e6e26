import cmath
import itertools
import math
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from biquat import oracle
from biquat.algebra import (
    UNIT_SYMBOLS,
    Biquaternion,
    PureUnit,
    TermTable,
    biquat_mul,
    format_terms,
    mul_coefficients,
    square_residual,
    term_table,
    unit_biquaternion,
)
from biquat.cli import EXAMPLE2_SUMMANDS, EXAMPLE2_TABLE
from biquat.oracle import (
    LatticeHit,
    LatticeSpec,
    NonConvergenceError,
    _SCALAR_ERROR,
    _SCAN_ERROR,
    _scan_features,
    lattice_search,
    refine_root,
    sample_perpendicular,
    sample_root,
    sample_unit_pure,
)
from biquat.roots import (
    ImaginaryUnit,
    Nontrivial,
    UnitPure,
    classify_coefficients,
    classify_root,
    make_nontrivial_root,
)

EPS = sys.float_info.epsilon
MU_I = PureUnit(1, 0, 0)
NU_J = PureUnit(0, 1, 0)

# expected census for mu=i, nu=j, bound 2, step 0.25: the only lattice
# solutions of b^2 - d^2 = 1 with both moduli nonzero are (±1.25, ±0.75),
# plus the degenerate families b = ±1 and c = ±1
PERPENDICULAR_HITS = {
    (0.0, -1.25, 0.0, -0.75): Nontrivial,
    (0.0, -1.25, 0.0, 0.75): Nontrivial,
    (0.0, -1.0, 0.0, 0.0): UnitPure,
    (0.0, 0.0, -1.0, 0.0): ImaginaryUnit,
    (0.0, 0.0, 1.0, 0.0): ImaginaryUnit,
    (0.0, 1.0, 0.0, 0.0): UnitPure,
    (0.0, 1.25, 0.0, -0.75): Nontrivial,
    (0.0, 1.25, 0.0, 0.75): Nontrivial,
}


def test_sample_unit_pure_is_unit_and_deterministic():
    rng = np.random.default_rng(100)
    for _ in range(1000):
        u = sample_unit_pure(rng)
        assert abs(math.hypot(u.x, u.y, u.z) - 1.0) <= 1e-12
    first = [sample_unit_pure(np.random.default_rng(5)) for _ in range(20)]
    second = [sample_unit_pure(np.random.default_rng(5)) for _ in range(20)]
    assert first == second


def test_sample_unit_pure_coordinate_means():
    rng = np.random.default_rng(101)
    total = np.zeros(3)
    n = 100_000
    for _ in range(n):
        u = sample_unit_pure(rng)
        total += (u.x, u.y, u.z)
    assert np.all(np.abs(total / n) <= 0.02)


def test_sample_perpendicular_is_perpendicular_unit():
    rng = np.random.default_rng(102)
    for _ in range(2000):
        mu = sample_unit_pure(rng)
        nu = sample_perpendicular(mu, rng)
        assert abs(math.hypot(nu.x, nu.y, nu.z) - 1.0) <= 1e-12
        assert abs(mu.dot(nu)) <= 1e-12


def test_sample_perpendicular_to_i_lies_in_jk_plane():
    rng = np.random.default_rng(103)
    for _ in range(500):
        nu = sample_perpendicular(MU_I, rng)
        assert abs(nu.x) <= 1e-12


def test_sample_perpendicular_angle_is_uniform():
    # for mu = k the perpendicular circle is the xy plane; each quadrant
    # should collect 25% +/- 1% of 1e5 draws
    rng = np.random.default_rng(104)
    mu = PureUnit(0, 0, 1)
    counts = np.zeros(4)
    n = 100_000
    for _ in range(n):
        nu = sample_perpendicular(mu, rng)
        counts[(nu.x < 0) * 2 + (nu.y < 0)] += 1
    assert np.all(np.abs(counts / n - 0.25) <= 0.01)


def test_sample_root_properties():
    rng = np.random.default_rng(105)
    for _ in range(200):
        q = sample_root(rng, 5.0)
        assert isinstance(classify_root(q), Nontrivial)
    a = [sample_root(np.random.default_rng(9), 3.0) for _ in range(10)]
    b = [sample_root(np.random.default_rng(9), 3.0) for _ in range(10)]
    assert a == b
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t_max must be finite and positive"):
            sample_root(rng, bad)


def test_sample_root_checks_t_max_before_drawing():
    # cosh overflows just above acosh(DBL_MAX): t_max up to there draws
    # finite roots, and above it is refused whatever the seed, before a draw
    t_top = math.acosh(sys.float_info.max)
    rng = np.random.default_rng(7)
    for _ in range(20):
        assert all(map(math.isfinite, sample_root(rng, t_top).coefficients()))
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="at most acosh"):
        sample_root(rng, math.nextafter(t_top, math.inf))
    assert rng.bit_generator.state == state


def test_sample_root_residuals_stay_small():
    rng = np.random.default_rng(106)
    worst = max((biquat_mul(q, q) + 1.0).coefficient_norm()
                for q in (sample_root(rng, 5.0) for _ in range(10_000)))
    assert worst <= 1e-9


def test_lattice_census_perpendicular():
    report = lattice_search(LatticeSpec(2.0, 0.25, MU_I, NU_J), 1e-9)
    assert report.scanned == 17 ** 4
    assert report.violations == ()
    assert {(h.a, h.b, h.c, h.d) for h in report.hits} == set(PERPENDICULAR_HITS)
    for hit in report.hits:
        assert isinstance(hit.classification,
                          PERPENDICULAR_HITS[(hit.a, hit.b, hit.c, hit.d)])
        assert hit.residual <= 1e-9


def test_lattice_census_nonperpendicular():
    s2 = 1 / math.sqrt(2)
    report = lattice_search(LatticeSpec(2.0, 0.25, MU_I, PureUnit(s2, s2, 0)), 1e-9)
    assert report.violations == ()
    assert {(h.a, h.b, h.c, h.d) for h in report.hits} == {
        (0.0, -1.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
        (0.0, 0.0, -1.0, 0.0), (0.0, 0.0, 1.0, 0.0)}
    assert not any(isinstance(h.classification, Nontrivial) for h in report.hits)


def test_lattice_census_is_sound_on_random_perpendicular_pairs():
    # the cut keeps a point whose scan value lies up to _SCAN_ERROR eps s^2
    # above near^2: without that margin some of these pairs lose exact roots
    rng = np.random.default_rng(3)
    for pair in range(200):
        mu = sample_unit_pure(rng)
        report = lattice_search(LatticeSpec(2.0, 0.25, mu, sample_perpendicular(mu, rng)))
        assert report.violations == (), pair
        assert {(h.a, h.b, h.c, h.d): type(h.classification)
                for h in report.hits} == PERPENDICULAR_HITS, pair


def test_lattice_small_bound_has_no_roots():
    report = lattice_search(LatticeSpec(0.5, 0.25, MU_I, NU_J), 1e-9)
    assert report.hits == ()
    assert report.scanned == 5 ** 4


def test_lattice_guards():
    with pytest.raises(ValueError, match="cap"):
        lattice_search(LatticeSpec(50.0, 0.5, MU_I, NU_J))   # 201^4 points
    # off the grid: not a multiple, no point besides 0 (also when bound/step
    # underflows to 0), and 1e-10 past 2
    for bound, step in ((1.0, 0.3), (1e-10, 1.0), (5e-324, 1e300), (2.0000000001, 1.0)):
        with pytest.raises(ValueError, match="integer"):
            LatticeSpec(bound, step, MU_I, NU_J)
    # bound/step rounded a few ulps off an integer is on the grid
    for bound, step in ((0.3, 0.1), (0.7, 0.1), (4.2, 0.6), (5e-324, 5e-324)):
        assert len(LatticeSpec(bound, step, MU_I, NU_J).axis()) == 2 * round(bound / step) + 1
    with pytest.raises(ValueError, match="positive"):
        LatticeSpec(-1.0, 0.25, MU_I, NU_J)
    for bound, step in ((math.inf, 0.25), (math.nan, 0.25), (2.0, math.inf),
                        (1e300, 1e-300)):
        with pytest.raises(ValueError, match="finite"):
            LatticeSpec(bound, step, MU_I, NU_J)
    axis = LatticeSpec(2.0, 0.25, MU_I, NU_J).axis()
    assert 0.0 in axis and 1.0 in axis and -1.0 in axis
    for bad in (math.nan, math.inf, -1.0, 0.0):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            lattice_search(LatticeSpec(0.5, 0.25, MU_I, NU_J), bad)


def test_lattice_directions_must_be_pure_units():
    # a tuple in place of a PureUnit is refused at construction, by name,
    # not later as an AttributeError inside the scan
    for args, name in (((1.0, 0.0, 0.0), NU_J), "mu"), ((MU_I, (0.0, 1.0, 0.0)), "nu"):
        with pytest.raises(TypeError, match=f"LatticeSpec {name} must be a PureUnit, "
                                            "got tuple"):
            LatticeSpec(1.0, 0.5, *args)


def test_lattice_cap_checked_without_building_the_grid():
    spec = LatticeSpec(1e9, 1.0, MU_I, NU_J)   # 2e9 + 1 points per axis
    tracemalloc.start()
    try:
        assert spec.point_count() == (2 * 10 ** 9 + 1) ** 4
        with pytest.raises(ValueError, match="cap"):
            lattice_search(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_lattice_scan_working_set_is_one_plane():
    spec = LatticeSpec(2.0, 0.125, MU_I, NU_J)   # 33^4 points, 33^3 per value of a
    tracemalloc.start()
    try:
        report = lattice_search(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.scanned == 33 ** 4 and len(report.hits) == 8
    assert peak < 1_000_000


def _brute_force_hits(spec, tol):
    """Point by point, in a-b-c-d order, through the scalar residual."""
    mu, nu = spec.mu, spec.nu
    hits = []
    for a, b, c, d in itertools.product(spec.axis().tolist(), repeat=4):
        coeffs = (a, b * mu.x, b * mu.y, b * mu.z, c, d * nu.x, d * nu.y, d * nu.z)
        if square_residual(coeffs) <= tol:
            classification, residual = classify_coefficients(coeffs, tol)
            hits.append(LatticeHit(a, b, c, d, residual, classification))
    return tuple(hits)


def test_lattice_search_matches_brute_force():
    rng = np.random.default_rng(108)
    mu = sample_unit_pure(rng)
    perpendicular, skew = sample_perpendicular(mu, rng), sample_unit_pure(rng)
    # a perpendicular and a skew pair off the axes (b = +/-1 and c = +/-1
    # are the hits), and two 81-point grids whose nonzero squares overflow;
    # then the mirrored scan's edges: a 3-point axis, whose hits
    # (0, +/-1, 0, 0) lie on the a = 0 row and the centre column c = d = 0,
    # both their own mirrors; the same axis at tol 4, with hits at a > 0
    # and in the centre column there; a 17^4 skew pair at tol 0.5; and a
    # 17^4 perpendicular pair at tol 4, where 7 of the 9 scanned blocks
    # hold candidates, about 3000 in all, so every image branch runs on a
    # real-size grid
    cases = ((LatticeSpec(1.0, 0.25, mu, perpendicular), 1e-9, 4),
             (LatticeSpec(1.0, 0.25, mu, skew), 1e-9, 4),
             (LatticeSpec(1e200, 1e200, MU_I, NU_J), 1e-9, 0),
             (LatticeSpec(1e100, 1e100, MU_I, NU_J), 1e-9, 0),
             (LatticeSpec(1.0, 1.0, MU_I, NU_J), 1e-9, 4),
             (LatticeSpec(1.0, 1.0, mu, skew), 4.0, 65),
             (LatticeSpec(2.0, 0.25, mu, skew), 0.5, 12),
             (LatticeSpec(2.0, 0.25, mu, perpendicular), 4.0, 19205))
    for spec, tol, hit_count in cases:
        report = lattice_search(spec, tol)
        assert report.hits == _brute_force_hits(spec, tol)
        assert len(report.hits) == hit_count and report.violations == ()
        assert report.scanned == len(spec.axis()) ** 4


def test_lattice_filter_keeps_every_scalar_hit_at_large_tol():
    # the filter widens the cut by the scan's error bound; whatever tol,
    # it must pass every point the scalar route accepts
    rng = np.random.default_rng(110)
    mu = sample_unit_pure(rng)
    for nu in (sample_perpendicular(mu, rng), sample_unit_pure(rng)):
        spec = LatticeSpec(1.0, 0.25, mu, nu)
        for tol in (1e-9, 0.0625, 0.5, 4.0):
            report = lattice_search(spec, tol)
            assert report.hits == _brute_force_hits(spec, tol)
            assert report.violations == ()


def _scan_blocks(spec):
    """The scan's squared residuals over its representatives, as a
    (k, k, (n*n + 1)/2) array by a <= 0, b <= 0 and c*n + d up to the
    centre: one matrix product per value of a over every column, the
    unpruned form of lattice_search's dot products."""
    with np.errstate(over="ignore", invalid="ignore"):
        rows, half = _scan_features(spec)
        return np.array([np.matmul(row, half) for row in rows])


def _full_scan(spec):
    """The scan's squared residuals at every point, as an (n, n, n*n) array
    by a, b and c*n + d: each point takes its representative's value
    through the eight sign maps, the conjugation (b, d) -> (-b, -d) and the
    reversals of a flat row (a, b) or column (c, d)."""
    blocks = _scan_blocks(spec)
    k, _, width = blocks.shape
    n = 2 * k - 1
    a, b, j = np.ix_(range(k), range(k), range(width))
    d = j % n
    full = np.empty((n, n, n * n))
    covered = np.zeros(full.shape, dtype=bool)
    for b_image, j_image in ((b, j), (n - 1 - b, j - d + n - 1 - d)):
        for a_row, b_row in ((a, b_image), (n - 1 - a, n - 1 - b_image)):
            for col in (j_image, n * n - 1 - j_image):
                full[a_row, b_row, col] = blocks
                covered[a_row, b_row, col] = True
    assert covered.all()
    return full


def test_lattice_rechecks_every_candidate_image_once(monkeypatch):
    # the hits alone would not show a dropped or doubled image of a
    # candidate that is no hit: watch every point the scalar route re-checks
    checked = []
    real = oracle.classify_coefficients

    def spy(coeffs, tol):
        checked.append(coeffs)
        return real(coeffs, tol)

    monkeypatch.setattr(oracle, "classify_coefficients", spy)
    rng = np.random.default_rng(108)
    mu = sample_unit_pure(rng)
    sample_perpendicular(mu, rng)
    skew = sample_unit_pure(rng)
    # the grids of the brute-force test, and that of the ties test at one
    # ulp below 0.5, where the eight points (0, +/-0.75, 0, +/-0.25) and
    # (0, +/-1.125, 0, +/-0.875), of residual 0.5 or just above, are
    # candidates but no hits
    rng = np.random.default_rng(1)
    tie_mu = sample_unit_pure(rng)
    tie = LatticeSpec(1.125, 0.125, tie_mu, sample_perpendicular(tie_mu, rng))
    for spec, tol, misses in ((LatticeSpec(2.0, 0.25, mu, skew), 0.5, 0),
                              (LatticeSpec(1.0, 1.0, mu, skew), 4.0, 0),
                              (tie, math.nextafter(0.5, 0.0), 8)):
        checked.clear()
        report = lattice_search(spec, tol)
        values = spec.axis().tolist()
        n = len(values)
        scalar = {v: i for i, v in enumerate(values)}
        vector = [{(v * u.x, v * u.y, v * u.z): i for i, v in enumerate(values)}
                  for u in (spec.mu, spec.nu)]
        points = [(scalar[p[0]], vector[0][p[1:4]], scalar[p[4]], vector[1][p[5:]])
                  for p in checked]
        indices = [((a * n + b) * n + c) * n + d for a, b, c, d in points]
        assert indices == sorted(set(indices))
        last = n - 1
        assert {(last - a, last - b, c, d) for a, b, c, d in points} == set(points)
        assert {(a, b, last - c, last - d) for a, b, c, d in points} == set(points)
        assert {(a, last - b, c, last - d) for a, b, c, d in points} == set(points)
        under = np.flatnonzero(_full_scan(spec).ravel() <= tol * tol).tolist()
        assert set(under) <= set(indices) and under
        assert report.hits == _brute_force_hits(spec, tol)
        assert len(checked) - len(report.hits) == misses


def test_scan_feature_tables_are_palindromes(monkeypatch):
    # negating qr or qi is exact and leaves every feature unchanged, which
    # is what lets (-a, -b) and (-c, -d) take the scanned points' values:
    # the tables built on the reversed axis, for a, b >= 0 and the last half
    # of the (c, d) plane in reverse, equal the scanned ones bit for bit
    rng = np.random.default_rng(114)
    for bound, step in ((2.0, 0.25), (3.5, 0.125), (1.0, 1.0), (1e200, 1e200)):
        for _ in range(5):
            spec = LatticeSpec(bound, step, sample_unit_pure(rng), sample_unit_pure(rng))
            reverse = spec.axis()[::-1]
            with np.errstate(over="ignore", invalid="ignore"), monkeypatch.context() as patch:
                rows, plane = _scan_features(spec)
                patch.setattr(LatticeSpec, "axis", lambda self: reverse)
                mirrored = _scan_features(spec)
            n = len(reverse)
            assert rows.shape == (n // 2 + 1, n // 2 + 1, 8)
            assert plane.shape == (8, (n * n + 1) // 2)
            assert rows.tobytes() == mirrored[0].tobytes()
            assert plane.tobytes() == mirrored[1].tobytes()


def test_scan_kernel_matches_scalar_route():
    # the bound behind lattice_search's cut, at random points of random
    # perpendicular and skew pairs: the scan value of a representative
    # (a <= 0, b <= 0, c*n + d up to the centre) is within C eps (|q|^2 + 1)^2
    # of square_residual^2 at each of its eight images, which take its value.
    # The conjugate (a, -b, c, -d) has other features, and so another scan
    # value, but the same exact residual as the representative.
    rng = np.random.default_rng(107)
    for bound, step in ((2.0, 0.25), (3.5, 0.125), (1.5, 0.5)):
        mu = sample_unit_pure(rng)
        for nu in (sample_perpendicular(mu, rng), sample_unit_pure(rng)):
            spec = LatticeSpec(bound, step, mu, nu)
            values = spec.axis().tolist()
            n = len(values)
            blocks = _scan_blocks(spec)
            for idx in rng.integers(0, blocks.size, 40 * n).tolist():
                ia, ib, j = np.unravel_index(idx, blocks.shape)
                a, b, c, d = values[ia], values[ib], values[j // n], values[j % n]
                # negate qr, negate qi, conjugate
                for r, i, s in itertools.product((1.0, -1.0), repeat=3):
                    coeffs = (r * a, r * s * b * mu.x, r * s * b * mu.y, r * s * b * mu.z,
                              i * c, i * s * d * nu.x, i * s * d * nu.y, i * s * d * nu.z)
                    scalar = square_residual(coeffs)
                    size = sum(v * v for v in coeffs) + 1.0
                    assert abs(scalar * scalar - blocks.flat[idx]) \
                        <= _SCAN_ERROR * EPS * size * size


def test_scan_scalar_part_is_within_its_roundoff_term():
    # the bound behind lattice_search's pruning, at random points of random
    # perpendicular and skew pairs: the scalar part h0 + t0_0 of q^2 + 1 that
    # the scan reads off its features, rows[..., 1] / 2 + plane[1], is within
    # _SCALAR_ERROR eps (|q|^2 + 1) of the exact scalar part
    # a^2 - |b mu|^2 + 1 - c^2 + |d nu|^2 of the stored floats, at each of the
    # representative's eight images
    rng = np.random.default_rng(115)
    worst = 0.0
    for bound, step in ((2.0, 0.25), (3.5, 0.125), (1.5, 0.5), (1e3, 250.0)):
        mu = sample_unit_pure(rng)
        for nu in (sample_perpendicular(mu, rng), sample_unit_pure(rng)):
            spec = LatticeSpec(bound, step, mu, nu)
            values = spec.axis().tolist()
            n = len(values)
            rows, plane = _scan_features(spec)
            k, width = len(rows), plane.shape[1]
            for idx in rng.integers(0, k * k * width, 4 * n).tolist():
                ab, j = divmod(idx, width)
                a, b, c, d = values[ab // k], values[ab % k], values[j // n], values[j % n]
                scan = float(rows.flat[8 * ab + 1] / 2.0 + plane[1, j])
                # negate qr, negate qi, conjugate
                for r, i, s in itertools.product((1.0, -1.0), repeat=3):
                    coeffs = (r * a, r * s * b * mu.x, r * s * b * mu.y, r * s * b * mu.z,
                              i * c, i * s * d * nu.x, i * s * d * nu.y, i * s * d * nu.z)
                    squares = [Fraction(v) ** 2 for v in coeffs]
                    exact = sum(u * w for u, w in zip(squares, (1, -1, -1, -1, -1, 1, 1, 1))) + 1
                    size = sum(v * v for v in coeffs) + 1.0
                    error = abs(Fraction(scan) - exact) / Fraction(EPS * size)
                    assert error <= _SCALAR_ERROR
                    worst = max(worst, error)
    assert worst > 0   # the sampled points do round


def test_lattice_ties_are_decided_by_the_scalar_route():
    # the kernel rounds the residual of (0, 1.125, 0, 0.875), exactly 0.5,
    # one ulp below the scalar route, and that of (0.125, -1, 0, 0) one ulp
    # above; a tol between the two roundings must not change the report
    rng = np.random.default_rng(1)
    mu = sample_unit_pure(rng)
    nu = sample_perpendicular(mu, rng)
    spec = LatticeSpec(1.125, 0.125, mu, nu)
    for a, b, c, d in ((0.0, 1.125, 0.0, 0.875), (0.125, -1.0, 0.0, 0.0)):
        residual = square_residual((a, b * mu.x, b * mu.y, b * mu.z,
                                    c, d * nu.x, d * nu.y, d * nu.z))
        for tol in (residual, math.nextafter(residual, 0.0)):
            report = lattice_search(spec, tol)
            assert report.violations == ()
            assert ((a, b, c, d) in {(h.a, h.b, h.c, h.d) for h in report.hits}) \
                == (residual <= tol)


@pytest.mark.parametrize("bound, step, nu", [
    (2.0, 0.25, NU_J),                                          # criterion 7
    (2.0, 0.25, PureUnit(1 / math.sqrt(2), 1 / math.sqrt(2), 0)),
    (2.0, 0.125, NU_J),                                         # benchmark pairs
    (2.0, 0.125, PureUnit(math.sqrt(2) / 2, math.sqrt(2) / 2, 0)),
])
def test_scan_hits_are_separated_from_misses(bound, step, nu):
    # the kernel reorders the arithmetic, so its residuals differ from the
    # scalar route by roundoff; that is safe while hits and misses are far
    # apart on both sides of tol
    spec = LatticeSpec(bound, step, MU_I, nu)
    report = lattice_search(spec, 1e-9)
    assert report.violations == ()
    index = {v: i for i, v in enumerate(spec.axis().tolist())}
    n = len(index)
    hits = {(index[h.a] * n + index[h.b]) * n * n + index[h.c] * n + index[h.d]
            for h in report.hits}
    residuals = np.sqrt(np.clip(_full_scan(spec).ravel(), 0.0, None))
    assert residuals.size == report.scanned
    missed = np.ones(residuals.size, dtype=bool)
    missed[list(hits)] = False
    assert (residuals[~missed] <= 1e-9).all()
    assert residuals[missed].min() >= 1e-2


def test_lattice_overflowing_grid_is_quiet():
    # every nonzero point's square (or its squared residual) overflows;
    # such points are misses, not warnings or errors
    for size in (1e200, 1e100):
        spec = LatticeSpec(size, size, MU_I, NU_J)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = lattice_search(spec)
        assert report.hits == () and report.violations == () and report.scanned == 81


def test_newton_step_solves_the_newton_equation(monkeypatch):
    # the closed-form step, read off one capped iteration of refine_root,
    # solves J delta = -F with J = L(x) + R(x), the Hamilton Jacobian of
    # x -> x^2 + 1, wherever J is invertible
    monkeypatch.setattr(oracle, "_NEWTON_ITERATIONS", 1)
    rng = np.random.default_rng(109)
    eye = np.eye(8)
    for _ in range(1000):
        x = rng.uniform(-3, 3, 8)
        jac = np.array(mul_coefficients(x, eye)) + np.array(mul_coefficients(eye, x))
        f = np.array(mul_coefficients(x, x)) + eye[0]
        with pytest.raises(NonConvergenceError, match="within 1 iterations") as excinfo:
            refine_root(Biquaternion.from_coefficients(*x))
        step = np.array(excinfo.value.best.coefficients()) - x
        assert np.abs(jac @ step + f).max() <= 1e-12 * (1.0 + x @ x)
        want = np.linalg.solve(jac, -f)
        assert np.abs(step - want).max() <= 1e-12 * np.abs(want).max()


def test_refine_exact_root_returned_unchanged():
    q = make_nontrivial_root(MU_I, NU_J, 1.0)
    assert refine_root(q) is q


def _noisy_root():
    q = make_nontrivial_root(MU_I, NU_J, 1.0)
    return Biquaternion.from_coefficients(*(c + 1e-3 for c in q.coefficients()))


def test_refine_perturbed_root():
    refined = refine_root(_noisy_root())
    assert (biquat_mul(refined, refined) + 1.0).coefficient_norm() <= 1e-12
    assert isinstance(classify_root(refined), Nontrivial)
    assert all(type(c) is float for c in refined.coefficients())


@pytest.mark.parametrize("coeffs", [
    (1.0, 0, 0, 0, 0, 0, 0, 0),          # one step lands on 0, where N = 0
    (0, 1e-155, 0, 0, 0, 0, 0, 0),       # N is subnormal, so 1/(2N) is inf
    (0, 0, 0, 0, 0, 0, 0, 0.5),          # 0.5*kI: real eigenvalues +-0.5
    (1e200, 1e200, 1e200, 1e200, 0, 0, 0, 0),   # the square overflows: residual inf
], ids=["scalar-one", "subnormal-n", "real-eigenvalues", "overflowing-square"])
def test_refine_singular_start_reports_nonconvergence(coeffs):
    with pytest.raises(NonConvergenceError) as excinfo:
        refine_root(Biquaternion.from_coefficients(*coeffs))
    best = excinfo.value.best
    assert all(map(math.isfinite, best.coefficients()))
    assert excinfo.value.residual == square_residual(best)


def test_refine_reports_nonconvergence(monkeypatch):
    monkeypatch.setattr(oracle, "_NEWTON_ITERATIONS", 1)
    with pytest.raises(NonConvergenceError, match="within 1 iterations") as excinfo:
        refine_root(_noisy_root())
    assert isinstance(excinfo.value.best, Biquaternion)
    assert excinfo.value.residual > 1e-12
    assert excinfo.value.residual == square_residual(excinfo.value.best)


def test_refine_residual_is_square_residual():
    rng = np.random.default_rng(111)
    for _ in range(200):
        mu = sample_unit_pure(rng)
        q = make_nontrivial_root(mu, sample_perpendicular(mu, rng), rng.uniform(0.01, 3.0))
        noisy = Biquaternion.from_coefficients(
            *(np.array(q.coefficients()) + rng.uniform(-1e-3, 1e-3, 8)))
        assert square_residual(refine_root(noisy)) <= 1e-12


def test_refine_from_random_starts_lands_where_the_eigenvalues_say():
    # the Newton point (q - q^-1)/2 maps each eigenvalue w +- sqrt(-v.v) of
    # q to (lambda - 1/lambda)/2, which keeps its half-plane and goes to
    # +-i: q lands on +-I when both eigenvalues lie on one side, on the
    # nontrivial family when they lie on opposite sides
    rng = np.random.default_rng(0)
    starts = rng.uniform(-3.0, 3.0, (2000, 8)).tolist()
    landings = {Nontrivial: 0, ImaginaryUnit: 0}
    start = time.perf_counter()
    for x in starts:
        refined = refine_root(Biquaternion.from_coefficients(*x))
        assert square_residual(refined) <= 1e-12
        classification = classify_root(refined)
        w, v = complex(x[0], x[4]), [complex(x[k], x[k + 4]) for k in (1, 2, 3)]
        root = cmath.sqrt(-sum(c * c for c in v))
        sides = {math.copysign(1, (w + root).imag), math.copysign(1, (w - root).imag)}
        if len(sides) == 1:
            assert classification == ImaginaryUnit(int(sides.pop()))
        else:
            assert isinstance(classification, Nontrivial)
        landings[type(classification)] += 1
    elapsed = time.perf_counter() - start
    assert landings == {Nontrivial: 1271, ImaginaryUnit: 729}
    assert elapsed < 1.0


def test_refine_radial_perturbation_returns_to_the_root():
    # Newton maps lambda*r to ((lambda + 1/lambda)/2)*r, so the scaled root
    # comes back to r itself, not to a neighbouring root
    r = make_nontrivial_root(MU_I, NU_J, 1.0)
    refined = refine_root(Biquaternion.from_coefficients(
        *(1.02 * c for c in r.coefficients())))
    assert square_residual(refined) <= 1e-12
    assert math.dist(refined.coefficients(), r.coefficients()) <= 1e-12
    classification = classify_root(refined)
    assert isinstance(classification, Nontrivial)
    assert abs(classification.t - 1.0) <= 1e-12


def test_refine_scaled_unit_pure_keeps_zero_scalar_parts():
    mu = sample_unit_pure(np.random.default_rng(112))
    q = Biquaternion.from_coefficients(0.0, 1.02 * mu.x, 1.02 * mu.y, 1.02 * mu.z,
                                       0.0, 0.0, 0.0, 0.0)
    refined = refine_root(q)
    assert square_residual(refined) <= 1e-12
    assert refined.qr.w == 0.0 and refined.qi.w == 0.0
    classification = classify_root(refined)
    assert isinstance(classification, UnitPure)
    assert math.dist((classification.mu.x, classification.mu.y, classification.mu.z),
                     (mu.x, mu.y, mu.z)) <= 1e-12


def test_refine_near_unit_pure_lands_on_a_certified_family():
    # starts 1e-8 off a unit-pure root land on nontrivial roots with d near
    # 1e-8, whose decomposed nu the residual cannot pin down; each still
    # classifies, with nu reported perpendicular to mu
    rng = np.random.default_rng(0)
    landings = {Nontrivial: 0, UnitPure: 0}
    for _ in range(200):
        mu = sample_unit_pure(rng)
        start = np.array([0.0, mu.x, mu.y, mu.z, 0.0, 0.0, 0.0, 0.0])
        refined = refine_root(Biquaternion.from_coefficients(
            *(start + 1e-8 * rng.standard_normal(8))))
        classification = classify_root(refined)
        if isinstance(classification, Nontrivial):
            assert abs(classification.mu.dot(classification.nu)) <= 1e-9
        landings[type(classification)] += 1
    assert landings[Nontrivial] > 100


@pytest.mark.parametrize("sign", [1, -1])
def test_refine_noisy_imaginary_unit(sign):
    rng = np.random.default_rng(113)
    for _ in range(250):
        coeffs = rng.uniform(-1e-2, 1e-2, 8).tolist()
        coeffs[4] += sign
        refined = refine_root(Biquaternion.from_coefficients(*coeffs))
        assert square_residual(refined) <= 1e-12
        assert classify_root(refined) == ImaginaryUnit(sign)


def test_term_table_five_by_five():
    parts = [unit_biquaternion(s) for s in EXAMPLE2_SUMMANDS]
    table = term_table(parts)
    for row, expected_row in zip(table.entries, EXAMPLE2_TABLE):
        for entry, symbol in zip(row, expected_row):
            assert entry == unit_biquaternion(symbol)
    assert table.total.isclose(Biquaternion.from_scalar(-1.0), 1e-12)


def test_term_table_singleton():
    q = Biquaternion.from_coefficients(1, 2, 0, 0, 0, 0, 0, -1)
    table = term_table([q])
    assert table.entries == ((biquat_mul(q, q),),)
    assert table.total == biquat_mul(q, q)


def test_term_table_off_diagonal_cancellation():
    s = math.sqrt(2)
    parts = [Biquaternion.from_coefficients(0, s, 0, 0, 0, 0, 0, 0),
             Biquaternion.from_coefficients(0, 0, 0, 0, 0, 0, 1, 0)]
    table = term_table(parts)
    assert table.entries[0][1].isclose(s * unit_biquaternion("kI"), 1e-15)
    assert table.entries[1][0].isclose(-s * unit_biquaternion("kI"), 1e-15)
    assert table.total.isclose(Biquaternion.from_scalar(-1.0), 1e-12)


def test_term_table_sum_identity():
    rng = np.random.default_rng(108)
    for _ in range(100):
        q = Biquaternion.from_coefficients(*rng.uniform(-5, 5, 8))
        pieces = [Biquaternion.from_coefficients(*rng.uniform(-5, 5, 8))
                  for _ in range(rng.integers(1, 4))]
        remainder = q
        for p in pieces:
            remainder = remainder - p
        parts = pieces + [remainder]
        total = term_table(parts).total
        assert total.isclose(biquat_mul(q, q), 1e-10)


def test_term_table_requires_parts():
    with pytest.raises(ValueError, match="summand"):
        term_table([])


def test_format_terms():
    assert format_terms(Biquaternion.from_scalar(0.0)) == "0"
    assert format_terms(Biquaternion.from_scalar(-1.0)) == "-1"
    assert format_terms(unit_biquaternion("kI")) == "kI"
    q = Biquaternion.from_coefficients(1.5, 0, 0, 0, 0, 0, -2, 0)
    assert format_terms(q) == "1.5-2jI"
    assert format_terms(Biquaternion.from_scalar(math.sqrt(2)), digits=4) == "1.414"
    for symbol in UNIT_SYMBOLS:
        for signed in (symbol, "-" + symbol):
            assert format_terms(unit_biquaternion(signed)) == signed


def test_render_layout():
    parts = [unit_biquaternion("i"), unit_biquaternion("jI")]
    text = term_table(parts).render(digits=4)
    lines = text.splitlines()
    assert len(lines) == 4  # header, rule, two rows
    assert "i" in lines[0] and "jI" in lines[0]
    assert isinstance(term_table(parts), TermTable)
