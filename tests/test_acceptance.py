"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
pass. Every comparison is exact integer equality; there are no tolerances
anywhere.
"""

import random
import time

from matdivseq import (IntMatrix, char_poly, closed_form_entry, det_bareiss, factor_table,
                       generate_sequence, jacobian_determinant, jacobian_power_map, lucas_2x2,
                       mat_vec, power_map_derivative, vec, verify_divisibility)
from matdivseq.cli import MatrixDocument, run_verify

from golden_tables import X3, X4, X3_TABLE, X4_TABLE
from helpers import discriminant, power_polynomial, random_matrix, unimodular_pair


def _report(line):
    print(f"PASS  {line}")


def test_criterion_1_example3_golden_table():
    t0 = time.perf_counter()
    entries = generate_sequence(X3, 16)
    for (n, value, factors), entry, f in zip(X3_TABLE, entries, factor_table(entries)):
        assert entry.n == n
        assert entry.reduced == value
        assert f.factors == factors
        assert f.complete
        assert f.sign == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(f"criterion 1: 3x3 example table reproduced exactly, "
            f"16 rows with factorizations ({elapsed:.2f}s)")


def test_criterion_2_example4_golden_table():
    t0 = time.perf_counter()
    entries = generate_sequence(X4, 16)
    for (n, value, factors), entry, f in zip(X4_TABLE, entries, factor_table(entries)):
        assert entry.n == n
        assert entry.reduced == value
        assert f.factors == factors
        assert f.complete
        assert f.sign == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(f"criterion 2: 4x4 example table reproduced exactly, "
            f"16 rows with factorizations ({elapsed:.2f}s)")


def test_criterion_3_oracle_equivalence():
    rng = random.Random(20260808)
    t0 = time.perf_counter()
    checked = 0
    dims = (2, 3, 4)
    while checked < 200:
        x = random_matrix(rng, dims[checked % 3], -5, 5)
        for n in range(1, 11):
            closed = closed_form_entry(x, n).jacobian_det
            assert jacobian_determinant(x, n) == closed, (x.fingerprint(), n)
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(f"criterion 3: oracle equals closed form for {checked} random "
            f"matrices, n <= 10, exact ({elapsed:.1f}s)")


def test_criterion_4_divisibility_property():
    rng = random.Random(404)
    matrices = [X3, X4]
    for _ in range(50):
        dim = rng.randint(2, 3)
        p, _ = unimodular_pair(rng, dim, ops=10)
        matrices.append(p)
    pairs_checked = 0
    for x in matrices:
        entries = generate_sequence(x, 20)
        for column in ("jacobian", "reduced"):
            report = verify_divisibility(entries, column)
            assert report.passed, (x.fingerprint(), column)
            assert not report.notes
            pairs_checked += report.pairs_checked
    _report(f"criterion 4: divisibility holds for {len(matrices)} matrices, "
            f"n | m <= 20, both columns ({pairs_checked} pairs, zero failures)")


def test_criterion_5_lucas_2x2():
    assert jacobian_determinant(IntMatrix([[1, 1], [1, 0]]), 2) == -4
    rng = random.Random(505)
    for _ in range(100):
        x = random_matrix(rng, 2, -5, 5)
        for n in range(1, 11):
            assert lucas_2x2(x, n) == jacobian_determinant(x, n), (x.fingerprint(), n)
    _report("criterion 5: 2x2 Lucas form equals the Jacobian determinant "
            "for 100 random matrices, n <= 10")


def test_criterion_6_derivative_identity():
    rng = random.Random(606)
    for _ in range(100):
        dim = rng.randint(2, 3)
        x = random_matrix(rng, dim, -4, 4)
        e = random_matrix(rng, dim, -4, 4)
        n = rng.randint(1, 6)
        j = jacobian_power_map(x, n)
        assert mat_vec(j, vec(e)) == vec(power_map_derivative(x, e, n))
    _report("criterion 6: J_n . vec(E) == vec(sum X^k E X^(n-1-k)) "
            "for 100 random triples, exact")


def test_criterion_7_spot_values():
    f = char_poly(X3)
    assert f.coefficients == (1, -3, -3, -1)
    assert discriminant(f) == -108
    assert power_polynomial(f, 3).coefficients == (1, -57, 3, -1)
    assert jacobian_determinant(X3, 2) == 800
    _report("criterion 7: spot values (charpoly, discriminant, power "
            "polynomial, det J_2) all match")


def test_criterion_8_discrepancy_surfacing():
    out, code = run_verify(MatrixDocument(matrix=X3, name="X3"), 8)
    assert code == 0
    assert "result: PASS" in out
    note_lines = [l for l in out.splitlines() if "informational" in l]
    assert note_lines, out
    assert any("400" in l and "800" in l for l in note_lines)
    assert "closed form vs Jacobian determinant: OK" in out
    _report("criterion 8: n^2 variant discrepancy (400 vs 800 at n=2) "
            "surfaced as informational, exit code 0")


def test_criterion_9_repeated_eigenvalue_robustness():
    from matdivseq import closed_form_entry

    jordan_blocks = [IntMatrix([[1, 1], [0, 1]]),
                     IntMatrix([[2, 1, 0], [0, 2, 1], [0, 0, 2]])]
    for x in jordan_blocks:
        for n in range(1, 13):
            entry = closed_form_entry(x, n)
            assert not entry.fallback_used
            assert entry.jacobian_det == det_bareiss(jacobian_power_map(x, n))
        entries = generate_sequence(x, 12)
        for column in ("jacobian", "reduced"):
            report = verify_divisibility(entries, column)
            assert report.passed, (x.fingerprint(), column)
    _report("criterion 9: on Jordan-block matrices the closed form equals the "
            "Jacobian determinant and divisibility holds for n | m <= 12")
