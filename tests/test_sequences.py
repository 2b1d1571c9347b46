import random

import pytest

import matdivseq
from matdivseq import (IntMatrix, RepeatedEigenvalueError, SequenceEntry, char_poly,
                       closed_form_entry, det_bareiss, discriminant, discriminant_ratio,
                       generalized_lucas, generate_sequence, jacobian_determinant,
                       jacobian_power_map, lucas_2x2, mat_mul, verify_closed_form,
                       verify_divisibility)

from golden_tables import X3, X4, X3_TABLE
from helpers import random_matrix, unimodular_pair

FIB = IntMatrix([[1, 1], [1, 0]])
JORDAN_2 = IntMatrix([[1, 1], [0, 1]])
JORDAN_3 = IntMatrix([[2, 1, 0], [0, 2, 1], [0, 0, 2]])


def _distinct_eigenvalues(x):
    return x.dim == 1 or discriminant(char_poly(x)) != 0


def test_jacobian_determinant_n1():
    for x in (FIB, X3, X4, JORDAN_3):
        assert jacobian_determinant(x, 1) == 1


def test_jacobian_determinant_x3_n2():
    assert jacobian_determinant(X3, 2) == 800


def test_jacobian_determinant_fibonacci_n2():
    assert jacobian_determinant(FIB, 2) == -4


def test_discriminant_ratio_n1():
    for x in (FIB, X3, X4):
        assert discriminant_ratio(x, 1) == 1


def test_discriminant_ratio_x3():
    assert discriminant_ratio(X3, 2) == 100
    assert discriminant_ratio(X3, 3) == 6561


def test_discriminant_ratio_x4_n2():
    assert discriminant_ratio(X4, 2) == 65536


def test_discriminant_ratio_repeated_eigenvalues():
    with pytest.raises(RepeatedEigenvalueError):
        discriminant_ratio(IntMatrix.identity(2), 2)


def test_discriminant_ratio_1x1():
    assert discriminant_ratio(IntMatrix([[7]]), 5) == 1


def test_closed_form_entry_x3_n2():
    e = closed_form_entry(X3, 2)
    assert e.jacobian_det == 800
    assert e.reduced == 100
    assert e.n_squared_value == 400
    assert not e.fallback_used
    assert e.jacobian_det == jacobian_determinant(X3, 2)


def test_closed_form_entry_x3_n1():
    e = closed_form_entry(X3, 1)
    assert (e.jacobian_det, e.reduced, e.n_squared_value) == (1, 1, 1)


def test_closed_form_entry_identity_fallback():
    e = closed_form_entry(IntMatrix.identity(2), 2)
    assert e.fallback_used
    assert e.jacobian_det == 16
    assert e.reduced == 4
    assert e.n_squared_value is None


def test_oracle_equivalence_random_sample():
    rng = random.Random(131)
    checked = 0
    while checked < 30:
        dim = rng.choice((2, 3, 4))
        x = random_matrix(rng, dim)
        if not _distinct_eigenvalues(x):
            continue
        detx = det_bareiss(x)
        for n in range(1, 7):
            expected = n ** dim * detx ** (n - 1) * discriminant_ratio(x, n)
            assert jacobian_determinant(x, n) == expected
        checked += 1


def test_zero_propagation_on_eigenvalue_collision():
    # diag(1, -1): squares collide; rotation by 90 degrees: 4th powers collide.
    cases = [(IntMatrix([[1, 0], [0, -1]]), 2), (IntMatrix([[0, 1], [-1, 0]]), 4)]
    for x, n in cases:
        assert discriminant_ratio(x, n) == 0
        assert jacobian_determinant(x, n) == 0


def test_lucas_2x2_fibonacci():
    assert lucas_2x2(FIB, 1) == 1
    assert lucas_2x2(FIB, 2) == -4
    assert lucas_2x2(FIB, 3) == 36


def test_lucas_2x2_matches_oracle():
    rng = random.Random(137)
    for _ in range(25):
        x = random_matrix(rng, 2)
        for n in range(1, 8):
            assert lucas_2x2(x, n) == jacobian_determinant(x, n)


def test_generalized_lucas_is_the_lucas_sequence_at_s2():
    rng = random.Random(151)
    for x in [FIB, JORDAN_2] + [random_matrix(rng, 2) for _ in range(25)]:
        a, q = x.trace, det_bareiss(x)
        us = generalized_lucas(char_poly(x), range(1, 13))
        u_prev, u = 0, 1
        for n in range(1, 13):
            assert us[n - 1] == u, (x.fingerprint(), n)
            assert lucas_2x2(x, n) == n * n * q ** (n - 1) * u * u
            u_prev, u = u, a * u - q * u_prev


def test_generalized_lucas_matches_jacobian_for_every_matrix():
    # Repeated eigenvalues included: the identity d_n = n^s det^(n-1) u_n^2
    # holds without the discriminant.
    rng = random.Random(157)
    unimodular, _ = unimodular_pair(rng, 3)
    cases = [
        JORDAN_2, JORDAN_3,
        IntMatrix([[-3, 1, 0, 0], [0, -3, 0, 0], [0, 0, 2, 1], [0, 0, 0, 2]]),
        IntMatrix.identity(3), IntMatrix([[4, 0], [0, 4]]), IntMatrix([[-2]]),
        IntMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), IntMatrix([[0, 1], [0, 0]]),
        IntMatrix([[1, 2], [2, 4]]), IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]]),
        IntMatrix([[0, 0], [0, 0]]), IntMatrix([[1, 0], [0, -1]]), unimodular,
    ]
    for x in cases:
        s, detx = x.dim, det_bareiss(x)
        us = generalized_lucas(char_poly(x), range(1, 10))
        for n, u in enumerate(us, 1):
            assert jacobian_determinant(x, n) == n ** s * detx ** (n - 1) * u * u, \
                (x.fingerprint(), n)


def test_lucas_2x2_rejects_other_dims():
    with pytest.raises(ValueError):
        lucas_2x2(X3, 2)


def test_generate_sequence_x3_first_five():
    entries = generate_sequence(X3, 5, with_factorization=True)
    reduced = [e.reduced for e in entries]
    assert reduced == [1, 100, 6561, 193600, 808201]
    rendered = [str(e.factorization) for e in entries]
    assert rendered == ["1", "2^2 5^2", "3^8", "2^6 5^2 11^2", "29^2 31^2"]


def test_generate_sequence_x4_first_three():
    entries = generate_sequence(X4, 3)
    assert [e.reduced for e in entries] == [1, 65536, 1]
    assert all(e.factorization is None for e in entries)


def test_generate_sequence_takes_one_power_sum_pass(monkeypatch):
    f = char_poly(X4)
    monkeypatch.setattr(matdivseq.sequences, "char_poly", lambda x: f)
    calls = []

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls.append((name,) + args)
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    counting(matdivseq.polynomials, "power_sums")
    for name in ("discriminant", "generalized_lucas"):
        counting(matdivseq.sequences, name)

    def no_power_polynomial(*args):
        raise AssertionError("the closed form builds no power polynomial")

    monkeypatch.setattr(matdivseq.polynomials, "power_polynomial", no_power_polynomial)
    entries = generate_sequence(X4, 12)
    assert not any(e.fallback_used for e in entries)
    # disc(f) alone decides the route: power sums of f to p_(2s-2), no disc(g_n);
    # one pass of complete homogeneous sums then serves every u_n of the table.
    assert calls == [("discriminant", f), ("power_sums", f, 6),
                     ("generalized_lucas", f, range(1, 13))]


def test_generate_sequence_identity_fallback():
    entries = generate_sequence(IntMatrix.identity(2), 3)
    assert [e.jacobian_det for e in entries] == [1, 16, 81]
    assert all(e.fallback_used for e in entries)


def test_verify_divisibility_x3_reduced():
    entries = generate_sequence(X3, 8)
    report = verify_divisibility(entries, "reduced", X3.fingerprint())
    assert report.passed
    pair24 = next(p for p in report.pairs if (p.n, p.m) == (2, 4))
    assert pair24.passed
    assert X3_TABLE[3][1] % X3_TABLE[1][1] == 0  # 193600 / 100 == 1936
    assert all(p.passed for p in report.pairs if p.n == 1)


def test_verify_divisibility_forced_failure():
    def entry(n, value):
        return SequenceEntry(n=n, jacobian_det=value, reduced=value,
                             n_squared_value=None, fallback_used=False)

    entries = [entry(1, 1), entry(2, 3), entry(3, 7), entry(4, 5)]
    report = verify_divisibility(entries, "reduced")
    assert not report.passed
    failed = [(p.n, p.m) for p in report.pairs if not p.passed]
    assert (2, 4) in failed


def test_verify_divisibility_zero_convention():
    def entry(n, value):
        return SequenceEntry(n=n, jacobian_det=value, reduced=value,
                             n_squared_value=None, fallback_used=False)

    # Every value divides 0, and 0 divides only 0.
    good = [entry(1, 1), entry(2, 0), entry(3, 5), entry(4, 0)]
    assert verify_divisibility(good, "reduced").passed
    bad = [entry(1, 1), entry(2, 0), entry(3, 5), entry(4, 8)]
    report = verify_divisibility(bad, "reduced")
    assert [(p.n, p.m) for p in report.pairs if not p.passed] == [(2, 4)]


def test_verify_divisibility_bad_column():
    with pytest.raises(ValueError):
        verify_divisibility([], "nope")


def test_verify_closed_form_x3_reports_n_squared_note():
    report = verify_closed_form(X3, 4)
    assert report.passed
    assert not report.mismatches
    note = next(n for n in report.notes if "informational" in n)
    assert "400" in note and "800" in note and "n=2" in note


def test_verify_closed_form_2x2_has_no_note():
    report = verify_closed_form(FIB, 5)
    assert report.passed
    assert not report.notes


def test_verify_closed_form_eigenvalue_collision_passes():
    report = verify_closed_form(IntMatrix([[1, 0], [0, -1]]), 4)
    assert report.passed


def test_verify_closed_form_repeated_eigenvalues_notes_fallback():
    report = verify_closed_form(JORDAN_2, 4)
    assert report.passed
    assert any("repeated eigenvalues" in n for n in report.notes)


def test_similarity_invariance_of_jacobian_determinant():
    rng = random.Random(139)
    for _ in range(8):
        dim = rng.randint(2, 3)
        x = random_matrix(rng, dim)
        p, p_inv = unimodular_pair(rng, dim)
        conj = mat_mul(mat_mul(p, x), p_inv)
        for n in (2, 3, 5):
            assert jacobian_determinant(conj, n) == jacobian_determinant(x, n)


def test_divisibility_random_unimodular_sample():
    rng = random.Random(149)
    for _ in range(8):
        dim = rng.randint(2, 3)
        x, _ = unimodular_pair(rng, dim, ops=10)
        entries = generate_sequence(x, 12)
        for column in ("jacobian", "reduced"):
            report = verify_divisibility(entries, column)
            assert report.passed, (x.fingerprint(), column)


def test_fallback_jordan_blocks():
    for x in (JORDAN_2, JORDAN_3):
        s = x.dim
        for n in range(1, 7):
            e = closed_form_entry(x, n)
            assert e.fallback_used
            assert e.jacobian_det == det_bareiss(jacobian_power_map(x, n))
            if e.reduced is not None:
                assert e.jacobian_det == n ** s * e.reduced


def test_singular_matrix_is_accepted():
    x = IntMatrix([[1, 2], [2, 4]])  # det 0, eigenvalues 0 and 5
    e = closed_form_entry(x, 3)
    assert not e.fallback_used
    assert e.jacobian_det == jacobian_determinant(x, 3) == 0
    assert closed_form_entry(x, 1).jacobian_det == 1
