import random
from dataclasses import replace

import pytest

import matdivseq
from matdivseq import (IntMatrix, SequenceEntry, char_poly, closed_form_entry, det_bareiss,
                       factor_table, factorize, generalized_lucas, generate_sequence,
                       jacobian_determinant, jacobian_power_map, lucas_2x2, mat_mul,
                       verify_closed_form, verify_divisibility)
from matdivseq.sequences import COLUMNS

from golden_tables import X3, X4, X3_TABLE
from helpers import derogatory, discriminant, random_matrix, unimodular_pair

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


def _u_squared(x, n):
    """u_n^2 read off the closed form: reduced_n / det(X)^(n-1).

    With distinct eigenvalues this is the discriminant ratio disc(g_n)/disc(f).
    """
    q, r = divmod(closed_form_entry(x, n).reduced, det_bareiss(x) ** (n - 1))
    assert r == 0
    return q


def test_discriminant_ratio_n1():
    for x in (FIB, X3, X4):
        assert _u_squared(x, 1) == 1


def test_discriminant_ratio_x3():
    assert _u_squared(X3, 2) == 100
    assert _u_squared(X3, 3) == 6561


def test_discriminant_ratio_x4_n2():
    assert _u_squared(X4, 2) == 65536


def test_discriminant_ratio_1x1():
    assert _u_squared(IntMatrix([[7]]), 5) == 1


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
    x = IntMatrix.identity(2)
    e = closed_form_entry(x, 2)
    assert not e.fallback_used
    assert e.jacobian_det == 16 == jacobian_determinant(x, 2)
    assert e.reduced == 4
    assert e.jacobian_det == 2 ** 2 * e.reduced
    assert e.n_squared_value == 16


def test_oracle_equivalence_random_sample():
    rng = random.Random(131)
    for _ in range(30):
        x = random_matrix(rng, rng.choice((2, 3, 4)))
        for n in range(1, 7):
            assert closed_form_entry(x, n).jacobian_det == jacobian_determinant(x, n)


def test_zero_propagation_on_eigenvalue_collision():
    # diag(1, -1): squares collide; rotation by 90 degrees: 4th powers collide.
    cases = [(IntMatrix([[1, 0], [0, -1]]), 2), (IntMatrix([[0, 1], [-1, 0]]), 4)]
    for x, n in cases:
        assert closed_form_entry(x, n).reduced == 0
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


def test_routes_reject_nonpositive_n():
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be positive"):
            closed_form_entry(X3, n)
        with pytest.raises(ValueError, match="n must be positive"):
            lucas_2x2(FIB, n)
        with pytest.raises(ValueError, match="n_max must be positive"):
            generate_sequence(X3, n)


def test_generate_sequence_x3_first_five():
    entries = generate_sequence(X3, 5)
    reduced = [e.reduced for e in entries]
    assert reduced == [1, 100, 6561, 193600, 808201]
    rendered = [str(f) for f in factor_table(entries)]
    assert rendered == ["1", "2^2 5^2", "3^8", "2^6 5^2 11^2", "29^2 31^2"]


def test_generate_sequence_x4_first_three():
    entries = generate_sequence(X4, 3)
    assert [e.reduced for e in entries] == [1, 65536, 1]


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

    counting(matdivseq.sequences, "generalized_lucas")
    entries = generate_sequence(X4, 12)
    assert not any(e.fallback_used for e in entries)
    # No discriminant picks a route: one pass of complete homogeneous sums
    # serves every u_n of the table.
    assert calls == [("generalized_lucas", f, range(1, 13))]


def test_generate_sequence_identity_fallback():
    x = IntMatrix.identity(2)
    entries = generate_sequence(x, 3)
    assert [e.jacobian_det for e in entries] == [1, 16, 81]
    assert not any(e.fallback_used for e in entries)
    for e in entries:
        assert e.jacobian_det == jacobian_determinant(x, e.n) == e.n ** 2 * e.reduced


def test_verify_divisibility_x3_reduced():
    entries = generate_sequence(X3, 8)
    report = verify_divisibility(entries, "reduced")
    assert report.passed
    assert report.pairs_checked == 12  # 1 | 2..8, 2 | 4, 6, 8, 3 | 6 and 4 | 8
    assert report.failures == ()
    assert X3_TABLE[3][1] % X3_TABLE[1][1] == 0  # 193600 / 100 == 1936


def _entry(n, u):
    # det(X) = 1: the reduced value is u^2.
    return SequenceEntry(n=n, u=u, det_x=1, s=2)


def test_verify_divisibility_forced_failure():
    entries = [_entry(1, 1), _entry(2, 3), _entry(3, 7), _entry(4, 5)]
    report = verify_divisibility(entries, "reduced")
    assert not report.passed
    assert (2, 4) in report.failures


def test_verify_divisibility_zero_convention():
    # Every value divides 0, and 0 divides only 0.
    good = [_entry(1, 1), _entry(2, 0), _entry(3, 5), _entry(4, 0)]
    assert verify_divisibility(good, "reduced").passed
    bad = [_entry(1, 1), _entry(2, 0), _entry(3, 5), _entry(4, 8)]
    report = verify_divisibility(bad, "reduced")
    assert report.failures == ((2, 4),)


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


def _record_sequence_dets(monkeypatch):
    """(dimension, value) of each determinant ``linalg`` takes, in order."""
    dets = []
    det = matdivseq.linalg._det_rows

    def recorded(rows):
        dets.append((len(rows), det(rows)))
        return dets[-1][1]

    monkeypatch.setattr(matdivseq.linalg, "_det_rows", recorded)
    return dets


def _check_oracle_blocks(dets, x, entries):
    """``dets``, the (dimension, value) of the oracle's determinants, must be: first an s x s
    block, once per call, inside ``_w_determinant``, which returns det(X), then Skew_n for each
    n, with value u_n (0 x 0 at s = 1); or for a derogatory X the Sym block of each n, with
    value n^s det(X)^(n-1) u_n, before its Skew_n."""
    s, det_x = x.dim, entries[0].det_x
    skew = s * (s - 1) // 2
    if derogatory(x):
        blocks = []
        for e in entries:
            blocks += [(s * (s + 1) // 2, e.n ** s * det_x ** (e.n - 1) * e.u), (skew, e.u)]
        assert dets == blocks, x.fingerprint()
    else:
        assert dets[0][0] == s, x.fingerprint()
        assert dets[1:] == [(skew, e.u) for e in entries], x.fingerprint()
        assert matdivseq.linalg._w_determinant(x.entries) == det_x, x.fingerprint()


def test_verify_closed_form_repeated_eigenvalues_checks_every_n(monkeypatch):
    dets = _record_sequence_dets(monkeypatch)
    for x in (JORDAN_2, JORDAN_3):
        dets.clear()
        report = verify_closed_form(x, 4)
        assert report.passed
        assert not any("closed form unavailable" in n for n in report.notes)
        _check_oracle_blocks(dets, x, report.entries)


def test_verify_oracle_never_evaluates_the_closed_form(monkeypatch):
    cases = (X3, X4, JORDAN_3, IntMatrix([[-3]]))
    want = [[det_bareiss(jacobian_power_map(x, n)) for n in range(1, 9)] for x in cases]

    def closed_form(*args):
        raise AssertionError("the oracle evaluates no closed form")

    for module in (matdivseq.polynomials, matdivseq.sequences):
        for name in ("char_poly", "generalized_lucas"):
            monkeypatch.setattr(module, name, closed_form)
    monkeypatch.setattr(matdivseq.sequences, "closed_form_entry", closed_form)
    got = [list(matdivseq.linalg.jacobian_determinants(x, 8)) for x in cases]
    assert got == want


def test_verify_closed_form_reports_a_planted_wrong_entry(monkeypatch):
    entries = generate_sequence(X3, 8)
    entries[4] = replace(entries[4], u=entries[4].u + 1)  # u_5 = 899 + 1
    monkeypatch.setattr(matdivseq.sequences, "generate_sequence", lambda x, n_max: entries)
    report = verify_closed_form(X3, 8)
    assert not report.passed
    assert report.mismatches == (
        "n=5: closed form 101250000 != Jacobian determinant 101025125",)


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
            assert not e.fallback_used
            assert e.jacobian_det == det_bareiss(jacobian_power_map(x, n))
            assert e.jacobian_det == jacobian_determinant(x, n)
            assert e.jacobian_det == n ** s * e.reduced


def _jordan_sum(lam, k, block):
    """J_k(lam) (+) block: lam is an eigenvalue of multiplicity at least k."""
    s = k + len(block)
    rows = [[0] * s for _ in range(s)]
    for i in range(k):
        rows[i][i] = lam
        if i + 1 < k:
            rows[i][i + 1] = 1
    for i, row in enumerate(block):
        rows[k + i][k:] = list(row)
    return IntMatrix(rows)


def _repeated_eigenvalue_cases():
    rng = random.Random(167)
    cases = []
    for s in (3, 4, 5):
        for k in (2, 3):
            x = _jordan_sum(rng.choice((-2, -1, 1, 2)), k,
                            random_matrix(rng, s - k, -1, 1).entries if s > k else ())
            p, p_inv = unimodular_pair(rng, s, ops=s)
            cases.append(mat_mul(mat_mul(p, x), p_inv))
    cases += [
        IntMatrix([[-2, 0, 0, 0], [0, -2, 0, 0], [0, 0, -2, 0], [0, 0, 0, -2]]),  # scalar
        _jordan_sum(0, 4, ()),  # nilpotent
        IntMatrix([[0, 0, 1], [0, 0, 2], [0, 0, 3]]),  # singular, eigenvalues 0, 0, 3
    ]
    return cases


def test_closed_form_matches_stepped_jacobians_on_repeated_eigenvalues(monkeypatch):
    dets = _record_sequence_dets(monkeypatch)

    def no_jacobian(*args):
        raise AssertionError("generate_sequence builds no Jacobian")

    for x in _repeated_eigenvalue_cases():
        assert not _distinct_eigenvalues(x), x.fingerprint()
        with monkeypatch.context() as m:
            m.setattr(matdivseq.sequences, "jacobian_determinants", no_jacobian)
            m.setattr(matdivseq.sequences, "jacobian_power_map", no_jacobian)
            entries = generate_sequence(x, 20)
        assert not any(e.fallback_used for e in entries)
        stepped = [det_bareiss(jacobian_power_map(x, n)) for n in range(1, 21)]
        assert [e.jacobian_det for e in entries] == stepped, x.fingerprint()
        dets.clear()
        report = verify_closed_form(x, 20)
        # det(R) once, then one block determinant per n; a derogatory X takes two per n and no
        # det(R). Their values give the closed form.
        _check_oracle_blocks(dets, x, entries)
        assert report.passed and not report.mismatches, x.fingerprint()
        assert report.entries == tuple(entries)


def test_closed_form_matches_jacobian_at_dims_6_to_8():
    # The Jacobi-Trudi determinant is 5x5 to 7x7 here, where its row order matters most.
    rng = random.Random(173)
    cases = [random_matrix(rng, s, -3, 3) for s in (6, 7, 8)]
    jordan = _jordan_sum(rng.choice((-2, -1, 1, 2)), 2, random_matrix(rng, 4, -1, 1).entries)
    p, p_inv = unimodular_pair(rng, 6, ops=6)
    cases.append(mat_mul(mat_mul(p, jordan), p_inv))
    assert not _distinct_eigenvalues(cases[-1])
    for x in cases:
        for n in range(1, 5):
            assert closed_form_entry(x, n).jacobian_det == jacobian_determinant(x, n), \
                (x.fingerprint(), n)


def test_singular_matrix_is_accepted():
    x = IntMatrix([[1, 2], [2, 4]])  # det 0, eigenvalues 0 and 5
    e = closed_form_entry(x, 3)
    assert not e.fallback_used
    assert e.jacobian_det == jacobian_determinant(x, 3) == 0
    assert closed_form_entry(x, 1).jacobian_det == 1


def _assert_factor_table_matches_terms(x, n_max):
    """factor_table against factorize of every term, on both columns.

    A complete term factorization must come back identical; an incomplete one
    may only get finer: same value, cofactor dividing the term's cofactor.
    """
    entries = generate_sequence(x, n_max)
    for column in ("reduced", "jacobian"):
        merged = factor_table(entries, column)
        assert len(merged) == n_max
        for e, f in zip(entries, merged):
            value = e.reduced if column == "reduced" else e.jacobian_det
            term = factorize(value)
            if term.complete:
                assert f == term, (x.fingerprint(), column, e.n)
            else:
                assert f.value() == value and term.cofactor % (f.cofactor or 1) == 0


def test_factor_table_matches_term_factorizations():
    _assert_factor_table_matches_terms(X3, 16)
    rng = random.Random(163)
    for dim in (2, 2, 3, 3, 3, 4, 4, 4):
        _assert_factor_table_matches_terms(random_matrix(rng, dim, -2, 2), 16)


SPECIAL_MATRICES = [
    IntMatrix([[1, 2], [2, 4]]), IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]]),  # singular
    IntMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), IntMatrix([[0, 0], [0, 0]]),  # nilpotent
    IntMatrix([[3, 0, 0], [0, 3, 0], [0, 0, 3]]), IntMatrix([[-2, 0], [0, -2]]),  # scalar
    JORDAN_2, JORDAN_3,  # the Jacobian fallback
    IntMatrix([[0, -1], [1, 0]]), IntMatrix([[1, 0], [0, -1]]),  # zero terms
    IntMatrix([[0, 1], [1, 1]]),  # negative det
    IntMatrix([[-7]]),
]


def test_factor_table_special_matrices():
    for x in SPECIAL_MATRICES:
        _assert_factor_table_matches_terms(x, 16)
    rotation = IntMatrix([[0, -1], [1, 0]])  # u_n = 0 at every even n
    merged = factor_table(generate_sequence(rotation, 6))
    assert [str(f) for f in merged] == ["1", "0", "1", "0", "1", "0"]


def test_entries_store_the_signed_generalized_lucas_number():
    rng = random.Random(167)
    cases = [X3, X4, *SPECIAL_MATRICES,
             *(random_matrix(rng, dim) for dim in (2, 2, 2, 2, 3, 3, 3, 4, 4, 4))]
    for x in cases:
        f = char_poly(x)
        entries = generate_sequence(x, 16)
        assert all((e.det_x, e.s) == (det_bareiss(x), x.dim) for e in entries)
        assert [e.u for e in entries] == [generalized_lucas(f, [n])[0] for n in range(1, 17)]
        if x.dim == 2:
            # The Lucas sequence of the trace and determinant, sign included.
            a, q = x.trace, det_bareiss(x)
            u_prev, u = 0, 1
            for e in entries:
                assert e.u == u, (x.fingerprint(), e.n)
                u_prev, u = u, a * u - q * u_prev


def test_factor_table_x4_factors_primitive_parts_not_terms(monkeypatch):
    import matdivseq.sequences as sequences
    inputs = []

    def counting(n, *args):
        inputs.append(n)
        return factorize(n, *args)

    monkeypatch.setattr(sequences, "factorize", counting)
    entries = generate_sequence(X4, 20)
    merged = factor_table(entries)
    # det(X4) and Psi_2 .. Psi_20, each once; R_20 itself has 92 digits.
    assert len(str(entries[-1].reduced)) == 92
    assert len(inputs) <= 20
    assert max(abs(v) for v in inputs) < 10 ** 45
    for e, f in zip(entries, merged):
        assert f == factorize(e.reduced), e.n
    for e, f in zip(entries, factor_table(entries, "jacobian")):
        assert f == factorize(e.jacobian_det), e.n


def test_factor_table_raises_on_broken_identity():
    entries = generate_sequence(X3, 6)
    with pytest.raises(ValueError):
        factor_table(entries, "nope")
    # u_1 = 2, not 1.
    with pytest.raises(ArithmeticError):
        factor_table([replace(entries[0], u=2)])
    # u_4 = 3, but Psi_2 = 10 does not divide it.
    with pytest.raises(ArithmeticError):
        factor_table([*entries[:3], replace(entries[3], u=3)])
    # A missing divisor cannot be recovered: n = 4 needs Psi_2.
    with pytest.raises(ArithmeticError):
        factor_table([entries[0], entries[3]])
    # Entries of two matrices: diag(2, 3, 1) has s = 3 like X3 but det 6, not
    # det(X3) = 1, and X4 has det 1 like X3 but s = 4.
    for x in (IntMatrix([[2, 0, 0], [0, 3, 0], [0, 0, 1]]), X4):
        other = generate_sequence(x, 6)
        for mixed in ([*entries[:3], *other[3:]], [other[0], *entries[1:]]):
            with pytest.raises(ValueError, match="disagree on det"):
                factor_table(mixed)


def test_factor_table_reads_det_x_and_s_from_the_entries(monkeypatch):
    import matdivseq.sequences as sequences
    tables = [generate_sequence(x, 12)
              for x in (X3, X4, IntMatrix([[0, 1], [1, 1]]), IntMatrix([[1, 2], [2, 4]]))]
    calls = []
    monkeypatch.setattr(sequences, "det_bareiss", lambda *args: calls.append(args))
    for entries in tables:
        for column in COLUMNS:
            assert [f.value() for f in factor_table(entries, column)] == [
                e.value(column) for e in entries]
    assert factor_table([]) == factor_table([], "jacobian") == []
    assert calls == []


def test_factor_table_decides_zero_rows_without_building_reduced(monkeypatch):
    import matdivseq.sequences as sequences
    singular = generate_sequence(IntMatrix([[1, 1], [0, 0]]), 12)  # u_n = 1, det(X) = 0
    tables = [generate_sequence(X3, 16), generate_sequence(X4, 20), singular,
              generate_sequence(IntMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), 12),
              generate_sequence(IntMatrix([[0, 1], [-1, 0]]), 12)]  # u_n = 0 at even n
    expected = {column: [factor_table(entries, column) for entries in tables]
                for column in COLUMNS}

    def no_reduced(entry):
        raise AssertionError(f"n={entry.n}: reduced was built")

    monkeypatch.setattr(SequenceEntry, "reduced", property(no_reduced))
    for column in COLUMNS:
        assert [factor_table(entries, column) for entries in tables] == expected[column]
    calls = []
    monkeypatch.setattr(sequences, "factorize", lambda n: calls.append(n) or factorize(n))
    # Only det(X), and n^s = 1 of the one nonzero row: no Psi_n of a zero row is factored.
    for column, factored in (("reduced", [0]), ("jacobian", [0, 1])):
        calls.clear()
        assert factor_table(singular, column) == expected[column][2]
        assert calls == factored


def test_entry_value_rejects_an_unknown_column():
    e = generate_sequence(X3, 2)[1]
    assert (e.value("reduced"), e.value("jacobian")) == (100, 800)
    for column in ("bogus", "jacobian_det", "Reduced"):
        with pytest.raises(ValueError, match="column must be 'reduced' or 'jacobian'"):
            e.value(column)


def test_every_exported_name_resolves():
    for name in matdivseq.__all__:
        assert getattr(matdivseq, name, None) is not None, name
    assert len(set(matdivseq.__all__)) == len(matdivseq.__all__)
    # Pinned, so that no test oracle (tests/helpers.py) creeps back into the package.
    assert set(matdivseq.__all__) == {
        "Factorization", "factorize", "is_prime",
        "IntMatrix", "det_bareiss", "jacobian_power_map", "kronecker",
        "mat_add", "mat_mul", "mat_pow", "mat_vec", "power_map_derivative", "vec",
        "MonicIntPolynomial", "char_poly", "generalized_lucas",
        "SequenceEntry", "VerificationReport", "closed_form_entry",
        "factor_table", "generate_sequence", "jacobian_determinant", "lucas_2x2",
        "verify_closed_form", "verify_divisibility",
        "__version__",
    }
    for name in ("PowerSums", "power_sums", "poly_from_power_sums", "NotRealizableError",
                 "power_polynomial", "sylvester_matrix", "resultant", "discriminant"):
        assert not hasattr(matdivseq.polynomials, name), name
