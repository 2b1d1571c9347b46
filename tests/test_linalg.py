import random
import tracemalloc

import pytest

from matdivseq import linalg
from matdivseq import (IntMatrix, char_poly, det_bareiss, generalized_lucas, jacobian_power_map,
                       kronecker, mat_add, mat_mul, mat_pow, mat_vec, power_map_derivative, vec,
                       verify_closed_form)

from golden_tables import X3, X4
from helpers import (_w_determinant, check_oracle_blocks, det_cofactor, det_fraction, derogatory,
                     random_matrix, record_det_rows, sym_block, unimodular_pair)

FIB = IntMatrix([[1, 1], [1, 0]])
I2 = IntMatrix.identity(2)


def test_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="integer"):
        IntMatrix([[1.5]])
    with pytest.raises(ValueError, match="integer"):
        IntMatrix([[True]])
    with pytest.raises(ValueError):
        IntMatrix([])
    for dim in (0, -1):
        with pytest.raises(ValueError, match="at least one row"):
            IntMatrix.identity(dim)


def test_mat_mul_identity_law():
    assert mat_mul(I2, FIB) == FIB
    assert mat_mul(FIB, I2) == FIB


def test_mat_mul_definition():
    assert mat_mul(FIB, FIB) == IntMatrix([[2, 1], [1, 1]])


def test_mat_mul_involution():
    swap = IntMatrix([[0, 1], [1, 0]])
    assert mat_mul(swap, swap) == I2


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        mat_mul(I2, IntMatrix.identity(3))
    with pytest.raises(ValueError, match="dimension"):
        mat_add(I2, IntMatrix.identity(3))
    for v in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError, match="dimension"):
            mat_vec(I2, v)


def test_mat_pow_zero_is_identity():
    assert mat_pow(FIB, 0) == I2
    assert mat_pow(X3, 0) == IntMatrix.identity(3)


def test_mat_pow_fibonacci():
    assert mat_pow(FIB, 5) == IntMatrix([[8, 5], [5, 3]])


def test_mat_pow_matches_repeated_multiplication():
    rng = random.Random(11)
    for _ in range(20):
        dim = rng.randint(1, 4)
        x = random_matrix(rng, dim)
        n = rng.randint(0, 8)
        expected = IntMatrix.identity(dim)
        for _ in range(n):
            expected = mat_mul(expected, x)
        assert mat_pow(x, n) == expected


def test_mat_pow_x3_squared():
    assert mat_pow(X3, 2) == mat_mul(X3, X3)


def test_mat_pow_negative_exponent():
    with pytest.raises(ValueError):
        mat_pow(FIB, -1)


def test_kronecker_identity_blocks():
    b = IntMatrix([[1, 2], [3, 4]])
    assert kronecker(I2, b) == IntMatrix([[1, 2, 0, 0],
                                          [3, 4, 0, 0],
                                          [0, 0, 1, 2],
                                          [0, 0, 3, 4]])


def test_kronecker_scalar():
    assert kronecker(IntMatrix([[2]]), IntMatrix([[3]])) == IntMatrix([[6]])


def test_kronecker_mixed_product():
    rng = random.Random(23)
    for dim in (2, 3):
        for _ in range(10):
            a, b, c, d = (random_matrix(rng, dim) for _ in range(4))
            lhs = mat_mul(kronecker(a, c), kronecker(b, d))
            rhs = kronecker(mat_mul(a, b), mat_mul(c, d))
            assert lhs == rhs


def test_kronecker_determinant_product():
    rng = random.Random(31)
    for dim in (2, 3):
        for _ in range(5):
            a = random_matrix(rng, dim)
            b = random_matrix(rng, dim)
            assert det_bareiss(kronecker(a, b)) == det_bareiss(a) ** dim * det_bareiss(b) ** dim


def test_det_identity():
    for s in (1, 2, 3, 5):
        assert det_bareiss(IntMatrix.identity(s)) == 1


def test_det_repeated_rows():
    assert det_bareiss(IntMatrix([[1, 1], [1, 1]])) == 0


def test_det_x3():
    assert det_cofactor([list(r) for r in X3.entries]) == 1
    assert det_bareiss(X3) == 1


def test_det_bareiss_matches_cofactor_oracle():
    rng = random.Random(47)
    for _ in range(500):
        dim = rng.randint(1, 4)
        x = random_matrix(rng, dim, -9, 9)
        assert det_bareiss(x) == det_cofactor([list(r) for r in x.entries])


# One block per exit of det_bareiss's pass; the name says what the pass meets.
BAREISS_BRANCH_BLOCKS = {
    "zero a_kk, swapped": [[0, 2, 1], [1, 0, 3], [2, 1, 0]],
    "zero 2x2 minor, mended by a later row": [[1, 2, 0], [2, 4, 1], [0, 1, 1]],
    "zero 2x2 minor, no mending row": [[1, 2, 5], [2, 4, 7], [3, 6, 1]],
    "zero column": [[0, 1, 2], [0, 3, 4], [0, 5, 6]],
    "even dimension's last step": [[2, 1], [1, 3]],
    "even last step, zero a_kk": [[0, 3], [2, 1]],
    "even last step, zero minor": [[2, 4], [3, 6]],
}


def _bordered(block, pad, rng):
    """diag(I_pad, block) with random integers above the block.

    For even ``pad`` the first pad/2 passes see the identity with prev = 1
    and leave ``block`` unchanged, so the next pass meets it as it is.
    """
    b = len(block)
    return ([[int(i == j) for j in range(pad)] + [rng.randint(-4, 4) for _ in range(b)]
             for i in range(pad)]
            + [[0] * pad + list(row) for row in block])


@pytest.mark.parametrize("case", sorted(BAREISS_BRANCH_BLOCKS))
def test_det_bareiss_branches_match_fraction_oracle(case):
    rng = random.Random(case)
    block = BAREISS_BRANCH_BLOCKS[case]
    want = det_fraction(block)
    for pad in (0, 2, 4, 6):
        rows = _bordered(block, pad, rng)
        assert det_bareiss(IntMatrix(rows)) == det_fraction(rows) == want


def test_det_bareiss_matches_fraction_oracle_on_sparse_singular_permuted():
    rng = random.Random(53)
    for _ in range(400):
        dim = rng.randint(1, 9)
        rows = [[rng.choice((0, 0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(dim)]
                for _ in range(dim)]
        if dim > 1 and rng.random() < 0.3:  # rank-deficient: one row a multiple of another
            src, dst = rng.sample(range(dim), 2)
            rows[dst] = [rng.randint(-2, 2) * v for v in rows[src]]
        want = det_fraction(rows)
        assert det_bareiss(IntMatrix(rows)) == want
        permuted = rng.sample(rows, dim)
        assert det_bareiss(IntMatrix(permuted)) == det_fraction(permuted) in (want, -want)


def test_det_bareiss_row_swap_flips_sign():
    rng = random.Random(59)
    for dim in range(2, 10):
        rows = [list(r) for r in random_matrix(rng, dim, -9, 9).entries]
        i, j = rng.sample(range(dim), 2)
        swapped = list(rows)
        swapped[i], swapped[j] = rows[j], rows[i]
        assert det_bareiss(IntMatrix(swapped)) == -det_bareiss(IntMatrix(rows)) != 0


@pytest.mark.parametrize("rows", [
    [[2, -1, 3], [1, 4, -2], [-3, 2, 5]],  # odd: one two-column pass
    [[3, 1, -2, 4, 1], [2, -1, 3, 1, -2], [1, 4, 2, -3, 2], [-2, 1, 1, 2, 3], [4, -3, 1, 1, -1]],
    [[2, 1], [1, 3]],  # even: the single-column step alone
    [[2, -1, 3, 1], [1, 4, -2, 2], [-3, 2, 5, -1], [1, 1, -2, 3]],  # a pass, then that step
], ids=["3x3", "5x5", "2x2", "4x4"])
def test_det_bareiss_checks_every_division(rows, monkeypatch):
    """A nonzero remainder in any one division, the t-th for each t, raises."""
    x = IntMatrix(rows)
    calls = 0

    def counting(num, den):
        nonlocal calls
        calls += 1
        return divmod(num, den)

    monkeypatch.setattr(linalg, "divmod", counting, raising=False)
    assert det_bareiss(x) == det_fraction(rows) != 0
    assert calls > 0
    for bad in range(calls):
        seen = 0

        def corrupted(num, den):
            nonlocal seen
            seen += 1
            q, r = divmod(num, den)
            return (q, r or 1) if seen == bad + 1 else (q, r)

        monkeypatch.setattr(linalg, "divmod", corrupted, raising=False)
        with pytest.raises(AssertionError, match="non-exact division"):
            det_bareiss(x)


def test_jacobian_n1_is_identity():
    assert jacobian_power_map(FIB, 1) == IntMatrix.identity(4)
    assert jacobian_power_map(X3, 1) == IntMatrix.identity(9)


def test_jacobian_fibonacci_n2_explicit():
    assert jacobian_power_map(FIB, 2) == IntMatrix([[2, 1, 1, 0],
                                                    [1, 1, 0, 1],
                                                    [1, 0, 1, 1],
                                                    [0, 1, 1, 0]])


def test_jacobian_x3_n2_determinant():
    j = jacobian_power_map(X3, 2)
    assert j.dim == 9
    assert det_bareiss(j) == 800


def test_jacobian_recurrence():
    rng = random.Random(59)
    for dim in (2, 3):
        x = random_matrix(rng, dim)
        xt = x.transpose()
        ident = IntMatrix.identity(dim)
        for n in range(2, 6):
            expected = mat_add(kronecker(ident, mat_pow(x, n - 1)),
                               mat_mul(kronecker(xt, ident), jacobian_power_map(x, n - 1)))
            assert jacobian_power_map(x, n) == expected


def _special_matrices(dim):
    """Singular, nilpotent, Jordan-block and negative-determinant matrices of one size."""
    ones = IntMatrix([[1] * dim for _ in range(dim)])  # rank 1
    shift = IntMatrix([[int(j == i + 1) for j in range(dim)] for i in range(dim)])
    jordan = IntMatrix([[2 if i == j else int(j == i + 1) for j in range(dim)]
                        for i in range(dim)])
    flip = IntMatrix([[-1 if i == j == 0 else int(i == j) for j in range(dim)]
                      for i in range(dim)])
    return [ones, shift, jordan, mat_mul(flip, jordan)]


def _kronecker_sum(x, n, a=None):
    """sum_{k=0}^{n-1} A^k (x) X^(n-1-k); for A = X^T, the default, J_n by definition."""
    a = x.transpose() if a is None else a
    total = kronecker(mat_pow(a, 0), mat_pow(x, n - 1))
    for k in range(1, n):
        total = mat_add(total, kronecker(mat_pow(a, k), mat_pow(x, n - 1 - k)))
    return total


def test_jacobian_power_map_matches_the_kronecker_sum():
    rng = random.Random(97)
    for dim in range(1, 6):
        cases = [random_matrix(rng, dim) for _ in range(2)] + _special_matrices(dim)
        assert det_bareiss(cases[-1]) < 0
        for x in cases:
            for n in range(1, 13):
                assert jacobian_power_map(x, n) == _kronecker_sum(x, n), (x.fingerprint(), n)


def test_jacobian_columns_are_the_unit_directional_derivatives():
    # Column q*s + p of J_n is vec(d(X^n)[E_pq]), E_pq the unit matrix at (p, q).
    rng = random.Random(103)
    for dim in range(1, 5):
        for x in [random_matrix(rng, dim) for _ in range(2)] + _special_matrices(dim):
            for n in range(1, 9):
                columns = tuple(zip(*jacobian_power_map(x, n).entries))
                for q in range(dim):
                    for p in range(dim):
                        e = IntMatrix([[int((i, k) == (p, q)) for k in range(dim)]
                                       for i in range(dim)])
                        assert columns[q * dim + p] == vec(power_map_derivative(x, e, n)), \
                            (x.fingerprint(), n, p, q)


def test_jacobian_power_map_holds_one_matrix():
    # Holding the n powers of X and X^T, as a Kronecker sum does, peaks near 1.5 MiB here.
    tracemalloc.start()
    try:
        jacobian_power_map(X3, 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 19


def _block_cases(dim, rng):
    """Random, singular, nilpotent, Jordan, negative-determinant, scalar 2I,
    a Jordan-block conjugate and, at dim 3, the derogatory diag(2, 2, 3) and a
    conjugate of J_2(-1) (+) [-1], at dim 4, J_2(2) (+) J_2(2). The last two
    are derogatory and not semisimple; they draw nothing from ``rng``."""
    cases = [random_matrix(rng, dim, -3, 3) for _ in range(2)] + _special_matrices(dim)
    cases.append(IntMatrix([[2 * int(i == j) for j in range(dim)] for i in range(dim)]))
    if dim > 1:
        p, p_inv = unimodular_pair(rng, dim, ops=5)
        cases.append(mat_mul(mat_mul(p, cases[4]), p_inv))
    if dim == 3:
        cases.append(IntMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 3]]))
        cases.append(IntMatrix([[-1, 0, -1], [0, -1, -1], [0, 0, -1]]))  # dim W = 4
    if dim == 4:
        cases.append(IntMatrix([[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 2, 1], [0, 0, 0, 2]]))
    return cases


def test_jacobian_determinants_match_det_of_each_jacobian():
    rng = random.Random(181)
    for dim in range(1, 7):
        for x in _block_cases(dim, rng):
            want = [det_bareiss(jacobian_power_map(x, n)) for n in range(1, 13)]
            assert list(linalg.jacobian_determinants(x, 12)) == want, x.fingerprint()


def test_jacobian_determinant_blocks_are_u_n_and_its_cofactor():
    # The oracle's blocks (see check_oracle_blocks) and d_n = n^s det(X)^(n-1) u_n^2. The
    # Sym block, which the oracle never eliminates, has determinant n^s det(X)^(n-1) u_n, on
    # derogatory X as well. At s = 1 the Skew block is 0 x 0, with determinant 1 = u_n.
    rng = random.Random(191)
    kinds = set()
    with record_det_rows(linalg) as blocks:
        for dim in (2, 3, 4, 5, 1):  # s = 1 last: the draws of the others stay as they were
            for x in _block_cases(dim, rng):
                blocks.clear()
                dets = list(linalg.jacobian_determinants(x, 9))
                f = char_poly(x)
                det_x = (-1) ** dim * f.coefficients[-1]
                us = list(generalized_lucas(f, range(1, 10)))
                cofactors = [n ** dim * det_x ** (n - 1) for n in range(1, 10)]
                kinds.add(derogatory(x))
                check_oracle_blocks(blocks, x, det_x, us)
                assert dets == [c * u * u for c, u in zip(cofactors, us)]
                for n in (1, 2, 5):
                    assert det_fraction(sym_block(x, n)) == cofactors[n - 1] * us[n - 1]
    assert kinds == {False, True}


def test_derogatory_x_takes_the_one_route():
    # I, X, ..., X^(s-1) are dependent on each of these X, so the symmetric S with XS = SX^T
    # span more than s dimensions: on diag(2, 2, 3), S -> XS there has determinant 24, not
    # det(X) = 12; on J_2(2) (+) J_2(2), 64, not 16. The one route never uses them: its
    # d_n = n^s det(X)^(n-1) det(Skew_n)^2 holds for every X. The all-ones ones4 is singular
    # with a double eigenvalue 0, so d_n = 0 for every n >= 2; v3-28 has (X + I)^2 = 0. The
    # 1 x 1 [[0]] and [[-3]], whose Skew_n is 0 x 0, close the list.
    ones4 = IntMatrix([[1] * 4] * 4)
    cases = [ones4, IntMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 3]]),
             mat_add(ones4, IntMatrix.identity(4)),
             IntMatrix([[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 2, 1], [0, 0, 0, 2]]),
             IntMatrix([[0] * 3] * 3), IntMatrix.identity(2),
             IntMatrix([[-1, 0, -1], [0, -1, -1], [0, 0, -1]]), IntMatrix([[5, 0], [0, 5]])]
    assert all(map(derogatory, cases))
    for x in cases + [IntMatrix([[0]]), IntMatrix([[-3]])]:
        want = [det_bareiss(jacobian_power_map(x, n)) for n in range(1, 13)]
        assert list(linalg.jacobian_determinants(x, 12)) == want, x.fingerprint()


@pytest.mark.parametrize("x, cyclic", [
    (IntMatrix([[-3]]), True),
    (IntMatrix([[0]]), True),
    (IntMatrix([[0] * 3] * 3), False),
    (IntMatrix([[5, 0], [0, 5]]), False),
    (IntMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 3]]), False),
    (IntMatrix([[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 2, 1], [0, 0, 0, 2]]), False),
    (IntMatrix([[-1, 0, -1], [0, -1, -1], [0, 0, -1]]), False),  # (X + I)^2 = 0
    (IntMatrix([[1] * 4] * 4), False),
    (mat_add(IntMatrix([[1] * 4] * 4), IntMatrix.identity(4)), False),
    (X3, True),
    (X4, True),
    (IntMatrix([[2, 1, 0], [0, 2, 0], [0, 0, 3]]), True),  # J_2(2) (+) 3
], ids=["1x1", "1x1-zero", "zero3", "scalar2", "diag223", "jordan22", "v3-28", "ones4",
        "ones4+I", "X3", "X4", "jordan2+3"])
def test_cyclic_agrees_with_the_dimension_of_w(x, cyclic):
    assert derogatory(x) is not cyclic
    assert (_w_determinant(x.entries) is not None) is cyclic


def test_random_12x12_at_n_max_1_takes_det_x_only():
    # J_1 = I: d_1 = 1 needs no elimination, and the set-up is det(X) alone.
    rng = random.Random(12)
    x = random_matrix(rng, 12, -3, 3)
    with record_det_rows(linalg) as dets:
        assert list(linalg.jacobian_determinants(x, 1)) == [1]
    assert [size for size, _v in dets] == [12]


def test_exact_divides_or_raises():
    assert linalg._exact(-12, 4) == -3
    assert linalg._exact(0, 7) == 0
    for a, b in ((7, 2), (-7, 2), (1, -3)):
        with pytest.raises(AssertionError, match="non-exact division"):
            linalg._exact(a, b)


def test_jacobian_determinants_yields_n_max_values():
    for x in (IntMatrix([[-3]]), FIB, X3):
        for n_max in (1, 2, 7):
            assert len(list(linalg.jacobian_determinants(x, n_max))) == n_max
    for n_max in (0, -3):
        with pytest.raises(ValueError, match="n_max"):
            linalg.jacobian_determinants(X3, n_max)
    assert next(linalg.jacobian_determinants(X3, 10 ** 9)) == 1


# A conjugate of J_2(1) (+) B, B with characteristic polynomial x^2 - x - 1: spectral radius 1.618,
# largest absolute row sum 19.
JORDAN_CONJUGATE_4 = IntMatrix([[5, 1, -5, -2], [0, 1, 0, 0], [2, 0, -1, -1], [6, 2, -9, -2]])


@pytest.mark.parametrize("rows, min_widths", [
    ([[2]], 2),
    ([[0]], 1),
    ([[0] * 3] * 3, 1),
    ([[0, 10 ** 6, 0], [0, 0, 10 ** 6], [0, 0, 0]], 4),  # nilpotent
    ([[10 ** 30, 1], [1, -10 ** 30]], 4),
    (JORDAN_CONJUGATE_4.entries, 4),
], ids=["2", "0", "zero3", "nilpotent", "1e30", "jordan4"])
def test_compound_steps_match_the_kronecker_sum_as_slots_widen(rows, min_widths):
    """Every n <= 40 unpacks exactly, however far the row-sum bound outruns the values.

    That holds for L_n on all matrices, which is M_n and is shuffled into J_n, and for L_n
    on skew matrices, which the oracle steps in their own coordinates:
    values near 10^(30 n) for 1e30, and below 2^35 for jordan4, whose row-sum bound passes
    19^39.
    """
    x = IntMatrix(rows)
    n_max = 40
    s = x.dim
    sums = [_kronecker_sum(x, n) for n in range(1, n_max + 1)]
    assert list(linalg.jacobian_determinants(x, n_max)) == [det_bareiss(j) for j in sums]
    m_sums = [_kronecker_sum(x, n, x).entries for n in range(1, n_max + 1)]
    for n, (j, m_n) in enumerate(zip(sums, m_sums), 1):
        assert jacobian_power_map(x, n) == j, n
        # J_n is M_n with its first Kronecker factor transposed, entry by entry.
        assert all(j.entries[i * s + p][k * s + q] == m_n[k * s + p][i * s + q]
                   for i in range(s) for p in range(s) for k in range(s) for q in range(s)), n
    for sign in (-1, 0):
        steps = list(linalg._compound_steps(x.entries, sign, n_max))
        assert len({unpack for _rows, unpack in steps}) >= min_widths, sign
        for n, ((packed, unpack), m_n) in enumerate(zip(steps, m_sums), 1):
            assert [unpack(row) for row in packed] == _compound_block(m_n, s, sign), (sign, n)


def _compound_block(m_n, s, sign):
    """M_n on the matrices E_pq + sign E_qp (p < q; all (p, q) for sign 0), read at their
    entries (a, b): L_n in the coordinates of ``_compound_steps``. Entry (i, j) of a matrix
    is at column-stacking index j s + i."""
    pairs = [(p, q) for q in range(s) for p in range(q if sign else s)]
    columns = [[(q * s + p, 1)] + ([(p * s + q, sign)] if sign else [])
               for p, q in pairs]
    return [[sum(m_n[b * s + a][r] * v for r, v in column) for column in columns]
            for a, b in pairs]


def test_verify_catches_a_det_x_off_by_one(monkeypatch):
    # det(X) is taken once per call from X's rows, apart from the characteristic polynomial
    # whose constant term gives the closed form's det(X). Planted off by one, it changes
    # det(X)^(n-1) at every n >= 2, and u_n != 0 there on each of these X.
    det = linalg._det_rows
    for x in (X3, X4, JORDAN_CONJUGATE_4):
        rows = [list(row) for row in x.entries]
        with monkeypatch.context() as m:
            m.setattr(linalg, "_det_rows", lambda m_rows: (m_rows == rows) + det(m_rows))
            report = verify_closed_form(x, 8)
        assert [line.split(":")[0] for line in report.mismatches] == [
            f"n={n}" for n in range(2, 9)], x.fingerprint()
        assert not verify_closed_form(x, 8).mismatches


def test_jacobian_transpose_invariance():
    rng = random.Random(61)
    for _ in range(10):
        dim = rng.randint(2, 3)
        x = random_matrix(rng, dim)
        n = rng.randint(1, 5)
        assert det_bareiss(jacobian_power_map(x, n)) == \
            det_bareiss(jacobian_power_map(x.transpose(), n))


def test_vec_convention_pins_jacobian():
    rng = random.Random(67)
    for _ in range(25):
        dim = rng.randint(2, 3)
        x = random_matrix(rng, dim)
        e = random_matrix(rng, dim)
        n = rng.randint(1, 6)
        j = jacobian_power_map(x, n)
        assert mat_vec(j, vec(e)) == vec(power_map_derivative(x, e, n))


def test_power_map_derivative_n1():
    rng = random.Random(71)
    x = random_matrix(rng, 3)
    e = random_matrix(rng, 3)
    assert power_map_derivative(x, e, 1) == e


def test_power_map_derivative_identity_direction():
    rng = random.Random(73)
    for n in range(1, 6):
        x = random_matrix(rng, 3)
        got = power_map_derivative(x, IntMatrix.identity(3), n)
        xn1 = mat_pow(x, n - 1)
        expected = IntMatrix(tuple(tuple(n * v for v in row) for row in xn1.entries))
        assert got == expected


def test_power_map_derivative_n2_product_rule():
    rng = random.Random(79)
    x = random_matrix(rng, 3)
    e = random_matrix(rng, 3)
    assert power_map_derivative(x, e, 2) == mat_add(mat_mul(x, e), mat_mul(e, x))


def test_power_map_derivative_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        power_map_derivative(FIB, IntMatrix.identity(3), 2)


def test_power_map_builders_reject_nonpositive_n():
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be positive"):
            jacobian_power_map(X3, n)
        with pytest.raises(ValueError, match="n must be positive"):
            power_map_derivative(X3, X3, n)
