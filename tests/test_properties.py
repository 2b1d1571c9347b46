"""Property-based differential tests of the closed-form table against its oracles.

hypothesis draws small integer matrices, s = 1..4 with entries in -3..3,
plus the shapes where the closed form is most fragile: zero, scalar,
strictly upper-triangular (nilpotent), Jordan block, repeated row
(singular), negative determinant, and a block of finite order (a
reflection, or a rotation of order 3, 4 or 6), where u_n = 0. Every
property compares two routes that share no step: the closed form against
the Jacobian determinant, its Kronecker sum, sympy's determinant of J_n
(s <= 3, when sympy is installed) and the 2x2 Lucas form, the per-table
factorizations against ``factorize`` of each value, the divisibility check
against the count of its pairs, and the characteristic polynomial and the
fraction-free determinant against Gaussian elimination over the
rationals. Three more check u_n, signed, against identities of the roots
of the characteristic polynomial: the chain rule of the power maps, the
Krylov determinant of the powers of x modulo the characteristic
polynomial, and the blocks of the Jacobian oracle. That oracle takes
det J_n = det(M_n on W) * det(Skew)^2, W the symmetric S with XS = SX^T,
when dim W = s, and det(Sym) * det(Skew) when X is derogatory; one
property checks that dim W >= s, with equality exactly when
I, X, ..., X^(s-1) are independent, and that Sym keeps its determinant
n^s det(X)^(n-1) u_n either way; another, that S -> XS on W has
determinant det(X) when dim W = s, which is why the oracle takes that
factor once per call.
"""

from functools import reduce
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from matdivseq import (IntMatrix, char_poly, det_bareiss, factor_table, factorize,
                       generate_sequence, jacobian_determinant, jacobian_power_map, kronecker,
                       lucas_2x2, mat_add, mat_pow, verify_divisibility)
from matdivseq import linalg
from matdivseq.linalg import jacobian_determinants
from matdivseq.sequences import COLUMNS

from helpers import det_fraction, derogatory, sym_block

ENTRY = st.integers(-3, 3)
DIM = st.integers(1, 4)


def _square(s, entry=ENTRY):
    return st.lists(st.lists(entry, min_size=s, max_size=s), min_size=s, max_size=s)


def _upper(rows):
    """The strictly upper-triangular part of rows: a nilpotent matrix."""
    return [[v if j > i else 0 for j, v in enumerate(row)] for i, row in enumerate(rows)]


def _negative_det(rows):
    """rows with a negative determinant: the first row negated, or -1 on an upper diagonal."""
    det = det_bareiss(IntMatrix(rows))
    if det == 0:
        rows = [[-1 if i == j == 0 else 1 if i == j else v for j, v in enumerate(row)]
                for i, row in enumerate(_upper(rows))]
    elif det > 0:
        rows = [[-v for v in rows[0]], *rows[1:]]
    return rows


def _repeated_row(rows):
    return [*rows[:-1], rows[0]] if len(rows) > 1 else [[0]]


def _jordan(s, lam):
    return [[lam if i == j else 1 if j == i + 1 else 0 for j in range(s)] for i in range(s)]


ROWS = st.one_of(
    DIM.flatmap(_square),
    DIM.map(lambda s: [[0] * s for _ in range(s)]),
    st.tuples(DIM, ENTRY).map(lambda sc: [[sc[1] if i == j else 0 for j in range(sc[0])]
                                          for i in range(sc[0])]),
    DIM.flatmap(_square).map(_upper),
    st.tuples(DIM, ENTRY).map(lambda sl: _jordan(*sl)),
    DIM.flatmap(_square).map(_repeated_row),
    DIM.flatmap(_square).map(_negative_det),
)
MATRICES = ROWS.map(IntMatrix)
N_MAX = st.integers(1, 10)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)


@PROPERTY
@given(MATRICES, N_MAX)
def test_closed_form_equals_the_jacobian_and_lucas_oracles(x, n_max):
    entries = generate_sequence(x, n_max)
    assert [e.n for e in entries] == list(range(1, n_max + 1))
    assert [e.jacobian_det for e in entries] == list(jacobian_determinants(x, n_max))
    for e in entries[:6]:
        assert e.jacobian_det == jacobian_determinant(x, e.n), e.n
    if x.dim == 2:
        assert [e.jacobian_det for e in entries] == [lucas_2x2(x, e.n) for e in entries]
    # J_n as the Kronecker sum of (X^T)^k (x) X^(n-1-k), k = 0..n-1.
    xt = x.transpose()
    for e in entries[:4]:
        j = reduce(mat_add, (kronecker(mat_pow(xt, k), mat_pow(x, e.n - 1 - k))
                             for k in range(e.n)))
        assert e.jacobian_det == det_bareiss(j), e.n


@PROPERTY
@given(MATRICES, N_MAX)
def test_factor_table_factors_each_value_of_both_columns(x, n_max):
    entries = generate_sequence(x, n_max)
    for column in COLUMNS:
        factors = factor_table(entries, column)
        assert len(factors) == n_max
        for e, f in zip(entries, factors):
            value = e.value(column)
            assert f.value() == value, (column, e.n)
            if abs(value) < 10 ** 18:
                assert f == factorize(value), (column, e.n)


@PROPERTY
@given(MATRICES, st.sampled_from((2, 3)))
def test_u_follows_the_chain_rule_of_the_power_maps(x, m):
    # P_m o P_n = P_mn, and X^m has the roots a_i^m of X in the same order, so
    # u_mn(X) = prod (a_i^mn - a_j^mn)/(a_i - a_j) = u_m(X) u_n(X^m).
    u = [e.u for e in generate_sequence(x, 12)]
    u_pow = [e.u for e in generate_sequence(mat_pow(x, m), 12 // m)]
    for n, v in enumerate(u_pow, 1):
        assert u[m * n - 1] == u[m - 1] * v, n


def _krylov_rows(x, n):
    """Rows k = 0..s-1: the ascending coefficients of x^(nk) modulo char_poly(x)."""
    c = char_poly(x).coefficients  # x^s = -(c_1 x^(s-1) + ... + c_s)
    s = x.dim
    rows = [[1] + [0] * (s - 1)]
    row = rows[0]
    for step in range(1, n * (s - 1) + 1):  # multiply by x, then reduce its x^s term
        row = [(row[i - 1] if i else 0) - c[s - i] * row[-1] for i in range(s)]
        if step % n == 0:
            rows.append(row)
    return rows


@PROPERTY
@given(MATRICES)
def test_u_is_the_krylov_determinant_of_the_powers_of_x(x):
    # At the roots, row k is a_i^(nk) = sum_l C_kl a_i^l: the Vandermonde matrix of the
    # a_i^n is C times that of the a_i, so det C = prod (a_j^n - a_i^n)/(a_j - a_i) = u_n.
    u = [e.u for e in generate_sequence(x, 10)]
    for n in range(1, 11):
        assert det_fraction(_krylov_rows(x, n)) == u[n - 1], n


@PROPERTY
@given(MATRICES, N_MAX)
def test_jacobian_blocks_are_u_and_its_cofactor(x, n_max):
    # det(Skew_n) = u_n, signed. Unless X is derogatory, one s x s block per call comes first,
    # inside _w_determinant, which returns det(X); a derogatory X takes the Sym block before
    # each Skew block, with determinant n^s det(X)^(n-1) u_n. The Sym block's determinant
    # holds for every X.
    blocks = []  # (dimension, value) of each determinant
    det = linalg._det_rows

    def recorded(rows):
        blocks.append((len(rows), det(rows)))
        return blocks[-1][1]

    with mock.patch.object(linalg, "_det_rows", recorded):
        dets = list(jacobian_determinants(x, n_max))
    entries, det_x, s = generate_sequence(x, n_max), det_bareiss(x), x.dim
    cofactors = [e.n ** s * det_x ** (e.n - 1) for e in entries]
    skew = [(s * (s - 1) // 2, e.u) for e in entries]
    if derogatory(x):
        assert blocks[1::2] == skew
        assert blocks[0::2] == [(s * (s + 1) // 2, c * e.u) for c, e in zip(cofactors, entries)]
    else:
        assert blocks[0][0] == s
        assert blocks[1:] == skew
        assert linalg._w_determinant(x.entries) == det_x
    assert dets == [e.jacobian_det for e in entries]
    for e, c in zip(entries[:3], cofactors):
        assert det_fraction(sym_block(x, e.n)) == c * e.u, e.n


@PROPERTY
@given(MATRICES)
def test_the_invariant_symmetric_matrices_have_dimension_s_exactly_when_x_is_cyclic(x):
    # W = {S symmetric : XS = SX^T} has dim W >= s, with equality exactly when I, X, ...,
    # X^(s-1) are independent: the guard of the s x s block of the Jacobian oracle, which
    # _w_determinant signals by returning None.
    assert (linalg._w_determinant(x.entries) is None) == derogatory(x)


@PROPERTY
@given(MATRICES)
def test_x_on_the_invariant_symmetric_matrices_has_determinant_det_x(x):
    # For a nonderogatory X, R: S -> XS on W has det(R) = det(X): the theorem that lets the
    # Jacobian oracle check the W factor of det J_n once per call instead of stepping it at
    # every n.
    assume(not derogatory(x))
    assert linalg._w_determinant(x.entries) == det_bareiss(x)


@PROPERTY
@given(MATRICES.filter(lambda x: x.dim <= 3))
def test_jacobian_determinants_equal_sympy_determinants(x):
    sympy = pytest.importorskip("sympy")
    assert list(jacobian_determinants(x, 6)) == [
        sympy.Matrix(jacobian_power_map(x, n).entries).det() for n in range(1, 7)]


@PROPERTY
@given(MATRICES, N_MAX)
def test_verify_divisibility_passes_on_every_pair(x, n_max):
    entries = generate_sequence(x, n_max)
    pairs = sum(n_max // n - 1 for n in range(1, n_max + 1))
    for column in COLUMNS:
        report = verify_divisibility(entries, column)
        assert report.passed, column
        assert report.pairs_checked == pairs, column


# 2x2 blocks of finite order with two distinct eigenvalues a, b: the reflections (order 2)
# and the rotations of order 4, 3 and 6. a^n = b^n at every even n, or at every n that 3
# divides, so u_6 = 0 for each.
FINITE_ORDER = st.sampled_from(([[0, 1], [1, 0]], [[1, 0], [0, -1]], [[0, -1], [1, 0]],
                                [[0, -1], [1, -1]], [[1, -1], [1, 0]]))


def _block_diagonal(blocks):
    size = sum(map(len, blocks))
    rows, offset = [], 0
    for block in blocks:
        rows += [[0] * offset + row + [0] * (size - offset - len(block)) for row in block]
        offset += len(block)
    return rows


# A finite-order block and a drawn block of size 0..2, in either order.
WITH_ZERO_ROWS = (st.tuples(FINITE_ORDER, st.integers(0, 2).flatmap(_square))
                  .flatmap(st.permutations).map(_block_diagonal).map(IntMatrix))


@PROPERTY
@given(WITH_ZERO_ROWS, st.integers(6, 12))
def test_zero_rows_of_finite_order_blocks(x, n_max):
    entries = generate_sequence(x, n_max)
    assert entries[5].u == 0
    assert [e.jacobian_det for e in entries] == list(jacobian_determinants(x, n_max))
    zero = [e.zero for e in entries]
    for column in COLUMNS:
        assert [e.value(column) == 0 for e in entries] == zero, column
        assert [f.sign == 0 for f in factor_table(entries, column)] == zero, column


BIG = st.integers(-10 ** 12, 10 ** 12)


@PROPERTY
@given(st.integers(1, 8).flatmap(lambda s: _square(s, st.one_of(ENTRY, BIG))))
def test_char_poly_interpolates_det_of_t_minus_x(rows):
    # Its values at t = 0..s fix a monic polynomial of degree s.
    f = char_poly(IntMatrix(rows))
    assert f.degree == len(rows)
    for t in range(len(rows) + 1):
        value = reduce(lambda acc, c: acc * t + c, f.coefficients)
        assert value == det_fraction([[t * (i == j) - v for j, v in enumerate(row)]
                                      for i, row in enumerate(rows)]), t


def _rank_deficient(drawn):
    """The last row replaced by a combination of the rows kept (a zero row at s = 1)."""
    rows, a, b = drawn
    kept = rows[:-1]
    last = [a * u + b * v for u, v in zip(kept[0], kept[-1])] if kept else [0]
    return [*kept, last]


DET_DIM = st.integers(1, 9)
SPARSE = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2, -3))  # mostly zero
DET_ROWS = st.one_of(
    DET_DIM.flatmap(_square),
    DET_DIM.flatmap(lambda s: _square(s, SPARSE)),
    st.tuples(DET_DIM.flatmap(_square), ENTRY, ENTRY).map(_rank_deficient),
    DET_DIM.flatmap(lambda s: _square(s, st.integers(-10 ** 30, 10 ** 30))),
)


@PROPERTY
@given(DET_ROWS)
def test_det_bareiss_equals_elimination_over_the_rationals(rows):
    assert det_bareiss(IntMatrix(rows)) == det_fraction(rows)


def test_the_empty_determinant_is_one():
    # u_n at degree 1 and the Skew block at s = 1 are 0 x 0 determinants.
    assert linalg._det_rows([]) == 1


@pytest.mark.parametrize("a", range(-3, 4))
def test_one_by_one_gives_n_times_a_to_the_n_minus_1(a):
    x = IntMatrix([[a]])
    want = [n * a ** (n - 1) for n in range(1, 11)]  # 0 ** 0 == 1
    entries = generate_sequence(x, 10)
    assert [e.u for e in entries] == [1] * 10
    assert [e.jacobian_det for e in entries] == want
    assert list(jacobian_determinants(x, 10)) == want
