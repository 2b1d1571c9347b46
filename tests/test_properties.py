"""Property-based differential tests of the closed-form table against its oracles.

hypothesis draws small integer matrices, s = 1..4 with entries in -3..3,
plus the shapes where the closed form is most fragile: zero, scalar,
strictly upper-triangular (nilpotent), Jordan block, repeated row
(singular) and negative determinant. Every property compares two routes
that share no step: the closed form against the Jacobian determinant and
the 2x2 Lucas form, the per-table factorizations against ``factorize`` of
each value, and the divisibility check against the count of its pairs.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from matdivseq import (IntMatrix, det_bareiss, factor_table, factorize,
                       generate_sequence, jacobian_determinant, lucas_2x2, verify_divisibility)
from matdivseq.linalg import jacobian_determinants
from matdivseq.sequences import COLUMNS

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
@given(MATRICES, N_MAX)
def test_verify_divisibility_passes_on_every_pair(x, n_max):
    entries = generate_sequence(x, n_max)
    pairs = sum(n_max // n - 1 for n in range(1, n_max + 1))
    for column in COLUMNS:
        report = verify_divisibility(entries, column)
        assert report.passed, column
        assert report.pairs_checked == pairs, column
