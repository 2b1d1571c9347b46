"""Exact linear algebra over the integers.

Matrices are immutable, square, and hold native Python integers, so every
operation is exact regardless of how large the entries grow. No floats,
no modular shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Callable, Iterator, Sequence


@dataclass(frozen=True)
class IntMatrix:
    """Square integer matrix with value semantics.

    ``entries`` is stored row-major as a tuple of tuples; any nested
    iterable of ints is accepted and normalized on construction.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if not rows:
            raise ValueError("matrix must have at least one row")
        if any(len(row) != len(rows) for row in rows):  # before any entry is checked
            raise ValueError("matrix must be square")
        for row in rows:
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ValueError("integer entries required")

    @classmethod
    def identity(cls, dim: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(dim))
                         for i in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(self.dim))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)))

    def fingerprint(self) -> str:
        """Compact canonical description, e.g. ``2x2 [[1,1],[1,0]]``."""
        rows = ",".join("[" + ",".join(str(v) for v in row) + "]"
                        for row in self.entries)
        return f"{self.dim}x{self.dim} [{rows}]"

    def __str__(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in self.entries)


def mat_add(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return IntMatrix(tuple(tuple(x + y for x, y in zip(ra, rb))
                           for ra, rb in zip(a.entries, b.entries)))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    bt = tuple(zip(*b.entries))
    return IntMatrix(tuple(tuple(sum(map(mul, row, col)) for col in bt)
                           for row in a.entries))


def mat_pow(x: IntMatrix, n: int) -> IntMatrix:
    """Exact n-th power by binary exponentiation; ``x**0`` is the identity."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    result = IntMatrix.identity(x.dim)
    base = x
    while n:
        if n & 1:
            result = mat_mul(result, base)
        n >>= 1
        if n:
            base = mat_mul(base, base)
    return result


def kronecker(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker product: block (i, j) of the result is ``a[i][j] * b``."""
    sa, sb = a.dim, b.dim
    rows = []
    for i in range(sa):
        arow = a.entries[i]
        for p in range(sb):
            brow = b.entries[p]
            rows.append(tuple(aij * bpq for aij in arow for bpq in brow))
    return IntMatrix(tuple(rows))


def vec(a: IntMatrix) -> tuple[int, ...]:
    """Column-stacking embedding of an s x s matrix into a length s^2 vector."""
    s = a.dim
    return tuple(a.entries[i][j] for j in range(s) for i in range(s))


def mat_vec(a: IntMatrix, v: Sequence[int]) -> tuple[int, ...]:
    if len(v) != a.dim:
        raise ValueError("dimension mismatch")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a.entries)


def det_bareiss(a: IntMatrix) -> int:
    """Exact signed determinant by two-step fraction-free (Bareiss) elimination.

    The two-step form of E. H. Bareiss, "Sylvester's identity and multistep
    integer-preserving Gaussian elimination", Math. Comp. 22 (1968): each
    pass removes two columns. Before the pass at column k, entry (i, j) with
    i, j >= k is the leading k x k minor bordered by row i and column j, and
    ``prev`` is that leading minor. By Sylvester's identity the leading
    (k+2)-minor is ``c0 = (a_kk a_(k+1)(k+1) - a_(k+1)k a_k(k+1)) / prev``, and
    every later row becomes ``a_ij <- (a_ij c0 + a_kj c_i2 + a_(k+1)j c_i1) / prev``
    with multipliers ``c_i1`` and ``c_i2``, row i's 2 x 2 minors on columns
    k, k+1 with row k and with row k+1, each divided by ``prev`` as well.
    Then ``prev = c0``.

    A zero a_kk is swapped with a later row. A zero 2 x 2 pivot minor is
    mended by swapping in a later row whose minor with row k is nonzero;
    when there is none, columns k and k+1 are proportional on rows k and
    below, and the determinant is 0. An odd dimension ends on the last
    diagonal entry, an even one on the c0 of its last pass, which is one
    single-column step.

    Every division (c0, both multipliers, each entry) is exact by
    construction; a nonzero remainder would mean the elimination is broken,
    so it raises immediately. :func:`_det_rows` of an empty row list is 1,
    the determinant of the 0 x 0 matrix.
    """
    return _det_rows([list(row) for row in a.entries])


def _det_rows(m: list[list[int]]) -> int:
    """:func:`det_bareiss` on a list of row lists, which it overwrites."""
    n = len(m)
    sign = 1
    prev = 1
    for k in range(0, n - 1, 2):
        k1 = k + 1
        if m[k][k] == 0:
            pivot = next((i for i in range(k1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        row_k = m[k]
        akk, akk1 = row_k[k], row_k[k1]
        minor = akk * m[k1][k1] - m[k1][k] * akk1
        if minor == 0:
            for i in range(k + 2, n):
                minor = akk * m[i][k1] - m[i][k] * akk1
                if minor:
                    m[k1], m[i] = m[i], m[k1]
                    sign = -sign
                    break
            else:
                return 0
        c0, r = divmod(minor, prev)
        if r:
            raise AssertionError("non-exact division in fraction-free elimination")
        row_k1 = m[k1]
        ak1k, ak1k1 = row_k1[k], row_k1[k1]
        for i in range(k + 2, n):
            row_i = m[i]
            aik, aik1 = row_i[k], row_i[k1]
            ci1, r1 = divmod(aik * akk1 - aik1 * akk, prev)
            ci2, r2 = divmod(aik1 * ak1k - aik * ak1k1, prev)
            if r1 or r2:
                raise AssertionError("non-exact division in fraction-free elimination")
            for j in range(k + 2, n):
                q, r = divmod(row_i[j] * c0 + row_k[j] * ci2 + row_k1[j] * ci1, prev)
                if r:
                    raise AssertionError("non-exact division in fraction-free elimination")
                row_i[j] = q
        prev = c0
    return sign * (prev if n % 2 == 0 else m[n - 1][n - 1])


def jacobian_power_map(x: IntMatrix, n: int) -> IntMatrix:
    """Derivative of the power map X -> X^n as an s^2 x s^2 integer matrix.

    J_n = sum_k (X^T)^k (x) X^(n-1-k) is M_n = sum_k X^k (x) X^(n-1-k) with
    its first Kronecker factor transposed: entry ((i, p), (j, q)) of J_n,
    at index (i s + p, j s + q), is entry ((j, p), (i, q)) of M_n. M_n is
    L_n on all s^2 matrices, whose rows :func:`_compound_steps` steps (sign
    0) as packed integers; they are unpacked once, at n, and shuffled. With
    the column-stacking ``vec`` convention it satisfies
    ``J_n . vec(E) == vec(power_map_derivative(x, E, n))``. Only one L_n is
    held at a time, alongside the current power of X.
    """
    if n < 1:
        raise ValueError("n must be positive")
    s = x.dim
    for rows, unpack in _compound_steps(x.entries, 0, n):
        pass
    m = [unpack(row) for row in rows]
    return IntMatrix([[m[j * s + p][i * s + q] for j in range(s) for q in range(s)]
                      for i in range(s) for p in range(s)])


def jacobian_determinants(x: IntMatrix, n_max: int) -> Iterator[int]:
    """Lazily yield det J_1, ..., det J_(n_max), each from an s(s-1)/2 block Skew_n.

    X^T is similar to X (O. Taussky and H. Zassenhaus, "On the similarity
    transformation between a matrix and its transpose", Pacific J. Math. 9
    (1959)), so J_n = sum_k (X^T)^k (x) X^(n-1-k) is similar to
    M_n = sum_k X^k (x) X^(n-1-k), the map L_n: E -> sum_k X^(n-1-k) E (X^T)^k.
    L_n takes symmetric matrices to symmetric ones and skew to skew. Over
    the eigenvalues a_1, ..., a_s of X, its eigenvalues there are
    q_n(a_i, a_j), q_n(a, b) = (a^n - b^n)/(a - b), over i <= j and over
    i < j, and q_n(a, a) = n a^(n-1). So Skew_n, L_n on the basis
    E_pq - E_qp (p < q), has det(Skew_n) = u_n, L_n on the symmetric
    matrices has determinant n^s det(X)^(n-1) det(Skew_n), and
    det J_n = n^s det(X)^(n-1) det(Skew_n)^2 for every integer X.

    J_1 = I, so det J_1 = 1. det(X) is taken once per call from X's rows,
    and Skew_n, which carries u_n, is stepped through every n by
    :func:`_compound_steps`, independently of the characteristic polynomial.
    An image's coordinate (p, q) is its entry (p, q). At s = 1 the Skew
    block is 0 x 0, with determinant 1. Every block is an integer matrix,
    eliminated as in :func:`det_bareiss`: a division that is not exact
    raises ``AssertionError``.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    return _block_determinants(x.entries, n_max)


def _block_determinants(x: tuple[tuple[int, ...], ...], n_max: int) -> Iterator[int]:
    """det J_1 = 1, then n^s det(X)^(n-1) det(Skew_n)^2 for n = 2..n_max, det(X) taken once."""
    s = len(x)
    skew = _compound_steps(x, -1, n_max)
    next(skew)  # Skew_1 = I
    yield 1
    det_x = _det_rows([list(row) for row in x])
    power = 1  # det(X)^(n-1)
    for n, (rows, unpack) in enumerate(skew, 2):
        power *= det_x
        yield n ** s * power * _det_rows(list(map(unpack, rows))) ** 2


def _exact(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise AssertionError("non-exact division where exact division is guaranteed")
    return q


def _compound_steps(x: Sequence[Sequence[int]], sign: int,
                    n_max: int) -> Iterator[tuple[list[int], Callable]]:
    """Rows of L_n on skew (``sign`` -1) or all (0) matrices, n = 1..n_max, packed.

    L_n(E) = sum_k X^(n-1-k) E (X^T)^k. Its coordinates are the pairs
    (p, q), ordered by q, then p: p < q on skew, and every p on all
    matrices. Column (p, q) is the image of E_pq + sign E_qp, and row (a, b)
    reads its entry (a, b). With sign 0 coordinate (p, q) is q s + p, the
    column-stacking ``vec`` index, and L_n is M_n = sum_k X^k (x) X^(n-1-k).
    L_1 = I, and L_(n+1)(E) = X L_n(E) + E (X^T)^n. L_n(E) is skew with E,
    so its entry (c, b) is minus its entry (b, c), and 0 on the diagonal.
    Row (a, b) of L_(n+1) is thus x_ac times row (c, b) of L_n,
    read through that mirror, summed over c, plus (X^n)_b . U[a] (see
    :func:`_units`), the packed row (a, b) of E (X^T)^n: on all matrices,
    M_(n+1) = (I (x) X) M_n + X^n (x) I, s + s products per row.

    Row r of L_n is one integer sum_c v_c 2^(w c) of w-bit signed slots
    (Kronecker substitution: L. Kronecker, 1882; D. Harvey, "Faster
    polynomial multiplication via multipoint Kronecker substitution",
    J. Symbolic Comput. 44 (2009)), so a linear combination of rows is the
    same combination of their integers. Entries of L_n are at most c_n,
    c_1 = 1, c_(n+1) = nu c_n + max|X^n|, nu the largest absolute row sum of
    X. The slots widen, all rows repacked, before the step whose bound would
    overflow them, by enough for about eight more steps. Yields each n's
    rows with the function that unpacks a row into its slot values.
    """
    s = len(x)
    pairs = [(p, q) for q in range(s) for p in range(q if sign else s)]
    slots = len(pairs)
    cells = [[None] * s for _ in range(s)]  # entry (a, c) of the basis: (coordinate, sign) or None
    for k, (p, q) in enumerate(pairs):
        if sign:
            cells[q][p] = (k, sign)
        cells[p][q] = (k, 1)
    x_l = []  # row (a, b) of X L_n: x_ac times row (c, b), one distinct coordinate per c
    for a, b in pairs:
        terms = [(v, cells[c][b]) for c, v in enumerate(x[a]) if v and cells[c][b]]
        x_l.append(([v * t for v, (_k, t) in terms], [k for _v, (k, _t) in terms]))
    nu = max(sum(map(abs, row)) for row in x)
    x_cols = tuple(zip(*x))
    bound = 1  # c_n
    w = _slot_width(bound)
    unpack = _unpacker(w, slots)
    rows = [1 << (w * k) for k in range(slots)]
    units = _units(cells, w)
    yield rows, unpack
    x_pow = x
    for _ in range(n_max - 1):
        bound = nu * bound + max(abs(v) for row in x_pow for v in row)
        if _slot_width(bound) > w:  # about eight more steps' growth of room
            w = _slot_width(bound) + 8 * nu.bit_length()
            rows = [_pack(unpack(row), w) for row in rows]
            unpack = _unpacker(w, slots)
            units = _units(cells, w)
        rows = [sum(map(mul, coefficients, map(rows.__getitem__, sources)))
                + sum(map(mul, x_pow[b], units[a]))
                for (coefficients, sources), (a, b) in zip(x_l, pairs)]
        yield rows, unpack
        x_pow = [[sum(map(mul, row, col)) for col in x_cols] for row in x_pow]


def _units(cells: list[list[tuple[int, int] | None]], w: int) -> list[list[int]]:
    """U[a][c]: entry (a, c) of each basis matrix of ``cells``, packed into a row of w-bit slots.

    That is row (a, c) of L_1 = I, and on skew matrices, for a > c, minus
    its mirror; 0 on the diagonal.
    """
    return [[cell[1] << (w * cell[0]) if cell else 0 for cell in row] for row in cells]


def _slot_width(bound: int) -> int:
    """Bits of a signed slot holding any value of magnitude at most ``bound``."""
    return bound.bit_length() + 1


def _pack(values: Sequence[int], w: int) -> int:
    return sum(v << (w * c) for c, v in enumerate(values) if v)


def _unpacker(w: int, slots: int) -> Callable[[int], list[int]]:
    """Unpack ``slots`` w-bit signed slots: add half of 2^w to every slot, then shift and mask."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    bias = half * (((1 << (w * slots)) - 1) // mask)
    shifts = range(0, w * slots, w)

    def unpack(v: int) -> list[int]:
        v += bias
        return [(v >> k & mask) - half for k in shifts]

    return unpack


def power_map_derivative(x: IntMatrix, e: IntMatrix, n: int) -> IntMatrix:
    """Directional derivative of X -> X^n at ``x`` in direction ``e``.

    Equals ``sum_{k=0}^{n-1} x^k e x^(n-1-k)``; for e = I this collapses
    to ``n * x^(n-1)``.
    """
    if e.dim != x.dim:
        raise ValueError("dimension mismatch")
    if n < 1:
        raise ValueError("n must be positive")
    x_pows = [IntMatrix.identity(x.dim)]
    for _ in range(n - 1):
        x_pows.append(mat_mul(x_pows[-1], x))
    total = None
    for k in range(n):
        term = mat_mul(mat_mul(x_pows[k], e), x_pows[n - 1 - k])
        total = term if total is None else mat_add(total, term)
    return total
