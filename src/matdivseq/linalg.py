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
    at index (i s + p, j s + q), is entry ((j, p), (i, q)) of M_n. The rows
    of M_n are stepped as packed integers (see :func:`_packed_steps`, with
    the identity Sigma), unpacked once, at n, and shuffled. With the
    column-stacking ``vec`` convention it satisfies
    ``J_n . vec(E) == vec(power_map_derivative(x, E, n))``. Only one M is
    held at a time, alongside the current power of X.
    """
    if n < 1:
        raise ValueError("n must be positive")
    s = x.dim
    identity = [[int(r == c) for c in range(s * s)] for r in range(s * s)]
    for rows, unpack in _packed_steps(x.entries, identity, n):
        pass
    m = [unpack(row) for row in rows]
    return IntMatrix([[m[j * s + p][i * s + q] for j in range(s) for q in range(s)]
                      for i in range(s) for p in range(s)])


def jacobian_determinants(x: IntMatrix, n_max: int) -> Iterator[int]:
    """Lazily yield det J_1, ..., det J_(n_max) from two blocks, of size s and s(s-1)/2.

    X^T is similar to X (O. Taussky and H. Zassenhaus, "On the similarity
    transformation between a matrix and its transpose", Pacific J. Math. 9
    (1959)), so J_n = sum_k (X^T)^k (x) X^(n-1-k) is similar to
    M_n = sum_k X^k (x) X^(n-1-k), the one operator that :func:`_packed_steps`
    steps for both routes (J_n is an index shuffle of it). M_n is
    the map E -> sum_k X^(n-1-k) E (X^T)^k. It takes skew matrices to skew
    ones: Skew is M_n on the basis E_pq - E_qp (p < q), and det(Skew) = u_n.
    It takes symmetric matrices to symmetric ones, and keeps
    W = {S symmetric : XS = SX^T}, where it is S -> n X^(n-1) S, with
    determinant n^s det(X)^(n-1). phi(S) = XS - SX^T maps symmetric
    matrices to skew ones, commutes with M_n and has kernel W. dim W >= s,
    with equality exactly when I, X, ..., X^(s-1) are independent; then,
    by rank-nullity, phi maps the symmetric matrices onto the skew ones, and
    det J_n = det(M_n on W) * det(Skew)^2, with
    det(M_n on W) = det((M_n B)_F) / det(B_F) for the integer basis B of W
    and the s coordinates F of :func:`_symmetric_kernel`. When dim W > s (X
    derogatory: the zero and scalar matrices, diag(2, 2, 3), the all-ones
    matrix), det J_n = det(Sym) * det(Skew) instead, Sym being M_n on the
    basis E_pp, E_pq + E_qp (p < q).

    An image's coordinate (p, q) is its entry (p, q), at column-stacking
    index q*s + p. At s = 1 the Skew block is 0 x 0, with determinant 1. The
    rows of M_n are stepped already multiplied by Sigma = [Skew basis | B]
    (or [Skew basis | Sym basis]), so unpacking row (p, q) gives row (p, q)
    of both blocks. Both are integer matrices, eliminated as in
    :func:`det_bareiss`; a division by det(B_F) that is not exact raises
    ``AssertionError``.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    return _block_determinants(x.entries, n_max)


def _block_determinants(x: tuple[tuple[int, ...], ...], n_max: int) -> Iterator[int]:
    """det J_1, ..., det J_(n_max): the W (or Sym) block of each n, then its Skew block."""
    sigma, w_rows, skew_rows, scale, power = _block_basis(x)
    k = len(skew_rows)
    for rows, unpack in _packed_steps(x, sigma, n_max):
        needed = {r: unpack(rows[r]) for r in {*w_rows, *skew_rows}}
        w = _exact(_det_rows([needed[r][k:] for r in w_rows]), scale)
        yield w * _det_rows([needed[r][:k] for r in skew_rows]) ** power


def _block_basis(x: Sequence[Sequence[int]]
                 ) -> tuple[list[list[int]], list[int], list[int], int, int]:
    """Sigma, the rows of the W (or Sym) block and of Skew, det(B_F), and the power of det(Skew).

    Row r of Sigma is column-stacking index r of each basis matrix: the skew
    E_pq - E_qp (p < q), then B, or the symmetric E_pp, E_pq + E_qp when X
    is derogatory (with det(B_F) = 1 and power 1).
    """
    s = len(x)
    # Column-stacking indices (i, j) of entries (p, q) and (q, p), p <= q: row i of M_n
    # gives the coordinate (p, q) of an image.
    sym = [(q * s + p, p * s + q) for q in range(s) for p in range(q + 1)]
    skew = [(i, j) for i, j in sym if i != j]
    basis, free, pivot = _symmetric_kernel(x)
    scale, power = pivot ** s, 2
    if len(basis) > s:  # X is derogatory: phi does not map Sym onto Skew
        basis = [[int(c == k) for c in range(len(sym))] for k in range(len(sym))]
        free, scale, power = range(len(sym)), 1, 1
    coordinate = {r: k for k, pair in enumerate(sym) for r in pair}
    sigma = [[int(r == i) - int(r == j) for i, j in skew] + [b[coordinate[r]] for b in basis]
             for r in range(s * s)]
    return sigma, [sym[c][0] for c in free], [i for i, _ in skew], scale, power


def _symmetric_kernel(x: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """An integer basis B of W = {S symmetric : XS = SX^T}, its free coordinates F, and D.

    A symmetric S has the coordinates S_pq, p <= q, ordered by q, then p;
    phi(S) = XS - SX^T is skew and is read at its entries (a, b), a < b.
    Fraction-free Gauss-Jordan elimination of phi (a nonzero remainder
    raises ``AssertionError``) leaves D * I on its pivot columns, D the last
    pivot (1 when phi = 0). The kernel vector of free column f is D at f and,
    at the pivot column of row i, minus row i's entry in column f. So
    B_F = D * I.
    """
    s = len(x)
    pairs = [(p, q) for q in range(s) for p in range(q + 1)]
    # S = E_pq + E_qp (E_pp when p = q): (XS)_ab sums X_ac over its cells (c, b), and
    # (SX^T)_ab sums X_bd over its cells (a, d).
    m = [[sum(x[a][c] * (d == b) - x[b][d] * (c == a) for c, d in {(p, q), (q, p)})
          for p, q in pairs] for a, b in pairs if a < b]
    pivots, prev = [], 1
    for c in range(len(pairs)):
        r = len(pivots)
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        row_r = m[r]
        pivot = row_r[c]
        for i, row in enumerate(m):
            if i != r:
                m[i] = [_exact(pivot * v - row[c] * v_r, prev) for v, v_r in zip(row, row_r)]
        prev = pivot
        pivots.append(c)
    free = [c for c in range(len(pairs)) if c not in pivots]
    basis = [[0] * len(pairs) for _ in free]
    for b, f in zip(basis, free):
        b[f] = prev
        for row, c in zip(m, pivots):
            b[c] = -row[f]
    return basis, free, prev


def _exact(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise AssertionError("non-exact division where exact division is guaranteed")
    return q


def _packed_steps(x: Sequence[Sequence[int]], sigma: list[list[int]],
                  n_max: int) -> Iterator[tuple[list[int], Callable]]:
    """Rows of M_n Sigma, M_n = sum_k X^k (x) X^(n-1-k), for n = 1..n_max, as packed ints.

    Both Jacobian routes read M_n: :func:`jacobian_power_map` shuffles it
    into J_n, and :func:`jacobian_determinants` takes its blocks. Row r of
    M_n Sigma is one integer sum_c v_c 2^(w c) of w-bit signed slots
    (Kronecker substitution: L. Kronecker, 1882; D. Harvey, "Faster
    polynomial multiplication via multipoint Kronecker substitution", J.
    Symbolic Comput. 44 (2009)), so a linear combination of rows is the same
    combination of their integers. M_1 Sigma = Sigma, and row (i, p) of
    ``M_(n+1) = (I (x) X) M_n + X^n (x) I`` is x_p . (rows (i, 0..s-1)) plus
    (X^n)_(i, .) . (Sigma rows (0..s-1, p)): 2s products of a packed row by
    one entry, s^2 rows per step.

    Entries of M_n are at most b_n, b_1 = 1, b_(n+1) = nu b_n + max|X^n|, nu the
    largest absolute row sum of X, so slot c of a row is at most b_n times
    the l1 norm of column c of Sigma, and every slot at most norm * b_n,
    norm the largest of those l1 norms. The slots widen, all rows repacked,
    before the step whose bound would overflow them, by enough for about
    eight more steps. Yields each n's rows with the function that unpacks a
    row into its slot values.
    """
    s, slots = len(x), len(sigma[0])
    norm = max(sum(abs(row[c]) for row in sigma) for c in range(slots))
    nu = max(sum(map(abs, row)) for row in x)
    x_cols = tuple(zip(*x))
    bound = norm  # norm * b_n
    w = _slot_width(bound)
    unpack = _unpacker(w, slots)
    rows = [_pack(row, w) for row in sigma]
    sig = [[rows[jb * s + p] for jb in range(s)] for p in range(s)]  # Sigma rows (., p)
    yield rows, unpack
    x_pow = x
    for _ in range(n_max - 1):
        bound = nu * bound + norm * max(abs(v) for row in x_pow for v in row)
        if _slot_width(bound) > w:  # about eight more steps' growth of room
            w = _slot_width(bound) + 8 * nu.bit_length()
            rows = [_pack(unpack(row), w) for row in rows]
            unpack = _unpacker(w, slots)
            sig = [[_pack(sigma[jb * s + p], w) for jb in range(s)] for p in range(s)]
        blocks = [rows[i * s:(i + 1) * s] for i in range(s)]
        rows = [sum(map(mul, x[p], blocks[i])) + sum(map(mul, x_pow[i], sig[p]))
                for i in range(s) for p in range(s)]
        yield rows, unpack
        x_pow = [[sum(map(mul, row, col)) for col in x_cols] for row in x_pow]


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
