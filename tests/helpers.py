"""Shared test utilities: independent oracles and random matrix generators.

The oracles are two determinants, by cofactor expansion and by Gaussian
elimination over exact rationals, and the power-sum algebra the closed
form's generalized Lucas numbers u_n are checked against: power sums by
Newton's identities and their inverse, power polynomials (the n-th
powers of the roots), discriminants as Hankel determinants of power sums,
and Sylvester resultants. With distinct roots u_n^2 is the discriminant
ratio ``discriminant(power_polynomial(f, n)) // discriminant(f)``.
``derogatory`` tells whether I, X, ..., X^(s-1) are linearly dependent,
``sym_block`` is the block of M_n = sum_k X^k (x) X^(n-1-k) on symmetric
matrices, and ``_w_determinant`` is the determinant of S -> XS on the
symmetric S with XS = SX^T. None of this runs in the package's routes.
``record_det_rows`` records the determinants a module takes, and
``check_oracle_blocks`` states the ones the Jacobian oracle must take.

``table_json`` is the oracle of ``table --format json``: the table's
payload as a dict, written by ``json.dumps(payload, indent=2)``.

``lucas_split_per_prime`` is the p-1/p+1 split with its stage 1 run one
Lucas ladder and one gcd per stage-1 prime power, the reference the
chunked stage 1 of ``factorint._lucas_split`` must agree with.
``factor_rough_restarting`` is ``factorint._factor_rough`` with every
split running the stages on both pieces from the start, the reference a
stage continued on its cofactor must agree with.
"""

import json
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import mul
from math import gcd
from typing import Sequence
from unittest import mock

from matdivseq import (IntMatrix, MonicIntPolynomial, det_bareiss, factorint, mat_add, mat_mul,
                       mat_pow)
from matdivseq.linalg import _det_rows, _exact


def det_cofactor(rows):
    """Naive cofactor-expansion determinant. Exponential; dim <= 4 only.

    Kept deliberately independent of the fraction-free implementation so
    the two can check each other.
    """
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * det_cofactor(minor)
    return total


def det_fraction(rows):
    """Determinant by Gaussian elimination over ``Fraction``; any dimension.

    Divides by each pivot exactly in the rationals, so it shares no step
    with the fraction-free integer elimination it checks.
    """
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    assert det.denominator == 1
    return det.numerator


def derogatory(x: IntMatrix) -> bool:
    """Whether I, X, ..., X^(s-1) are linearly dependent: their Gram matrix is singular."""
    flat = [[v for row in mat_pow(x, k).entries for v in row] for k in range(x.dim)]
    return det_fraction([[sum(map(mul, u, v)) for v in flat] for u in flat]) == 0


def _w_determinant(x: Sequence[Sequence[int]]) -> int | None:
    """det(R), R being S -> XS on W = {S symmetric : XS = SX^T}; None when dim W > s.

    A symmetric S has the coordinates S_pq, p <= q, ordered by q, then p, so
    S_pq is coordinate q(q+1)/2 + p; phi(S) = XS - SX^T is skew and is read
    at its entries (a, b), a < b. Fraction-free Gauss-Jordan elimination of
    phi (a nonzero remainder raises ``AssertionError``) leaves D * I on its
    pivot columns, D the last pivot (1 when phi = 0). Its free columns F
    number dim W. When there are more than s, X is derogatory. Otherwise the
    kernel vector of free column f, D at f and, at the pivot column of row i,
    minus row i's entry in column f, makes an integer basis B of W with
    B_F = D * I, and det(R) = det((XB)_F) / D^s, a division that must be exact.
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
    if len(free) > s:
        return None
    at = [[max(c, q) * (max(c, q) + 1) // 2 + min(c, q) for q in range(s)] for c in range(s)]
    xb_f = []  # row j: the coordinates F of X S_j, S_j the j-th matrix of B
    for f in free:
        b = [0] * len(pairs)
        b[f] = prev
        for row, c in zip(m, pivots):
            b[c] = -row[f]
        xb_f.append([sum(x[p][c] * b[at[c][q]] for c in range(s))
                     for p, q in map(pairs.__getitem__, free)])
    return _exact(_det_rows(xb_f), prev ** s)


def sym_block(x: IntMatrix, n: int) -> list[list[int]]:
    """M_n = sum_k X^k (x) X^(n-1-k) on symmetric matrices: an s(s+1)/2 square.

    Column (a, b), a <= b, is sum_k X^(n-1-k) E (X^T)^k for E = E_ab + E_ba
    (E_aa when a = b), and row (p, q), p <= q, reads its entry (p, q). Its
    determinant is n^s det(X)^(n-1) u_n.
    """
    s = x.dim
    pairs = [(p, q) for q in range(s) for p in range(q + 1)]
    powers = [mat_pow(x, k) for k in range(n)]
    transposed = [p.transpose() for p in powers]
    columns = []
    for a, b in pairs:
        e = IntMatrix([[int((i, j) in {(a, b), (b, a)}) for j in range(s)] for i in range(s)])
        image = reduce(mat_add, (mat_mul(mat_mul(powers[n - 1 - k], e), transposed[k])
                                 for k in range(n)))
        columns.append([image.entries[p][q] for p, q in pairs])
    return [list(row) for row in zip(*columns)]


@contextmanager
def record_det_rows(module):
    """Within the block, ``module._det_rows`` appends the (size, value) of each
    determinant it takes to the list yielded."""
    dets = []
    det = module._det_rows

    def recorded(rows):
        dets.append((len(rows), det(rows)))
        return dets[-1][1]

    with mock.patch.object(module, "_det_rows", recorded):
        yield dets


def check_oracle_blocks(dets, x: IntMatrix, det_x: int, us: Sequence[int]) -> None:
    """``dets``, the (size, value) of each determinant ``linalg.jacobian_determinants(x,
    len(us))`` took, given det(X) and u_1, u_2, ..., must be: X itself, with value det(X),
    once per call, then Skew_n for each n >= 2, with value u_n (0 x 0 at s = 1). J_1 = I
    takes none.
    """
    skew = x.dim * (x.dim - 1) // 2
    assert dets == [(x.dim, det_x)] + [(skew, u) for u in us[1:]], x.fingerprint()


def random_matrix(rng, dim, lo=-5, hi=5):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(dim)] for _ in range(dim)])


def unimodular_pair(rng, dim, ops=8):
    """Random unimodular matrix with its exact inverse.

    Built from elementary row operations (adds and swaps), so the
    determinant is +-1 and the inverse is assembled from the inverse
    operations in reverse order.
    """
    p = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    trail = []
    for _ in range(ops):
        if rng.random() < 0.25:
            i, j = rng.sample(range(dim), 2)
            p[i], p[j] = p[j], p[i]
            trail.append(("swap", i, j))
        else:
            i, j = rng.sample(range(dim), 2)
            c = rng.randint(-2, 2)
            for k in range(dim):
                p[i][k] += c * p[j][k]
            trail.append(("add", i, j, c))
    q = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for op in reversed(trail):
        if op[0] == "swap":
            _, i, j = op
            q[i], q[j] = q[j], q[i]
        else:
            _, i, j, c = op
            for k in range(dim):
                q[i][k] -= c * q[j][k]
    pm = IntMatrix(tuple(tuple(r) for r in p))
    qm = IntMatrix(tuple(tuple(r) for r in q))
    assert mat_mul(pm, qm) == IntMatrix.identity(dim)
    return pm, qm


class NotRealizableError(ValueError):
    """Raised when power sums do not belong to any monic integer polynomial."""


@dataclass(frozen=True)
class PowerSums:
    """Power sums p_0..p_N of the roots of a monic integer polynomial.

    ``values[0]`` is p_0, the number of roots, i.e. the polynomial degree.
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("p_0 is required")
        if vals[0] < 1:
            raise ValueError("p_0 must equal a positive degree")

    @property
    def count(self) -> int:
        return len(self.values) - 1


def derivative(f: MonicIntPolynomial) -> tuple[int, ...]:
    """Leading-first coefficients of the derivative of ``f`` (not monic)."""
    d = f.degree
    return tuple(f.coefficients[i] * (d - i) for i in range(d))


def power_sums(f: MonicIntPolynomial, count: int) -> PowerSums:
    """Power sums p_0..p_count of the roots of ``f`` via Newton's identities.

    With ``f = x^d + a_1 x^(d-1) + ... + a_d`` and ``a_k = 0`` for k > d,
    ``p_k = -(a_1 p_(k-1) + ... + a_(k-1) p_1) - k a_k``: all values are
    integers, no division occurs.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    d = f.degree
    a = f.coefficients
    p = [d]
    for k in range(1, count + 1):
        acc = -sum(a[i] * p[k - i] for i in range(1, min(k, d + 1)))
        if k <= d:
            acc -= k * a[k]
        p.append(acc)
    return PowerSums(tuple(p))


def poly_from_power_sums(p: PowerSums, degree: int) -> MonicIntPolynomial:
    """The unique monic polynomial of the given degree with power sums p_1..p_d.

    Inverse Newton identities divide by k at step k; when that division is
    not exact no monic integer polynomial has these power sums and
    :class:`NotRealizableError` is raised.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    if p.count < degree:
        raise ValueError("need power sums up to the requested degree")
    e = [1]
    for k in range(1, degree + 1):
        acc = sum((-1) ** (i - 1) * e[k - i] * p.values[i] for i in range(1, k + 1))
        q, r = divmod(acc, k)
        if r:
            raise NotRealizableError(f"power sums are not realizable over the integers "
                                     f"(division by {k} leaves remainder {r})")
        e.append(q)
    return MonicIntPolynomial(tuple((-1) ** i * e[i] for i in range(degree + 1)))


def power_polynomial(f: MonicIntPolynomial, n: int) -> MonicIntPolynomial:
    """Monic polynomial whose roots are the n-th powers of the roots of ``f``.

    The power sums of the new roots are p_n, p_2n, ..., p_dn of the old
    ones, so this is power sum extraction followed by inverse Newton.
    """
    if n < 1:
        raise ValueError("n must be positive")
    d = f.degree
    p = power_sums(f, d * n).values
    return poly_from_power_sums(PowerSums((d,) + p[n:d * n + 1:n]), d)


def sylvester_matrix(f: Sequence[int], g: Sequence[int]) -> IntMatrix:
    """Sylvester matrix of two leading-first coefficient sequences."""
    m, n = len(f) - 1, len(g) - 1
    if m < 1 or n < 1:
        raise ValueError("both polynomials must have degree at least 1")
    size = m + n
    rows = []
    for i in range(n):
        rows.append(tuple([0] * i + list(f) + [0] * (size - m - 1 - i)))
    for j in range(m):
        rows.append(tuple([0] * j + list(g) + [0] * (size - n - 1 - j)))
    return IntMatrix(tuple(rows))


def _coefficients_of(g) -> tuple[int, ...]:
    coeffs = tuple(getattr(g, "coefficients", g))
    if len(coeffs) < 2:
        raise ValueError("degree must be at least 1")
    if coeffs[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    return coeffs


def resultant(f: MonicIntPolynomial, g) -> int:
    """Exact resultant of ``f`` and ``g`` (a polynomial or coefficient sequence).

    Computed as the determinant of the Sylvester matrix. For monic ``f``
    this equals the product of ``g`` evaluated at the roots of ``f``.
    """
    return det_bareiss(sylvester_matrix(f.coefficients, _coefficients_of(g)))


def discriminant(f: MonicIntPolynomial) -> int:
    """Discriminant of monic ``f``: the squared product of root differences.

    Zero exactly when ``f`` has a repeated root. With V the Vandermonde
    matrix ``V[k][i] = a_i^k`` of the roots a_i, ``prod_(i<j) (a_i - a_j)^2
    = det(V)^2 = det(V V^T)``, and ``V V^T`` is the d x d Hankel matrix
    ``[p_(j+k)]`` of the power sums p_0..p_(2d-2), so the value is a Bareiss
    determinant of that integer matrix. It equals
    ``(-1)^(d(d-1)/2) * resultant(f, derivative(f))``, the Sylvester form.
    """
    d = f.degree
    if d < 2:
        raise ValueError("discriminant requires degree at least 2")
    p = power_sums(f, 2 * d - 2).values
    return det_bareiss(IntMatrix(tuple(p[i:i + d] for i in range(d))))


def table_json(doc, entries, factors, column: str) -> str:
    """``json.dumps(payload, indent=2)`` of a table's rows and their factorizations."""
    payload = {"name": doc.name, "matrix": [list(row) for row in doc.matrix.entries],
               "column": column, "entries": []}
    for e, f in zip(entries, factors):
        item = {"n": e.n, "reduced": str(e.reduced), "jacobian_det": str(e.jacobian_det),
                "n_squared_value": str(e.n_squared_value), "fallback_used": e.fallback_used}
        if f is not None:
            item["factorization"] = {
                "sign": f.sign,
                "factors": [[str(p), k] for p, k in f.factors],
                "cofactor": None if f.cofactor is None else str(f.cofactor),
                "display": str(f),
            }
        payload["entries"].append(item)
    return json.dumps(payload, indent=2)


def lucas_split_per_prime(n: int, v: int) -> int | None:
    """``factorint._lucas_split(n, v)`` with a ladder and a gcd per stage-1 prime."""
    steps, plan = factorint._stage_plan()[:2]
    _lucas_v, _D = factorint._lucas_v, factorint._D
    for p in steps:
        w = _lucas_v(v, p, n)
        g = gcd(w - 2, n)
        if g == n:
            return None
        if g > 1:
            return g
        v = w
    v2 = (v * v - 2) % n
    baby = [v, (v * v2 - v) % n]  # V_j for odd j: V_(j+2) = V_j V_2 - V_(j-2)
    while len(baby) < _D // 4:
        baby.append((baby[-1] * v2 - baby[-2]) % n)
    vd = _lucas_v(v, _D, n)
    k, prev, cur = 0, vd, 2  # V_((k-1)D), V_kD at k = 0: V_-D = V_D as Q = 1
    acc = 1
    for target, js in plan:
        while k < target:
            prev, cur = cur, (cur * vd - prev) % n
            k += 1
        for i in js:
            acc = acc * (cur - baby[i]) % n
        g = gcd(acc, n)
        if g == 1:
            continue
        if g < n:
            return g
        for i in js:
            g = gcd(cur - baby[i], n)
            if 1 < g < n:
                return g
        return None
    return None


def factor_rough_restarting(m: int, mult: int, counts: dict[int, int],
                            budget: list[int]) -> int:
    """``factorint._factor_rough(m, mult, counts, budget)``, each stage run from the start.

    Every p-1/p+1 run is ``lucas_split_per_prime`` on the piece it splits, so no
    stage continues on a cofactor; the charges, the seed order, rho and the
    recursion are those of ``_factor_rough``.
    """
    if factorint.is_prime(m):
        counts[m] = counts.get(m, 0) + mult
        return 1
    for k in range(2, m.bit_length() // 19 + 1):  # the least k is prime
        root = factorint._exact_root(m, k)
        if root ** k == m:
            return factor_rough_restarting(root, mult * k, counts, budget)
    cost = factorint._stage_plan()[2]
    d = None
    for a, b in factorint._SEEDS:
        if budget[0] < cost:
            break
        budget[0] -= cost
        d = lucas_split_per_prime(m, a * pow(b, -1, m) % m)
        if d is not None:
            break
    if d is None:
        d = factorint._brent_rho(m, budget)
    if d is None:
        return m ** mult
    return (factor_rough_restarting(d, mult, counts, budget)
            * factor_rough_restarting(m // d, mult, counts, budget))
