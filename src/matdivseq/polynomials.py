"""Characteristic polynomials and generalized Lucas numbers.

Everything here stays in exact integer arithmetic. Eigenvalues are never
materialized: the characteristic polynomial comes from the
Faddeev-LeVerrier recurrence, and the generalized Lucas numbers are
Jacobi-Trudi determinants of the complete homogeneous sums of its roots.
The power sums, power polynomials and discriminants those numbers are
checked against live in ``tests/helpers.py`` as an independent oracle.

Coefficients are stored leading-first, so ``(1, -3, -3, -1)`` is
``x^3 - 3x^2 - 3x - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .linalg import IntMatrix, _det_rows, _exact


@dataclass(frozen=True)
class MonicIntPolynomial:
    """Monic polynomial with integer coefficients, degree >= 1."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) < 2:
            raise ValueError("degree must be at least 1")
        if coeffs[0] != 1:
            raise ValueError("leading coefficient must be 1")
        for c in coeffs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError("integer coefficients required")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __str__(self) -> str:
        parts = []
        d = self.degree
        for i, c in enumerate(self.coefficients):
            if c == 0:
                continue
            power = d - i
            mag = abs(c)
            if power == 0:
                term = str(mag)
            elif power == 1:
                term = "x" if mag == 1 else f"{mag}x"
            else:
                term = f"x^{power}" if mag == 1 else f"{mag}x^{power}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)  # the leading term is always there


def char_poly(x: IntMatrix) -> MonicIntPolynomial:
    """Characteristic polynomial det(tI - X), monic of degree ``x.dim``.

    Uses the Faddeev-LeVerrier recurrence ``M_(k+1) = X M_k + c_k I``,
    ``c_(k+1) = -tr(X M_(k+1)) / (k+1)``, on row lists: no matrix is built.
    M_1 = I, so X M_1 is X itself; each later step makes one product X M_k,
    s - 1 in all, whose trace gives c_k and which starts the next M. Each
    division is exact for every integer matrix, so a remainder is a hard error.
    """
    rows = x.entries
    s = len(rows)
    coeffs = [1, -x.trace]
    xm = [list(row) for row in rows]  # X M_1
    for k in range(2, s + 1):
        for i in range(s):
            xm[i][i] += coeffs[k - 1]  # now M_k
        m_cols = tuple(zip(*xm))
        xm = [[sum(map(mul, row, col)) for col in m_cols] for row in rows]
        coeffs.append(_exact(-sum(xm[i][i] for i in range(s)), k))
    return MonicIntPolynomial(tuple(coeffs))


def generalized_lucas(f: MonicIntPolynomial, ns: Sequence[int]) -> tuple[int, ...]:
    """u_n = prod_(i<j) (a_i^n - a_j^n)/(a_i - a_j) over the roots a_i of ``f``, per n in ``ns``.

    An integer: the Lucas U_n for degree 2, and 1 for degree 1, where the
    Jacobi-Trudi determinant below is the 0 x 0 one. A pair of
    equal roots a contributes the factor n a^(n-1), so u_n is 0 exactly
    when a_i^n = a_j^n for two unequal roots, or when 0 is a repeated root
    and n >= 2. With distinct roots u_n^2 is the discriminant ratio
    disc(g_n)/disc(f), g_n having the n-th powers of the roots of ``f``; the
    tests check it against the power-sum oracle in ``tests/helpers.py``.

    u_n is the Schur polynomial s_((n-1)(d-1, ..., 1, 0)) of the roots
    (bialternant formula), so by Jacobi-Trudi it is (-1)^((d-1)(d-2)/2),
    the sign of reversing d-1 rows, times the (d-1) x (d-1) determinant with
    rows ``h_(n r - d + 1), ..., h_(n r - 1)`` for r = 1, ..., d-1, h_k the
    complete homogeneous sums (0 for k < 0). The smallest row leads because
    after each pass Bareiss holds minors of the leading rows bordered by one
    later row: the largest row, with the most digits, enters only its own
    row's minors and no pivot before the last pass.
    With ``f = x^d + c_1 x^(d-1) + ... + c_d``, h_0 = 1 and
    ``h_k = -(c_1 h_(k-1) + ... + c_d h_(k-d))``: one division-free pass
    serves every n, and no discriminant is involved.
    """
    ns = tuple(ns)
    if any(n < 1 for n in ns):
        raise ValueError("n must be positive")
    d = f.degree
    c = f.coefficients[1:]
    h = [0] * (d - 1) + [1]  # h[k + d - 1] is h_k
    for _ in range(1, (d - 1) * max(ns, default=0)):
        h.append(-sum(map(mul, c, reversed(h[-d:]))))
    sign = (-1) ** ((d - 1) * (d - 2) // 2)
    return tuple(sign * _det_rows([h[n * r:n * r + d - 1] for r in range(1, d)]) for n in ns)
