"""Characteristic polynomials, power sums, resultants, discriminants and Lucas numbers.

Everything here stays in exact integer arithmetic. Eigenvalues are never
materialized: symmetric functions of the roots are pushed around instead,
via Newton's identities. The discriminant is the determinant of the d x d
Hankel matrix of power sums, checked against the Sylvester resultant. The
generalized Lucas numbers are Jacobi-Trudi determinants of complete
homogeneous sums, checked against discriminants of power polynomials.

Coefficients are stored leading-first, so ``(1, -3, -3, -1)`` is
``x^3 - 3x^2 - 3x - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .linalg import IntMatrix, det_bareiss, mat_mul


class NotRealizableError(ValueError):
    """Raised when power sums do not belong to any monic integer polynomial."""


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

    def __call__(self, x: int) -> int:
        acc = 0
        for c in self.coefficients:
            acc = acc * x + c
        return acc

    def derivative(self) -> tuple[int, ...]:
        """Leading-first coefficients of the derivative (not monic)."""
        d = self.degree
        return tuple(self.coefficients[i] * (d - i) for i in range(d))

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
        return " ".join(parts) if parts else "0"


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


def char_poly(x: IntMatrix) -> MonicIntPolynomial:
    """Characteristic polynomial det(tI - X), monic of degree ``x.dim``.

    Uses the Faddeev-LeVerrier recurrence; the division by the step index
    is exact for every integer matrix, so a remainder is a hard error.
    """
    s = x.dim
    coeffs = [1]
    m = IntMatrix(tuple(tuple(0 for _ in range(s)) for _ in range(s)))
    for k in range(1, s + 1):
        xm = mat_mul(x, m)
        m = IntMatrix(tuple(tuple(xm.entries[i][j] + (coeffs[k - 1] if i == j else 0)
                                  for j in range(s))
                            for i in range(s)))
        t = mat_mul(x, m).trace
        q, r = divmod(-t, k)
        if r:
            raise AssertionError("non-exact division in characteristic polynomial recurrence")
        coeffs.append(q)
    return MonicIntPolynomial(tuple(coeffs))


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
    ``(-1)^(d(d-1)/2) * resultant(f, f')``, the Sylvester form.
    """
    d = f.degree
    if d < 2:
        raise ValueError("discriminant requires degree at least 2")
    p = power_sums(f, 2 * d - 2).values
    return det_bareiss(IntMatrix(tuple(p[i:i + d] for i in range(d))))


def generalized_lucas(f: MonicIntPolynomial, ns: Sequence[int]) -> tuple[int, ...]:
    """u_n = prod_(i<j) (a_i^n - a_j^n)/(a_i - a_j) over the roots a_i of ``f``, per n in ``ns``.

    An integer: the Lucas U_n for degree 2 and 1 for degree 1. A pair of
    equal roots a contributes the factor n a^(n-1), so u_n is 0 exactly
    when a_i^n = a_j^n for two unequal roots, or when 0 is a repeated root
    and n >= 2. With distinct roots u_n^2 is
    ``discriminant(power_polynomial(f, n)) // discriminant(f)``.

    u_n is the Schur polynomial s_((n-1)(d-1, ..., 1, 0)) of the roots
    (bialternant formula), so by Jacobi-Trudi it is the (d-1) x (d-1)
    determinant with rows ``h_(n r - d + 1), ..., h_(n r - 1)`` for
    r = d-1 down to 1, h_k the complete homogeneous sums (0 for k < 0).
    With ``f = x^d + c_1 x^(d-1) + ... + c_d``, h_0 = 1 and
    ``h_k = -(c_1 h_(k-1) + ... + c_d h_(k-d))``: one division-free pass
    serves every n, and no discriminant is involved.
    """
    ns = tuple(ns)
    if any(n < 1 for n in ns):
        raise ValueError("n must be positive")
    d = f.degree
    if d == 1:
        return (1,) * len(ns)
    c = f.coefficients[1:]
    h = [0] * (d - 1) + [1]  # h[k + d - 1] is h_k
    for _ in range(1, (d - 1) * max(ns, default=0)):
        h.append(-sum(map(mul, c, reversed(h[-d:]))))
    return tuple(det_bareiss(IntMatrix([h[n * r:n * r + d - 1] for r in range(d - 1, 0, -1)]))
                 for n in ns)
