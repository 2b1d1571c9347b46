import random
from itertools import combinations
from math import prod

import pytest

import matdivseq.polynomials
from matdivseq import (IntMatrix, MonicIntPolynomial, char_poly, det_bareiss, generalized_lucas,
                       mat_mul)

from golden_tables import X3
from helpers import (NotRealizableError, PowerSums, derivative, discriminant,
                     poly_from_power_sums, power_polynomial, power_sums, random_matrix, resultant,
                     unimodular_pair)

FIB_POLY = MonicIntPolynomial((1, -1, -1))
X3_POLY = MonicIntPolynomial((1, -3, -3, -1))


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_monic_validation():
    with pytest.raises(ValueError, match="leading"):
        MonicIntPolynomial((2, 1))
    with pytest.raises(ValueError, match="degree"):
        MonicIntPolynomial((1,))
    with pytest.raises(ValueError, match="integer"):
        MonicIntPolynomial((1, 0.5))


def test_char_poly_identity():
    assert char_poly(IntMatrix.identity(2)).coefficients == (1, -2, 1)


def test_char_poly_fibonacci():
    assert char_poly(IntMatrix([[1, 1], [1, 0]])).coefficients == (1, -1, -1)


def test_char_poly_x3():
    assert char_poly(X3).coefficients == (1, -3, -3, -1)


def test_char_poly_cayley_hamilton():
    rng = random.Random(83)
    for _ in range(20):
        dim = rng.randint(1, 4)
        x = random_matrix(rng, dim)
        f = char_poly(x)
        acc = IntMatrix(tuple(tuple(0 for _ in range(dim)) for _ in range(dim)))
        xp = IntMatrix.identity(dim)
        # Evaluate sum c_i X^(d-i) from the constant term up.
        for c in reversed(f.coefficients):
            acc = IntMatrix(tuple(tuple(acc.entries[i][j] + c * xp.entries[i][j]
                                        for j in range(dim)) for i in range(dim)))
            xp = mat_mul(xp, x)
        assert all(v == 0 for row in acc.entries for v in row)


def test_char_poly_constant_term_and_trace():
    rng = random.Random(89)
    for _ in range(20):
        dim = rng.randint(1, 4)
        x = random_matrix(rng, dim)
        f = char_poly(x)
        assert f.coefficients[-1] == (-1) ** dim * det_bareiss(x)
        assert f.coefficients[1] == -x.trace


def test_char_poly_similarity_invariance():
    rng = random.Random(97)
    for _ in range(10):
        dim = rng.randint(2, 4)
        x = random_matrix(rng, dim)
        p, p_inv = unimodular_pair(rng, dim)
        assert char_poly(mat_mul(mat_mul(p, x), p_inv)) == char_poly(x)


def test_char_poly_makes_one_product_per_step(monkeypatch):
    # Each step's M_k and product X M_k are row lists: char_poly validates no matrix.
    # X M_1 is X itself, so only steps 2..s make a product X M_k, s^3 scalar products
    # each: none at s = 1. Step k divides by k through the checked _exact.
    rng = random.Random(101)
    xs = [random_matrix(rng, dim) for dim in range(1, 7)]
    built, products, divisions = [], [], []
    post_init, mul = IntMatrix.__post_init__, matdivseq.polynomials.mul
    exact = matdivseq.polynomials._exact

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    def counted_mul(a, b):
        products.append(1)
        return mul(a, b)

    def recorded_exact(a, b):
        divisions.append((b, exact(a, b)))
        return divisions[-1][1]

    monkeypatch.setattr(IntMatrix, "__post_init__", counted_post_init)
    monkeypatch.setattr(matdivseq.polynomials, "mul", counted_mul)
    monkeypatch.setattr(matdivseq.polynomials, "_exact", recorded_exact)
    for x in xs:
        products.clear()
        divisions.clear()
        f = char_poly(x)
        assert len(products) == (x.dim - 1) * x.dim ** 3
        assert f.coefficients[-1] == (-1) ** x.dim * det_bareiss(x)
        assert divisions == list(zip(range(2, x.dim + 1), f.coefficients[2:]))
    assert built == []


def test_power_sums_fibonacci():
    assert power_sums(FIB_POLY, 3).values == (2, 1, 3, 4)


def test_power_sums_x3():
    assert power_sums(X3_POLY, 3).values == (3, 3, 15, 57)


def test_power_sums_zero_count():
    for f in (FIB_POLY, X3_POLY):
        assert power_sums(f, 0).values == (f.degree,)


def test_poly_from_power_sums_round_trip():
    f = FIB_POLY
    assert poly_from_power_sums(power_sums(f, f.degree), f.degree) == f


def test_poly_from_power_sums_x3():
    assert poly_from_power_sums(PowerSums((3, 3, 15, 57)), 3) == X3_POLY


def test_poly_from_power_sums_plus_minus_one():
    assert poly_from_power_sums(PowerSums((2, 0, 2)), 2) == MonicIntPolynomial((1, 0, -1))


def test_poly_from_power_sums_not_realizable():
    with pytest.raises(NotRealizableError):
        poly_from_power_sums(PowerSums((2, 1, 2)), 2)


def test_round_trip_random_monic():
    rng = random.Random(101)
    for _ in range(30):
        d = rng.randint(1, 5)
        f = MonicIntPolynomial((1,) + tuple(rng.randint(-6, 6) for _ in range(d)))
        assert poly_from_power_sums(power_sums(f, d), d) == f


def test_power_polynomial_n1():
    assert power_polynomial(FIB_POLY, 1) == FIB_POLY
    assert power_polynomial(X3_POLY, 1) == X3_POLY


def test_power_polynomial_fibonacci_squared():
    assert power_polynomial(FIB_POLY, 2) == MonicIntPolynomial((1, -3, 1))


def test_power_polynomial_x3_cubed():
    assert power_polynomial(X3_POLY, 3) == MonicIntPolynomial((1, -57, 3, -1))


def test_power_polynomial_composition():
    rng = random.Random(103)
    for _ in range(15):
        d = rng.randint(1, 4)
        f = MonicIntPolynomial((1,) + tuple(rng.randint(-4, 4) for _ in range(d)))
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        assert power_polynomial(power_polynomial(f, n), m) == power_polynomial(f, n * m)


def test_power_polynomial_constant_term_norm():
    rng = random.Random(107)
    for _ in range(15):
        d = rng.randint(1, 4)
        f = MonicIntPolynomial((1,) + tuple(rng.randint(-5, 5) for _ in range(d)))
        n = rng.randint(1, 5)
        g = power_polynomial(f, n)
        assert abs(g.coefficients[-1]) == abs(f.coefficients[-1]) ** n


def test_resultant_two_linear():
    rng = random.Random(109)
    for _ in range(10):
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        assert resultant(MonicIntPolynomial((1, -a)), (1, -b)) == a - b


def test_resultant_evaluation():
    assert resultant(MonicIntPolynomial((1, 0, -1)), (1, -2)) == 3


def test_resultant_fibonacci_derivative():
    assert resultant(FIB_POLY, derivative(FIB_POLY)) == -5


def test_resultant_accepts_polynomial_argument():
    assert resultant(FIB_POLY, FIB_POLY) == 0


def test_discriminant_quadratic_closed_form():
    rng = random.Random(113)
    for _ in range(20):
        b, c = rng.randint(-9, 9), rng.randint(-9, 9)
        assert discriminant(MonicIntPolynomial((1, b, c))) == b * b - 4 * c
    assert discriminant(FIB_POLY) == 5


def test_discriminant_repeated_root():
    assert discriminant(MonicIntPolynomial((1, -2, 1))) == 0


def test_discriminant_x3():
    assert discriminant(X3_POLY) == -108


def test_discriminant_degree_requirement():
    with pytest.raises(ValueError):
        discriminant(MonicIntPolynomial((1, 5)))


def test_discriminant_zero_iff_repeated_root():
    rng = random.Random(127)
    for _ in range(20):
        roots = [rng.randint(-6, 6) for _ in range(rng.randint(2, 4))]
        coeffs = [1]
        for r in roots:
            coeffs = _poly_mul(coeffs, [1, -r])
        f = MonicIntPolynomial(tuple(coeffs))
        if len(set(roots)) < len(roots):
            assert discriminant(f) == 0
        else:
            assert discriminant(f) != 0


def _sylvester_discriminant(f):
    d = f.degree
    return (-1) ** (d * (d - 1) // 2) * resultant(f, derivative(f))


def test_discriminant_matches_sylvester_form():
    rng = random.Random(131)
    polys = []
    for d in range(2, 9):
        for _ in range(6):
            polys.append((1,) + tuple(rng.randint(-7, 7) for _ in range(d)))
        roots = [rng.randint(-4, 4) for _ in range(d - 1)]
        coeffs = [1]
        for r in roots + roots[:1]:  # a double root: the discriminant is 0
            coeffs = _poly_mul(coeffs, [1, -r])
        polys.append(tuple(coeffs))
        # p_1 = p_2 = 0 makes the Hankel pivot at (1, 1) vanish: Bareiss swaps rows.
        polys.append((1, 0, 0) + tuple(rng.randint(-7, 7) for _ in range(d - 2)))
        polys.append((1,) + (0,) * (d - 1) + (rng.choice((-3, -1, 1, 2)),))
    seen_zero = seen_swap = False
    for coeffs in polys:
        f = MonicIntPolynomial(coeffs)
        p = power_sums(f, 2)
        seen_swap |= f.degree > 2 and p.values[0] * p.values[2] == p.values[1] ** 2
        value = discriminant(f)
        seen_zero |= value == 0
        assert value == _sylvester_discriminant(f), coeffs
    assert seen_zero and seen_swap


def test_generalized_lucas_squares_to_the_discriminant_ratio():
    rng = random.Random(163)
    polys = []
    for d in range(2, 9):
        for _ in range(4):
            polys.append((1,) + tuple(rng.randint(-5, 5) for _ in range(d)))
        # p_1 = p_2 = 0: zero pivots in the Hankel and Jacobi-Trudi eliminations.
        polys.append((1, 0, 0) + tuple(rng.randint(-5, 5) for _ in range(d - 2)))
    polys += [(1, 0, 1), (1, 0, -1)]  # x^2 + 1 (u_4 = 0) and diag(1, -1)'s x^2 - 1 (u_2 = 0)
    checked = set()
    for coeffs in polys:
        f = MonicIntPolynomial(coeffs)
        disc_f = discriminant(f)
        if disc_f == 0:
            continue
        checked.add(f.degree)
        us = generalized_lucas(f, range(1, 13))
        assert us[0] == 1
        for n, u in enumerate(us, 1):
            q, r = divmod(discriminant(power_polynomial(f, n)), disc_f)
            assert r == 0 and u * u == q, (coeffs, n)
        # A single n, or any order of ns, gives the same values.
        assert generalized_lucas(f, (12, 5)) == (us[11], us[4])
    assert checked == set(range(2, 9))
    assert generalized_lucas(MonicIntPolynomial((1, 0, 1)), (4,)) == (0,)
    assert generalized_lucas(MonicIntPolynomial((1, 0, -1)), (2,)) == (0,)


def test_generalized_lucas_repeated_roots():
    # Each pair of equal roots a gives the factor n a^(n-1).
    ns = range(1, 9)
    assert generalized_lucas(MonicIntPolynomial((1, -2, 1)), ns) == tuple(ns)  # (x-1)^2
    assert generalized_lucas(MonicIntPolynomial((1, -3, 3, -1)), ns) == \
        tuple(n ** 3 for n in ns)  # (x-1)^3: three pairs
    assert generalized_lucas(MonicIntPolynomial((1, -4, 4)), ns) == \
        tuple(n * 2 ** (n - 1) for n in ns)  # (x-2)^2
    assert generalized_lucas(MonicIntPolynomial((1, 0, 0)), ns) == (1,) + (0,) * 7  # x^2
    # (x-1)^2 (x+1): the pairs with the root -1 give (1 - (-1)^n)/2 each.
    assert generalized_lucas(MonicIntPolynomial((1, -1, -1, 1)), ns) == \
        tuple(n * ((1 - (-1) ** n) // 2) ** 2 for n in ns)


def _q(n, a, b):
    """(a^n - b^n)/(a - b) as the sum a^k b^(n-1-k), so also for a == b."""
    return sum(a ** k * b ** (n - 1 - k) for k in range(n))


def test_generalized_lucas_equals_the_product_over_integer_roots():
    # The signed u_n, not just u_n^2: distinct, negative, zero and repeated roots.
    # At even n a pair a < b with |a| > |b| contributes a negative factor, so
    # degrees 2 and 4-8 reach u_n < 0; degree 9's pairs 1, -1 and 3, -3 give u_n = 0 there.
    root_sets = [
        (-3, 1),
        (0, 2, -3),
        (-3, 1, 2, 0),
        (2, 2, -1, 3, 0),
        (-1, 2, 2, -3, 4, 0),
        (1, 1, -2, 3, -5, 0, 4),
        (-2, 0, 3, 1, 1, -6, 4, 7),
        (1, -1, 2, 2, 3, 0, 4, -3, 1),
    ]
    negative_at = set()
    for roots in root_sets:
        coeffs = [1]
        for a in roots:
            coeffs = _poly_mul(coeffs, [1, -a])
        ns = range(1, 13)
        expected = tuple(prod(_q(n, a, b) for a, b in combinations(roots, 2)) for n in ns)
        assert generalized_lucas(MonicIntPolynomial(tuple(coeffs)), ns) == expected, roots
        if min(expected) < 0:
            negative_at.add(len(roots))
    assert {4, 7, 8} <= negative_at


def test_generalized_lucas_degree_one_and_bad_n():
    assert generalized_lucas(MonicIntPolynomial((1, -7)), range(1, 6)) == (1,) * 5
    assert generalized_lucas(X3_POLY, ()) == ()
    with pytest.raises(ValueError, match="positive"):
        generalized_lucas(X3_POLY, (3, 0))
