"""Two routes to the same determinant, and why the closed form wins.

The brute-force route builds the s^2 x s^2 derivative matrix of X -> X^n
and takes its determinant. The closed form stays in degree-s polynomial
land: n^s * det(X)^(n-1) * u_n^2, where u_n, the product of
(a_i^n - a_j^n)/(a_i - a_j) over pairs of eigenvalues, is one
(s-1) x (s-1) determinant of the complete homogeneous sums of the roots
of the characteristic polynomial f. With distinct eigenvalues u_n^2 is the
discriminant ratio disc(g_n)/disc(f), where g_n has the n-th powers of the
roots of f; the closed form needs no distinct eigenvalues.

Both are exact; this script checks they agree and times them as n grows,
then cross-checks random matrices, repeated eigenvalues included.
It also prints the n^2 variant of the formula, which matches the true
determinant only in dimension 2 (where n^s and n^2 coincide).
"""

import random
import time

from matdivseq import IntMatrix, char_poly, closed_form_entry, jacobian_determinant

x = IntMatrix([[1, -2, -6], [0, 1, 3], [-1, 0, 1]])
f = char_poly(x)
print("X =")
print(x)
print(f"characteristic polynomial: {f}")
print()

print(" n   n^2 variant        true determinant     brute (ms)  closed (ms)")
for n in (2, 4, 8, 16, 32, 64):
    t0 = time.perf_counter()
    brute = jacobian_determinant(x, n)
    t1 = time.perf_counter()
    entry = closed_form_entry(x, n)
    t2 = time.perf_counter()
    closed = entry.jacobian_det
    assert brute == closed
    n_squared = entry.n_squared_value
    print(f"{n:3d}  {str(n_squared)[:16]:<17}  {str(closed)[:16]:<19}  "
          f"{1000 * (t1 - t0):9.2f}  {1000 * (t2 - t1):10.2f}")

print()
print("The n^2 variant is wrong for this 3x3 matrix (off by a factor n^(s-2));")
print("the n^s form always matches the brute-force determinant.")
print()

rng = random.Random(1)
print("Cross-checking 25 random matrices (dims 2 to 4, n up to 8):")
for _ in range(25):
    dim = rng.choice((2, 3, 4))
    y = IntMatrix([[rng.randint(-5, 5) for _ in range(dim)] for _ in range(dim)])
    for n in range(1, 9):
        assert jacobian_determinant(y, n) == closed_form_entry(y, n).jacobian_det
print("all agree, exactly.")
