"""The identities that make the power-map derivative computable.

Three facts carry the whole construction:

1. the Kronecker mixed product (A x C)(B x D) = AB x CD,
2. the derivative matrix of X -> X^n is the Kronecker sum
   J_n = sum_k (X^T)^k x X^(n-1-k), which the package reaches by stepping
   M_n = sum_k X^k x X^(n-1-k) as packed rows,
   M_(n+1) = (I x X) M_n + X^n x I from M_1 = I, and shuffling M_n into J_n,
3. with column-stacking vec, J_n . vec(E) = vec(sum_k X^k E X^(n-1-k)),
   i.e. J_n really is the derivative in the usual directional sense.

This script verifies each on random integer matrices.
"""

import random

from matdivseq import (IntMatrix, jacobian_power_map, kronecker, mat_add, mat_mul,
                       mat_pow, mat_vec, power_map_derivative, vec)

rng = random.Random(42)


def rand(dim):
    return IntMatrix([[rng.randint(-5, 5) for _ in range(dim)] for _ in range(dim)])


print("1. Kronecker mixed product, 40 random quadruples:")
for _ in range(40):
    dim = rng.choice((2, 3))
    a, b, c, d = rand(dim), rand(dim), rand(dim), rand(dim)
    assert mat_mul(kronecker(a, c), kronecker(b, d)) == kronecker(mat_mul(a, b), mat_mul(c, d))
print("   (A x C)(B x D) == AB x CD holds.")
print()

print("2. The stepped derivative matrix against the Kronecker sum:")
x = rand(3)
xt = x.transpose()
for n in range(1, 7):
    kron_sum = kronecker(mat_pow(xt, 0), mat_pow(x, n - 1))
    for k in range(1, n):
        kron_sum = mat_add(kron_sum, kronecker(mat_pow(xt, k), mat_pow(x, n - 1 - k)))
    assert jacobian_power_map(x, n) == kron_sum
print("   jacobian_power_map(X, n) == sum_k (X^T)^k x X^(n-1-k) for n = 1..6.")
print()

print("3. vec consistency, 40 random (X, E, n) triples:")
for _ in range(40):
    dim = rng.choice((2, 3))
    x, e = rand(dim), rand(dim)
    n = rng.randint(1, 6)
    assert mat_vec(jacobian_power_map(x, n), vec(e)) == vec(power_map_derivative(x, e, n))
print("   J_n . vec(E) == vec(d(X^n)[E]) holds, so the stepped matrix, equal to")
print("   the Kronecker sum, is the honest Jacobian of the power map.")
