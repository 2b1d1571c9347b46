"""Reproduce the two worked sequence tables, factorizations included.

Each row shows the reduced value d_n / n^s for the power-map determinant
sequence of a fixed integer matrix. Entries grow to seventy digits by
n = 16 and still factor in about a second: each value is det(X)^(n-1)
times the square of a generalized Lucas number u_n, and u_n is the product
of primitive parts Psi_k over the divisors k of n, so only det(X) and the
much smaller Psi_k are factored, each once per table.
"""

import time

from matdivseq import IntMatrix, factor_table, generate_sequence

MATRICES = [
    ("3x3 example", IntMatrix([[1, -2, -6], [0, 1, 3], [-1, 0, 1]])),
    ("4x4 example", IntMatrix([[-1, 2, 4, -1], [0, 1, -2, 2],
                               [-1, 0, -1, 0], [0, 1, 0, 1]])),
]

for name, x in MATRICES:
    print(f"== {name} ==")
    print(x)
    t0 = time.perf_counter()
    entries = generate_sequence(x, 16)
    factors = factor_table(entries)
    elapsed = time.perf_counter() - t0
    width = max(len(str(e.reduced)) for e in entries)
    for e, fc in zip(entries, factors):
        print(f"{e.n:2d} | {str(e.reduced):>{width}} | {fc}")
    print(f"(computed and factored in {elapsed:.2f}s)")
    print()
