"""Seeded inputs for the three benchmark workloads.

Each workload is a list of ops; one op is the argv of one
``matdivseq.cli.main`` call plus the matrix document it reads. The same
seed always gives the same ops. Everything here is self-contained integer
arithmetic so that input generation does not depend on the code under
test.

Why these workloads:

* ``table-factor`` spends almost all its time in ``factorint``: the paper's
  two matrices X3 and X4 (X4 continued to n = 20, where Brent rho does
  most of the work) plus random 3x3 and 4x4 matrices at n <= 16. Every
  random matrix has distinct eigenvalues, so no Jacobian is built.
* ``verify-sweep`` is the brute-force route: every n of every matrix
  builds and reduces an s^2 x s^2 Jacobian. A quarter of the matrices are
  unimodular conjugates of a Jordan block, so the repeated-eigenvalue
  fallback runs. ``factorint`` is never called.
* ``table-wide`` is the closed form at long n on 5x5 to 8x8 matrices:
  power sums, power polynomials and Bareiss on large Sylvester matrices
  with values of thousands of digits, and rendering them. Nothing is
  factored and no Jacobian is built. The 8x8 op at n = 128 exceeds
  CPython's 4300-digit int-to-str limit and crashes in the CLI; it counts
  as a failed op (a known defect of the program).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

X3 = ((1, -2, -6), (0, 1, 3), (-1, 0, 1))
X4 = ((-1, 2, 4, -1), (0, 1, -2, 2), (-1, 0, -1, 0), (0, 1, 0, 1))

# The paper's tables: n -> (d_n / n^s, ((prime, exponent), ...)) for n <= 16.
GOLDEN = {
    "X3": {
        1: (1, ()),
        2: (100, ((2, 2), (5, 2))),
        3: (6561, ((3, 8),)),
        4: (193600, ((2, 6), (5, 2), (11, 2))),
        5: (808201, ((29, 2), (31, 2))),
        6: (189612900, ((2, 2), (3, 8), (5, 2), (17, 2))),
        7: (50131657801, ((41, 2), (43, 2), (127, 2))),
        8: (4096576000000, ((2, 12), (5, 6), (11, 2), (23, 2))),
        9: (159625511221401, ((3, 14), (53, 2), (109, 2))),
        10: (1865976489302500, ((2, 2), (5, 4), (29, 2), (31, 6))),
        11: (31583922467632921, ((131, 2), (857, 2), (1583, 2))),
        12: (21985833099924302400,
             ((2, 6), (3, 8), (5, 2), (11, 2), (17, 2), (71, 2), (109, 2))),
        13: (2370466451421685365841, ((1637, 2), (4057, 2), (7331, 2))),
        14: (118070682478980566428900,
             ((2, 2), (5, 2), (41, 2), (43, 6), (83, 2), (127, 2))),
        15: (2362255369723766871090801, ((3, 8), (29, 2), (31, 2), (2969, 2), (7109, 2))),
        16: (84956038709284864000000,
             ((2, 18), (5, 6), (11, 2), (23, 2), (47, 2), (383, 2))),
    },
    "X4": {
        1: (1, ()),
        2: (65536, ((2, 16),)),
        3: (1, ()),
        4: (281474976710656, ((2, 48),)),
        5: (18448995933652254721, ((4295229439, 2),)),
        6: (18013780039499776, ((2, 16), (7, 2), (74897, 2))),
        7: (79223326847881056061239459841, ((281466386710529, 2),)),
        8: (5194832314440011219064571543158784, ((2, 60), (7, 4), (23, 2), (59561, 2))),
        9: (57750280205787836368542570774529, ((37, 2), (701, 2), (292993041329, 2))),
        10: (22296661830929399970266587262959037621272576,
             ((2, 16), (19, 4), (3449, 4), (4295229439, 2))),
        11: (1463330673647120201450844900178197550156472647681,
             ((32363, 2), (7282397, 2), (5132726390881, 2))),
        12: (91328172579326327868701556304335790376407269376,
             ((2, 48), (7, 2), (13, 2), (10177, 2), (74897, 2), (259691, 2))),
        13: (6274228310768040852924579197717363301022335434560089620481,
             ((3, 18), (3769, 2), (15053, 2), (27205307, 2), (2607270173, 2))),
        14: (412406073457686674054433092427074726434308782374158659336863744,
             ((2, 16), (13, 2), (794009, 2), (27304061, 2), (281466386710529, 2))),
        15: (98061755546432391470442700484791252942607177394577588251525121,
             ((17489, 2), (4295229439, 2), (131825214490835791, 2))),
        16: (1765121615339370515604475310366412659400104668637242611924881667927310336,
             ((2, 72), (7, 8), (23, 2), (59561, 2), (20394769, 2), (288208447, 2))),
    },
}


@dataclass(frozen=True)
class Op:
    """One CLI call: ``matdivseq <command> <doc> --n-max <n_max> <flags>``."""

    name: str
    command: str
    matrix: tuple[tuple[int, ...], ...]
    n_max: int
    flags: tuple[str, ...] = ()
    repeated: bool = False  # built with a repeated eigenvalue
    known_defect: bool = False  # renders a value past CPython's 4300-digit str limit

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def argv(self, path: str) -> list[str]:
        return [self.command, path, "--n-max", str(self.n_max), *self.flags]


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def char_poly(rows) -> list[int]:
    """Leading-first coefficients of det(tI - X) (Faddeev-LeVerrier)."""
    s = len(rows)
    coeffs = [1]
    m = [[0] * s for _ in range(s)]
    for k in range(1, s + 1):
        xm = _mat_mul(rows, m)
        m = [[xm[i][j] + (coeffs[-1] if i == j else 0) for j in range(s)] for i in range(s)]
        trace = sum(_mat_mul(rows, m)[i][i] for i in range(s))
        coeffs.append(-trace // k)
    return coeffs


def _poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    while len(a) >= len(b):
        q = a[0] / b[0]
        for i in range(len(b)):
            a[i] -= q * b[i]
        a.pop(0)
    while a and a[0] == 0:
        a.pop(0)
    return a


def squarefree(coeffs: list[int]) -> bool:
    """True when the polynomial has no repeated root: gcd(f, f') is constant."""
    d = len(coeffs) - 1
    a = [Fraction(c) for c in coeffs]
    b = [Fraction(c * (d - i)) for i, c in enumerate(coeffs[:-1])]
    while b and b[0] == 0:
        b.pop(0)
    while len(b) > 1:
        a, b = b, _poly_rem(a, b)
    return bool(b)  # nonzero constant remainder: coprime


def random_matrix(rng: random.Random, s: int, bound: int) -> tuple[tuple[int, ...], ...]:
    """Random s x s matrix, entries in [-bound, bound], det != 0, distinct eigenvalues."""
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(s)] for _ in range(s)]
        f = char_poly(rows)
        if f[-1] != 0 and squarefree(f):
            return tuple(tuple(r) for r in rows)


def relabel(rng: random.Random, rows):
    """S X S^-1 for a random signed permutation matrix S.

    The same characteristic polynomial, hence the same sequence, and the same
    entries up to position and sign, so the work of every route stays put.
    """
    s = len(rows)
    perm = rng.sample(range(s), s)
    sign = [rng.choice((-1, 1)) for _ in range(s)]
    return tuple(tuple(sign[i] * sign[j] * rows[perm[i]][perm[j]] for j in range(s))
                 for i in range(s))


def jordan_conjugate(rng: random.Random, s: int, max_entry: int = 9):
    """U (J_2(lam) (+) B) U^-1 for a random unimodular U: lam is a repeated eigenvalue.

    B is a random nonsingular (s-2)-block. U is a product of s elementary
    matrices I + c e_ij, c = +-1, redrawn until the entries stay within
    ``max_entry``.
    """
    lam = rng.choice((-2, -1, 1, 2))
    block = [[0] * s for _ in range(s)]
    block[0][0] = block[1][1] = lam
    block[0][1] = 1
    for i, row in enumerate(random_matrix(rng, s - 2, 1) if s > 2 else ()):
        block[i + 2][2:] = list(row)
    while True:
        m = [list(r) for r in block]
        for _ in range(s):
            i, j = rng.sample(range(s), 2)
            c = rng.choice((-1, 1))
            for k in range(s):  # row_i += c row_j
                m[i][k] += c * m[j][k]
            for k in range(s):  # col_j -= c col_i
                m[k][j] -= c * m[k][i]
        if all(abs(v) <= max_entry for row in m for v in row):
            return tuple(tuple(r) for r in m)


def _nondegenerate(rows, n_max: int) -> bool:
    """No eigenvalue ratio is a root of unity of order <= n_max (no zero d_n).

    X^k has a repeated eigenvalue exactly when two eigenvalues of X agree
    after raising to the k-th power; every k <= n_max divides some k in
    (n_max/2, n_max], so those are the only powers checked.
    """
    power = rows
    for k in range(2, n_max + 1):
        power = _mat_mul(power, rows)
        if k > n_max // 2 and not squarefree(char_poly(power)):
            return False
    return True


# Every workload is a fixed list of base matrices drawn once from POOL_SEED;
# the run's --seed relabels each one (a random signed permutation
# similarity), so the program sees different documents on every seed while
# the spectra, the entry sizes and with them the amount of work stay fixed.
# With fresh spectra per seed, factoring cost (smooth values finish in
# milliseconds, values with a large rough part take the full trial division
# plus rho) and long-n digit counts moved the op latency median and tail by
# 20-30 percent between seeds; unimodular conjugates per seed changed the
# entry sizes and moved verify-sweep's throughput by 10 percent.
POOL_SEED = 20150302
JSON_FLAGS = ("--format", "json")
FACTOR_FLAGS = ("--factor", "--format", "json")

FACTOR_POOL = ((3, 2, 10), (4, 1, 10))  # (dim, entry bound, count), all at n_max 16
VERIFY_N_MAX = (16, 18, 20, 22, 25, 28, 30, 32)
VERIFY_REPEATED_AT = (20, 28)  # a quarter of each dimension's ops
WIDE_N_MAX = {
    5: (64, 80, 96, 112, 128, 128),
    6: (56, 72, 88, 104, 120, 128),
    7: (48, 56, 64, 72, 88, 96),
    8: (32, 40, 48, 56, 64, 128),
}
WIDE_BOUND = 3
WIDE_KNOWN_DEFECT = (8, 128)  # (dim, n_max) of the op whose values exceed 4300 digits


def _table_factor_bases(rng: random.Random) -> list[Op]:
    ops = [Op("X3", "table", X3, 16, FACTOR_FLAGS), Op("X4", "table", X4, 20, FACTOR_FLAGS)]
    for s, bound, count in FACTOR_POOL:
        for i in range(count):
            rows = random_matrix(rng, s, bound)
            while not _nondegenerate(rows, 16):
                rows = random_matrix(rng, s, bound)
            ops.append(Op(f"f{s}-{i}", "table", rows, 16, FACTOR_FLAGS))
    return ops


def _verify_sweep_bases(rng: random.Random) -> list[Op]:
    return [Op(f"v{s}-{n_max}", "verify",
               jordan_conjugate(rng, s) if n_max in VERIFY_REPEATED_AT
               else random_matrix(rng, s, 1),
               n_max, JSON_FLAGS, repeated=n_max in VERIFY_REPEATED_AT)
            for s in (3, 4, 5) for n_max in VERIFY_N_MAX]


def _table_wide_bases(rng: random.Random) -> list[Op]:
    return [Op(f"w{s}-{n_max}-{i}", "table", random_matrix(rng, s, WIDE_BOUND), n_max,
               JSON_FLAGS, known_defect=(s, n_max) == WIDE_KNOWN_DEFECT)
            for s, n_maxes in WIDE_N_MAX.items() for i, n_max in enumerate(n_maxes)]


WORKLOADS = {
    "table-factor": _table_factor_bases,
    "verify-sweep": _verify_sweep_bases,
    "table-wide": _table_wide_bases,
}


def build_ops(workload: str, seed: int) -> list[Op]:
    """The workload's ops for ``seed``; X3 and X4 are sent exactly as printed."""
    bases = WORKLOADS[workload](random.Random(POOL_SEED))
    rng = random.Random(seed)
    return [op if op.name in GOLDEN else replace(op, matrix=relabel(rng, op.matrix))
            for op in bases]
