"""Integer factorization sized for the sequence tables.

The ladder is: trial division by the primes up to one million, screened
by the gcd of each value with the product of a run of consecutive primes
(after Bernstein, "How to find small factors of integers"), so only runs
that share a factor are divided, and stopped early once what is left is a
proven prime; then perfect-power reduction; then
Pollard's p-1 method (1974) and Williams' p+1 method (1982), which split
off a prime p whose p - 1 or p + 1 is smooth (every large prime of X4's
primitive parts Psi_n seen so far is = +-1 mod n, so n divides one of
them); then Brent's variant of Pollard rho. Every stage uses fixed
(non-random) parameters and draws on one budget of work. Values whose
unfactored part survives the budget come back with a composite cofactor
instead of hanging.

Every prime factor below 3.3e24 is proven: by trial division, or by
:func:`is_prime`, whose fixed bases decide primality below that bound. A
factor above it is only a strong probable prime; X4 at n = 19 already
yields one, 888088211095373020531497427.

Sequence tables are not factored term by term. Each reduced value splits
algebraically as d_n / n^s = det(X)^(n-1) * u_n^2, and the generalized
Lucas number u_n as the product of the primitive parts Psi_k over the
divisors k >= 2 of n; :func:`matdivseq.sequences.factor_table` factors
det(X) and each Psi_k once and merges them with
:meth:`Factorization.product`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache
from itertools import compress, groupby, islice
from math import gcd, isqrt, prod


@dataclass(frozen=True)
class Factorization:
    """Signed factorization ``sign * prod(p^e) * cofactor``.

    ``factors`` is sorted by prime; ``cofactor`` is a composite remainder
    left when the splitting budget ran out, or None when the factorization is
    complete. Rendered form: ``2^6 5^2 11^2``, with a cofactor shown in
    square brackets.
    """

    sign: int
    factors: tuple[tuple[int, int], ...] = ()
    cofactor: int | None = None

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or 1")
        if self.sign == 0 and (self.factors or self.cofactor is not None):
            raise ValueError("zero has no factors")
        prev = 1
        for p, e in self.factors:
            if p <= prev or e < 1:
                raise ValueError("factors must be ascending primes with positive exponents")
            prev = p
        if self.cofactor is not None and self.cofactor <= 1:
            raise ValueError("cofactor must exceed 1")

    @classmethod
    def product(cls, powers: Iterable[tuple[Factorization, int]]) -> Factorization:
        """Factorization of the product of ``f ** e`` over the ``(f, e)`` pairs.

        Exponents of shared primes add, signs multiply and cofactors
        multiply; ``e`` must be nonnegative, and ``f ** 0`` is 1 even for
        ``f`` zero. No pair gives 1.
        """
        sign, counts, cofactor = 1, {}, 1
        for f, e in powers:
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            if e == 0:
                continue
            if f.sign == 0:
                return cls(sign=0)
            sign *= f.sign ** e
            for p, k in f.factors:
                counts[p] = counts.get(p, 0) + k * e
            if f.cofactor is not None:
                cofactor *= f.cofactor ** e
        return cls(sign=sign, factors=tuple(sorted(counts.items())),
                   cofactor=cofactor if cofactor > 1 else None)

    @property
    def complete(self) -> bool:
        return self.cofactor is None

    def value(self) -> int:
        v = self.sign
        for p, e in self.factors:
            v *= p ** e
        if self.cofactor is not None:
            v *= self.cofactor
        return v

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors]
        if self.cofactor is not None:
            parts.append(f"[{self.cofactor}]")
        body = " ".join(parts) if parts else "1"
        return f"-{body}" if self.sign < 0 else body


# Bases of primes through 41 decide primality for n < 3317044064679887385961981
# (about 3.3e24); above that the same test with primes through 97 is a strong
# probable-prime check with no known counterexample.
_DETERMINISTIC_BOUND = 3317044064679887385961981
_SMALL_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_LARGE_BASES = _SMALL_BASES + (43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

TRIAL_LIMIT = 1_000_000
RHO_STEP_BUDGET = 1 << 22
# Smoothness bounds of the p-1 and p+1 stages: stage 1 covers every prime
# power up to B1, stage 2 one more prime up to B2.
STAGE1_BOUND = 2000
STAGE2_BOUND = 500_000

# Odd primes per gcd screen in trial division.
_RUN = 128
# Trial division tests what is left of a value above this for primality before
# its first run and after each run that divides it: there the test costs less
# than the runs up to the square root (0.13 ms against 0.14-1.4 ms for primes
# of 1e10-1e12).
_PRIME_TEST_ABOVE = 10 ** 10

# Stage 2 pairs the primes q = kD +- j around multiples of D.
_D = 2310
# Seeds V_1 = a/b (mod n) of the Lucas-sequence stages. 10/3 = 3 + 1/3 makes
# V_k = 3^k + 3^-k, Pollard's p-1 with base 3: P^2 - 4 = (8/3)^2 is a square
# mod every p. 2/7 (P^2 - 4 = -3 (8/7)^2) runs Williams' p+1 when p = 2 mod 3,
# and 6/5 (P^2 - 4 = -(8/5)^2) when p = 3 mod 4; otherwise they run p-1 again.
_SEEDS = ((10, 3), (2, 7), (6, 5))


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test with fixed bases (see module constants).

    Deterministic below 3.3e24, strong probable prime above.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n < 2:
        return False
    for p in _SMALL_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _SMALL_BASES if n < _DETERMINISTIC_BOUND else _LARGE_BASES
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@cache
def _prime_runs() -> tuple[array, list[int]]:
    """Odd primes up to TRIAL_LIMIT and the product of each run of ``_RUN``.

    Built on the first :func:`factorize` call, not at import: about 0.3 MB
    of primes and 0.2 MB of products.
    """
    half = (TRIAL_LIMIT + 1) // 2  # sieve[i] stands for 2i + 1
    sieve = bytearray([1]) * half
    sieve[0] = 0
    for i in range(1, (isqrt(TRIAL_LIMIT) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            first = p * p // 2
            sieve[first::p] = bytes(len(range(first, half, p)))
    primes = array("I", (2 * i + 1 for i in compress(range(half), sieve)))
    products = [prod(primes[k:k + _RUN]) for k in range(0, len(primes), _RUN)]
    return primes, products


def _brent_rho(n: int, budget: list[int]) -> int | None:
    """One nontrivial factor of odd composite ``n``, or None if the budget ran out.

    Parameters are a fixed sequence (y0 = 2, polynomial constant c = 1, 2, ...)
    so runs are reproducible; gcds are batched 128 steps at a time.
    """
    c = 1
    while budget[0] > 0:
        y, r, q = 2, 1, 1
        g, x, ys = 1, 0, 0
        while g == 1 and budget[0] > 0:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            budget[0] -= 2 * r
            r *= 2
        if g == n:
            # The batch overshot a factor; replay single steps from the last
            # checkpoint to isolate it.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
        c += 1
    return None


@cache
def _stage_plan() -> tuple[tuple[int, ...], tuple[tuple[int, array], ...], int]:
    """What one Lucas-sequence stage runs, from a slice of :func:`_prime_runs`.

    Returns the stage-1 multipliers (each prime p <= STAGE1_BOUND repeated
    once per power of p up to the bound), the stage-2 giant steps (k with
    the j // 2 of the odd j < D/2 such that kD - j or kD + j is a prime in
    (STAGE1_BOUND, STAGE2_BOUND]), and the stage's cost in modular
    multiplications. Built on the first stage run, not at import.
    """
    primes = _prime_runs()[0]
    stop = bisect_right(primes, STAGE2_BOUND)
    split = bisect_right(primes, STAGE1_BOUND, hi=stop)
    steps = []
    for p in (2, *primes[:split]):
        q = p
        while q <= STAGE1_BOUND:
            steps.append(p)
            q *= p
    # For each k, the odd j < D/2 as baby-step indices j // 2, each pair once.
    plan = tuple((k, array("H", sorted({abs(q - k * _D) >> 1 for q in qs})))
                 for k, qs in groupby(islice(primes, split, stop),
                                      key=lambda q: (q + _D // 2) // _D))
    # Two per ladder bit, one per baby step, one per giant step, one per pair.
    cost = (sum(2 * p.bit_length() for p in steps) + _D // 4 + plan[-1][0]
            + sum(len(js) for _k, js in plan))
    return tuple(steps), plan, cost


def _lucas_v(v: int, k: int, n: int) -> int:
    """V_k mod ``n`` of the Lucas sequence V_0 = 2, V_1 = v, V_(i+1) = v V_i - V_(i-1)."""
    if k == 0:
        return 2
    x, y = v, (v * v - 2) % n  # V_i, V_(i+1)
    for bit in bin(k)[3:]:
        if bit == "1":
            x, y = (x * y - v) % n, (y * y - 2) % n
        else:
            x, y = (x * x - 2) % n, (x * y - v) % n
    return x


def _lucas_split(n: int, v: int) -> int | None:
    """A nontrivial factor of ``n`` from the two-stage p-1/p+1 method, or None.

    With V_1 = v = alpha + 1/alpha, a prime p of ``n`` divides V_E - 2 once
    the order of alpha, a divisor of p - 1 or p + 1, divides E. Stage 1 takes
    E over the prime powers up to STAGE1_BOUND with a gcd per prime; stage 2
    then finds one more prime q = kD +- j <= STAGE2_BOUND, since
    V_kD - V_j = 0 (mod p) when alpha^(E(kD - j)) or alpha^(E(kD + j)) is 1
    (baby-step giant-step, a gcd per giant step). A stage-1 gcd equal to
    ``n`` gives up; a stage-2 one is replayed term by term first.
    """
    steps, plan, _cost = _stage_plan()
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
    k = plan[0][0]
    prev, cur = _lucas_v(vd, k - 1, n), _lucas_v(vd, k, n)
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


def _exact_root(n: int, k: int) -> int:
    """Floor of the k-th root of ``n`` by bisection."""
    hi = 1 << (n.bit_length() // k + 2)
    lo = 0
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def _factor_rough(m: int, mult: int, counts: dict[int, int], budget: list[int]) -> int:
    """Factor ``m`` > 1, which has no prime factor <= TRIAL_LIMIT.

    Adds ``mult`` to ``counts`` per prime found and returns the product of
    the pieces the budget left unsplit, each to the power ``mult``: 1 when
    ``m`` is factored completely.
    """
    if is_prime(m):
        counts[m] = counts.get(m, 0) + mult
        return 1
    # A k-th root, free of primes <= TRIAL_LIMIT too, exceeds 2^19: 19k < bit_length.
    for k in range(2, m.bit_length() // (TRIAL_LIMIT.bit_length() - 1) + 1):
        root = _exact_root(m, k)
        if root ** k == m:
            return _factor_rough(root, mult * k, counts, budget)
    cost = _stage_plan()[2]
    d = None
    for a, b in _SEEDS:
        if budget[0] < cost:
            break
        budget[0] -= cost
        d = _lucas_split(m, a * pow(b, -1, m) % m)
        if d is not None:
            break
    if d is None:
        d = _brent_rho(m, budget)
    if d is None:
        return m ** mult
    return (_factor_rough(d, mult, counts, budget)
            * _factor_rough(m // d, mult, counts, budget))


def factorize(n: int, rho_steps: int = RHO_STEP_BUDGET) -> Factorization:
    """Factor any integer; incompleteness is represented, never raised.

    Factors past trial division pass :func:`is_prime`, so those below
    3.3e24 are proven prime and larger ones are strong probable primes,
    not proven ones. ``rho_steps`` is one budget for all the work spent
    splitting what remains, counted in modular multiplications: each run
    of the p-1/p+1 stages (one per seed, on each composite piece) is
    charged its fixed cost, about 40000, before it starts and is skipped
    when the rest of the budget cannot pay it; a rho step counts one, and
    rho starts a doubling block of steps while any budget remains, so its
    last block may overrun. When the budget is spent the product of the
    unsplit pieces is reported as a composite cofactor; ``rho_steps=0``
    splits nothing.
    """
    if n == 0:
        return Factorization(sign=0)
    sign = -1 if n < 0 else 1
    m = abs(n)
    counts: dict[int, int] = {}
    twos = (m & -m).bit_length() - 1
    if twos:
        counts[2] = twos
        m >>= twos
    primes, products = _prime_runs()
    cofactor = 1
    untested = True  # is_prime has not seen m since it last changed
    for start, product in zip(range(0, len(primes), _RUN), products):
        if primes[start] ** 2 > m:  # so m is 1 or a prime, as after the break below
            break
        if untested and _PRIME_TEST_ABOVE < m < _DETERMINISTIC_BOUND:
            # A proven prime ends the search here instead of after the runs up
            # to its square root, which are all of them above TRIAL_LIMIT^2.
            untested = False
            if is_prime(m):
                break
        g = gcd(m, product)
        if g == 1:
            continue
        untested = True
        for q in primes[start:start + _RUN]:
            if g % q == 0:
                g //= q
                e = 0
                while m % q == 0:
                    m //= q
                    e += 1
                counts[q] = e
                if g == 1:
                    break
    else:
        # Every run was screened: below (TRIAL_LIMIT + 1)^2, m is 1 (the last
        # run divided it out) or a prime, which is_prime need not see.
        if isqrt(m) > TRIAL_LIMIT:
            cofactor, m = _factor_rough(m, 1, counts, [rho_steps]), 1
    if m > 1:
        counts[m] = 1
    return Factorization(sign=sign, factors=tuple(sorted(counts.items())),
                         cofactor=cofactor if cofactor > 1 else None)
