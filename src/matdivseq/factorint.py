"""Integer factorization sized for the sequence tables.

The ladder is: trial division by the primes up to one million, screened
by the gcd of each value with the product of a run of consecutive primes
(after Bernstein, "How to find small factors of integers"), so only runs
that share a factor are divided, and stopped early once what is left is a
proven prime; then perfect-power reduction; then
Pollard's p-1 method (1974) and Williams' p+1 method (1982), which split
off a prime p whose p - 1 or p + 1 is smooth (every large prime of X4's
primitive parts Psi_n seen so far is = +-1 mod n, so n divides one of
them); then Brent's variant of Pollard rho. A stage of any seed whose
stage 2 splits a value continues on the cofactor where it stopped, as a
restart on the cofactor would have found nothing before that point (P. L.
Montgomery, "Speeding the Pollard and elliptic curve methods of
factorization", Math. Comp. 48, 1987). Every stage uses fixed
(non-random) parameters and draws on one budget of work. Values whose
unfactored part survives the budget come back with a composite cofactor
instead of hanging.

Every prime factor below 3.3e24 is proven: by trial division, or by
:func:`is_prime`, whose fixed bases decide primality below that bound,
taking the first 4, 7, 9, 12 or 13 primes as bases by the size of n. A
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
from functools import cache, partial
from itertools import chain, compress, groupby, islice
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


# The first k prime bases decide primality for every n below psi_k, the least
# strong pseudoprime to all of them (Jaeschke, Math. Comp. 61, 1993; Sorenson
# and Webster, Math. Comp. 86, 2017): (psi_k, k) for k = 4, 7, 9, 12 and 13.
# psi_13, about 3.3e24, bounds the proofs; above it the test with the primes
# through 97 is a strong probable-prime check with no known counterexample.
_BASE_TIERS = ((3215031751, 4), (341550071728321, 7), (3825123056546413051, 9),
               (318665857834031151167461, 12), (3317044064679887385961981, 13))
_DETERMINISTIC_BOUND = _BASE_TIERS[-1][0]
_SMALL_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_LARGE_BASES = _SMALL_BASES + (43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

TRIAL_LIMIT = 1_000_000
RHO_STEP_BUDGET = 1 << 22
# Smoothness bounds of the p-1 and p+1 stages: stage 1 covers every prime
# power up to B1, stage 2 one more prime up to B2.
STAGE1_BOUND = 2000
STAGE2_BOUND = 500_000

# Primes per gcd screen in trial division.
_RUN = 128
# Trial division tests what is left of a value above this for primality before
# its first run and after each run that divides it: there the test costs less
# than the runs up to the square root (0.13 ms against 0.14-1.4 ms for primes
# of 1e10-1e12).
_PRIME_TEST_ABOVE = 10 ** 10

# Stage-1 multipliers per ladder and gcd in the p-1/p+1 stages; a chunk whose
# gcd is not 1 is replayed one multiplier at a time.
_CHUNK = 24
# Stage 2 pairs the primes q = kD +- j around multiples of D.
_D = 2310
# Seeds V_1 = a/b (mod n) of the Lucas-sequence stages. 10/3 = 3 + 1/3 makes
# V_k = 3^k + 3^-k, Pollard's p-1 with base 3: P^2 - 4 = (8/3)^2 is a square
# mod every p. 2/7 (P^2 - 4 = -3 (8/7)^2) runs Williams' p+1 when p = 2 mod 3,
# and 6/5 (P^2 - 4 = -(8/5)^2) when p = 3 mod 4; otherwise they run p-1 again.
_SEEDS = ((10, 3), (2, 7), (6, 5))


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test with fixed bases (see module constants).

    Deterministic below 3.3e24, with the fewest leading prime bases that
    decide n's size; a strong probable prime above.
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
    k = next((k for bound, k in _BASE_TIERS if n < bound), len(_LARGE_BASES))
    bases = _LARGE_BASES[:k]
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
    """Primes up to TRIAL_LIMIT and the product of each run of ``_RUN``.

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
    primes = array("I", chain((2,), (2 * i + 1 for i in compress(range(half), sieve))))
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
def _stage_plan() -> tuple[tuple[int, ...], tuple[tuple[int, tuple[int, ...]], ...], int,
                           tuple[int, ...]]:
    """What one Lucas-sequence stage runs, from a slice of :func:`_prime_runs`.

    Returns the stage-1 multipliers (each prime p <= STAGE1_BOUND repeated
    once per power of p up to the bound), the stage-2 giant steps (k with
    the j // 2 of the odd j < D/2 such that kD - j or kD + j is a prime in
    (STAGE1_BOUND, STAGE2_BOUND]), the stage's nominal cost in modular
    multiplications, and the product of each run of ``_CHUNK`` consecutive
    multipliers. Built on the first stage run, not at import.

    Each giant step's indices are a tuple of ints drawn from one list of
    0..D/4 - 1, so stage 2 walks them without making an int per index (as
    an ``array`` does above 256), and the plan holds each int once.
    """
    primes = _prime_runs()[0]
    stop = bisect_right(primes, STAGE2_BOUND)
    split = bisect_right(primes, STAGE1_BOUND, hi=stop)
    steps = []
    for p in primes[:split]:
        q = p
        while q <= STAGE1_BOUND:
            steps.append(p)
            q *= p
    # For each k, the odd j < D/2 as baby-step indices j // 2, each pair once.
    index = list(range(_D // 4))
    plan = tuple((k, tuple(index[i] for i in sorted({abs(q - k * _D) >> 1 for q in qs})))
                 for k, qs in groupby(islice(primes, split, stop),
                                      key=lambda q: (q + _D // 2) // _D))
    # Nominal: two per bit of one ladder per multiplier, one per baby step, one
    # per giant step, one per pair. Stage 1 runs fewer (a ladder per chunk, or
    # the built-in pow), but the budget charges this so that it splits as before.
    cost = (sum(2 * p.bit_length() for p in steps) + _D // 4 + plan[-1][0]
            + sum(len(js) for _k, js in plan))
    chunks = tuple(prod(steps[i:i + _CHUNK]) for i in range(0, len(steps), _CHUNK))
    return tuple(steps), plan, cost, chunks


def _lucas_v(v: int, k: int, n: int) -> int:
    """V_k mod ``n`` for k >= 1: V_0 = 2, V_1 = v, V_(i+1) = v V_i - V_(i-1)."""
    x, y = v, (v * v - 2) % n  # V_i, V_(i+1)
    for bit in bin(k)[3:]:
        if bit == "1":
            x, y = (x * y - v) % n, (y * y - 2) % n
        else:
            x, y = (x * x - 2) % n, (x * y - v) % n
    return x


# Stage 2 of _lucas_split before one giant step's terms: the step's index in
# the plan, V_E (stage 1's V) and the product of the earlier steps' terms.
# The rest of stage 2's state is derived from V_E, so a stage carried to a
# cofactor is these three numbers, reduced there.
_Stage2 = tuple[int, int, int]


def _lucas_split(n: int, v: int) -> tuple[int | None, _Stage2 | None]:
    """A nontrivial factor of ``n`` from the two-stage p-1/p+1 method, or None, and a stage.

    With V_1 = v = alpha + 1/alpha, a prime p of ``n`` divides V_E - 2 once
    the order of alpha, a divisor of p - 1 or p + 1, divides E. This runs
    stage 1, which takes E over the prime powers up to STAGE1_BOUND, one
    ladder and gcd per chunk of ``_CHUNK`` of them (V_ab = V_a(V_b)). The gcd
    only grows along a chunk, as alpha^a - 1 divides alpha^(ab) - 1, so a
    chunk whose gcd is not 1 is replayed prime by prime from its start, and
    the first prime whose gcd is not 1 decides. The p-1 seed v = 3 + 1/3 has
    alpha = 3 in Z/n: its stage 1 raises 3 by the built-in pow and takes the
    gcd of (alpha^E - 1)^2 = alpha^E (V_E - 2). A stage-1 gcd equal to ``n``
    gives up; otherwise :func:`_stage_2` runs from its first giant step and
    returns what it returns.
    """
    steps, _plan, _cost, chunks = _stage_plan()
    power = v == (3 + pow(3, -1, n)) % n
    if power:  # x is alpha^E
        x, step, test = 3, partial(pow, mod=n), lambda t: (t - 1) ** 2
    else:  # x is V_E
        x, step, test = v, partial(_lucas_v, n=n), lambda w: w - 2
    for start, e in zip(range(0, len(steps), _CHUNK), chunks):
        y = step(x, e)
        if gcd(test(y), n) == 1:
            x = y
            continue
        for p in steps[start:start + _CHUNK]:
            x = step(x, p)
            g = gcd(test(x), n)
            if g == n:
                return None, None
            if g > 1:
                return g, None
    return _stage_2(n, (0, (x + pow(x, -1, n)) if power else x, 1))


def _stage_2(n: int, stage: _Stage2) -> tuple[int | None, _Stage2 | None]:
    """Stage 2 of :func:`_lucas_split` on ``n``, from the giant step ``stage`` is at.

    Finds one more prime q = kD +- j <= STAGE2_BOUND. V_kD - V_j = 0 (mod p)
    when alpha^(E(kD - j)) or alpha^(E(kD + j)) is 1 (baby-step giant-step),
    so each giant step multiplies the accumulator by V_kD - V_j over its j
    and takes one gcd. A gcd equal to ``n`` is replayed term by term.
    Returns the factor, or None, and with a factor split off at a giant
    step's gcd the stage before that step.

    The stage is reduced mod ``n``, and the baby steps V_j, V_D and V_kD up
    to the first step are derived from V_E. So a stage that split a value
    continues on a divisor c of it: mod c, V_E is what stage 1 on c
    computes, everything derived from it is what a restart on c derives, and
    every earlier gcd, 1 on the value, is 1 on c, so taking this step's gcd
    again on c and going on gives what the restart gives.
    """
    plan = _stage_plan()[1]
    first, v, acc = stage
    v, acc = v % n, acc % n
    v2 = (v * v - 2) % n
    baby = [v, (v * v2 - v) % n]  # V_j for odd j: V_(j+2) = V_j V_2 - V_(j-2)
    while len(baby) < _D // 4:
        baby.append((baby[-1] * v2 - baby[-2]) % n)
    vd = _lucas_v(v, _D, n)
    k, prev, cur = 0, vd, 2  # V_((k-1)D), V_kD at k = 0: V_-D = V_D as Q = 1
    for at in range(first, len(plan)):
        target, js = plan[at]
        while k < target:
            prev, cur = cur, (cur * vd - prev) % n
            k += 1
        before = acc
        for i in js:
            acc = acc * (cur - baby[i]) % n
        g = gcd(acc, n)
        if g == 1:
            continue
        if g < n:
            return g, (at, v, before)
        for i in js:
            g = gcd(cur - baby[i], n)
            if 1 < g < n:
                return g, None
        return None, None
    return None, None


def _exact_root(n: int, k: int) -> int:
    """Floor of the k-th root of ``n``: :func:`math.isqrt` for k = 2, else bisection."""
    if k == 2:
        return isqrt(n)
    hi = 1 << (n.bit_length() // k + 2)
    lo = 0
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def _factor_rough(m: int, mult: int, counts: dict[int, int], budget: list[int],
                  resume: tuple[int, _Stage2] | None = None) -> int:
    """Factor ``m`` > 1, which has no prime factor <= TRIAL_LIMIT.

    Adds ``mult`` to ``counts`` per prime found and returns the product of
    the pieces the budget left unsplit, each to the power ``mult``: 1 when
    ``m`` is factored completely.

    ``resume`` is ``(seed, stage)`` when that seed's stage 2 split a value
    into a factor and the cofactor ``m``: the stage continues on ``m`` in
    that seed's place and for the same charge, instead of running again
    from the start. A prime ``m`` or a perfect power drops it.
    """
    if is_prime(m):
        counts[m] = counts.get(m, 0) + mult
        return 1
    # A k-th root, free of primes <= TRIAL_LIMIT too, exceeds 2^19: 19k < bit_length.
    # Prime k suffice: a (pq)-th power is a p-th power, found first. m, composite,
    # exceeds TRIAL_LIMIT^2 > 2^39, so 2 is always in range.
    primes = _prime_runs()[0]
    top = m.bit_length() // (TRIAL_LIMIT.bit_length() - 1)
    for k in islice(primes, bisect_right(primes, top)):
        root = _exact_root(m, k)
        if root ** k == m:
            return _factor_rough(root, mult * k, counts, budget)
    cost = _stage_plan()[2]
    d = stage = None
    for seed, (a, b) in enumerate(_SEEDS):
        if budget[0] < cost:
            break
        budget[0] -= cost
        if resume and resume[0] == seed:
            d, stage = _stage_2(m, resume[1])
        else:
            d, stage = _lucas_split(m, a * pow(b, -1, m) % m)
        if d is not None:
            break
    if d is None:
        d = _brent_rho(m, budget)
    if d is None:
        return m ** mult
    return (_factor_rough(d, mult, counts, budget)
            * _factor_rough(m // d, mult, counts, budget, stage and (seed, stage)))


def _divide_out(m: int, q: int) -> tuple[int, int]:
    """``m`` with every factor ``q`` divided out, and their count, for q | m.

    When q divides twice, it divides by q, q^2, q^4, ... while they divide,
    then by the same powers back down, so q^k costs O(log k) divisions, not k.
    """
    m //= q
    if m % q:
        return m, 1
    e, powers = 1, [q]  # powers[i] = q^(2^i)
    while m % powers[-1] == 0:
        m //= powers[-1]
        e += 1 << (len(powers) - 1)
        powers.append(powers[-1] ** 2)
    for i in range(len(powers) - 2, -1, -1):
        if m % powers[i] == 0:
            m //= powers[i]
            e += 1 << i
    return m, e


def factorize(n: int, rho_steps: int = RHO_STEP_BUDGET) -> Factorization:
    """Factor any integer; incompleteness is represented, never raised.

    Factors past trial division pass :func:`is_prime`, so those below
    3.3e24 are proven prime and larger ones are strong probable primes,
    not proven ones. ``rho_steps`` is one budget for all the work spent
    splitting what remains, counted in modular multiplications: each run
    of the p-1/p+1 stages (one per seed, on each composite piece) is
    charged a fixed 39846 before it starts and is skipped when the rest of
    the budget cannot pay it. That is a nominal count, one Lucas ladder per
    stage-1 prime power, kept although stage 1 now runs one ladder (or one
    built-in pow) per chunk of them, so that the budget and what it splits
    do not move. A stage whose stage 2 splits a piece continues on the
    cofactor in its seed's place, instead of a new run there, and is
    charged the same 39846 per run or resume; it finds what the new run
    would. A rho step counts one, and rho starts a doubling block of steps
    while any budget remains, so its last block may overrun. When the
    budget is spent the product of the unsplit pieces is reported as a
    composite cofactor; ``rho_steps=0`` splits nothing.
    """
    if n == 0:
        return Factorization(sign=0)
    sign = -1 if n < 0 else 1
    m = abs(n)
    counts: dict[int, int] = {}
    primes, products = _prime_runs()
    cofactor = 1
    untested = True  # no screen has run yet, or the last one divided m
    for start, product in zip(range(0, len(primes), _RUN), products):
        if primes[start] ** 2 > m:  # so m is 1 or a prime, as after the break below
            break
        # A proven prime ends the search here instead of after the runs up to
        # its square root, which are all of them above TRIAL_LIMIT^2. An even m
        # is left to the first run, which holds 2.
        if (untested and m & 1 and _PRIME_TEST_ABOVE < m < _DETERMINISTIC_BOUND
                and is_prime(m)):
            break
        g = gcd(m, product)
        untested = g > 1
        if g == 1:
            continue
        for q in primes[start:start + _RUN]:
            if g < q * q:  # so g, free of primes below q, is 1 or a prime
                if g > 1:
                    m, counts[g] = _divide_out(m, g)
                break
            if g % q == 0:
                g //= q
                m, counts[q] = _divide_out(m, q)
    else:
        # Every run was screened: below (TRIAL_LIMIT + 1)^2, m is 1 (the last
        # run divided it out) or a prime, which is_prime need not see.
        if isqrt(m) > TRIAL_LIMIT:
            cofactor, m = _factor_rough(m, 1, counts, [rho_steps]), 1
    if m > 1:
        counts[m] = 1
    return Factorization(sign=sign, factors=tuple(sorted(counts.items())),
                         cofactor=cofactor if cofactor > 1 else None)
