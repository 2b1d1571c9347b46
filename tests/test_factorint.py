import os
import random
import subprocess
import sys
import time
from math import prod
from pathlib import Path

import pytest

import matdivseq
from golden_tables import X4
from helpers import factor_rough_restarting, lucas_split_per_prime
from matdivseq import Factorization, factor_table, factorize, generate_sequence, is_prime
from matdivseq import factorint

# Values at the trial-division bound of 10^6 and their factorizations:
# 999983 is the largest prime below it, 1000003 the smallest above it, and
# 999953..999983 are the five consecutive primes that end the range.
_TOP = (999953, 999959, 999961, 999979, 999983)
_BOUNDARY = [
    (999983, ((999983, 1),)),
    (999983 ** 2, ((999983, 2),)),
    (999983 * 1000003, ((999983, 1), (1000003, 1))),
    (1000003 ** 2, ((1000003, 2),)),
    (prod(_TOP), tuple((p, 1) for p in _TOP)),
]


def _trial_division(n):
    """Independent factorization oracle for small inputs."""
    if n == 0:
        return 0, []
    sign = -1 if n < 0 else 1
    m = abs(n)
    factors = []
    p = 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            factors.append((p, e))
        p += 1
    if m > 1:
        factors.append((m, 1))
    return sign, factors


def test_is_prime_small():
    assert is_prime(2)
    assert is_prime(3)
    assert not is_prime(1)
    assert not is_prime(4)
    assert not is_prime(6561)


def test_is_prime_matches_trial_division():
    for n in range(2, 5000):
        _, fs = _trial_division(n)
        assert is_prime(n) == (len(fs) == 1 and fs[0][1] == 1), n


def test_is_prime_large_values():
    assert is_prime(4295229439)
    assert is_prime(281466386710529)
    assert is_prime(131825214490835791)
    assert not is_prime(4295229439 * 131825214490835791)
    # Beyond the deterministic bound: a Mersenne prime and its neighbor.
    assert is_prime(2 ** 89 - 1)
    assert not is_prime(2 ** 89 + 1)


def _strong_probable_prime(n, bases):
    """Miller-Rabin on odd n > 41 to each of ``bases``, written out afresh."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# psi_k, the least strong pseudoprime to the first k prime bases. is_prime's
# base count steps up at psi_4, psi_7, psi_9, psi_12 and psi_13; the others
# lie inside its tiers.
_PSI = {1: 2047, 2: 1373653, 3: 25326001, 4: 3215031751, 5: 2152302898747,
        6: 3474749660383, 7: 341550071728321, 8: 341550071728321,
        9: 3825123056546413051, 10: 3825123056546413051, 11: 3825123056546413051,
        12: 318665857834031151167461, 13: 3317044064679887385961981}
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def test_is_prime_rejects_each_psi_k():
    # Each psi_k passes its first k bases, so a tier that reached it with k
    # bases, or fewer than it holds, would call it prime.
    for k, psi in _PSI.items():
        assert _strong_probable_prime(psi, _PRIME_BASES[:k]), k
        assert not is_prime(psi), k


def test_is_prime_tiers_agree_with_all_13_bases():
    rng = random.Random(163)
    sample = [n for psi in _PSI.values() for n in range(psi - 40, min(psi + 40, _PSI[13]))]
    for digits in range(3, 25):
        sample += [rng.randrange(10 ** (digits - 1), 10 ** digits) for _ in range(40)]
    # Carmichael numbers: the classic small ones, and Chernick's (6k+1)(12k+1)(18k+1)
    # with all three factors prime.
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185]
    ks = [*range(1, 500), *(rng.randrange(10 ** 3, 10 ** 7) for _ in range(20000))]
    for k in ks:
        fs = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(is_prime(f) for f in fs):
            carmichael.append(prod(fs))
    assert len(carmichael) > 40 and max(carmichael) < _PSI[13]
    sample += carmichael
    primes = 0
    for n in sample:
        want = (n in _PRIME_BASES or (all(n % p for p in _PRIME_BASES)
                                      and _strong_probable_prime(n, _PRIME_BASES)))
        assert is_prime(n) == want, n
        primes += want
    assert primes > 30 and not any(is_prime(n) for n in carmichael)


def test_is_prime_rejects_nonpositive():
    with pytest.raises(ValueError):
        is_prime(0)
    with pytest.raises(ValueError):
        is_prime(-7)


def test_factorize_units_and_zero():
    assert factorize(0) == Factorization(sign=0)
    assert factorize(1) == Factorization(sign=1)
    assert factorize(-1) == Factorization(sign=-1)


def test_factorize_spot_values():
    assert factorize(808201).factors == ((29, 2), (31, 2))
    assert factorize(193600).factors == ((2, 6), (5, 2), (11, 2))
    f = factorize(-12)
    assert f.sign == -1 and f.factors == ((2, 2), (3, 1))
    for n, factors in _BOUNDARY:
        assert factorize(n) == Factorization(sign=1, factors=factors), n


def test_factorize_reconstruction():
    rng = random.Random(151)
    samples = [rng.randint(-10 ** 9, 10 ** 9) for _ in range(40)]
    samples += [2 ** 64 + 1, 10 ** 18 + 9, -(3 ** 40), 4295229439 ** 2 * 17489 ** 2,
                -(2 ** 4000) * (10 ** 12 + 39) ** 3]
    samples += [n for n, _factors in _BOUNDARY]
    for n in samples:
        f = factorize(n)
        assert f.value() == n
        assert f.complete
        for p, _e in f.factors:
            assert is_prime(p)


def test_factorize_agrees_with_trial_division():
    for n in range(-1000, 1001):
        sign, factors = _trial_division(n)
        got = factorize(n)
        assert got.sign == sign and list(got.factors) == factors, n
    rng = random.Random(157)
    for _ in range(1500):
        n = rng.randint(2, 10 ** 6)
        sign, factors = _trial_division(n)
        got = factorize(n)
        assert got.sign == sign and list(got.factors) == factors, n
    # Two to four primes of one run of trial primes, the largest near its end, where
    # the run's scan stops at the square root of what is left of its gcd: 709 and
    # 719 end run 0 (2 and the first 127 odd primes), 1613 and 1619 run 1.
    primes = factorint._prime_runs()[0]
    values = [2 * 3 * 709 * 719, 5 * 719 ** 2, 127 * 131 * 709, 3 ** 4 * 701 * 709 * 719,
              2 * 719, 709 * 719, 727 * 1619, 1613 ** 2 * 1619 * 1000003]
    for _ in range(300):
        run = primes[rng.randrange(4) * factorint._RUN:][:factorint._RUN]
        picked = rng.sample(run[:-4], rng.randint(1, 3)) + [rng.choice(run[-4:])]
        powers = prod(q ** rng.randint(1, 3) for q in picked)
        values.append(powers * rng.choice((1, 7, 1000003)))
    for n in values:
        sign, factors = _trial_division(n)
        assert factorize(n) == Factorization(sign=sign, factors=tuple(factors)), n


def test_factorize_budget_exhaustion_leaves_cofactor():
    hard = 1000000000039 * 1000000000061
    f = factorize(hard, rho_steps=64)
    assert not f.complete
    assert f.cofactor == hard
    assert f.factors == ()
    assert f.value() == hard
    # With the default budget the same number splits.
    full = factorize(hard)
    assert full.complete
    assert full.factors == ((1000000000039, 1), (1000000000061, 1))
    # Trial division still strips the small primes when rho gets no steps.
    f = factorize(2 ** 5 * 999983 * hard, rho_steps=0)
    assert f == Factorization(sign=1, factors=((2, 5), (999983, 1)), cofactor=hard)


def test_import_builds_no_prime_table():
    # The trial-division primes are sieved on the first factorize call only.
    src = str(Path(matdivseq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import matdivseq\n"
            "from matdivseq.factorint import _prime_runs\n"
            "print(_prime_runs.cache_info().currsize)\n"
            "matdivseq.factorize(10 ** 12 + 39)\n"
            "print(_prime_runs.cache_info().currsize)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.split() == ["0", "1"]


def test_multiplicities_of_high_powers():
    # The count of each trial prime is found by doubling powers: 3^56000
    # factors in milliseconds, where dividing once per power took seconds.
    factorize(2)
    start = time.process_time()
    assert factorize(3 ** 56000).factors == ((3, 56000),)
    assert time.process_time() - start < 0.5
    assert factorize(3 ** 14000).factors == ((3, 14000),)
    assert factorize(3 ** 28000).factors == ((3, 28000),)
    assert factorize(3 ** 56000 * 7).factors == ((3, 56000), (7, 1))
    assert factorize(999983 ** 3000 * 7).factors == ((7, 1), (999983, 3000))
    rng = random.Random(167)
    for _ in range(60):
        a, b, c = (rng.choice([0, 1, 2, 3, rng.randrange(4, 300)]) for _ in range(3))
        n = 2 ** a * 3 ** b * 999983 ** c
        want = tuple((p, e) for p, e in ((2, a), (3, b), (999983, c)) if e)
        assert factorize(n).factors == want, (a, b, c)


def test_divide_out_counts_every_power():
    for q in (2, 3, 7, 999983):
        for k in range(1, 70):
            for rest in (1, 2, 5, 11 * 13 * 999979):
                if rest % q:  # q = 2 takes the odd rests only
                    assert factorint._divide_out(q ** k * rest, q) == (rest, k), (q, k, rest)


def test_trial_division_divides_out_2_like_every_trial_prime(monkeypatch):
    # 2 heads the first run of trial primes, so its screen and _divide_out take it.
    divided = []
    divide_out = factorint._divide_out

    def spy(m, q):
        divided.append(q)
        return divide_out(m, q)

    monkeypatch.setattr(factorint, "_divide_out", spy)
    f = factorize(2 ** 70 * 3 ** 5 * 999983)
    assert f.factors == ((2, 70), (3, 5), (999983, 1))
    assert divided == [2, 3]


def test_factorize_perfect_powers():
    f = factorize((10 ** 12 + 39) ** 3)
    assert f.factors == ((10 ** 12 + 39, 3),)
    g = factorize(2 ** 100)
    assert g.factors == ((2, 100),)


def test_perfect_power_search_tries_only_roots_above_the_trial_limit(monkeypatch):
    # What is left after trial division has no prime factor <= 10^6 > 2^19, so a
    # k-th root of m is above 2^19 and k <= m.bit_length() // 19.
    tried = []
    exact_root = factorint._exact_root

    def counted(n, k):
        tried.append((n, k))
        return exact_root(n, k)

    monkeypatch.setattr(factorint, "_exact_root", counted)
    p, q = 1000003, 1000033
    for n, factors in [(p ** 2, ((p, 2),)), (p ** 3, ((p, 3),)), (p ** 5, ((p, 5),)),
                       (p ** 19, ((p, 19),)), ((p * q) ** 2, ((p, 2), (q, 2))),
                       (p ** 2 * q ** 3, ((p, 2), (q, 3))), (-p ** 4, ((p, 4),))]:
        tried.clear()
        f = factorize(n)
        assert (f.sign, f.factors, f.cofactor) == (-1 if n < 0 else 1, factors, None), n
        assert tried, n
        assert all(k <= m.bit_length() // 19 for m, k in tried), n
        # A composite k is never tried: its smallest prime factor finds the power first.
        assert all(is_prime(k) for _m, k in tried), n


def test_trial_division_stops_at_a_proven_prime(monkeypatch):
    # What is left above 1e10 is tested for primality before the first run
    # and after each run that divides it; a proven prime ends trial division.
    screens = []
    gcd = factorint.gcd

    def counted(a, b):
        screens.append(b)
        return gcd(a, b)

    monkeypatch.setattr(factorint, "gcd", counted)
    assert factorize(1465126030367).factors == ((1465126030367, 1),)
    assert screens == []
    assert factorize(4643 * 535418597473).factors == ((4643, 1), (535418597473, 1))
    assert len(screens) < 10
    # Composites and leftovers too small for the test still run the screens.
    assert factorize(3 * 999983 * 1465126030367).factors == (
        (3, 1), (999983, 1), (1465126030367, 1))
    assert factorize(7 * (10 ** 12 + 39) ** 2).factors == ((7, 1), (10 ** 12 + 39, 2))
    assert factorize(999983 * 1000003).factors == ((999983, 1), (1000003, 1))


def test_trial_division_tests_no_even_value_for_primality(monkeypatch):
    # 2 heads the first run, so an even value meets that screen before any test.
    tested = []
    monkeypatch.setattr(factorint, "is_prime", lambda n: tested.append(n) or is_prime(n))
    assert factorize(2 * (10 ** 12 + 39)).factors == ((2, 1), (10 ** 12 + 39, 1))
    assert tested == [10 ** 12 + 39]
    tested.clear()
    assert factorize(2 ** 9 * 3 * 1465126030367).factors == (
        (2, 9), (3, 1), (1465126030367, 1))
    assert tested == [1465126030367]


def test_rendering():
    assert str(factorize(193600)) == "2^6 5^2 11^2"
    assert str(factorize(-12)) == "-2^2 3"
    assert str(factorize(1)) == "1"
    assert str(factorize(0)) == "0"
    assert str(factorize(97)) == "97"
    partial = factorize(1000000000039 * 1000000000061, rho_steps=64)
    assert str(partial).startswith("[") and str(partial).endswith("]")


def test_factorization_validation():
    with pytest.raises(ValueError):
        Factorization(sign=2)
    with pytest.raises(ValueError):
        Factorization(sign=0, factors=((2, 1),))
    with pytest.raises(ValueError):
        Factorization(sign=1, factors=((5, 1), (3, 1)))
    with pytest.raises(ValueError):
        Factorization(sign=1, factors=((2, 0),))
    with pytest.raises(ValueError):
        Factorization(sign=1, cofactor=1)


def test_product_signs():
    minus_12 = factorize(-12)
    assert Factorization.product([(minus_12, 3)]) == Factorization(
        sign=-1, factors=((2, 6), (3, 3)))
    assert Factorization.product([(minus_12, 2)]) == Factorization(
        sign=1, factors=((2, 4), (3, 2)))
    assert Factorization.product([(minus_12, 1), (factorize(-5), 1)]) == factorize(60)
    assert Factorization.product([(factorize(-1), 7)]) == factorize(-1)


def test_product_zero_and_one():
    zero, one = factorize(0), factorize(1)
    assert Factorization.product([]) == one
    assert Factorization.product([(zero, 0)]) == one  # 0^0 = 1, as det^(n-1) at n = 1
    assert Factorization.product([(zero, 0), (factorize(-7), 1)]) == factorize(-7)
    assert Factorization.product([(factorize(-12), 3), (zero, 2)]) == zero
    assert Factorization.product([(one, 5), (factorize(97), 1)]) == factorize(97)
    with pytest.raises(ValueError):
        Factorization.product([(one, -1)])


def test_product_merges_shared_primes():
    got = Factorization.product([(factorize(12), 2), (factorize(18), 1), (factorize(35), 3)])
    assert got == factorize(12 ** 2 * 18 * 35 ** 3)
    assert got.factors == ((2, 5), (3, 4), (5, 3), (7, 3))
    assert got.value() == 12 ** 2 * 18 * 35 ** 3


def test_product_multiplies_cofactors():
    hard = 1000000000039 * 1000000000061
    partial = factorize(-6 * hard, rho_steps=64)
    assert partial == Factorization(sign=-1, factors=((2, 1), (3, 1)), cofactor=hard)
    got = Factorization.product([(partial, 2), (factorize(10), 1),
                                 (Factorization(sign=1, cofactor=15), 1)])
    # __post_init__ ran: ascending primes, positive exponents, cofactor > 1.
    assert got == Factorization(sign=1, factors=((2, 3), (3, 2), (5, 1)),
                                cofactor=hard ** 2 * 15)
    assert got.value() == (6 * hard) ** 2 * 10 * 15
    assert not got.complete


# Primes for the p-1/p+1 stages. 52574490667 - 1 = 2 3^4 17 53 360193 and
# 525215252189 + 1 = 2 3 5 19 31 197 150881 (both divide primitive parts of
# X4's table); each ROUGH prime q has a prime factor above STAGE2_BOUND in
# both q - 1 and q + 1, so no seed of either stage reaches it.
_SMOOTH_P_MINUS_1 = 52574490667
_SMOOTH_P_PLUS_1 = 525215252189
_ROUGH = (10001659, 10002547)


def _seed(a, b, n):
    return a * pow(b, -1, n) % n


def _forbid_rho(monkeypatch):
    def refuse(n, budget):
        raise AssertionError(f"rho called on {n}")
    monkeypatch.setattr(factorint, "_brent_rho", refuse)


def test_lucas_v_matches_the_recurrence():
    n = 10 ** 12 + 39
    for v in (3, _seed(2, 7, n), n - 1):
        seq = [2, v]
        for _ in range(40):
            seq.append((v * seq[-1] - seq[-2]) % n)
        assert [factorint._lucas_v(v, k, n) for k in range(1, 42)] == seq[1:]


def test_p_minus_1_stage_splits_a_smooth_p_minus_1(monkeypatch):
    n = _SMOOTH_P_MINUS_1 * _ROUGH[0]
    assert factorint._lucas_split(n, _seed(10, 3, n))[0] == _SMOOTH_P_MINUS_1
    _forbid_rho(monkeypatch)
    assert factorize(n).factors == ((_ROUGH[0], 1), (_SMOOTH_P_MINUS_1, 1))


def test_p_plus_1_stage_splits_a_smooth_p_plus_1(monkeypatch):
    n = _SMOOTH_P_PLUS_1 * _ROUGH[0]
    # p - 1 = 2^2 11 11936710277 is not smooth; p = 2 (mod 3) puts the 2/7
    # seed in the p + 1 group.
    assert factorint._lucas_split(n, _seed(10, 3, n))[0] is None
    assert factorint._lucas_split(n, _seed(2, 7, n))[0] == _SMOOTH_P_PLUS_1
    _forbid_rho(monkeypatch)
    assert factorize(n).factors == ((_ROUGH[0], 1), (_SMOOTH_P_PLUS_1, 1))


def test_rho_splits_what_neither_stage_does(monkeypatch):
    n = _ROUGH[0] * _ROUGH[1]
    for a, b in factorint._SEEDS:
        assert factorint._lucas_split(n, _seed(a, b, n))[0] is None
    calls = []
    rho = factorint._brent_rho

    def counted(m, budget):
        calls.append(m)
        return rho(m, budget)

    monkeypatch.setattr(factorint, "_brent_rho", counted)
    assert factorize(n).factors == ((_ROUGH[0], 1), (_ROUGH[1], 1))
    assert calls == [n]


def test_factorize_is_deterministic():
    values = [_SMOOTH_P_MINUS_1 * _ROUGH[0], _SMOOTH_P_PLUS_1 * _ROUGH[1],
              _ROUGH[0] * _ROUGH[1], _SMOOTH_P_MINUS_1 * _SMOOTH_P_PLUS_1 * _ROUGH[0] ** 2]
    assert [factorize(v) for v in values] == [factorize(v) for v in values]


def test_x4_table_splits_without_rho(monkeypatch):
    entries = generate_sequence(X4, 20)
    per_term = [factorize(e.reduced) for e in entries]
    _forbid_rho(monkeypatch)
    assert factor_table(entries) == per_term
    assert all(f.complete for f in per_term)


def test_import_builds_no_stage_plan():
    # The stage primes are sliced from the sieve on the first stage run only.
    src = str(Path(matdivseq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import matdivseq\n"
            "from matdivseq.factorint import _stage_plan\n"
            "print(_stage_plan.cache_info().currsize)\n"
            f"matdivseq.factorize({_ROUGH[0] * _ROUGH[1]})\n"
            "print(_stage_plan.cache_info().currsize)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.split() == ["0", "1"]


def _record_gcds(monkeypatch):
    results = []
    gcd = factorint.gcd

    def recorded(a, b):
        g = gcd(a, b)
        results.append(g)
        return g

    monkeypatch.setattr(factorint, "gcd", recorded)
    return results


def test_rho_replays_single_steps_after_a_batch_overshoot(monkeypatch):
    # With c = 1 the walk closes its cycles mod 1009 and mod 1049 in the same
    # batch of steps, so the batch gcd is n; the single-step replay from the
    # batch's start isolates 1049.
    n = 1009 * 1049
    gcds = _record_gcds(monkeypatch)
    assert factorint._brent_rho(n, [10 ** 6]) == 1049
    assert gcds.count(n) == 1
    assert gcds.index(n) < len(gcds) - 1 and gcds[-1] == 1049


def test_lucas_split_gives_up_at_a_stage_1_gcd_of_n(monkeypatch):
    # p - 1 of both primes is 947-smooth (2^5 3 11 947 and 2^3 7 19 947), so
    # the stage-1 step at 947 completes both orders at once.
    n = 1000033 * 1007609
    gcds = _record_gcds(monkeypatch)
    assert factorint._lucas_split(n, _seed(10, 3, n))[0] is None
    assert gcds[-1] == n and len(gcds) <= len(factorint._stage_plan()[0])
    monkeypatch.undo()
    assert factorize(n) == Factorization(sign=1, factors=((1000033, 1), (1007609, 1)))


def test_lucas_split_replays_a_stage_2_giant_step(monkeypatch):
    # p - 1 = 2^2 3^2 13 2137 and 2^3 5 11 2273: the stage-2 primes
    # 2137 = D - 173 and 2273 = D - 37 share the giant step k = 1, so its gcd
    # is n and the term-by-term replay isolates 1000121.
    n = 1000117 * 1000121
    gcds = _record_gcds(monkeypatch)
    assert factorint._lucas_split(n, _seed(10, 3, n)) == (1000121, None)  # no stage to resume
    stage_1 = len(factorint._stage_plan()[3])  # one gcd per stage-1 chunk
    assert gcds[stage_1] == n and n not in gcds[stage_1 + 1:]
    assert gcds[-1] == 1000121


def test_trial_division_alone_finishes_values_below_the_trial_limit(monkeypatch):
    # Values whose primes are all <= TRIAL_LIMIT, or leave one prime below
    # (TRIAL_LIMIT + 1)^2, never reach the splitting stages, and is_prime sees
    # nothing but the input.
    def refuse(n, *args):
        raise AssertionError(f"splitting stage called on {n}")

    monkeypatch.setattr(factorint, "_lucas_split", refuse)
    monkeypatch.setattr(factorint, "_brent_rho", refuse)
    tested = []
    monkeypatch.setattr(factorint, "is_prime", lambda n: tested.append(n) or is_prime(n))
    for n in (999983, 999983 ** 2, prod(_TOP), 2 ** 5 * 3 ** 4 * 999983, 999983 * 1000003):
        tested.clear()
        sign, factors = _trial_division(n)
        assert factorize(n) == Factorization(sign=sign, factors=tuple(factors)), n
        assert set(tested) <= {n}, n


# The composites factor_table splits by p-1/p+1 for X4 at n <= 20: the 29-digit
# one is Psi_17's cofactor, where the p-1 stage continues, and the last 39-digit
# one takes two seeds, as the p-1 seed fails on it.
_X4_SPLITS = (37378551270772621757, 70931585488408111, 5877944700413743,
              341019527855583793199506522952353579007, 17547243001818921581872482443,
              466437473756534208909477095939609617703)


_LUCAS_SPLIT_CASES = (
    _SMOOTH_P_MINUS_1 * _ROUGH[0], _SMOOTH_P_PLUS_1 * _ROUGH[0], _ROUGH[0] * _ROUGH[1],
    1000033 * 1007609,  # the stage-1 gcd is n
    1000117 * 1000121,  # the stage-2 replay
    # gcd(V_E - 2, n) is 1000033^2, as (3^E - 1)^2 has 1000033^2 and 3^E - 1 only 1000033.
    1000033 ** 2 * 10001659,
    # 3 has an order dividing E at the 81st stage-1 prime power mod 1000037 and at
    # the 96th mod 1000453, in one chunk: the gcd grows from 1000037 to n inside it.
    1000037 * 1000453,
    *_X4_SPLITS,
)


def test_lucas_split_matches_the_per_prime_stage_1():
    for n in _LUCAS_SPLIT_CASES:
        for a, b in factorint._SEEDS:
            v = _seed(a, b, n)
            assert factorint._lucas_split(n, v)[0] == lucas_split_per_prime(n, v), (n, a, b)
    n = 1000033 ** 2 * 10001659
    assert factorint._lucas_split(n, _seed(10, 3, n))[0] == 1000033 ** 2
    n = 1000037 * 1000453
    assert factorint._lucas_split(n, _seed(10, 3, n))[0] == 1000037


def test_x4_split_inside_a_stage_1_chunk(monkeypatch):
    # The p-1 split of one of X4's values stops at the 90th stage-1 prime power,
    # inside a chunk: the chunk's gcd is the factor, and its replay from the
    # chunk's start finds it again at that prime.
    n, p = 37378551270772621757, 7282397
    gcds = _record_gcds(monkeypatch)
    assert factorint._lucas_split(n, _seed(10, 3, n))[0] == p
    chunk = factorint._CHUNK
    assert 89 % chunk and gcds == [1] * (89 // chunk) + [p] + [1] * (89 % chunk) + [p]


def test_p_minus_1_stage_1_runs_no_lucas_ladder(monkeypatch):
    ladders = []
    lucas_v = factorint._lucas_v

    def counted(v, k, n):
        ladders.append(k)
        return lucas_v(v, k, n)

    monkeypatch.setattr(factorint, "_lucas_v", counted)
    n = _ROUGH[0] * _ROUGH[1]
    assert factorint._lucas_split(n, _seed(10, 3, n))[0] is None
    assert ladders == [factorint._D]  # stage 2's V_D alone
    ladders.clear()
    assert factorint._lucas_split(n, _seed(2, 7, n))[0] is None
    assert ladders == [*factorint._stage_plan()[3], factorint._D]  # a ladder per chunk


def test_stage_charge_is_unchanged():
    # The budget is charged this nominal count per seed run, whatever stage 1's shape.
    assert factorint._stage_plan()[2] == 39846


# X4's Psi_17. 19434365149 - 1 = 2^2 3 11^2 167 80147 and 52574490667 - 1 = 2 3^4 17 53 360193:
# the p-1 seed's stage 2 splits off the first at the giant step k = 35 (80147 = 35D - 703),
# and the second off the cofactor at k = 156 (360193 = 156D - 167).
_PSI_17 = _X4_SPLITS[3]
_PSI_17_PRIMES = (19434365149, 52574490667, 333759638547159329)


def _gcd_moduli(monkeypatch):
    moduli = []
    gcd = factorint.gcd
    monkeypatch.setattr(factorint, "gcd", lambda a, b: moduli.append(b) or gcd(a, b))
    return moduli


def test_psi_17_runs_the_p_minus_1_stage_1_once(monkeypatch):
    # The cofactor continues the stage at k = 35, so the gcds on Psi_17 and its cofactor
    # are one stage 1 and the giant steps through k = 156, with k = 35 taken on both.
    moduli = _gcd_moduli(monkeypatch)
    _forbid_rho(monkeypatch)
    assert factorize(_PSI_17).factors == tuple((p, 1) for p in _PSI_17_PRIMES)
    steps = [k for k, _js in factorint._stage_plan()[1]]
    stage_1 = len(factorint._stage_plan()[3])
    cofactor = _PSI_17 // _PSI_17_PRIMES[0]
    assert stage_1 == 14
    assert moduli.count(_PSI_17) + moduli.count(cofactor) == stage_1 + steps.index(156) + 2


def test_psi_17_cofactor_starts_at_giant_step_35(monkeypatch):
    starts = []
    stage_2 = factorint._stage_2

    def spy(n, stage):
        starts.append((n, stage[0]))
        return stage_2(n, stage)

    monkeypatch.setattr(factorint, "_stage_2", spy)
    moduli = _gcd_moduli(monkeypatch)
    assert factorize(_PSI_17).factors == tuple((p, 1) for p in _PSI_17_PRIMES)
    cofactor = _PSI_17 // _PSI_17_PRIMES[0]
    steps = [k for k, _js in factorint._stage_plan()[1]]
    assert starts == [(_PSI_17, 0), (cofactor, steps.index(35))]
    assert moduli.count(cofactor) == steps.index(156) - steps.index(35) + 1


def test_a_cofactor_that_cannot_pay_for_the_p_minus_1_stage_goes_to_rho(monkeypatch):
    # Psi_17's first stage leaves 39845 < 39846: nothing resumes, and rho spends the rest.
    split, rho = [], []
    lucas_split, brent_rho = factorint._lucas_split, factorint._brent_rho
    monkeypatch.setattr(factorint, "_lucas_split",
                        lambda n, v: split.append(n) or lucas_split(n, v))
    monkeypatch.setattr(factorint, "_brent_rho", lambda n, b: rho.append(n) or brent_rho(n, b))
    steps = 2 * factorint._stage_plan()[2] - 1
    cofactor = _PSI_17 // _PSI_17_PRIMES[0]
    assert factorize(_PSI_17, steps) == Factorization(
        sign=1, factors=((_PSI_17_PRIMES[0], 1),), cofactor=cofactor)
    assert split == [_PSI_17] and rho == [cofactor]
    monkeypatch.undo()
    counts, budget = {}, [steps]
    assert factor_rough_restarting(_PSI_17, 1, counts, budget) == cofactor
    assert counts == {_PSI_17_PRIMES[0]: 1}


def test_a_resumed_stage_finds_what_a_restart_on_the_cofactor_finds():
    resumed = []
    for n in _LUCAS_SPLIT_CASES:
        for a, b in factorint._SEEDS:
            v = _seed(a, b, n)
            d, stage = factorint._lucas_split(n, v)
            if stage is None:
                continue
            c = n // d
            found = factorint._stage_2(c, stage)[0]  # _stage_2 reduces the stage mod c
            assert found == lucas_split_per_prime(c, v % c), (n, a, b)
            resumed.append(found)
    # Fifteen splits; only Psi_17's cofactor is composite, and the seeds that run p-1 on
    # 52574490667 = 1 (mod 3), 10/3 and 2/7, split it again.
    assert len(resumed) == 15 and [d for d in resumed if d] == [_PSI_17_PRIMES[1]] * 2


# Three primes p = 2 (mod 3), so the 2/7 seed runs p+1 on each, with p + 1
# STAGE2_BOUND-smooth (largest primes 13687, 361219, 37243) and p - 1 not
# (4345087, 5730047, 1907623): seed 2/7's stage 2 splits off the first at the
# giant step k = 6 (13687 = 6D - 173), and the third off the cofactor at k = 16.
_P_PLUS_1_PRIMES = (13104782393, 224067757889, 652048432877)


def test_a_p_plus_1_split_resumes_in_its_own_slot(monkeypatch):
    split, starts = [], []
    lucas_split, stage_2 = factorint._lucas_split, factorint._stage_2
    monkeypatch.setattr(factorint, "_lucas_split",
                        lambda n, v: split.append(n) or lucas_split(n, v))

    def spy(n, stage):
        starts.append((n, stage[0]))
        return stage_2(n, stage)

    monkeypatch.setattr(factorint, "_stage_2", spy)
    _forbid_rho(monkeypatch)
    n = prod(_P_PLUS_1_PRIMES)
    cofactor = n // _P_PLUS_1_PRIMES[0]
    assert factorize(n).factors == tuple((p, 1) for p in _P_PLUS_1_PRIMES)
    # The cofactor runs the p-1 seed from the start, then resumes 2/7 in its slot.
    assert split == [n, n, cofactor]
    steps = [k for k, _js in factorint._stage_plan()[1]]
    assert starts == [(n, 0), (n, 0), (cofactor, 0), (cofactor, steps.index(6))]
    monkeypatch.undo()
    counts, budget = {}, [factorint.RHO_STEP_BUDGET]
    got = factorint._factor_rough(n, 1, counts, budget)
    want_counts, want_budget = {}, [factorint.RHO_STEP_BUDGET]
    assert factor_rough_restarting(n, 1, want_counts, want_budget) == got == 1
    assert counts == want_counts and budget == want_budget
