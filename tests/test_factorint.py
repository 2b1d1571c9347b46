import os
import random
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest

import matdivseq
from golden_tables import X4
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
    samples += [2 ** 64 + 1, 10 ** 18 + 9, -(3 ** 40), 4295229439 ** 2 * 17489 ** 2]
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
        assert [factorint._lucas_v(v, k, n) for k in range(42)] == seq


def test_p_minus_1_stage_splits_a_smooth_p_minus_1(monkeypatch):
    n = _SMOOTH_P_MINUS_1 * _ROUGH[0]
    assert factorint._lucas_split(n, _seed(10, 3, n)) == _SMOOTH_P_MINUS_1
    _forbid_rho(monkeypatch)
    assert factorize(n).factors == ((_ROUGH[0], 1), (_SMOOTH_P_MINUS_1, 1))


def test_p_plus_1_stage_splits_a_smooth_p_plus_1(monkeypatch):
    n = _SMOOTH_P_PLUS_1 * _ROUGH[0]
    # p - 1 = 2^2 11 11936710277 is not smooth; p = 2 (mod 3) puts the 2/7
    # seed in the p + 1 group.
    assert factorint._lucas_split(n, _seed(10, 3, n)) is None
    assert factorint._lucas_split(n, _seed(2, 7, n)) == _SMOOTH_P_PLUS_1
    _forbid_rho(monkeypatch)
    assert factorize(n).factors == ((_ROUGH[0], 1), (_SMOOTH_P_PLUS_1, 1))


def test_rho_splits_what_neither_stage_does(monkeypatch):
    n = _ROUGH[0] * _ROUGH[1]
    for a, b in factorint._SEEDS:
        assert factorint._lucas_split(n, _seed(a, b, n)) is None
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
    assert factorint._lucas_split(n, _seed(10, 3, n)) is None
    assert gcds[-1] == n and len(gcds) <= len(factorint._stage_plan()[0])
    monkeypatch.undo()
    assert factorize(n) == Factorization(sign=1, factors=((1000033, 1), (1007609, 1)))


def test_lucas_split_replays_a_stage_2_giant_step(monkeypatch):
    # p - 1 = 2^2 3^2 13 2137 and 2^3 5 11 2273: the stage-2 primes
    # 2137 = D - 173 and 2273 = D - 37 share the giant step k = 1, so its gcd
    # is n and the term-by-term replay isolates 1000121.
    n = 1000117 * 1000121
    gcds = _record_gcds(monkeypatch)
    assert factorint._lucas_split(n, _seed(10, 3, n)) == 1000121
    stage_1 = len(factorint._stage_plan()[0])
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
