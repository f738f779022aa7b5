import math
import random
import time

from hypothesis import given
from hypothesis import strategies as st

from diffsets.numth import (divisors, factorize, is_prime, is_prime_power,
                            multiplicative_order, prime_divisors, totient)


def sieve(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = False
    return {i for i, f in enumerate(flags) if f}


PRIMES_1000 = sieve(1000)


def test_is_prime_against_sieve():
    primes = sieve(20000)
    for n in range(20001):
        assert is_prime(n) == (n in primes)


@given(st.integers(min_value=2, max_value=10**6))
def test_factorize_reconstructs(n):
    f = factorize(n)
    assert math.prod(p**e for p, e in f.items()) == n
    assert all(p in PRIMES_1000 or is_prime(p) for p in f)


@given(st.integers(min_value=1, max_value=10**4))
def test_divisors_exact(n):
    ds = divisors(n)
    assert ds == sorted(d for d in range(1, n + 1) if n % d == 0)
    assert prime_divisors(n) == [d for d in ds if is_prime(d)]


@given(st.integers(min_value=2, max_value=500))
def test_multiplicative_order_brute(m):
    for a in range(1, m):
        if math.gcd(a, m) != 1:
            continue
        x, t = a % m, 1
        while x != 1:
            x = x * a % m
            t += 1
        assert multiplicative_order(a, m) == t


def test_totient_counts_units():
    for n in range(1, 500):
        assert totient(n) == sum(math.gcd(a, n) == 1 for a in range(n))


def test_multiplicative_order_large_against_pow():
    # v of PG(3, 3^4) and of PG(3, 2^7); the order of 2 mod 1000003 is large
    for a, m in [(3, 538084), (2, 2113665), (2, 1000003), (7, 67108863)]:
        t = multiplicative_order(a, m)
        assert pow(a, t, m) == 1
        assert all(pow(a, t // p, m) != 1 for p in prime_divisors(t))
    assert multiplicative_order(2, 2113665) == 28


def test_is_prime_power_small():
    expected = {}
    for p in sorted(PRIMES_1000):
        pk = p
        e = 1
        while pk <= 1000:
            expected[pk] = (p, e)
            pk *= p
            e += 1
    for n in range(2, 1001):
        assert is_prime_power(n) == expected.get(n)
    assert is_prime_power(1) is None
    assert is_prime_power(0) is None


def trial_division(n):
    """The oracle of factorize: plain trial division."""
    out, f = {}, 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_matches_trial_division_below_20000():
    for n in range(1, 20000):
        assert factorize(n) == trial_division(n)


def test_factorize_splits_products_of_two_primes_by_rho():
    # both primes are above the trial bound of factorize, so Pollard's rho
    # splits the product; squares included
    rng = random.Random(2007)
    primes = [p for p in (rng.randrange(1 << 10, 1 << 20) for _ in range(400))
              if all(p % d for d in range(2, math.isqrt(p) + 1))]
    pairs = list(zip(primes[::2], primes[1::2])) + [(p, p) for p in primes[:5]]
    assert len(pairs) > 20
    for a, b in pairs:
        assert factorize(a * b) == trial_division(a * b)


def test_factorize_2_124_minus_1_is_fast():
    # 2^62 - 1 = 3 * 715827883 * 2147483647 stalls trial division; the
    # field GF(2^124) of the tower q = 2, s = 31 needs this factorization
    n = 2**124 - 1
    t0 = time.perf_counter()
    f = factorize(n)
    assert time.perf_counter() - t0 < 1.0
    assert math.prod(p**e for p, e in f.items()) == n
    assert all(trial_division(p) == {p: 1} for p in f)
    assert {715827883, 2147483647} <= set(f)


def test_is_prime_rejects_strong_pseudoprimes():
    # the least strong pseudoprimes to the first 1, 4, 11 and 12 prime
    # bases (2 alone, 2..7, 2..31, 2..37); base 41 rejects the last one
    for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    for p in (2147483647, 2**61 - 1):
        assert is_prime(p)
