import math

from hypothesis import given
from hypothesis import strategies as st

from diffsets.numth import (divisors, factorize, is_prime, is_prime_power,
                            multiplicative_order, prime_divisors)


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
