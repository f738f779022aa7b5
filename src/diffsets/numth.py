"""Small-integer number theory helpers (trial division scale).

Everything here operates on integers well below 2^60, where trial
division and direct order computation are fast enough.
"""
from __future__ import annotations

from math import gcd


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_divisors(n: int) -> list[int]:
    return sorted(factorize(n))


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return sorted(ds)


def multiplicative_order(a: int, m: int) -> int:
    """Order of a in (Z/m)^*; m = 1 gives 1.

    The least divisor of phi(m) that kills a: start from phi(m) and strip
    each prime factor while a^(order/p) stays 1, so O(log m) calls of pow.
    """
    if m == 1:
        return 1
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    order = m
    for p in factorize(m):
        order -= order // p
    for p, e in factorize(order).items():
        for _ in range(e):
            if pow(a, order // p, m) != 1:
                break
            order //= p
    return order


def is_prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, e) with n = p^e, or None."""
    if n < 2:
        return None
    fac = factorize(n)
    if len(fac) != 1:
        return None
    ((p, e),) = fac.items()
    return p, e
