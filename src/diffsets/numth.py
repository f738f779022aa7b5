"""Number theory helpers: factorization, divisors, multiplicative orders.

`factorize` divides out the primes below _TRIAL_BOUND and splits what is
left with Brent's variant of Pollard's rho, so a cofactor such as
2^62 - 1 = 3 * 715827883 * 2147483647 (a factor of the field order
behind the tower q = 2, s = 31) takes milliseconds.  Primality is
decided exactly: deterministic Miller-Rabin below _MR_LIMIT, trial
division above it.
"""
from __future__ import annotations

from itertools import count
from math import gcd, isqrt

#: Primes below this bound are divided out before Pollard's rho runs.
_TRIAL_BOUND = 1 << 10

#: Miller-Rabin with these bases is exact below _MR_LIMIT, the least strong
#: pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86, 2017).
#: The bases 2..37 alone pass the composite 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _trial(n: int, bound: int) -> tuple[dict[int, int], int]:
    """({prime: exponent} for the primes f < bound dividing n, cofactor)."""
    out: dict[int, int] = {}
    for f in (2, 3):
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
    f = 5
    while f < bound and f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    return out, n


def is_prime(n: int) -> bool:
    """Exact: Miller-Rabin with the bases _MR_BASES, which no composite
    below _MR_LIMIT passes; above it a pass is confirmed by trial
    division."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_LIMIT or _trial(n, isqrt(n) + 1)[1] == n


def _rho(n: int) -> int:
    """A proper divisor of the odd composite n (Brent's variant of
    Pollard's rho: x -> x^2 + c, gcds taken over batches of 128 steps)."""
    for c in count(1):
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and g == 1:
                ys = y
                for _ in range(min(128, r - done)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = gcd(prod, n)
                done += 128
            r *= 2
        if g == n:              # the batch overshot: replay it step by step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}, primes ascending."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out, n = _trial(n, _TRIAL_BOUND)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho(m)
            stack += [d, m // d]
    return dict(sorted(out.items()))


def prime_divisors(n: int) -> list[int]:
    return sorted(factorize(n))


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return sorted(ds)


def totient(n: int) -> int:
    """Euler's phi(n), the number of units mod n."""
    for p in factorize(n):
        n -= n // p
    return n


def multiplicative_order(a: int, m: int) -> int:
    """Order of a in (Z/m)^*; m = 1 gives 1.

    The least divisor of phi(m) that kills a: start from phi(m) and strip
    each prime factor while a^(order/p) stays 1, so O(log m) calls of pow.
    """
    if m == 1:
        return 1
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    order = totient(m)
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
