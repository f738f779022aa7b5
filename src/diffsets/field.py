"""Exact arithmetic in GF(p^n) with a fixed primitive element.

A field element is a plain Python int encoding its coefficient vector
(c0, c1, ..., c_{n-1}) in the power basis as sum(c_i * p**i); for p = 2
this is the familiar bit-packed form.  Use :meth:`FiniteField.coeffs`
and :meth:`FiniteField.from_coeffs` to convert.

The modulus is the lexicographically smallest primitive monic polynomial
of degree n over Z_p (coefficients compared constant-term first), found
by exhaustive search at construction time.  The residue of the
polynomial variable is therefore always a generator of the
multiplicative group, and field construction is bit-reproducible from
(p, n) alone.
"""
from __future__ import annotations

import functools
import itertools

from .numth import is_prime, prime_divisors

#: Largest field order constructible without an explicit override.
SIZE_CEILING = 1 << 28


class FieldSizeError(ValueError):
    """Requested field exceeds the configured size ceiling."""


# ---------------------------------------------------------------------------
# polynomial arithmetic used by the primitivity search (list coefficients,
# constant term first)

def _pmul_mod(p: int, n: int, mod: tuple[int, ...], a: list[int], b: list[int]) -> list[int]:
    res = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    for d in range(2 * n - 2, n - 1, -1):
        c = res[d]
        if c:
            res[d] = 0
            for i in range(n):
                res[d - n + i] = (res[d - n + i] - c * mod[i]) % p
    return res[:n]


def _ppow_x_mod(p: int, n: int, mod: tuple[int, ...], e: int) -> list[int]:
    """x^e modulo the degree-n polynomial mod, over Z_p."""
    result = [1] + [0] * (n - 1)
    base = ([0, 1] + [0] * (n - 2)) if n > 1 else [(-mod[0]) % p]
    while e:
        if e & 1:
            result = _pmul_mod(p, n, mod, result, base)
        e >>= 1
        if e:
            base = _pmul_mod(p, n, mod, base, base)
    return result


def _mul2_mod(n: int, modmask: int, a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> n) & 1:
            a ^= modmask
    return r


def _pow2_x_mod(n: int, modmask: int, e: int) -> int:
    result = 1
    base = 2 if n > 1 else modmask & 1
    while e:
        if e & 1:
            result = _mul2_mod(n, modmask, result, base)
        e >>= 1
        if e:
            base = _mul2_mod(n, modmask, base, base)
    return result


def _is_primitive(p: int, n: int, f: tuple[int, ...], mult_order: int,
                  cofactors: list[int]) -> bool:
    """True iff the residue of x has multiplicative order p^n - 1 mod f.

    An element of that order forces the quotient ring to be a field, so
    irreducibility need not be tested separately.
    """
    if n > 1:
        # a linear factor kills primitivity immediately
        for a in range(p):
            if sum(c * a**i for i, c in enumerate(f)) % p == 0:
                return False
    if p == 2:
        modmask = 0
        for i, c in enumerate(f):
            modmask |= c << i
        if _pow2_x_mod(n, modmask, mult_order) != 1:
            return False
        return all(_pow2_x_mod(n, modmask, e) != 1 for e in cofactors)
    one = [1] + [0] * (n - 1)
    if _ppow_x_mod(p, n, f, mult_order) != one:
        return False
    return all(_ppow_x_mod(p, n, f, e) != one for e in cofactors)


@functools.lru_cache(maxsize=None)
def _lex_smallest_primitive(p: int, n: int) -> tuple[int, ...]:
    mult_order = p**n - 1
    cofactors = [mult_order // r for r in prime_divisors(mult_order)]
    # the norm of a primitive element is (-1)^n * c0 and must itself be a
    # primitive root mod p, which rules out most constant terms up front
    good_c0 = [c0 for c0 in range(1, p)
               if _is_primitive_root((-1) ** n * c0 % p, p)]
    for c0 in range(1, p):
        if c0 not in good_c0:
            continue
        for rest in itertools.product(range(p), repeat=n - 1):
            f = (c0,) + rest + (1,)
            if _is_primitive(p, n, f, mult_order, cofactors):
                return f
    raise RuntimeError(f"no primitive polynomial of degree {n} over Z_{p}")


def _is_primitive_root(a: int, p: int) -> bool:
    if p == 2:
        return a == 1
    if a % p == 0:
        return False
    return all(pow(a, (p - 1) // r, p) != 1 for r in prime_divisors(p - 1))


class LinearMap:
    """Z_p-linear map on a field, stored columnwise.

    cols[j] is the (packed) image of the basis element x^j, so applying
    the map costs one matrix-vector product.
    """

    __slots__ = ("field", "cols")

    def __init__(self, field: "FiniteField", cols: list[int]):
        self.field = field
        self.cols = cols

    def __call__(self, x: int) -> int:
        F = self.field
        if F.p == 2:
            acc = 0
            for col in self.cols:
                if x & 1:
                    acc ^= col
                x >>= 1
                if not x:
                    break
            return acc
        acc = 0
        for col in self.cols:
            c = x % F.p
            x //= F.p
            if c:
                acc = F.add(acc, F.scalar_mul(c, col))
            if not x:
                break
        return acc


class FiniteField:
    """GF(p^n) with a deterministic primitive modulus.

    Immutable after construction; every operation is a pure function of
    its inputs, so instances are safe to share across workers.
    """

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.order = p**n
        self.mult_order = self.order - 1
        self.modulus = modulus                      # length n+1, monic
        self.zero = 0
        self.one = 1
        if n > 1:
            self.gen = p                            # residue of x
        else:
            self.gen = (-modulus[0]) % p
        if p == 2:
            self._modmask = 0
            for i, c in enumerate(modulus):
                self._modmask |= c << i
        self._ppow = [p**i for i in range(n + 1)]
        self._trace_maps: dict[int, LinearMap] = {}

    # -- representation -----------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.n):
            a, c = divmod(a, self.p)
            out.append(c)
        return tuple(out)

    def from_coeffs(self, cs) -> int:
        if len(cs) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(cs)}")
        a = 0
        for c, pw in zip(cs, self._ppow):
            c %= self.p
            if not 0 <= c < self.p:
                raise ValueError("coefficient out of range")
            a += c * pw
        return a

    def descriptor(self) -> str:
        """One-line field descriptor: "p n c0 c1 ... cn"."""
        return f"{self.p} {self.n} " + " ".join(str(c) for c in self.modulus)

    def __repr__(self):
        return f"GF({self.p}^{self.n})" if self.n > 1 else f"GF({self.p})"

    def _check(self, a: int):
        if not 0 <= a < self.order:
            raise ValueError(f"{a} is not an element of {self!r}")

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        out = 0
        for pw in self._ppow[:-1]:
            out += ((a + b) % p) * pw
            a //= p
            b //= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        p = self.p
        out = 0
        for pw in self._ppow[:-1]:
            out += ((-a) % p) * pw
            a //= p
        return out

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def scalar_mul(self, c: int, a: int) -> int:
        p = self.p
        c %= p
        out = 0
        for pw in self._ppow[:-1]:
            out += (c * (a % p) % p) * pw
            a //= p
        return out

    def mul(self, a: int, b: int) -> int:
        if self.p == 2:
            return _mul2_mod(self.n, self._modmask, a, b)
        av = list(self.coeffs(a))
        bv = list(self.coeffs(b))
        rv = _pmul_mod(self.p, self.n, self.modulus, av, bv)
        return self.from_coeffs(rv)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inversion of zero in {self!r}")
        return self.pow(a, self.mult_order - 1)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return result

    # -- Galois structure ----------------------------------------------------

    def trace_map(self, m: int) -> LinearMap:
        """Tr_{F/M} onto the degree-m subfield, as a single linear map."""
        if self.n % m != 0:
            raise ValueError(f"{m} does not divide the field degree {self.n}")
        if m not in self._trace_maps:
            b = self.n // m
            cols = []
            for j in range(self.n):
                x = self.pow(self.gen, j) if j else 1
                acc = 0
                t = x
                for i in range(b):
                    acc = self.add(acc, t)
                    if i + 1 < b:
                        t = self.pow(t, self.p**m)
                cols.append(acc)
            self._trace_maps[m] = LinearMap(self, cols)
        return self._trace_maps[m]

    def rel_trace(self, m: int, x: int) -> int:
        """Tr_{F/M}(x) = sum of the Galois conjugates of x over M."""
        self._check(x)
        return self.trace_map(m)(x)

    def elements(self):
        """Iterate over all field elements (packed form)."""
        return range(self.order)


@functools.lru_cache(maxsize=None)
def _make_field_cached(p: int, n: int) -> FiniteField:
    return FiniteField(p, n, _lex_smallest_primitive(p, n))


def make_field(p: int, n: int, ceiling: int = SIZE_CEILING) -> FiniteField:
    """The deterministic field GF(p^n) for this toolkit."""
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if n < 1:
        raise ValueError("field degree must be positive")
    if p**n > ceiling:
        raise FieldSizeError(
            f"GF({p}^{n}) has order {p**n} > ceiling {ceiling}; "
            "pass a larger ceiling to override")
    return _make_field_cached(p, n)
