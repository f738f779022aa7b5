"""Exact arithmetic in GF(p^n) with a fixed primitive element.

A field element is a plain Python int encoding its coefficient vector
(c0, c1, ..., c_{n-1}) in the power basis as sum(c_i * p**i).  One
digit-wise arithmetic serves every p, GF(2^n) included.  Use
:meth:`FiniteField.coeffs` and :meth:`FiniteField.from_coeffs` to convert.

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
from collections.abc import Sequence

from .numth import is_prime, multiplicative_order, prime_divisors

#: Largest field order constructible without an explicit override.
SIZE_CEILING = 1 << 28


class FieldSizeError(ValueError):
    """Requested field exceeds the configured size ceiling."""


# ---------------------------------------------------------------------------
# polynomial arithmetic over Z_p (list coefficients, constant term first),
# shared by the primitivity search and FiniteField.mul and .pow

def _pmul_mod(p: int, n: int, mod: Sequence[int], a: Sequence[int],
              b: Sequence[int]) -> list[int]:
    """a*b modulo the monic degree-n polynomial mod, over Z_p."""
    res = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            res[i:i + n] = [r + ai * bj for r, bj in zip(res[i:i + n], b)]
    for d in range(2 * n - 2, n - 1, -1):
        c = res[d] % p
        if c:
            res[d - n:d] = [r - c * m for r, m in zip(res[d - n:d], mod)]
    return [r % p for r in res[:n]]


def _ppow_mod(p: int, n: int, mod: Sequence[int], base: Sequence[int],
              e: int) -> list[int]:
    """base^e modulo the monic degree-n polynomial mod, over Z_p, for
    e >= 0, by square and multiply."""
    result = [1] + [0] * (n - 1)
    while e:
        if e & 1:
            result = _pmul_mod(p, n, mod, result, base)
        e >>= 1
        if e:
            base = _pmul_mod(p, n, mod, base, base)
    return result


def _basis_traces(modulus: tuple[int, ...], p: int) -> list[int]:
    """Tr(x^j) for j < n, where x is a root of the monic modulus over Z_p.

    These are the power sums of the roots of the modulus, so Newton's
    identities give them from its coefficients: with
    f = x^n + c_(n-1) x^(n-1) + ... + c_0,
    s_k = -(k c_(n-k) + sum_(i<k) c_(n-i) s_(k-i)) and s_0 = n.
    """
    n = len(modulus) - 1
    s = [n % p]
    for k in range(1, n):
        t = k * modulus[n - k] + sum(modulus[n - i] * s[k - i] for i in range(1, k))
        s.append(-t % p)
    return s


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
    one = [1] + [0] * (n - 1)
    x = [0, 1] + [0] * (n - 2) if n > 1 else [-f[0] % p]
    if _ppow_mod(p, n, f, x, mult_order) != one:
        return False
    return all(_ppow_mod(p, n, f, x, e) != one for e in cofactors)


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
    return a % p != 0 and multiplicative_order(a % p, p) == p - 1


class LinearMap:
    """Z_p-linear map on a field, stored columnwise.

    cols[j] is the (packed) image of the basis element x^j, kept as its
    coefficient row, so applying the map costs one matrix-vector product
    over Z_p.
    """

    __slots__ = ("field", "_rows")

    def __init__(self, field: "FiniteField", cols: list[int]):
        self.field = field
        self._rows = [field.coeffs(col) for col in cols]

    def __call__(self, x: int) -> int:
        F = self.field
        acc = [0] * F.n
        for c, row in zip(F.coeffs(x), self._rows):
            if c:
                acc = [a + c * r for a, r in zip(acc, row)]
        return F.from_coeffs(acc)


class FiniteField:
    """GF(p^n) with a deterministic primitive modulus.

    Immutable after construction apart from a cache of trace maps; every
    operation is a pure function of its inputs.  One arithmetic serves
    every characteristic.
    """

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.order = p**n
        self.mult_order = self.order - 1
        self.modulus = modulus                      # length n+1, monic
        if n > 1:
            self.gen = p                            # residue of x
        else:
            self.gen = (-modulus[0]) % p
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
        for c in reversed(cs):
            a = a * self.p + c % self.p
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
        return self.from_coeffs([x + y for x, y in zip(self.coeffs(a), self.coeffs(b))])

    def neg(self, a: int) -> int:
        return self.from_coeffs([-x for x in self.coeffs(a)])

    def mul(self, a: int, b: int) -> int:
        return self.from_coeffs(_pmul_mod(self.p, self.n, self.modulus,
                                          self.coeffs(a), self.coeffs(b)))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inversion of zero in {self!r}")
        return self.pow(a, self.mult_order - 1)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        return self.from_coeffs(_ppow_mod(self.p, self.n, self.modulus,
                                          self.coeffs(a), e))

    # -- Galois structure ----------------------------------------------------

    def conjugate_sum_map(self, m: int, count: int) -> LinearMap:
        """x -> x + x^(p^m) + ... + x^(p^(m*(count-1))), as a linear map.

        Column j is the sum of the powers y^j over the conjugates y of the
        generator, so the map costs count pows and count*n multiplications.
        """
        conj = [self.pow(self.gen, self.p**(m * i)) for i in range(count)]
        powers = [1] * count
        cols = []
        for _ in range(self.n):
            acc = 0
            for i, y in enumerate(conj):
                acc = self.add(acc, powers[i])
                powers[i] = self.mul(powers[i], y)
            cols.append(acc)
        return LinearMap(self, cols)

    def trace_map(self, m: int) -> LinearMap:
        """Tr_{F/M} onto the degree-m subfield, as a single linear map."""
        if self.n % m != 0:
            raise ValueError(f"{m} does not divide the field degree {self.n}")
        if m not in self._trace_maps:
            self._trace_maps[m] = self.conjugate_sum_map(m, self.n // m)
        return self._trace_maps[m]

    def rel_trace(self, m: int, x: int) -> int:
        """Tr_{F/M}(x) = sum of the Galois conjugates of x over M."""
        self._check(x)
        return self.trace_map(m)(x)

@functools.lru_cache(maxsize=None)
def _make_field_cached(p: int, n: int) -> FiniteField:
    return FiniteField(p, n, _lex_smallest_primitive(p, n))


def make_field(p: int, n: int, ceiling: int | None = None) -> FiniteField:
    """The deterministic field GF(p^n) for this toolkit, refused above
    `ceiling` (SIZE_CEILING when None)."""
    if ceiling is None:
        ceiling = SIZE_CEILING
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if n < 1:
        raise ValueError("field degree must be positive")
    if p**n > ceiling:
        raise FieldSizeError(
            f"GF({p}^{n}) has order {p**n} > ceiling {ceiling}; "
            "pass a larger ceiling to override")
    return _make_field_cached(p, n)
