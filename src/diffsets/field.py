"""Exact arithmetic in GF(p^n) with a fixed primitive element.

A field element is a plain Python int encoding its coefficient vector
(c0, c1, ..., c_{n-1}) in the power basis as sum(c_i * p**i).  Use
:meth:`FiniteField.coeffs` and :meth:`FiniteField.from_coeffs` to convert.

All polynomial arithmetic mod the modulus f reads one table, the rows
x^r mod f of one integer array, built by one doubling routine
(`_power_rows` over `_windows`): a product is the convolution of two
coefficient vectors times the rows r < 2n - 1, the basis traces are
traces of n x n blocks of it, and the Singer kernel reads its longer
rows.  One arithmetic serves every p, GF(2^n) included.

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

import numpy as np

from .numth import is_prime, multiplicative_order, prime_divisors

#: Largest field order constructible without an explicit override.
SIZE_CEILING = 1 << 28


class FieldSizeError(ValueError):
    """Requested field exceeds the configured size ceiling."""


# ---------------------------------------------------------------------------
# polynomial arithmetic over Z_p (coefficient vectors, constant term first),
# read from one table of the powers x^r mod the modulus

def _windows(step: np.ndarray, first, p: int, count: int) -> np.ndarray:
    """W[b] = step^b @ first mod p for b < count, as the rows of an array
    of step's dtype, by doubling: W[d:d+g] = W[:g] @ (step^d)^T, squaring
    step^d each round."""
    W = np.empty((count, len(first)), dtype=step.dtype)
    W[0] = first
    power, d = step.T, 1                # power = (step^d)^T
    while d < count:
        g = min(d, count - d)
        np.matmul(W[:g], power, out=W[d:d + g])
        W[d:d + g] %= p
        d += g
        if d < count:
            power = power @ power % p
    return W


def _power_rows(modulus: tuple[int, ...], p: int, count: int) -> np.ndarray:
    """The coefficient vectors of x^r mod the monic degree-n modulus over
    Z_p for r < count, as the rows of one array: `_windows` on the
    companion matrix of the modulus (multiplication by x), from e_0.

    The dtype is int64 while a sum of 2n products of residues fits in it,
    2n(p-1)^2 < 2^63, and object (Python ints) beyond.
    """
    n = len(modulus) - 1
    dtype = np.int64 if 2 * n * (p - 1) ** 2 < 1 << 63 else object
    companion = np.eye(n, k=-1, dtype=dtype)
    companion[:, -1] = [-c % p for c in modulus[:n]]
    return _windows(companion, [1] + [0] * (n - 1), p, count)


def _pmul_mod(p: int, R: np.ndarray, a, b) -> np.ndarray:
    """a*b modulo the monic degree-n modulus over Z_p, for R =
    _power_rows(modulus, p, 2n - 1): the 2n - 1 coefficients of the
    product weight the rows x^r mod the modulus."""
    return np.convolve(np.asarray(a, R.dtype), np.asarray(b, R.dtype)) % p @ R % p


def _ppow_mod(p: int, R: np.ndarray, base, e: int) -> np.ndarray:
    """base^e modulo the modulus of R (`_pmul_mod`), for e >= 0, by square
    and multiply."""
    result = R[0]
    while e:
        if e & 1:
            result = _pmul_mod(p, R, result, base)
        e >>= 1
        if e:
            base = _pmul_mod(p, R, base, base)
    return result


def _basis_traces(modulus: tuple[int, ...], p: int) -> list[int]:
    """Tr(x^j) for j < n, where x is a root of the monic modulus over Z_p.

    Column i of multiplication by x^j is x^(i+j), so Tr(x^j) is the trace
    of the n x n block of rows j, ..., j+n-1 of the table x^r mod the
    modulus.
    """
    n = len(modulus) - 1
    R = _power_rows(modulus, p, 2 * n - 1)
    return [int(R[j:j + n].trace()) % p for j in range(n)]


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
    R = _power_rows(f, p, 2 * n - 1)
    one = R[0]
    x = R[1] if n > 1 else one * -f[0] % p
    if not np.array_equal(_ppow_mod(p, R, x, mult_order), one):
        return False
    return not any(np.array_equal(_ppow_mod(p, R, x, e), one) for e in cofactors)


def _lex_smallest_primitive(p: int, n: int) -> tuple[int, ...]:
    mult_order = p**n - 1
    cofactors = [mult_order // r for r in prime_divisors(mult_order)]
    for c0 in range(1, p):
        # the norm of a primitive element is (-1)^n * c0 and must itself be
        # a primitive root mod p, which rules out most constant terms
        if not _is_primitive_root((-1) ** n * c0 % p, p):
            continue
        for rest in itertools.product(range(p), repeat=n - 1):
            f = (c0,) + rest + (1,)
            if _is_primitive(p, n, f, mult_order, cofactors):
                return f
    raise RuntimeError(f"no primitive polynomial of degree {n} over Z_{p}")


def _is_primitive_root(a: int, p: int) -> bool:
    return a % p != 0 and multiplicative_order(a % p, p) == p - 1


class LinearMap:
    """Z_p-linear map on a field, stored as one array whose row j holds
    the coefficients of the image of the basis element x^j, in the dtype
    of the field's power table, so applying the map costs one
    vector-matrix product over Z_p.
    """

    __slots__ = ("field", "_rows")

    def __init__(self, field: "FiniteField", rows: np.ndarray):
        self.field = field
        self._rows = rows

    def __call__(self, x: int) -> int:
        F = self.field
        return F.from_coeffs((np.asarray(F.coeffs(x), self._rows.dtype)
                              @ self._rows).tolist())


class FiniteField:
    """GF(p^n) with a deterministic primitive modulus.

    Immutable after construction apart from a cache of trace maps; every
    operation is a pure function of its inputs.  One arithmetic serves
    every characteristic: products read the table of x^r mod the modulus,
    r < 2n - 1 (`_power_rows`).
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
        self._R = _power_rows(modulus, p, 2 * n - 1)
        self._trace_maps: dict[int, LinearMap] = {}

    # -- representation -----------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """The coefficients of the element a, ValueError outside [0, p^n)."""
        if not 0 <= a < self.order:
            raise ValueError(f"{a} is not an element of {self!r}")
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

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.from_coeffs([x + y for x, y in zip(self.coeffs(a), self.coeffs(b))])

    def neg(self, a: int) -> int:
        return self.from_coeffs([-x for x in self.coeffs(a)])

    def mul(self, a: int, b: int) -> int:
        return self.from_coeffs(_pmul_mod(self.p, self._R, self.coeffs(a),
                                          self.coeffs(b)).tolist())

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inversion of zero in {self!r}")
        return self.pow(a, self.mult_order - 1)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        return self.from_coeffs(_ppow_mod(self.p, self._R, self.coeffs(a), e).tolist())

    # -- Galois structure ----------------------------------------------------

    def conjugate_sum_map(self, m: int, count: int) -> LinearMap:
        """x -> x + x^(p^m) + ... + x^(p^(m*(count-1))), as a linear map.

        Row j is the sum of the powers y^j over the conjugates y of the
        generator, so the map costs count pows and count*n multiplications.
        """
        p, R = self.p, self._R
        x = self.coeffs(self.gen)
        conj = [_ppow_mod(p, R, x, p**(m * i)) for i in range(count)]
        powers = [R[0]] * count
        rows = []
        for _ in range(self.n):
            rows.append(sum(powers) % p)
            powers = [_pmul_mod(p, R, y, c) for y, c in zip(powers, conj)]
        return LinearMap(self, np.array(rows, R.dtype))

    def trace_map(self, m: int) -> LinearMap:
        """Tr_{F/M} onto the degree-m subfield, as a single linear map."""
        if self.n % m != 0:
            raise ValueError(f"{m} does not divide the field degree {self.n}")
        if m not in self._trace_maps:
            self._trace_maps[m] = self.conjugate_sum_map(m, self.n // m)
        return self._trace_maps[m]

    def rel_trace(self, m: int, x: int) -> int:
        """Tr_{F/M}(x) = sum of the Galois conjugates of x over M."""
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
    # p^n >= 2^n > ceiling once n reaches the ceiling's bit length, and
    # the test then forms no p^n: a far tower is refused at once
    if n >= ceiling.bit_length() or p**n > ceiling:
        raise FieldSizeError(
            f"GF({p}^{n}) is larger than the ceiling {ceiling}; "
            "pass a larger ceiling to override")
    return _make_field_cached(p, n)
