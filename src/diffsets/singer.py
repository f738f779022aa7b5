"""Singer difference sets from trace-zero hyperplanes.

The quotient F*/K* is identified with Z_v (v = (q^d-1)/(q-1)) through
discrete-log indices: the coset of g^i maps to i mod v.  Trace-zero
membership is K*-invariant because the relative trace is K-linear, so
the construction reads the zeros of the linear recurring sequence
Tr(g^t) and never materializes a log table or a field element per index.
The sequence is read in blocks of L ~ sqrt(m*v) terms (m the subfield
degree), each block as a sum of rows of chunked digit tables, and its
zeros are ANDed into one length-v mask; memory is
O(ceil(n/c) * p^c * L + v), c the digits of a chunk, and
_enumeration_bytes prices it before anything is built.  The rows x^r mod
the modulus, the block windows and the basis traces come from the one
doubling routine of field (`_power_rows`, `_windows`); this module does
no polynomial arithmetic of its own.

The tower family of the paper, PG(3, q^s) over GF(q), is
singer_construct(q^s, 4): the field is GF(q^(4s)) and the trace goes onto
GF(q^s).  Tower(q, s) checks q and s once and gives Q = q^s, |M|, v and
the normalizing shift of D in closed form.
singer_restriction(q, s) reads the normalized tower set only on the
subgroup M of order (q+1)(q^2+1), from |M| traces, and never builds Z_v.
Both return a dset.DifferenceSet with its exact verification report and
the descriptor of its field; D ∩ M has the PG(3, q) parameters in Z_|M|.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from math import gcd as _gcd
from math import isqrt

import numpy as np

from . import dset
from .dset import DifferenceSet, Params, normalize
from .field import FiniteField, _basis_traces, _power_rows, _windows, make_field
from .groups import AbelianGroup
from .numth import is_prime_power


#: Blocks whose values are looked up at once; bounds the accumulator.
_BLOCK_ROWS = 64


def _lookup_layout(p: int, n: int) -> tuple[int, np.dtype]:
    """(c, dtype) of the block lookup over GF(p^n): c digits a chunk, the
    largest c <= n with p^c <= 16 (at least 1), and the narrowest unsigned
    dtype that holds a sum of max(ceil(n/c), 2) residues mod p.  Small
    tables stay in cache."""
    c = 1
    while c < n and p ** (c + 1) <= 16:
        c += 1
    top = max(-(-n // c), 2) * (p - 1)
    dtype = next(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                 if top <= np.iinfo(t).max)
    return c, dtype


def _lookup_tables(F: FiniteField, L: int, blocks: int):
    """(tables, rows): for each chunk of c window digits (`_lookup_layout`),
    the table of its p^c digit values by L partial sums and, per block,
    the table row its window selects; see `_trace_zero_exponents`."""
    n, p = F.n, F.p
    C = _power_rows(F.modulus, p, L + n)
    W = _windows(C[L:], _basis_traces(F.modulus, p), p, blocks)
    c, acc = _lookup_layout(p, n)
    digits = np.arange(p, dtype=np.int64)[:, None]
    tables, rows = [], []
    for lo in range(0, n, c):
        T = np.zeros((1, L), dtype=acc)
        w = np.zeros(blocks, dtype=np.int64)
        for i in range(lo, min(lo + c, n)):
            # digit i is the most significant so far: row d * p^(i-lo) + w
            T = T[None] + (digits * C[:L, i] % p).astype(acc)[:, None]
            T %= p
            T = T.reshape(-1, L)
            w += W[:, i] * p ** (i - lo)
        tables.append(T)
        rows.append(w)
    assert len(tables) * (p - 1) <= np.iinfo(acc).max
    return tables, rows


def _trace_zero_exponents(F: FiniteField, sub_degree: int, v: int) -> np.ndarray:
    """Indices i in [0, v) with Tr(g^i) = 0 onto the degree-sub_degree
    subfield, ascending, as an int64 array.

    With m = sub_degree, g^v is primitive in M = GF(p^m), so the powers
    g^(jv), j < m, form a GF(p)-basis of M and Tr_{F/M}(g^i) = 0 exactly
    when a_(i+jv) = 0 for every j < m, where a_t = Tr_{F/GF(p)}(g^t).  The
    sequence a_t obeys the recurrence of F.modulus and starts with the basis
    traces a_0, ..., a_(n-1), read from the field's table of x^r mod the
    modulus (`_basis_traces`).  It is evaluated for t < m*v in blocks of
    L ~ sqrt(m*v) terms: row r of C holds x^r mod the modulus
    (`_power_rows`), so a_(s+r) = C[r] . (a_s, ..., a_(s+n-1)), and C's
    last n rows step that window W[b] from one block start to the next
    (`_windows`).

    The block values W[b] . C[r], r < L, are read from tables (the method
    of Four Russians): the n window coordinates fall into chunks of c
    digits (`_lookup_layout`), and the table of a chunk holds, for each of
    its p^c digit values w, the L partial sums sum_i w_i * C[r, lo+i] mod p.
    A block's values are then the sum of one table row per chunk, mod p.
    Each group of blocks ANDs its zero flags into one length-v mask, a
    block split where t crosses a multiple of v.  Integer numpy only, no
    field-element arithmetic, and a block costs ceil(n/c) row gathers
    instead of n*L multiply-adds; memory is O(ceil(n/c) * p^c * L + v),
    priced by `_enumeration_bytes`.
    """
    p, total = F.p, sub_degree * v
    L = isqrt(total) + 1
    blocks = -(-total // L)
    tables, rows = _lookup_tables(F, L, blocks)
    zero = np.ones(v, dtype=bool)       # a_(i+jv) = 0 for every j read so far
    for r in range(0, blocks, _BLOCK_ROWS):
        s = tables[0][rows[0][r:r + _BLOCK_ROWS]]
        for T, w in zip(tables[1:], rows[1:]):
            s += T[w[r:r + _BLOCK_ROWS]]
        s %= p
        values = s.ravel()              # a_t for t from r*L on
        t, stop = r * L, min((r + len(s)) * L, total)
        while t < stop:
            i, end = t % v, min(stop, t - t % v + v)
            zero[i:i + end - t] &= values[t - r * L:end - r * L] == 0
            t = end
    return np.flatnonzero(zero)


def _enumeration_bytes(p: int, n: int, sub_degree: int, v: int, k: int) -> int:
    """Estimated peak bytes of `_trace_zero_exponents` over GF(p^n): the
    tables (ceil(n/c) * p^c * L entries at the accumulator width, plus the
    table being built and two p * L int64 digit products), the lookup
    accumulator, its gathered rows and a block's zero flags, the int64
    rows C and windows W with one more copy of each for the doubling
    products and the chunk row indices, the length-v trace-zero mask and
    the k returned indices (int64)."""
    m = sub_degree
    L = isqrt(m * v) + 1
    blocks = -(-m * v // L)
    c, acc = _lookup_layout(p, n)
    chunks = -(-n // c)
    tables = (chunks + 1) * p**c * L * acc.itemsize + 16 * p * L
    lookup = _BLOCK_ROWS * L * (3 * acc.itemsize + 1)
    windows = 8 * (2 * (L + n) * n + blocks * (2 * n + chunks))
    return tables + lookup + windows + v + 8 * k


def singer_construct(q: int, d: int, ceiling: int | None = None) -> DifferenceSet:
    """The Singer difference set of PG(d-1, q) in Z_v, v = (q^d-1)/(q-1),
    verified exactly and normalized.

    `ceiling` overrides the field-order bound SIZE_CEILING.  ValueError
    for d < 3; then MemoryError for v >= 2^31 (`dset._order_test`) before
    anything factors q, which for a large prime q can take as long as
    trial division to sqrt(q), and only then is q checked to be a prime
    power.  Before the field is built, `dset._guard` refuses an estimate
    over dset.BYTE_LIMIT: the bytes of the plan (`dset._plan`) that
    `dset.verify` will run on the set, k ranks of Z_v fixed by p, of the
    enumeration (`_enumeration_bytes`) and of the sorted and normalized
    copies of its index list (Python ints, about 96 bytes an element).
    """
    params = dset._projective_params(q, d)
    dset._order_test(params.v)
    pe = is_prime_power(q)
    if pe is None:
        raise ValueError(f"{q} is not a prime power")
    p, e = pe
    G = AbelianGroup([params.v])
    dset._guard(params.v, dset._plan(G, params.k, params.n).nbytes + 96 * params.k
                + _enumeration_bytes(p, e * d, e, params.v, params.k), "construction")
    F = make_field(p, e * d, ceiling=ceiling)
    D = dset.make_difference_set(G, _trace_zero_exponents(F, e, params.v),
                                 params, F.descriptor())
    if not D.verified:
        raise RuntimeError(f"constructed set failed verification: {D.report.as_dict()}")
    return normalize(D)


class Tower:
    """The tower PG(3, Q) over GF(q), Q = q^s, read once from (q, s): the
    tower checks, the scan and singer_restriction take Q, |M| =
    (q+1)(q^2+1), v and D's shift from here.  q and s are checked as
    singer_construct checks q and its field degree.  `has_m` tells whether
    |M| divides v by a test mod |M|, and v is formed only when read, so a
    tower whose field is refused by its degree never forms it.
    """

    def __init__(self, q: int, s: int):
        if is_prime_power(q) is None:
            raise ValueError(f"{q} is not a prime power")
        if s < 1:
            raise ValueError("field degree must be positive")
        self.q, self.s, self.Q = q, s, q**s
        self.m_order = m = (q + 1) * (q * q + 1)
        self.has_m = (pow(q, s, m) + 1) * (pow(q, 2 * s, m) + 1) % m == 0

    @cached_property
    def v(self) -> int:
        """(Q+1)(Q^2+1), by multiplication.  MemoryError first, from the bit
        length b of Q alone, when 2^(3b) > 10^N for CPython's fixed
        `sys.int_info.default_max_str_digits` N: v < 2^(3b), so only then
        can v have more digits than a report can print."""
        bits, digits = 3 * self.Q.bit_length(), sys.int_info.default_max_str_digits
        if 1 << bits > 10**digits:
            raise MemoryError(f"v = (q^s+1)(q^2s+1) for q = {self.q}, s = {self.s} "
                              f"has up to {bits} bits, past the {digits} decimal "
                              "digits that a report can print")
        return (self.Q + 1) * (self.Q**2 + 1)

    @property
    def params(self) -> Params:
        """The PG(3, Q) parameters (v, Q^2+Q+1, Q+1)."""
        return Params(self.v, self.Q**2 + self.Q + 1, self.Q + 1)

    @property
    def shift(self) -> int:
        """The normalizing shift t of the raw PG(3, Q) Singer set D in Z_v
        (`dset.normalizing_shift` of its trace-zero indices): 0 for p = 2
        and v/2 for odd p.

        Tr(X) = X^(Q^3) + X^(Q^2) + X^Q + X has the kernel of the trace
        onto GF(Q) as its root set and X-coefficient 1, so the Q^3 - 1
        nonzero kernel elements multiply to (-1)^(Q^3-1) = 1.  They are
        g^(i + jv), i in D, j < Q-1, as GF(Q)* = <g^v>; summing exponents
        mod Q^4 - 1 = (Q-1)v gives (Q-1)*sum(D) + k*v*(Q-1)(Q-2)/2 = 0.  So
        sum(D) = 0 mod v for even Q, and v/2 for odd Q, where k = Q^2+Q+1
        and Q-2 are odd.  Since k*t = -sum(D), k is odd and gcd(k, v) = 1,
        t is 0 or v/2.
        """
        return self.v // 2 if self.q % 2 else 0


def singer_restriction(q: int, s: int,
                       ceiling: int | None = None) -> DifferenceSet:
    """D ∩ M for D = normalize(singer_construct(q^s, 4)), from |M| traces:
    a DifferenceSet in M = Z_|M|, the element j*(v/|M|) of Z_v being j,
    declared with the PG(3, q) parameters and verified against them.

    With g the generator of F = GF(q^(4s)) and h = g^(v/|M|), the raw D
    meets M in E = {j < |M| : Tr(h^j) = 0}, Tr onto GF(q^s): |M|
    multiplications and trace maps in F.  Neither D nor Z_v is built, and
    `ceiling` bounds the field order alone.  The shift t = Tower(q, s).shift
    lies in M: for odd q, |M| is even and t = v/2 = (|M|/2)(v/|M|).
    So (D + t) ∩ M = E + t, which is E + |M|/2 in M's coordinates.
    """
    T = Tower(q, s)
    order = T.m_order
    if not T.has_m:
        raise ValueError(f"no subgroup of order {order} in Z_{T.v}")
    p, e = is_prime_power(q)
    F = make_field(p, 4 * e * s, ceiling=ceiling)
    step = T.v // order
    trace = F.trace_map(e * s)
    h = F.pow(F.gen, step)
    t = T.shift // step
    shifted, x = [], 1                  # E + t
    for j in range(order):
        if trace(x) == 0:
            shifted.append((j + t) % order)
        x = F.mul(x, h)
    return dset.make_difference_set(AbelianGroup([order]), shifted,
                                    dset._projective_params(q, 4), F.descriptor())


@dataclass(frozen=True)
class ContainmentReport:
    q: int
    a: int
    b: int
    gcd_ab: int
    contained: bool
    witness: int | None         # packed field element violating containment
    field_descriptor: str

    def as_dict(self):
        return {"q": self.q, "a": self.a, "b": self.b, "gcd": self.gcd_ab,
                "contained": self.contained, "witness": self.witness,
                "field_descriptor": self.field_descriptor}


def hyperplane_containment(q: int, a: int, b: int,
                           ceiling: int | None = None) -> ContainmentReport:
    """Is the K-trace-zero hyperplane of N inside the M-trace-zero hyperplane of F?

    F = GF(q^(ab)); M and N are the intermediate fields of degree a and b
    over K = GF(q).  E = ker Tr_{N/K} is enumerated through the subgroup
    N* of F* and each element is tested against ker Tr_{F/M}.
    """
    pe = is_prime_power(q)
    if pe is None:
        raise ValueError(f"{q} is not a prime power")
    p, e = pe
    F = make_field(p, e * a * b, ceiling=ceiling)
    big_trace = F.trace_map(e * a)                  # Tr_{F/M}
    small_trace = F.conjugate_sum_map(e, b)         # Tr_{N/K} on N
    # enumerate N* = the subgroup of F* of order q^b - 1
    stride = (F.mult_order) // (q**b - 1)
    gstride = F.pow(F.gen, stride)
    witness = None
    contained = True
    x = 1
    for _ in range(q**b - 1):
        if small_trace(x) == 0 and big_trace(x) != 0:
            contained = False
            witness = x
            break
        x = F.mul(x, gstride)
    # zero is in both hyperplanes, nothing to test there
    return ContainmentReport(q, a, b, _gcd(a, b), contained, witness,
                             F.descriptor())
