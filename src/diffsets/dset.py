"""Difference-set core: parameters, verification, translates, profiles.

Verification computes the coefficients of D D^(-1) in the group ring,
the numbers of differences a - b with a, b in D, in one order of checks.
Ranks that are not integers or lie outside [0, v) are refused, never
reduced.  With k the number of distinct ranks, a repeated rank or a
non-integral lambda = k(k-1)/(v-1) rejects D in every group.  In Z_v a
set is next read through its images in the quotients Z_m, m | v,
m^2 <= k: a difference set maps to c with c c^(-1) = n +
lambda*(v/m)*Z_m, so a failed image rejects it exactly in O(k) time.
Acceptance always takes the full count, which must give lambda at every
non-identity element.

The count is planned once, by `_plan`, from one price list (`_prices`):
each exact strategy with its price in ordered pairs counted and its
estimated peak bytes.  The cheapest runs ("pair" on a tie, then "ntt"),
an orbit plan only when its multiplier is checked to fix D:

- pair counting, all k^2 pairs (k^2), in Z_v into the floor(v/2) + 1
  bins of the folded half {0, ..., floor(v/2)}, x read as min(x, v - x)
  (the number of differences a - b = x is the number at -x: swap a and
  b), by one int32 block kernel (`_folded_differences`), the bins of x
  != -x then halved; the only one for groups written as products, where
  it counts over all of G, and the oracle of the other two;
- orbit counting in Z_v, when a prime t | k - lambda fixes D (t*D = D,
  checked, never assumed: Hall's multiplier theorem predicts it): the
  coefficients are constant on the orbits of <t, -1>, generated by x ->
  t*x and x -> -x, and each of them meets a coset rho + aZ_v, rho the
  least element of an orbit of <t, -1> on Z_a, for any a | v.  So the
  counts on those cosets (`_coset_counts`), D grouped by class mod a,
  hold every coefficient: about k^2 R/a pairs, R the orbits on Z_a, for
  the divisor 1 < a < v of least price; a prime v has none;
- the cyclic autocorrelation c in Z_v by a number-theoretic transform of
  length L = 2^ceil(log2(2v - 1)) modulo the prime 15*2^27 + 1, read as
  c[x] + c[v - x] on the folded half; distinct ranks keep every
  coefficient at most k, below the prime; O(v log v) whatever k.

Only the public `difference_counts` unfolds the half to one coefficient
per element of Z_v.

All counts and bound checks are exact integer arithmetic; no floating
point anywhere.  The order test (`_order_test`) refuses v >= 2^31, past
int32 differences, before a set is judged or v factored.  Memory has one
bound, BYTE_LIMIT, held by one guard (`_guard`) on estimated bytes before
anything is allocated: every count (`verify`, `difference_counts`, so set
files, restrictions and search class files), with its plan's bytes;
`singer.singer_construct`, with the plan `verify` will run on the set it
builds; every coset profile (`_profile_bytes`); and the search's table.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from math import gcd
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .groups import (AbelianGroup, Subgroup, _orbit_firsts, parse_group,
                     subgroup_as_group)
from .numth import (divisors, is_prime_power, multiplicative_order,
                    prime_divisors, totient)

#: Estimated peak bytes (`_guard`) above which a count, a construction, a
#: coset profile or a search table is refused before anything is allocated.
BYTE_LIMIT = 1 << 31


@dataclass(frozen=True)
class Params:
    v: int
    k: int
    lam: int

    @property
    def n(self) -> int:
        return self.k - self.lam

    def as_tuple(self):
        return (self.v, self.k, self.lam)

    def __str__(self):
        return f"({self.v},{self.k},{self.lam})"


def classical_params(q: int, d: int) -> Params:
    """Parameters ((q^d-1)/(q-1), (q^(d-1)-1)/(q-1), (q^(d-2)-1)/(q-1)):
    ValueError unless d >= 3 (`_projective_params`) and q is a prime
    power."""
    params = _projective_params(q, d)
    if is_prime_power(q) is None:
        raise ValueError(f"{q} is not a prime power")
    return params


def _projective_params(q: int, d: int) -> Params:
    """The parameters of classical_params without factoring q, which for
    a large prime q can take as long as trial division to sqrt(q):
    ValueError only for q < 2 (not a prime power) or d < 3."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    if d < 3:
        raise ValueError("dimension must be at least 3")
    return Params((q**d - 1) // (q - 1),
                  (q**(d - 1) - 1) // (q - 1),
                  (q**(d - 2) - 1) // (q - 1))


@dataclass(frozen=True)
class DifferenceSet:
    """Distinct ranks, their declared (v, k, lambda) and the `verify`
    report on them, made by `make_difference_set` alone; `verified` when
    the report confirms the declared parameters.  `field_descriptor`
    names the field of a Singer construction."""
    group: AbelianGroup
    elements: tuple[int, ...]           # sorted ranks, distinct
    params: Params
    report: VerificationReport
    field_descriptor: str | None = None

    @property
    def verified(self) -> bool:
        return self.report.confirms(self.params.as_tuple())

    def __repr__(self):
        tag = "verified" if self.verified else "candidate"
        return f"DifferenceSet{self.params} in {self.group.descriptor()} [{tag}]"


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    v: int
    k: int
    lambda_observed: int | None
    identity_count: int
    mode = "full"           # the one mode: every difference counted to accept

    def confirms(self, expected: tuple) -> bool:
        """Whether the set verified with exactly these (v, k, lambda)."""
        return self.ok and (self.v, self.k, self.lambda_observed) == expected

    def as_dict(self):
        return {
            "verified": self.ok,
            "v": self.v,
            "k": self.k,
            "lambda_observed": self.lambda_observed,
            "identity_count": self.identity_count,
            "fundamental_ok": self.ok,          # lambda(v-1) = k(k-1) when ok
            "mode": self.mode,
        }


def difference_counts(G: AbelianGroup, elements) -> np.ndarray:
    """Coefficient vector of D D^(-1) in the group ring, indexed by rank,
    for a set D: ValueError for a rank that is not an integer, outside
    [0, v) or repeated, MemoryError for v >= 2^31 (`_order_test`) or,
    before counting, an estimate over BYTE_LIMIT (`_guard`).  Counted by
    the plan `_plan` makes without a multiplier, as D need have no
    integral lambda, so never by the orbit count.  In Z_v the folded half
    of `_counts` is unfolded: x > floor(v/2) reads the count at v - x."""
    ranks = _distinct_ranks(G, elements)
    counts = _counts(G, ranks, _plan(G, len(ranks), 0))
    if len(G.factors) > 1:
        return counts
    return np.concatenate((counts, counts[(G.order - 1) // 2:0:-1]))


def _order_test(v: int) -> None:
    """MemoryError for v >= 2^31, past the int32 differences of
    `_folded_differences`: the one order test, of every count and every
    construction, run before v is factored."""
    if v >= 1 << 31:
        raise MemoryError("difference counting needs v < 2^31 for int32 "
                          f"differences; v = {v}")


def _printable(bits: int) -> bool:
    """Whether every number below 2^bits has at most N decimal digits, N
    CPython's fixed `sys.int_info.default_max_str_digits`, so that no
    environment variable changes the outcome: 2^bits <= 10^N."""
    return bits < (10**sys.int_info.default_max_str_digits).bit_length()


def _construction_params(q: int, d: int, e: int = 1) -> Params:
    """The parameters of PG(d-1, Q), Q = q^e (`_projective_params`, and its
    ValueError), once v has passed the order test (`_order_test`).

    A v that a report could not print is refused first, from d and the
    bit length b of q, before any power is formed: 2^(e(b-1)) <= Q <
    2^(eb), so 2^(e(b-1)(d-1)) <= v < 2 Q^(d-1) < 2^(eb(d-1)+1).  When
    the upper bound is past what can be printed (over 14,000 bits), the
    lower one, at least half of it as b >= 2, is far past 2^31, and the
    MemoryError names v's bits, not v."""
    b = q.bit_length()
    if q >= 2 and d >= 3 and not _printable(e * b * (d - 1) + 1):
        raise MemoryError("difference counting needs v < 2^31 for int32 differences; "
                          f"v = (q^d-1)/(q-1) has at least {e * (b - 1) * (d - 1) + 1} bits")
    params = _projective_params(q**e, d)
    _order_test(params.v)
    return params


def _ranks(G: AbelianGroup, elements) -> np.ndarray:
    """The element ranks as a sorted int64 array: ValueError for a rank
    that is not an integer (a float or a string is neither truncated nor
    parsed) or lies outside [0, v), which no counting strategy may reduce
    or wrap, then MemoryError (`_order_test`).  An array is read as it
    is, not one numpy scalar per rank, and a sorted int64 array is
    returned itself, so ranks sorted once by `make_difference_set` are not
    copied again by `verify`."""
    if not isinstance(elements, np.ndarray):
        elements = list(elements)
    ranks = np.asarray(elements)
    if ranks.dtype.kind not in "biu":       # floats, strings, Python ints past int64
        if not all(isinstance(x, Integral) for x in elements):
            raise ValueError("element ranks must be integers")
        try:
            ranks = np.asarray(elements, dtype=np.int64)
        except OverflowError:
            raise ValueError(f"element rank outside [0, {G.order})") from None
    if ranks is not elements:
        ranks.sort()                    # made here, so sorted in place
    elif (ranks[1:] < ranks[:-1]).any():
        ranks = np.sort(ranks)
    if len(ranks) and (ranks[0] < 0 or ranks[-1] >= G.order):
        bad = ranks[0] if ranks[0] < 0 else ranks[-1]
        raise ValueError(f"element rank {bad} outside [0, {G.order})")
    _order_test(G.order)
    return ranks.astype(np.int64, copy=False)


def _distinct_ranks(G: AbelianGroup, elements) -> np.ndarray:
    """`_ranks`, then ValueError for a repeated rank."""
    ranks = _ranks(G, elements)
    if (ranks[1:] == ranks[:-1]).any():
        raise ValueError("difference-set elements must be distinct")
    return ranks


class Plan(NamedTuple):
    """How `_counts` counts D D^(-1): the exact strategy, its multiplier t
    and modulus a (for "orbit" only) and the estimated peak bytes of
    `verify` by it."""
    strategy: str
    t: int | None
    nbytes: int
    a: int | None


#: Bytes of the buffers numpy's iterator allocates for one ufunc call on
#: a broadcast or strided block (8192 elements an operand).
_ITER_BUFFERS = 1 << 17

#: `_ntt_counts` cost per call, and `_coset_counts` cost per call and per
#: block of a pair of classes, in ordered pairs (see `_prices`).
_NTT_CALL_COST = 90_000
_COSET_CALL_COST, _COSET_BLOCK_COST = 24_000, 1_000


def _prices(G: AbelianGroup, k: int, n: int) -> list[tuple[int, Plan]]:
    """The price list of counting D D^(-1) for k distinct ranks of G, n =
    k - lambda: MemoryError (`_order_test`) before anything is priced,
    else (ordered pairs counted, plan) for each exact strategy, the plan
    carrying the estimated peak bytes of `verify` by it: the rank arrays
    (48 bytes an element) and

    - "pair": k^2 pairs; the counter and a block's bincount, of
      floor(v/2) + 1 entries in Z_v and v on a product presentation, and
      three int64 temporaries of a row block (`G.sub` on a product
      presentation; the int32 block buffers of one factor take 16 bytes a
      pair).  The only entry for a product presentation;
    - "ntt": 11/3*L*log2(L) for the transform length L plus
      _NTT_CALL_COST; two uint32 buffers of L words and L/2 uint32
      twiddles, and _ITER_BUFFERS; offered while L divides P - 1;
    - "orbit" by t, for each prime t | n with gcd(t, v) = 1 (the first
      multiplier theorem's candidates; none for n <= 1): `_coset_counts`
      modulo the divisor 1 < a < v of least price (`_coset_price`; none
      for a prime v).  With b = v/a and R the `_orbit_number` orbits of
      <t, -1> on Z_a, k^2*R/a pairs, _COSET_BLOCK_COST a block for
      R*min(a, k) blocks, one a bin for b bins each time a coset or a
      full buffer is binned, and _COSET_CALL_COST; 48 bytes an element of
      D (its classes, order and quotients), 1000 a class mod a, the
      buffer, the int64 counts of R cosets, a bincount of 2b bins and
      _ITER_BUFFERS.

    Fitted to warm in-process timings on a 2 vCPU Intel Xeon (Python
    3.11, numpy 2.4.6) of 26 Singer sets PG(d-1, q), v = 15 to 2113665,
    the coset count at every divisor a under 60,000 blocks and 6*10^7
    pairs.  Least squares gave 2.6 ns a pair (and 12 us a call) for the
    pair count, 9.4 ns per L*log2(L) and 0.23 ms a call for the NTT, and
    2.4 ns a pair, 2.3 ns a bin and 61 us a call for the coset count; its
    fitted 1.65 us a block priced large a too low, which 2.57 us (the
    blocks of two classes of a few elements took 2.3-4 us) corrects.
    The constants are these in units of 2.57 ns, the pair count's.  So
    priced, the plan of each set ran within 1.001 times the fastest
    count measured on it.  The pair and NTT bytes also cover
    `difference_counts` unfolding the half, 12 bytes an element of Z_v.
    """
    v = G.order
    _order_test(v)
    sets = 48 * k
    bins = v // 2 + 1 if len(G.factors) == 1 else v     # `_pair_counts`' counter
    prices = [(k * k, Plan("pair", None, sets + 16 * bins + 24 * _block_pairs(k, bins), None))]
    if len(G.factors) == 1:
        L = _ntt_length(v)
        if (_NTT_PRIME - 1) % L == 0:
            prices.append((11 * L * (L.bit_length() - 1) // 3 + _NTT_CALL_COST,
                           Plan("ntt", None, sets + 10 * L + _ITER_BUFFERS, None)))
        for t in prime_divisors(n) if n > 1 else ():
            if gcd(t, v) == 1:
                prices += sorted(_coset_price(v, k, t, a) for a in divisors(v)[1:-1])[:1]
    return prices


def _coset_price(v: int, k: int, t: int, a: int) -> tuple[int, Plan]:
    """The (price, plan) of `_coset_counts` by t modulo a for k ranks of
    Z_v, the bytes with D's rank arrays (see `_prices`)."""
    b, reps = v // a, _orbit_number(a, t, multiplicative_order(t, a))
    pairs, buffer = k * k * reps // a, max(_COSET_BUFFER, min(k, b))
    bins = b * (reps + pairs // buffer)
    price = pairs + _COSET_BLOCK_COST * reps * min(a, k) + bins + _COSET_CALL_COST
    return price, Plan("orbit", t, 96 * k + 1000 * a + 8 * buffer + 8 * reps * b + 24 * b
                       + _ITER_BUFFERS, a)


def _plan(G: AbelianGroup, k: int, n: int,
          ranks: np.ndarray | None = None) -> Plan:
    """The one choice of the exact strategy that counts D D^(-1) for k
    distinct ranks of G, n = k - lambda: the cheapest entry of
    `_prices(G, k, n)`, the earlier one on a tie, skipping an orbit entry
    whose t does not fix the sorted `ranks` of D (t*D = D, checked only
    for an entry priced below all before it).  Without ranks, every
    candidate is taken to fix D: the question `singer.singer_construct`
    asks before it builds a Singer set, which p fixes."""
    for _, plan in sorted(_prices(G, k, n), key=lambda price: price[0]):
        if plan.t is None or ranks is None or _fixed(G, plan.t, ranks):
            return plan


def _guard(v: int, nbytes: int, what: str = "difference counting") -> None:
    """The one memory check of counts, constructions, profiles and search
    tables: MemoryError when the estimated peak `nbytes` exceed BYTE_LIMIT."""
    if nbytes > BYTE_LIMIT:
        raise MemoryError(f"{what} of v = {v} needs about {nbytes >> 20} MiB, "
                          f"over the {BYTE_LIMIT >> 20} MiB limit")


def _counts(G: AbelianGroup, ranks: np.ndarray, plan: Plan) -> np.ndarray:
    """The coefficients of D D^(-1) for sorted distinct in-range ranks by
    the `_plan` plan: on the cosets above the orbits of <t, -1> on Z_a by
    the orbit plan (`_coset_counts`), else per element of the folded half
    of Z_v, the coefficient of x at min(x, v - x), or per rank of a
    product presentation.  Either way counts[0] is the identity
    coefficient and every other entry a non-identity one.  MemoryError
    (`_guard`) before any counter is allocated."""
    _guard(G.order, plan.nbytes)
    if plan.strategy == "orbit":
        return _coset_counts(G, ranks, plan.t, plan.a)
    if plan.strategy == "ntt":
        return _ntt_counts(G.order, ranks)
    return _pair_counts(G, ranks)


#: Least ordered pairs per row block of differences: `_block_buffers`
#: holds 16 bytes a pair, and the product presentations' `G.sub` makes
#: at most three int64 temporaries of a block.
_BLOCK = 1 << 15


def _block_pairs(k: int, bins: int) -> int:
    """Ordered pairs per row block of k columns binned into a counter of
    `bins` entries: at least _BLOCK, k and bins/2, so that a block's
    bincount spends at most as much on the counter as on its pairs."""
    return max(_BLOCK, k, bins // 2)


def _block_buffers(pairs: int):
    """Two int32 buffers and one int64 buffer of `pairs` entries, for
    `_folded_differences`."""
    return (np.empty(pairs, dtype=np.int32), np.empty(pairs, dtype=np.int32),
            np.empty(pairs, dtype=np.int64))


def _folded_differences(v: int, rows: np.ndarray, cols: np.ndarray, buffers):
    """The int64 folds min(x, v - x) of x = (a - b) mod v for a in `rows`
    and b in `cols` (both int32), a len(rows) x len(cols) view of the last
    of `buffers` (`_block_buffers`); the second is then free.

    The differences are formed in int32: v < 2^31 (`_order_test`) keeps d
    = |a - b| in [0, v), and x is d or v - d, either way with the fold
    min(d, v - d).
    """
    shape = (len(rows), len(cols))
    d, spare, diffs = (b[:shape[0] * shape[1]].reshape(shape) for b in buffers)
    np.subtract(rows[:, None], cols, out=d)
    np.abs(d, out=d)
    np.subtract(v, d, out=spare)
    np.minimum(d, spare, out=d)
    np.copyto(diffs, d)
    return diffs


def _pair_counts(G: AbelianGroup, ranks: np.ndarray) -> np.ndarray:
    """The coefficients of D D^(-1) by counting all k^2 ordered pairs of
    the sorted ranks, a row block of `_block_pairs` pairs at a time; the
    fallback and the oracle of `_coset_counts` and `_ntt_counts`.  In Z_v
    the folded differences (`_folded_differences`, in reused buffers) go
    into the floor(v/2) + 1 bins of the folded half, where x and v - x
    meet unless x = -x (0, and v/2 for even v), so the bins 1, ...,
    ceil(v/2) - 1 are halved.  A product presentation counts `G.sub` into
    v bins, one a rank."""
    v, k = G.order, len(ranks)
    bins = v // 2 + 1 if len(G.factors) == 1 else v
    counts = np.zeros(bins, dtype=np.int64)
    rows = _block_pairs(k, bins) // max(1, k)
    if len(G.factors) == 1:
        cols = ranks.astype(np.int32)
        buffers = _block_buffers(min(rows, k) * k)
        for i in range(0, k, rows):
            diffs = _folded_differences(v, cols[i:i + rows], cols, buffers)
            counts += np.bincount(diffs.ravel(), minlength=bins)
        counts[1:(v + 1) // 2] //= 2
        return counts
    for i in range(0, k, rows):
        counts += np.bincount(G.sub(ranks[i:i + rows, None], ranks).ravel(),
                              minlength=v)
    return counts


def _orbit_number(v: int, t: int, e: int) -> int:
    """The number of orbits of the group <t, -1> on Z_v, generated by x ->
    t*x and x -> -x, gcd(t, v) = 1 and e = ord_v(t), by Burnside's lemma
    over the 2e maps +-t^j, j < e (each element of <t, -1> is hit equally
    often): t^j fixes the gcd(t^j - 1, v) solutions of (t^j - 1)x = 0 and
    -t^j the gcd(t^j + 1, v) of (t^j + 1)x = 0.  Both depend only on f =
    gcd(j, e), since t^j = -1 mod a divisor m of v, m > 2, exactly when
    ord_m(t)/2 divides j and ord_m(t) does not, and ord_m(t) | e; phi(e/f)
    of the j < e have gcd(j, e) = f."""
    fixed = 0
    for f in divisors(e):
        tf = pow(t, f, v)
        fixed += totient(e // f) * (gcd(tf - 1, v) + gcd(tf + 1, v))
    return fixed // (2 * e)


def _orbit_representatives(a: int, t: int) -> np.ndarray:
    """The least elements of the orbits of <t, -1> on Z_a, in increasing
    order, so 0 first: the x that no element of their t-orbit or of its
    negative undercuts (`groups._orbit_firsts` on all of Z_a)."""
    x = np.arange(a, dtype=np.int64)
    first = _orbit_firsts(AbelianGroup([a]), x, t)
    return np.flatnonzero(np.minimum(first, first[-x % a]) == x)


#: Entries of the int64 buffer of differences that `_coset_counts` bins
#: at a time (512 KiB), unless a class of D mod a is longer.
_COSET_BUFFER = 1 << 16


def _coset_counts(G: AbelianGroup, ranks: np.ndarray, t: int, a: int) -> np.ndarray:
    """The coefficients of D D^(-1) on the cosets rho + aZ_v of the
    subgroup of order b = v/a, for sorted distinct ranks of D in G = Z_v,
    a | v and t*D = D, rho over the least elements of the orbits of <t,
    -1> on Z_a (`_orbit_representatives`, 0 first): counts[i*b + m] is the
    coefficient of rho_i + a*m, so counts[0] is the identity's.
    RuntimeError if t does not fix D.

    N(x) = #{(p, c) in D^2 : p - c = x} is constant on the orbits of x ->
    t*x, as t*D = D, and N(-x) = N(x) (swap p and c), so on the orbits of
    <t, -1>.  Each of them meets one of these cosets: x mod a lies in the
    orbit of some rho on Z_a, so some h in <t, -1> takes x into rho + aZ_v.
    So the counts hold every coefficient of D D^(-1).

    D is grouped by class mod a with one argsort, p = a*p' + j.  A pair
    of p in class (j + rho) mod a and c in class j has p - c = rho +
    a*(p' - c' - w), w = 1 where j + rho >= a and 0 otherwise, and y = p'
    - c' - w + b lies in [0, 2b): y and y - b are the same element of the
    coset.  The outer differences of the quotients of each pair of
    classes fill one reused buffer, a row block at a time, and a full
    buffer is binned into 2b bins, whose halves are added.  That is about
    k^2 R/a pairs, R the orbits on Z_a, in at most R*min(a, k) blocks.
    """
    if not _fixed(G, t, ranks):
        raise RuntimeError(f"t={t} does not fix the set")
    reps = _orbit_representatives(a, t).tolist()
    b = G.order // a
    classes = ranks % a
    sizes = np.bincount(classes, minlength=a)
    quotients = ranks[np.argsort(classes, kind="stable")]
    del classes
    quotients //= a
    cols, wrapped = quotients - b, quotients - 1     # c' - b, and p' - w at w = 1
    bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
    classes = list(zip(bounds, bounds[1:]))
    plain_rows = [quotients[lo:hi] if hi > lo else None for lo, hi in classes]
    wrapped_rows = [wrapped[lo:hi] if hi > lo else None for lo, hi in classes]
    buffer = np.empty(max(_COSET_BUFFER, int(sizes.max(initial=0))), dtype=np.int64)
    col_blocks = [(j, cols[lo:hi], hi - lo, len(buffer) // (hi - lo))
                  for j, (lo, hi) in enumerate(classes) if hi > lo]
    counts = np.zeros(len(reps) * b, dtype=np.int64)

    def add_bins(coset, fill):
        bins = np.bincount(buffer[:fill], minlength=2 * b)
        coset += bins[:b]
        coset += bins[b:]

    for i, rho in enumerate(reps):
        coset, fill = counts[i * b:(i + 1) * b], 0
        rows_of = plain_rows[rho:] + wrapped_rows[:rho]     # class j + rho mod a
        for j, col, width, step in col_blocks:
            rows = rows_of[j]
            if rows is None:
                continue
            for lo in range(0, len(rows), step):
                block = rows[lo:lo + step]
                n = len(block) * width
                if fill + n > len(buffer):
                    add_bins(coset, fill)
                    fill = 0
                out = buffer[fill:fill + n].reshape(-1, width)
                np.subtract.outer(block, col, out=out)
                fill += n
        add_bins(coset, fill)
    return counts


def _fixed(G: AbelianGroup, t: int, ranks: np.ndarray) -> bool:
    """Whether x -> t*x fixes the sorted ranks."""
    return bool((np.sort(G.scale(t, ranks)) == ranks).all())


#: The NTT prime 15*2^27 + 1 and a primitive root: transform lengths up
#: to 2^27, so v up to 2^26 (`_prices`), and residue products below 2^62.
_NTT_PRIME = 2013265921
_NTT_ROOT = 31


def _ntt_length(v: int) -> int:
    """The least power of two L >= 2v, so that the differences in (-v, v)
    stay distinct mod L; for v > 1 that is 2^ceil(log2(2v - 1)), as 2v - 1
    is odd."""
    return 2 << (v - 1).bit_length()


def _ntt_twiddles(L: int) -> np.ndarray:
    """w^j mod the NTT prime P for j < L/2 as uint32, w = `_NTT_ROOT`^((P-1)/L)
    a primitive L-th root of unity: ValueError unless L divides P - 1."""
    if (_NTT_PRIME - 1) % L:
        raise ValueError(f"no root of unity of order {L} mod {_NTT_PRIME}")
    P = np.uint64(_NTT_PRIME)
    w = pow(_NTT_ROOT, (_NTT_PRIME - 1) // L, _NTT_PRIME)
    twiddles = np.ones(max(1, L // 2), dtype=np.uint64)
    m = 1
    while m < L // 2:
        np.multiply(twiddles[:m], np.uint64(pow(w, m, _NTT_PRIME)), out=twiddles[m:2 * m])
        twiddles[m:2 * m] %= P
        m *= 2
    return twiddles.astype(np.uint32)


def _pass_view(buffer: np.ndarray, rows: int, cols: int, by_column: bool):
    """`buffer` as a rows x cols matrix, stored by rows or by columns."""
    return buffer.reshape(cols, rows).T if by_column else buffer.reshape(rows, cols)


def _ntt(a: np.ndarray, spare: np.ndarray, twiddles: np.ndarray):
    """(A, free): the cyclic transform A[j] = sum_i a[i] w^(ij) mod the NTT
    prime P of the uint32 residues `a`, in natural order, and the other of
    the pass buffers `a` and `spare` (L words each, both overwritten).

    Radix 2, one pass per doubling: the rows of X are the transforms of
    the stride-(L/rows) subsequences, and row r of the next pass is
    even[r] + t, row r + rows even[r] - t, t = w_(2 rows)^r odd[r].  Each
    entry is formed apart, so rows under 8 words are stored by columns,
    for numpy's loops to run along the longer side.  t, below 2^62, is
    formed in the destination read as uint64, reduced mod P and narrowed
    into the spent odd half; a sum s < 2P < 2^32 is reduced by min(s, s -
    P), as s - P wraps when s < P.
    """
    P = np.uint32(_NTT_PRIME)
    L = len(a)
    src, dst = a, spare
    rows = 1
    while rows < L:
        half = L // (2 * rows)
        X = _pass_view(src, rows, 2 * half, half < 8)
        t = _pass_view(dst.view(np.uint64), rows, half, half < 8)
        even, odd = X[:, :half], X[:, half:]
        np.multiply(odd, twiddles[::half][:, None], out=t, dtype=np.uint64)
        np.remainder(t, np.uint64(_NTT_PRIME), out=odd, casting="unsafe")
        Y = _pass_view(dst, 2 * rows, half, half < 16)
        lo, hi = Y[:rows], Y[rows:]
        np.add(even, odd, out=lo)               # even + t
        np.subtract(even, odd, out=hi)          # even - t + P
        hi += P
        np.subtract(lo, P, out=odd)
        np.minimum(lo, odd, out=lo)
        np.subtract(hi, P, out=odd)
        np.minimum(hi, odd, out=hi)
        src, dst = dst, src
        rows *= 2
    return src, dst


def _ntt_counts(v: int, ranks: np.ndarray) -> np.ndarray:
    """The coefficients of D D^(-1) on the folded half {0, ..., floor(v/2)}
    of G = Z_v, for the sorted distinct ranks of D, from the cyclic
    autocorrelation of the indicator vector a of D, zero-padded to L =
    `_ntt_length(v)`.

    With A the transform of a, the transform of j -> a[-j] is A[-j], so
    c = transform^(-1)(A[j] A[-j]) is the correlation c[x] = #{(a, b) :
    a - b = x mod L}.  A[j] A[-j] is even in j, so the inverse is the
    forward transform divided by L; it is formed for j <= L/2, in the free
    buffer read as uint64, and mirrored.  Both transforms share one set of
    buffers (`_ntt`).  Differences lie in (-v, v), so
    N(x) = c[x] + c[L - v + x] = c[x] + c[v - x] (c is even and c[v] = 0),
    which is summed for x <= floor(v/2) as residues below 2P, then divided
    by L.  Exact: as the ranks are distinct, every N(x) is at most k <= v
    <= 2^26, below the prime P = 15*2^27 + 1, so the residues are the
    counts, and read as int64 unchanged.
    """
    L = _ntt_length(v)
    a = np.zeros(L, dtype=np.uint32)
    a[ranks] = 1
    twiddles = _ntt_twiddles(L)
    A, free = _ntt(a, np.empty(L, dtype=np.uint32), twiddles)
    h = L // 2
    prod = free.view(np.uint64)                 # A[j] A[L - j], j < L/2
    np.multiply(A[1:h], A[:h:-1], out=prod[1:], dtype=np.uint64)
    prod[0] = int(A[0]) ** 2
    A[h] = int(A[h]) ** 2 % _NTT_PRIME
    np.remainder(prod, np.uint64(_NTT_PRIME), out=A[:h], casting="unsafe")
    A[h + 1:] = A[h - 1:0:-1]
    c, _ = _ntt(A, free, twiddles)
    del twiddles                                # before the folded half
    c = np.add(c[:v // 2 + 1], c[v - v // 2:v + 1][::-1], dtype=np.uint64)
    c *= np.uint64(pow(L, -1, _NTT_PRIME))
    c %= np.uint64(_NTT_PRIME)
    return c.view(np.int64)


def _quotient_obstruction(image: np.ndarray, n: int, lam: int) -> bool:
    """Whether an image vector c in Z_m, m = len(c), has a cyclic
    autocorrelation other than n*delta_0 + lam.  The image bincount(D mod
    m), m | v, of a difference set with D D^(-1) = n + lambda*G meets that
    with lam = lambda*(v/m), so True rejects D; False proves nothing.
    Costs m^2."""
    m = len(image)
    auto = image[(np.arange(m)[:, None] + np.arange(m)) % m] @ image
    auto[0] -= n
    return bool((auto != lam).any())


def verify(G: AbelianGroup, elements) -> VerificationReport:
    """Full group-ring verification of a candidate element set.

    Raises ValueError for a rank that is not an integer or lies outside
    [0, v), then MemoryError for v >= 2^31 (`_order_test`), and before
    counting for an estimate over BYTE_LIMIT (`_guard`).  Rejects a
    repeated rank (the identity count sum(mult^2), over the runs of equal
    sorted ranks, exceeds k) or a non-integral lambda, then, in Z_v
    written with one factor, a failed image (`_quotient_obstruction`);
    accepts only after counting every difference by the `_plan` plan, iff
    every non-identity count of `_counts` (on the cosets of the orbit
    plan, per element of the folded half of Z_v otherwise) is lambda
    (reported as k in Z_1).
    """
    ranks = _ranks(G, elements)
    v = G.order
    k = identity_count = len(ranks)
    if (ranks[1:] == ranks[:-1]).any():         # runs of equal ranks, if any
        runs = np.diff(np.flatnonzero(np.diff(ranks, prepend=-1)), append=len(ranks))
        k, identity_count = len(runs), int(runs @ runs)
    rejected = VerificationReport(False, v, k, None, identity_count)
    if identity_count != k or (v > 1 and k * (k - 1) % (v - 1)):
        return rejected
    lam = k * (k - 1) // (v - 1) if v > 1 else k
    if len(G.factors) == 1:
        for m in divisors(v)[1:]:
            if m * m > k:
                break
            image = np.bincount(ranks % m, minlength=m)
            if _quotient_obstruction(image, k - lam, lam * (v // m)):
                return rejected
    counts = _counts(G, ranks, _plan(G, k, k - lam, ranks))
    if (counts[1:] != lam).any():
        return rejected
    return VerificationReport(True, v, k, lam, identity_count)


def make_difference_set(G: AbelianGroup, elements, params: Params | None = None,
                        field_descriptor: str | None = None) -> DifferenceSet:
    """The DifferenceSet of these ranks, read and sorted once (ValueError
    for one that is not an integer, outside [0, v) or repeated) and
    verified once by `verify`.  `params` are the declared (v, k, lambda);
    without them the set must verify (ValueError otherwise) and takes the
    observed ones."""
    ranks = _distinct_ranks(G, elements)
    rep = verify(G, ranks)
    if params is None:
        if not rep.ok:
            raise ValueError("element set is not a difference set: "
                             f"{rep.as_dict()}")
        params = Params(rep.v, rep.k, rep.lambda_observed)
    return DifferenceSet(G, tuple(ranks.tolist()), params, rep, field_descriptor)


# -- translates and power maps -------------------------------------------------

def translate(D: DifferenceSet, g: int) -> DifferenceSet:
    """D + g; a translate has D's difference counts, so D's report."""
    image = D.group.add(np.asarray(D.elements, dtype=np.int64), g)
    return replace(D, elements=tuple(np.sort(image).tolist()))


def apply_power_map(G: AbelianGroup, elements, m: int) -> tuple[int, ...]:
    """Image of elements under the numerical multiplier x -> m*x, sorted."""
    if gcd(m, G.order) != 1:
        raise ValueError(f"gcd({m}, {G.order}) != 1: not an automorphism")
    image = G.scale(m, np.asarray(elements, dtype=np.int64))
    return tuple(np.sort(image).tolist())


def element_sum(G: AbelianGroup, elements) -> int:
    """The rank of the group sum of the elements (`AbelianGroup.sum`)."""
    return G.sum(np.asarray(elements, dtype=np.int64))


def normalizing_shift(G: AbelianGroup, elements) -> int:
    """The unique g with coordinate-sum(D + g) = 0; needs gcd(v, k) = 1."""
    k = len(elements)
    if gcd(k, G.order) != 1:
        raise ValueError(f"gcd(v, k) = gcd({G.order}, {k}) != 1; "
                         "normalized translate is not unique")
    s = G.unrank(element_sum(G, elements))
    shift = []
    for si, d in zip(s, G.factors):
        kinv = pow(k % d, -1, d)
        shift.append((-si * kinv) % d)
    return G.rank(shift)


def normalize(D: DifferenceSet) -> DifferenceSet:
    """The translate of D whose element coordinate sum is the identity."""
    g = normalizing_shift(D.group, D.elements)
    return translate(D, g) if g else D


def is_normalized(G: AbelianGroup, elements) -> bool:
    return element_sum(G, elements) == 0


# -- intersection profiles -------------------------------------------------------

@dataclass(frozen=True)
class IntersectionProfile:
    """The intersection numbers of D with the cosets of H: counts[i] is
    s_i = |D ∩ (x_i + H)| for the coset of index i (`Subgroup.coset_index`),
    zeros included."""
    subgroup: Subgroup
    counts: tuple[int, ...]
    k: int
    lam: int
    n: int

    @property
    def index(self) -> int:
        return len(self.counts)

    def multiset(self) -> list[int]:
        """All r intersection numbers, sorted (zeros included)."""
        return sorted(self.counts)

    def sum_ok(self) -> bool:
        return sum(self.counts) == self.k

    def sum_sq_ok(self) -> bool:
        return sum(s * s for s in self.counts) == self.lam * self.subgroup.order + self.n

    def as_dict(self):
        return {
            "subgroup_order": self.subgroup.order,
            "index": self.index,
            "profile": self.multiset(),
            "sum_ok": self.sum_ok(),
            "sum_sq_ok": self.sum_sq_ok(),
        }


def _profile_bytes(G: AbelianGroup, H: Subgroup, k: int) -> int:
    """Estimated peak bytes of a profile of k elements on the cosets of H
    and of its report: 160 a coset (counts, multiset, text), 8(t + 3) an
    element of D (ranks and t coordinates)."""
    return 160 * H.index + 8 * (len(G.factors) + 3) * k


def intersection_profile(D: DifferenceSet, H: Subgroup) -> IntersectionProfile:
    """D's counts on the cosets of H, refused first over `_profile_bytes`."""
    _guard(D.group.order, _profile_bytes(D.group, H, len(D.elements)), "coset profile")
    if H.group != D.group:
        raise ValueError("subgroup belongs to a different group")
    which = H.coset_index(np.asarray(D.elements, dtype=np.int64))
    counts = np.bincount(which, minlength=H.index)
    return IntersectionProfile(H, tuple(counts.tolist()), D.params.k,
                               D.params.lam, D.params.n)


@dataclass(frozen=True)
class BoundCheck:
    ok: bool
    index: int
    violations: tuple[tuple[int, int], ...]   # (coset rep, s_i) exceeding the bound

    def as_dict(self):
        return {"ok": self.ok, "index": self.index,
                "violations": list(self.violations)}


def distribution_bound_check(prof: IntersectionProfile) -> BoundCheck:
    """Exact check of |s_i - k/r| <= sqrt(n)(r-1)/r for every coset of an
    intersection profile.

    Compared with cleared denominators: (r*s_i - k)^2 <= n*(r-1)^2.
    """
    r, k, n = prof.index, prof.k, prof.n
    rhs = n * (r - 1) * (r - 1)
    bad = [(prof.subgroup.representative(i), s) for i, s in enumerate(prof.counts)
           if s and (r * s - k) ** 2 > rhs]
    if 0 in prof.counts and k * k > rhs:
        bad.append((-1, 0))               # some coset misses D entirely
    return BoundCheck(not bad, r, tuple(bad))


# -- restriction to a subgroup ---------------------------------------------------

def restrict(D: DifferenceSet, M: Subgroup, params: Params) -> DifferenceSet:
    """D ∩ M as a DifferenceSet of M in its own invariant-factor
    presentation (`subgroup_as_group`), checked against the declared
    `params`, the ones D ∩ M is expected to have."""
    pres = subgroup_as_group(M)
    return make_difference_set(pres.group, [pres.to_sub[e] for e in meet(D, M)], params)


def meet(D: DifferenceSet, H: Subgroup) -> list[int]:
    """The ranks of D ∩ H, ascending: those of coset index 0."""
    ranks = np.asarray(D.elements, dtype=np.int64)
    return ranks[H.coset_index(ranks) == 0].tolist()


# -- set-file interchange format ---------------------------------------------------

def write_set_file(path, D: DifferenceSet):
    """The header, then one rank a line, written 4096 ranks at a time."""
    with open(path, "w") as fh:
        fh.write(f"group {D.group.descriptor().replace(' ', '')}\n"
                 f"{D.params.v} {D.params.k} {D.params.lam}\n")
        for i in range(0, len(D.elements), 4096):
            fh.write("\n".join(map(str, D.elements[i:i + 4096])) + "\n")


class SetFileError(ValueError):
    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.line = line


def read_set_file(path) -> DifferenceSet:
    """The set in a set file, made by `make_difference_set` with the
    declared (v, k, lambda): `verified` when it verifies with them.
    SetFileError names the line of a malformed entry, a rank out of range
    or a repeated one.

    One reader takes the header (`_set_file_header`).  A plain body
    (`_plain_ranks`) is then parsed in one numpy call; any other body, and
    a plain one whose sorted ranks repeat, is read line by line
    (`_set_file_body`), which finds the line that an error names.  The
    ranks are verified once."""
    with open(path) as fh:
        text = fh.read()
    G, params, start, pos = _set_file_header(path, text)
    ranks = _plain_ranks(text[pos:], params)
    if ranks is None or (ranks[1:] == ranks[:-1]).any():
        ranks = _set_file_body(path, text.splitlines(), start, params)
    return make_difference_set(G, ranks, params)


def _set_file_header(path, text: str) -> tuple[AbelianGroup, Params, int, int]:
    """(G, params, start, pos) of a set file's text: the header is its
    first two lines, as str.splitlines splits them, that are neither blank
    nor comments, "group Z_..." and "v k lambda", and the body, text[pos:],
    starts at line start + 1.  SetFileError names the line of a missing or
    malformed header line.  Only the header is split, a line feed at a
    time, so that no \r\n is cut and no line of the body is made."""
    header, start, pos = [], 0, 0
    while len(header) < 2 and pos < len(text):
        end = text.find("\n", pos) + 1 or len(text)
        for line in text[pos:end].splitlines(keepends=True):
            start, pos = start + 1, pos + len(line)
            if line.strip() and not line.strip().startswith("#"):
                header.append((start, line.strip()))
                if len(header) == 2:
                    break
    if len(header) < 2:
        raise SetFileError(path, 1, "expected a group line and a parameter line")
    (lno, gline), (start, pline) = header
    if not gline.startswith("group "):
        raise SetFileError(path, lno, 'first line must be "group Z_..."')
    try:
        G = parse_group(gline[6:])
    except ValueError as e:
        raise SetFileError(path, lno, str(e)) from None
    try:
        v, k, lam = (int(x) for x in pline.split())
    except ValueError:
        raise SetFileError(path, start, 'expected "v k lambda"') from None
    if v != G.order:
        raise SetFileError(path, start, f"v = {v} does not match group order {G.order}")
    return G, Params(v, k, lam), start, pos


#: The bytes of a plain set file's body.
_PLAIN_BODY = b"0123456789\n"


def _plain_ranks(body: str, params: Params) -> np.ndarray | None:
    """The ranks of a plain set-file body as a sorted int64 array, else
    None: one decimal rank a line (blank lines allowed), k of them, all
    below v.  Such a body reads as `_set_file_body` reads it; any other
    gets None."""
    try:
        body = body.encode("ascii")
    except UnicodeEncodeError:
        return None
    if body.translate(None, _PLAIN_BODY) or not body.strip():
        return None                     # fromstring reads a blank body as [0]
    ranks = np.fromstring(body, dtype=np.int64, sep=" ")
    if len(ranks) != params.k or ranks.max() >= params.v:
        return None
    ranks.sort()
    return ranks


def _set_file_body(path, lines: list[str], start: int, params: Params) -> list[int]:
    """The ranks of the body lines[start:] of a set file, read line by
    line: SetFileError for the first malformed or out-of-range entry, then
    for a wrong count, then for the first repeated entry, at its line."""
    entries = [(i + 1, ln.strip()) for i, ln in enumerate(lines[start:], start)
               if ln.strip() and not ln.strip().startswith("#")]
    els = []
    for lno, ln in entries:
        try:
            e = int(ln)
        except ValueError:
            raise SetFileError(path, lno, f"bad element rank {ln!r}") from None
        if not 0 <= e < params.v:
            raise SetFileError(path, lno, f"element rank {e} out of range")
        els.append(e)
    if len(els) != params.k:
        raise SetFileError(path, len(lines),
                           f"expected {params.k} elements, found {len(els)}")
    first = {}                          # rank -> the line it is first on
    for (lno, _), e in zip(entries, els):
        if first.setdefault(e, lno) != lno:
            raise SetFileError(path, lno, f"element rank {e} repeats line {first[e]}")
    return els
