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
an orbit plan only when its multiplier is checked to fix D.  In Z_v
every strategy reads D D^(-1) on the folded half {0, ..., floor(v/2)},
x read as min(x, v - x): the number of differences a - b = x is the
number at -x (swap a and b), so the half holds every coefficient, and
one int32 block kernel (`_folded_differences`) folds the differences of
the pair and orbit counts:

- pair counting, all k^2 pairs (k^2), in Z_v into floor(v/2) + 1 bins,
  the bins of x != -x then halved; the only one for groups written as
  products, where it counts over all of G, and the oracle of the other
  two;
- orbit counting in Z_v, when a prime t | k - lambda fixes D (t*D = D,
  checked, never assumed: Hall's multiplier theorem predicts it): the
  coefficients are constant on the orbits of x -> t*x and equal at x and
  -x, so on the orbits of <t, -1>, numbered over the folded half
  (`_folded_orbit_ids`).  Only pairs whose first element represents a
  t-orbit of D (`groups._orbit_firsts`, the multiplier-orbit routine of
  the whole package) are counted, e = ord_v(t), and
  of two t-orbits of D only one against the other, at twice the weight,
  as every orbit of <t, -1> is its own negative: ~k^2/(2e) pairs into
  one counter per orbit, from which the verdict is read without expanding
  to one count per group element (v*ceil(log2 e) + k^2/(2e));
- the cyclic autocorrelation c in Z_v by a number-theoretic transform of
  length L = 2^ceil(log2(2v - 1)) modulo the prime 15*2^27 + 1
  (8/5*L*log2(L) + 40000, calibrated against the pair cost), read as
  c[x] + c[v - x] on the folded half; distinct ranks keep every
  coefficient at most k, below the prime; O(v log v) whatever k.

Only the public `difference_counts` unfolds the half to one coefficient
per element of Z_v.

All counts and bound checks are exact integer arithmetic; no floating
point anywhere.  Memory is bounded twice, each test in one function: the
order test (`_order_test`, v at most FULL_VERIFY_ORDER_LIMIT, one
message that names v) runs before a set is judged and before a plan is
priced, and the byte guard (`_guard`) holds the plan's bytes, plus a
caller's own, against BYTE_LIMIT.  Every count (`verify`,
`difference_counts`, so set files, restrictions and search class files)
passes the guard before it allocates, and `singer.singer_construct`
passes it with the plan `verify` will run on the set it builds.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import gcd
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .groups import (AbelianGroup, CosetDecomposition, Subgroup,
                     _orbit_firsts, cosets, parse_group, subgroup_as_group)
from .numth import (divisors, is_prime_power, multiplicative_order,
                    prime_divisors, totient)

#: Full difference counting keeps a dense length-v counter.
FULL_VERIFY_ORDER_LIMIT = 1 << 26

#: Estimated peak bytes (`_guard`) above which a count, or a construction
#: with its count, is refused before anything is allocated.
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

    @cached_property
    def element_set(self) -> frozenset:
        return frozenset(self.elements)

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
    [0, v) or repeated, MemoryError for v > FULL_VERIFY_ORDER_LIMIT or,
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
    """MemoryError for v > FULL_VERIFY_ORDER_LIMIT, where no dense counter
    is built: the one order test, of every count and every construction."""
    if v > FULL_VERIFY_ORDER_LIMIT:
        raise MemoryError("full difference counting limited to group order "
                          f"{FULL_VERIFY_ORDER_LIMIT}; v = {v}")


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
    (for "orbit" only) and the estimated peak bytes of `verify` by it."""
    strategy: str
    t: int | None
    nbytes: int


#: `_ntt_counts` cost per call, in ordered pairs (see `_prices`).
_NTT_CALL_COST = 40_000

#: Bytes of the buffers numpy's iterator allocates for one ufunc call on
#: a broadcast or strided block (8192 elements an operand), which the
#: orbit count's short counters leave no room to absorb.
_ITER_BUFFERS = 1 << 17


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
    - "ntt": 8/5*L*log2(L) for the transform length L plus _NTT_CALL_COST;
      two uint32 buffers of L words and L/2 uint32 twiddles, and
      _ITER_BUFFERS;
    - "orbit" by t, for each prime t | n with gcd(t, v) = 1 (the first
      multiplier theorem's candidates; none for n <= 1): v*ceil(log2 e)
      for the orbit numbers plus k^2/(2e) pairs, e = ord_v(t); 80 bytes
      an element of D (its t-orbits by `_orbit_firsts` and its orbit
      order), then the numbering of the `_orbit_number` orbits of <t, -1>
      by `_folded_orbit_ids` or, if more, the count.  The numbering takes
      its slice buffers (at most 29 bytes a slice element) and the int32
      keys of the floor(v/2) + 1 elements of the folded half or, if more,
      the held ids and sizes (`_orbit_id_dtype` ids, int64 sizes) with a
      slice's bincount of the sizes; the count the held ids and sizes,
      the int64 counter, 16 bytes a pair of a block and _ITER_BUFFERS.

    Calibrated on a 2 vCPU Intel Xeon (Python 3.11, numpy 2.4.6): the
    pair and orbit counters took 8-13 ns per unit of their cost, the NTT
    14-20 ns per L*log2(L) for L = 2^14 to 2^22 and 0.1-0.4 ms per call
    for L up to 2^8.  Since the counters reuse their block buffers and
    the orbit count keeps two counter entries per orbit, the same machine
    measures, warm, 4-10 ns per unit for the orbit counter (the Singer
    sets of v = 3906 to 2113665), 4-8 ns for the pair counter and 6-7.5
    ns for the uint32 NTT (random sets of v = 10007 to 1000003).  The
    constants are kept, so that no plan moves.  The orbit cost counts v*ceil(log2 e)
    for the numbering although its passes cover only floor(v/2) + 1
    elements: the term is kept so that every plan stays the one these
    constants were fitted to.  The pair and NTT bytes also cover
    `difference_counts` unfolding the half, 12 bytes an element of Z_v.
    """
    v = G.order
    _order_test(v)
    sets = 48 * k
    bins = v // 2 + 1 if len(G.factors) == 1 else v     # `_pair_counts`' counter
    prices = [(k * k, Plan("pair", None, sets + 16 * bins + 24 * _block_pairs(k, bins)))]
    if len(G.factors) == 1:
        L = _ntt_length(v)
        prices.append((8 * L * (L.bit_length() - 1) // 5 + _NTT_CALL_COST,
                       Plan("ntt", None, sets + 10 * L + _ITER_BUFFERS)))
        for t in prime_divisors(n) if n > 1 else ():
            if gcd(t, v) == 1:
                e, half = multiplicative_order(t, v), v // 2 + 1
                orbits = _orbit_number(v, t, e)
                held = _orbit_id_dtype(orbits).itemsize * half + 8 * orbits
                numbering = 29 * min(half, _KEY_SLICE) + max(4 * half, held + 8 * orbits)
                counting = held + 8 * orbits + 16 * max(_BLOCK, k) + _ITER_BUFFERS
                prices.append((v * (e - 1).bit_length() + k * k // (2 * e), Plan(
                    "orbit", t, sets + 80 * k + max(numbering, counting))))
    return prices


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
        if (plan.t is None or ranks is None
                or (np.sort(G.scale(plan.t, ranks)) == ranks).all()):
            return plan


def _guard(v: int, plan: Plan, extra: int = 0,
           what: str = "difference counting") -> None:
    """The one byte guard of a count and of a construction: MemoryError
    when a caller's `extra` bytes plus the `_plan` estimate are over
    BYTE_LIMIT."""
    need = extra + plan.nbytes
    if need > BYTE_LIMIT:
        raise MemoryError(f"{what} of v = {v} needs about {need >> 20} MiB, "
                          f"over the {BYTE_LIMIT >> 20} MiB limit")


def _counts(G: AbelianGroup, ranks: np.ndarray, plan: Plan) -> np.ndarray:
    """The coefficients of D D^(-1) for sorted distinct in-range ranks by
    the `_plan` plan: per orbit of <t, -1> by the orbit count
    (`_orbit_counts`), else per element of the folded half of Z_v, the
    coefficient of x at min(x, v - x), or per rank of a product
    presentation.  Either way counts[0] is the identity coefficient alone
    and every other entry a non-identity one.  MemoryError (`_guard`)
    before any counter is allocated."""
    _guard(G.order, plan)
    if plan.strategy == "orbit":
        return _orbit_counts(G, ranks, plan.t)
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

    The differences are formed in int32: v <= FULL_VERIFY_ORDER_LIMIT =
    2^26 < 2^31 keeps d = |a - b| in [0, v), and x is d or v - d, either
    way with the fold min(d, v - d).
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
    fallback and the oracle of `_orbit_counts` and `_ntt_counts`.  In Z_v
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


#: Elements per slice in the passes of `_folded_orbit_ids`, which reuse a
#: few buffers of this length.
_KEY_SLICE = 1 << 14


def _scaled_slices(v: int, m: int):
    """Pairs (lo, image) over consecutive slices of the folded half H =
    {0, ..., floor(v/2)} of Z_v, image[i] = fold(m*(lo + i)), fold(x) =
    min(x, v - x) for x in [0, v), as int64 in a buffer reused from one
    slice to the next.

    The products of a slice are the progression (m*lo mod v) + (m*i mod
    v) in [0, 2v): one addition per element instead of a product and a
    remainder.  For y in [0, 2v), d = |y - v| is y mod v or v minus it, so
    fold(y mod v) = min(d, v - d), three more operations.
    """
    stop = v // 2 + 1
    n = min(stop, _KEY_SLICE)
    steps = np.arange(n, dtype=np.int64)
    steps *= m % v
    steps %= v
    steps -= v                          # y - v: |y - v| is one np.abs away
    steps = steps.astype(np.int32)      # |y - v| <= v < 2^31
    spare = np.empty(n, dtype=np.int32)
    image = np.empty(n, dtype=np.int64)
    for lo in range(0, stop, n):
        s = slice(0, min(n, stop - lo))
        np.add(steps[s], m * lo % v, out=image[s])
        np.abs(image[s], out=image[s])
        np.subtract(v, image[s], out=spare[s])
        np.minimum(image[s], spare[s], out=image[s])
        yield lo, image[s]


def _orbit_id_dtype(orbits: int) -> np.dtype:
    """The dtype of orbit numbers below `orbits`: uint16 if it fits."""
    return np.dtype(np.uint16 if orbits <= 1 << 16 else np.int32)


def _folded_orbit_ids(v: int, t: int):
    """The orbits on Z_v of the group <t, -1>, generated by x -> t*x and
    x -> -x, numbered in the order of their least elements: (ids, sizes),
    ids an `_orbit_id_dtype` array over the folded half H = {0, ...,
    floor(v/2)} alone, the orbit of x being ids[min(x, v - x)], and sizes
    the int64 orbit sizes in Z_v, where every x of H stands for x and v -
    x, two elements except 0 and (v even) v/2.  The identity is orbit 0,
    alone.  ValueError unless t is a unit mod v.

    The numbering of `_orbit_counts`, kept to half the table and a few
    slice buffers.  With e = ord_v(t), ceil(log2 e) doubling passes key(x)
    = min(key(x), key(fold(t^j x))), j = 1, 2, 4, ..., cover x, t x, ...,
    t^(e-1) x and their negatives, as fold(-y) = fold(y), so key(x) ends
    as the least element of the orbit of x.  Updating in place only lowers
    an entry to another element of the same orbit, so the passes may run
    over fixed slices.  A last pass, slice by slice in increasing order,
    numbers the least elements (key(x) = x) and gives each entry x the
    number written at key(x) <= x, into the key read in the narrow dtype:
    its entry x lies in key[:x + 1], read by then.  The key is shrunk in
    place to the numbers, with no view of it left, so without numpy's
    reference check, which a trace or profile hook's own reference to the
    key would fail; one more pass counts them.  The doubling and numbering
    passes reuse the same buffers, and their gathers are
    np.take(mode="wrap"), which unlike the default mode makes no copy.
    Needs v below 2^31.
    """
    half = v // 2 + 1
    e, step = multiplicative_order(t % v, v), 1
    narrow = _orbit_id_dtype(_orbit_number(v, t, e))
    key = np.arange(half, dtype=np.int32)
    n = min(half, _KEY_SLICE)
    low = np.empty(n, dtype=np.int32)
    while step < e:
        for lo, image in _scaled_slices(v, pow(t, step, v)):
            seg, s = key[lo:lo + n], slice(0, len(image))
            np.take(key, image, out=low[s], mode="wrap")
            np.minimum(seg, low[s], out=seg)
        del image           # the pass's last slice, before the next allocates
        step *= 2
    ids, got = key.view(narrow)[:half], low.view(narrow)
    offsets = np.arange(n, dtype=np.int32)
    is_least, index = np.empty(n, dtype=bool), np.empty(n, dtype=np.int64)
    count = 0
    for lo in range(0, half, n):
        seg, s = key[lo:lo + n], slice(0, min(n, half - lo))
        np.subtract(seg, lo, out=low[s])
        np.equal(low[s], offsets[s], out=is_least[s])
        np.copyto(index[s], seg)
        firsts = np.flatnonzero(is_least[s])
        ids[lo:lo + n][firsts] = np.arange(count, count + len(firsts), dtype=narrow)
        count += len(firsts)
        np.take(ids, index[s], out=got[s], mode="wrap")
        ids[lo:lo + n] = got[s]
    del ids, seg                        # no view of key is left
    key.resize((half * narrow.itemsize + 3) // 4, refcheck=False)
    ids = key.view(narrow)[:half]
    sizes = np.zeros(count, dtype=np.int64)
    for lo in range(0, half, n):
        sizes += np.bincount(ids[lo:lo + n], minlength=count)
    sizes *= 2
    sizes[0] -= 1                       # 0 = -0
    if v % 2 == 0:
        sizes[ids[v // 2]] -= 1         # v/2 = -v/2
    return ids, sizes


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


def _orbit_counts(G: AbelianGroup, ranks: np.ndarray, t: int) -> np.ndarray:
    """The coefficients of D D^(-1) per orbit of <t, -1>, for sorted
    distinct ranks of D in G = Z_v with t*D = D: counts[i] is the
    coefficient of every x in orbit i of `_folded_orbit_ids`, whose
    numbers ids over the folded half give x the coefficient
    counts[ids[min(x, v - x)]] (the identity alone is orbit 0).
    RuntimeError if t does not fix D: the t-orbits of D are read by
    `groups._orbit_firsts` from D alone.

    N(x) = #{(a, b) in D^2 : a - b = x} is constant on t-orbits, and
    N(-x) = N(x) (swap a and b), so it is constant on the orbits O of
    <t, -1>.  For t-orbits P, Q of D the pairs of P x Q with a - b in O
    number c(P, Q, O) = |P| #{b in Q : rep(P) - b in O}, rep(P) the least
    element of P; so |O| N(O) is the sum of c(P, Q, O) over all P, Q.
    Swapping a and b gives c(Q, P, O) = c(P, Q, -O) = c(P, Q, O), as
    every O is its own negative.  So D is ordered by t-orbit size, then
    least element, and cut into bands of representatives of one size: a
    band counts its own orbits against each other in both orders, at
    weight |P|, and every later orbit once, at 2|P|.  That is about
    k^2/(2e) pairs, e = ord_v(t), a block of `_folded_differences` at a
    time, added into one counter an orbit by np.add.at, which unlike a
    bincount makes no array of the counter's length; the sum is divided
    by |O|.  The orbit numbers of a block are gathered into a view of the
    free buffer in the dtype of ids, as np.take casts no `out`.
    """
    v = G.order
    rep_of = _orbit_firsts(G, ranks, t)
    ids, sizes = _folded_orbit_ids(v, t)
    orbits = len(sizes)
    own_sizes = np.bincount(rep_of, minlength=len(ranks))[rep_of]   # |P| of each
    order = np.lexsort((rep_of, own_sizes))     # by t-orbit size, then least
    cols, of = ranks[order].astype(np.int32), rep_of[order]
    starts = np.flatnonzero(np.diff(of, prepend=-1))    # each t-orbit's first
    reps, rep_sizes = cols[starts], own_sizes[order[starts]]
    k = len(cols)
    pairs = max(_BLOCK, k)
    buffers = _block_buffers(min(pairs, len(starts) * k))
    counts = np.zeros(orbits, dtype=np.int64)
    i = 0
    while i < len(starts):
        first, size = starts[i], rep_sizes[i]
        end = min(i + max(1, pairs // (k - first)),
                  np.searchsorted(rep_sizes, size, side="right"))
        own = (starts[end] if end < len(starts) else k) - first
        diffs = _folded_differences(v, reps[i:end], cols[first:], buffers)
        got = buffers[1].view(ids.dtype)[:diffs.size].reshape(diffs.shape)
        np.take(ids, diffs, out=got, mode="wrap")       # "wrap": no copy
        np.copyto(diffs, got)           # add.at copies indices of other dtypes
        np.add.at(counts, diffs[:, :own], size)
        np.add.at(counts, diffs[:, own:], 2 * size)
        i = end
    counts //= sizes
    return counts


#: The NTT prime 15*2^27 + 1 and a primitive root: transform lengths up
#: to 2^27, so v up to 2^26, and residue products below 2^62.
_NTT_PRIME = 2013265921
_NTT_ROOT = 31


def _ntt_length(v: int) -> int:
    """The least power of two L >= 2v, so that the differences in (-v, v)
    stay distinct mod L; for v > 1 that is 2^ceil(log2(2v - 1)), as 2v - 1
    is odd."""
    return 2 << (v - 1).bit_length()


def _ntt_twiddles(L: int) -> np.ndarray:
    """w^j mod the NTT prime for j < L/2 as uint32, w = `_NTT_ROOT`^((P-1)/L)
    a primitive L-th root of unity."""
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
    [0, v), then MemoryError for v > FULL_VERIFY_ORDER_LIMIT, and before
    counting for an estimate over BYTE_LIMIT (`_guard`).  Rejects a
    repeated rank (the identity count sum(mult^2), over the runs of equal
    sorted ranks, exceeds k) or a non-integral lambda, then, in Z_v
    written with one factor, a failed image (`_quotient_obstruction`);
    accepts only after counting every difference by the `_plan` plan, iff
    every non-identity count of `_counts` (per orbit on the orbit path,
    per element of the folded half of Z_v otherwise) is lambda (reported
    as k in Z_1).
    """
    ranks = _ranks(G, elements)
    v = G.order
    runs = np.diff(np.flatnonzero(np.diff(ranks, prepend=-1)), append=len(ranks))
    k, identity_count = len(runs), int(runs @ runs)     # runs of equal ranks
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
    s_i = |D ∩ (x_i + H)| for the i-th coset of `decomposition`, zeros
    included."""
    subgroup: Subgroup
    decomposition: CosetDecomposition
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


def intersection_profile(D: DifferenceSet, H: Subgroup) -> IntersectionProfile:
    dec = cosets(D.group, H)
    which = dec.coset_index(np.asarray(D.elements, dtype=np.int64))
    counts = np.bincount(which, minlength=dec.index)
    return IntersectionProfile(H, dec, tuple(counts.tolist()), D.params.k,
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
    bad = [(rep, s) for rep, s in zip(prof.decomposition.representatives,
                                      prof.counts) if s and (r * s - k) ** 2 > rhs]
    if 0 in prof.counts and k * k > rhs:
        bad.append((-1, 0))               # some coset misses D entirely
    return BoundCheck(not bad, r, tuple(bad))


# -- restriction to a subgroup ---------------------------------------------------

def restrict(D: DifferenceSet, M: Subgroup, params: Params) -> DifferenceSet:
    """D ∩ M as a DifferenceSet of M in its own invariant-factor
    presentation (`subgroup_as_group`), checked against the declared
    `params`, the ones D ∩ M is expected to have."""
    pres = subgroup_as_group(M)
    return make_difference_set(
        pres.group, [pres.to_sub[e] for e in D.element_set & M.element_set], params)


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
