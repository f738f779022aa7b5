"""Finite abelian groups, written additively.

A group is a direct product Z_{d1} x ... x Z_{dt}; elements are handled
by their mixed-radix rank (most significant coordinate first).  The usual
multiplicative language for difference sets maps onto this as
"product of elements = 1" <-> "coordinate sum = 0".

The rank encoding is known only here: `AbelianGroup.add`, `sub`, `neg`
and `scale` are one group law on ranks, written once for Python ints
and int64 arrays alike, so pair counts, power maps and translates
elsewhere broadcast it over whole rank arrays; `sum` adds up an
array of ranks.

Factor lists are not required to be in invariant-factor form (Z_3 x Z_5
is accepted as written); :func:`subgroup_as_group` always emits a proper
invariant-factor presentation, from a greedy basis of maximal orders.
A subgroup is its reduced echelon, a step and a pivot per coordinate
(`Subgroup`), which membership and cosets read.  It is found by arithmetic
in any presentation, by Euclid's steps on generators (`generated_subgroup`),
the least of order m as a box of orders read off by gcds
(`subgroup_of_order`); only `Subgroup.elements` lists it.

The orbits of a numerical multiplier x -> t*x on a set that t fixes are
found by one routine, `_orbit_firsts`, in any presentation: on all of
G for the orbit search and `multiplier_orbits`, on all of Z_a for the
orbits of <t, -1> that the verifier's coset count reads (in `dset`),
and on the units mod the exponent for the power maps of the class
forms.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm, prod

import numpy as np

from .numth import divisors, factorize, multiplicative_order

#: Orders up to this are safe to materialize element-by-element.
MATERIALIZE_LIMIT = 1 << 24


class GroupSizeError(ValueError):
    """Operation would materialize more elements than the guard allows."""


class AbelianGroup:
    """Direct product of cyclic groups, elements addressed by rank."""

    def __init__(self, factors):
        factors = tuple(int(d) for d in factors)
        if not factors or any(d < 1 for d in factors):
            raise ValueError(f"invalid factor list {factors}")
        self.factors = factors
        self.order = 1
        for d in factors:
            self.order *= d
        # weight[i] = product of factors after i, so
        # rank = sum coords[i] * weight[i]
        self._weights = []
        w = self.order
        for d in factors:
            w //= d
            self._weights.append(w)
        self.exponent = lcm(*factors)

    @property
    def is_cyclic(self) -> bool:
        return self.exponent == self.order

    def descriptor(self) -> str:
        return " x ".join(f"Z_{d}" for d in self.factors)

    def __repr__(self):
        return f"AbelianGroup({self.descriptor()})"

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    # -- coordinates ---------------------------------------------------------

    def rank(self, coords) -> int:
        if len(coords) != len(self.factors):
            raise ValueError("coordinate length mismatch")
        r = 0
        for c, d, w in zip(coords, self.factors, self._weights):
            if not 0 <= c < d:
                raise ValueError(f"coordinate {c} out of range [0, {d})")
            r += c * w
        return r

    def unrank(self, r: int) -> tuple[int, ...]:
        if not 0 <= r < self.order:
            raise ValueError(f"rank {r} out of range")
        out = []
        for w in self._weights:
            c, r = divmod(r, w)
            out.append(c)
        return tuple(out)

    # -- group law on ranks ----------------------------------------------------

    # Each operation takes Python ints or int64 arrays of ranks, which
    # broadcast against each other; on ints it returns an int.

    def add(self, r1, r2):
        if len(self.factors) == 1:
            return (r1 + r2) % self.order
        return sum((r1 // w % d + r2 // w % d) % d * w
                   for d, w in zip(self.factors, self._weights))

    def sub(self, r1, r2):
        if len(self.factors) == 1:
            return (r1 - r2) % self.order
        return sum((r1 // w % d - r2 // w % d) % d * w
                   for d, w in zip(self.factors, self._weights))

    def scale(self, m: int, r):
        """m-fold sum of the element of rank r (the power map x -> x^m)."""
        if len(self.factors) == 1:
            return m % self.order * r % self.order
        return sum(m % d * (r // w % d) % d * w
                   for d, w in zip(self.factors, self._weights))

    def neg(self, r):
        return self.scale(-1, r)

    def sum(self, r) -> int:
        """The rank of the sum of an int64 array of ranks: one integer
        reduction per coordinate, in int64 partial sums of at most
        (2^63 - 1) // d coordinates of Z_d, so every partial sum is exact."""
        total = 0
        for d, w in zip(self.factors, self._weights):
            coords, step = r // w % d, max(1, (2**63 - 1) // d)
            s = sum(int(coords[i:i + step].sum()) for i in range(0, len(coords), step))
            total += s % d * w
        return total

    def element_order(self, r: int) -> int:
        o = 1
        for d, w in zip(self.factors, self._weights):
            c, r = divmod(r, w)
            o = lcm(o, d // gcd(c, d))
        return o

    def elements(self):
        return range(self.order)


def parse_group(text: str) -> AbelianGroup:
    """Parse a descriptor like "Z_3 x Z_15" (spacing and case lenient)."""
    parts = text.replace("X", "x").split("x")
    factors = []
    for part in parts:
        part = part.strip()
        if not part.startswith(("Z_", "z_")):
            raise ValueError(f"bad group descriptor component {part!r}")
        factors.append(int(part[2:]))
    return AbelianGroup(factors)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup H of G held as its reduced echelon.  The coordinates j
    of H_j, the elements of H zero before coordinate j, are the multiples
    of the step s_j | d_j; the pivot b_j (its coordinates) is the element
    of H_j with coordinate j equal to s_j (b_j = 0 if s_j = d_j) and each
    coordinate i > j below s_i, the least of its coset of H_{j+1} (below),
    so `==` compares subgroups by value.  H is every sum c_j b_j,
    0 <= c_j < d_j/s_j, each once, so |H| = prod d_j/s_j.

    y <- y - floor(y_j/s_j)*b_j for each j in turn (`coset_index`) stays in
    y's coset and leaves every coordinate j below s_j.  The reduced y is
    least in its coset: adding h != 0 first changes a coordinate j, by a
    nonzero multiple of s_j, which from below s_j does not wrap.  So the
    least elements of the cosets are the ranks in prod [0, s_j), the index
    is prod s_j, and a rank lies in H when its coset index is 0.
    """
    group: AbelianGroup
    steps: tuple[int, ...]
    pivots: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return prod(d // s for d, s in zip(self.group.factors, self.steps))

    @property
    def index(self) -> int:
        return prod(self.steps)

    def coset_index(self, r):
        """The coset index of a rank, or of an int64 array of ranks, its
        y reduced and read in radices s_j; b_j need not be reduced."""
        G, index = self.group, 0
        y = [r // w % d for d, w in zip(G.factors, G._weights)]
        for j, (s, b) in enumerate(zip(self.steps, self.pivots)):
            for i in range(j + 1, len(y)):
                if b[i]:
                    y[i] = (y[i] - y[j] // s * b[i]) % G.factors[i]
            y[j] %= s           # in place on the arrays made here
            index = index * s + y[j]
        return index

    def representative(self, i):
        """The least rank of coset i, or of an int64 array of coset
        indices: the digits of i in radices s_j are its coordinates."""
        r = 0
        for s, w in zip(reversed(self.steps), reversed(self.group._weights)):
            i, c = divmod(i, s)
            r = r + c * w
        return r

    def __contains__(self, r: int) -> bool:
        return self.coset_index(r) == 0

    @property
    def elements(self) -> tuple[int, ...]:
        """The ranks of H, ascending: every sum c_j b_j, 0 <= c_j <
        d_j/s_j.  GroupSizeError over MATERIALIZE_LIMIT elements."""
        if self.order > MATERIALIZE_LIMIT:
            raise GroupSizeError(f"subgroup of order {self.order} exceeds the "
                                 f"materialization limit {MATERIALIZE_LIMIT}")
        G = self.group
        # int64 while every rank and c*b_j[i], c < 2^24, fit; else Python ints
        els = np.zeros(1, dtype=np.int64 if G.order < 2**39 else object)
        for j, (s, b) in enumerate(zip(self.steps, self.pivots)):
            c, shift = np.arange(G.factors[j] // s, dtype=els.dtype), 0
            for bi, d, w in zip(b[j:], G.factors[j:], G._weights[j:]):
                if bi:      # the change in rank of coordinate i, y_i -> y_i + c*b_j[i]
                    y = els[:, None] // w % d
                    shift = shift + ((y + c * bi % d) % d - y) * w
            els = (els[:, None] + shift).ravel()
        return tuple(np.sort(els).tolist())

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.group.descriptor()})"


def generated_subgroup(G: AbelianGroup, gens) -> Subgroup:
    """The subgroup generated by these ranks, its echelon built coordinate
    by coordinate from rows that generate H_j, the gens at j = 0.  The
    pivot starts as 0 with "coordinate" d_j; Euclid's steps on it and each
    row in turn keep their span and leave it with coordinate j equal to
    s_j, the gcd of d_j and the rows' coordinates j, and each row with
    coordinate j zero.  With (d_j/s_j)*b_j they generate H_{j+1}: a*b_j
    plus rows is in H_{j+1} when d_j/s_j divides a."""
    rows, steps, pivots = list(gens), [], []
    for d, w in zip(G.factors, G._weights):
        s, b = d, 0
        for n, r in enumerate(rows):
            c = r // w % d
            while c:            # b has coordinate s, r coordinate c (mod d)
                s, b, c, r = c, r, s % c, G.sub(b, G.scale(s // c, r))
            rows[n] = r
        rows.append(G.scale(d // s, b))
        steps.append(s)
        pivots.append(b)
    # reduce each b_j: b_j - s_j e_j is zero up to j, so the least element
    # of its coset is that of its coset of H_{j+1}
    H = Subgroup(G, tuple(steps), tuple(map(G.unrank, pivots)))
    heads = [s % d * w for s, d, w in zip(steps, G.factors, G._weights)]
    return Subgroup(G, H.steps, tuple(
        G.unrank(H.representative(H.coset_index(b - e)) + e) for b, e in zip(pivots, heads)))


def _box(G: AbelianGroup, orders) -> Subgroup:
    """The box prod s_i Z_{d_i}, s_i = d_i/o_i, pivots b_i = s_i e_i."""
    return generated_subgroup(G, [d // o % d * w
                                  for d, o, w in zip(G.factors, orders, G._weights)])


def _torsion(G: AbelianGroup, m: int) -> Subgroup:
    """{x : m*x = 0}: the box of orders gcd(m, d) over the factors Z_d."""
    return _box(G, [gcd(m, d) for d in G.factors])


def subgroup_of_order(G: AbelianGroup, m: int) -> tuple[Subgroup, bool]:
    """(H, unique): the subgroup H of order m whose sorted element tuple
    is least, and whether it is the only one.  ValueError unless m is a
    positive divisor of |G|.

    H is the box whose orders o_i = gcd(m', d_i) are taken from the last
    factor to the first, m' the part of m not yet placed (prime by prime,
    each factor takes all of m' it holds, so prod o_i = m).  It is least,
    by induction on the factors.  Let K have order m, Z_d be the last
    factor and A = K n Z_d, of order dividing o = gcd(m, d), so inside
    the box's B = (d/o)Z_d.  The elements of K with one prefix (the other
    coordinates) form a block c + A, one element in each [i*g, (i+1)*g),
    g = d/|A|: elementwise at or above A.  If |A| < o, the box wins at its
    second element d/o, below g and every nonzero prefix.  Otherwise A = B,
    the prefixes of K form a subgroup of order m/o, and the box's, least
    by induction, win at the first that differs, the blocks before it
    being B in the box and at or above B in K.

    Unique.  Every subgroup of order m lies in the m-torsion T, of order
    prod gcd(m, d_i); if |T| = m, T is the only one.  If H is the only
    one, each x in T lies in H: T/<x> has a subgroup of order m/|<x>|,
    whose preimage has order m.  So H is unique iff |T| = m.
    """
    if m < 1:
        raise ValueError(f"subgroup order must be positive, got {m}")
    if G.order % m != 0:
        raise ValueError(f"{m} does not divide the group order {G.order}")
    orders, rest = [], m
    for d in reversed(G.factors):
        orders.append(gcd(rest, d))
        rest //= orders[-1]
    return _box(G, orders[::-1]), prod(gcd(m, d) for d in G.factors) == m


def quotient_exponent(G: AbelianGroup, U: Subgroup) -> int:
    """Least m >= 1 with m*x in U for every x in G."""
    for d in divisors(G.exponent):
        # G._weights are the generators of the direct factors
        if all(G.scale(d, w) in U for w in G._weights):
            return d
    return G.exponent


def sylow(G: AbelianGroup, p: int):
    """The Sylow p-subgroup, a cyclicity flag, and a generator when cyclic."""
    pe = 1
    while G.exponent % (pe * p) == 0:
        pe *= p
    S = _torsion(G, pe)
    cyclic = sum(1 for d in G.factors if d % p == 0) <= 1
    generator = None
    if cyclic and S.order > 1:
        # S is (d/|S|)Z_d in the one factor Z_d that p divides, least generator (d/|S|)*w
        generator = next(s * w for s, d, w in zip(S.steps, G.factors, G._weights)
                         if s < d)
    return S, cyclic, generator


# ---------------------------------------------------------------------------
# invariant-factor presentation of a subgroup (greedy basis of maximal orders)

@dataclass(frozen=True)
class SubgroupPresentation:
    """A subgroup re-coordinatized as its own abelian group."""

    group: AbelianGroup                       # invariant-factor form
    to_sub: dict = field(repr=False)          # rank in parent -> rank here


def subgroup_as_group(H: Subgroup) -> SubgroupPresentation:
    """Present H in invariant-factor form with an explicit isomorphism.

    The basis comes from the proof of the structure theorem (Lang,
    *Algebra*, I.8).  With S the span of the basis so far, take the
    least-rank y in H whose order f modulo S is largest.  f divides every
    earlier order, so f*y = sum a_i x_i with f | a_i, and
    y - sum (a_i/f) x_i has order exactly f and meets S only in 0.  A new
    basis element gets the weight |S|, so the coordinate of f*y divided by
    f is the coordinate of sum (a_i/f) x_i, and the orders read backwards
    are the invariant factors.  On a cyclic H the first pick is the
    least-rank generator and rank j*gen maps to j.
    """
    G, elements = H.group, H.elements
    members = [0]               # members[c] is the element of S at coordinate c
    to_sub = {0: 0}
    orders = []
    while len(members) < H.order:
        bound = H.order // len(members)     # no order modulo S exceeds |H/S|
        best, f_best = None, 1
        for y in elements:
            f = G.element_order(y)
            for p in factorize(f):
                while f % p == 0 and G.scale(f // p, y) in to_sub:
                    f //= p
            if f > f_best:
                best, f_best = y, f
                if f == bound:
                    break
        x = G.sub(best, members[to_sub[G.scale(f_best, best)] // f_best])
        multiples = [G.scale(c, x) for c in range(f_best)]
        members = [G.add(s, t) for t in multiples for s in members]
        to_sub = {r: c for c, r in enumerate(members)}
        if G.scale(f_best, x) or len(to_sub) != len(members):
            raise RuntimeError(
                "subgroup re-coordinatization is not an isomorphism onto H")
        orders.append(f_best)
    return SubgroupPresentation(AbelianGroup(orders[::-1] or [1]), to_sub)


def _orbit_firsts(G: AbelianGroup, ranks: np.ndarray, t: int) -> np.ndarray:
    """For a sorted array of distinct ranks S with t*S = S, the int32
    index in `ranks` of the least element of the orbit of x -> t*x through
    each element: ValueError unless t is a unit, RuntimeError if some t*x
    is not in S, that is if t does not fix S.

    The index map a of x -> t*x on S is found once, by np.searchsorted.
    With e the order of t modulo the exponent of G, ceil(log2 e) doubling
    passes first = min(first, first[a]), then a = a[a], cover t^j x for j
    below 2, 4, 8, ... >= e, the whole orbit of x; S is sorted, so the
    least index is that of the least element.
    """
    e, step = multiplicative_order(t % G.exponent, G.exponent), 1
    image = G.scale(t, ranks)
    a = np.searchsorted(ranks, image)
    if (ranks[np.minimum(a, len(ranks) - 1)] != image).any():
        raise RuntimeError(f"t={t} does not fix the set")
    a = a.astype(np.int32)
    first = np.arange(len(ranks), dtype=np.int32)
    while step < e:
        np.minimum(first, first[a], out=first)
        a = a[a]
        step *= 2
    return first


def _multiplier_orbit_ids(G: AbelianGroup, m: int):
    """The orbits of x -> m*x on G, numbered in the order of their least
    elements: (ids, sizes, least), ids an int32 array whose entry x is the
    number of the orbit of x, sizes the int64 orbit sizes and least the
    int32 least element of each orbit.  The identity is orbit 0, alone.
    GroupSizeError over MATERIALIZE_LIMIT elements, ValueError unless m
    is a unit.

    From `_orbit_firsts` on all of G: x is the least element of its orbit
    when it is its own first, and the count of least elements up to
    first(x) numbers the orbit of x.
    """
    v = G.order
    if v > MATERIALIZE_LIMIT:
        raise GroupSizeError("orbit decomposition needs a materializable group")
    first = _orbit_firsts(G, np.arange(v, dtype=np.int64), m)
    is_least = first == np.arange(v, dtype=np.int32)
    number = np.cumsum(is_least, dtype=np.int32)
    number -= 1
    ids = number[first]
    least = np.flatnonzero(is_least).astype(np.int32)
    return ids, np.bincount(ids, minlength=len(least)), least


def multiplier_orbits(G: AbelianGroup, m: int) -> list[list[int]]:
    """Orbits of x -> m*x on G, each sorted, ordered by minimal element."""
    ids, sizes, _ = _multiplier_orbit_ids(G, m)
    members = np.argsort(ids, kind="stable")
    return [o.tolist() for o in np.split(members, np.cumsum(sizes)[:-1])]
