"""Finite abelian groups, written additively.

A group is a direct product Z_{d1} x ... x Z_{dt}; elements are handled
by their mixed-radix rank (most significant coordinate first), which
keeps subgroup element lists compact and hashable.  The usual
multiplicative language for difference sets maps onto this as
"product of elements = 1" <-> "coordinate sum = 0".

The rank encoding is known only here: `AbelianGroup.add`, `sub`, `neg`
and `scale` are one group law on ranks, written once for Python ints
and int64 arrays alike, so pair counts, power maps, translates and coset
scans elsewhere broadcast it over whole rank arrays; `sum` adds up an
array of ranks.

Factor lists are not required to be in invariant-factor form (Z_3 x Z_5
is accepted as written); :func:`subgroup_as_group` always emits a proper
invariant-factor presentation, from a greedy basis of maximal orders.
Subgroups of order m are looked up in the m-torsion of any group, which
holds them all; only its subgroups are ever enumerated, not all of G's.

The orbits of a numerical multiplier x -> t*x on a set that t fixes are
found by one routine, `_orbit_firsts`, in any presentation: on all of
G for the orbit search and `multiplier_orbits`, on all of Z_a for the
orbits of <t, -1> that the verifier's coset count reads (in `dset`),
and on the units mod the exponent for the power maps of the class
forms.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm, prod

import numpy as np

from .numth import divisors, factorize, multiplicative_order

#: Orders up to this are safe to materialize element-by-element.
MATERIALIZE_LIMIT = 1 << 24

#: Subgroup enumeration is refused over more elements than this: all of G
#: for all_subgroups, the m-torsion for subgroups_of_order.
ENUMERATION_LIMIT = 10**5


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
    group: AbelianGroup
    elements: tuple[int, ...]          # sorted ranks

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, r: int) -> bool:
        return r in self.element_set

    @cached_property
    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.group.descriptor()})"


@dataclass(frozen=True)
class CosetDecomposition:
    """The cosets representatives[i] + H; x is in coset x mod the index in
    Z_v, and in coset coset_of[x] in a product."""

    subgroup: Subgroup
    representatives: tuple[int, ...]   # minimal rank per coset, ascending
    coset_of: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def index(self) -> int:
        return len(self.representatives)

    def coset_index(self, r):
        """The coset index of a rank, or of an int64 array of ranks."""
        if self.coset_of is None:
            return r % self.index
        return self.coset_of[r]


def _closure(G: AbelianGroup, gens) -> tuple[int, ...]:
    seen = {0}
    for g in gens:
        if g not in seen:
            for s in list(seen):
                t = G.add(s, g)
                while t not in seen:
                    seen.add(t)
                    t = G.add(t, g)
        if len(seen) > MATERIALIZE_LIMIT:
            raise GroupSizeError("subgroup closure exceeds materialization guard")
    return tuple(sorted(seen))


def generated_subgroup(G: AbelianGroup, gens) -> Subgroup:
    return Subgroup(G, _closure(G, gens))


def _torsion(G: AbelianGroup, m: int) -> Subgroup:
    """{x : m*x = 0}, built per factor Z_d from the multiples of d/gcd(m, d).

    Raises GroupSizeError before materializing more than
    MATERIALIZE_LIMIT elements.
    """
    steps = [d // gcd(m, d) for d in G.factors]
    order = G.order // prod(steps)
    if order > MATERIALIZE_LIMIT:
        raise GroupSizeError(f"subgroup of order {order} exceeds the "
                             f"materialization limit {MATERIALIZE_LIMIT}")
    els = [0]
    for d, step, w in zip(G.factors, steps, G._weights):
        els = [e + c * w for e in els for c in range(0, d, step)]
    # mixed-radix order, most significant factor first: already ascending
    return Subgroup(G, tuple(els))


def cyclic_subgroup_of_order(G: AbelianGroup, m: int) -> Subgroup:
    """The unique subgroup of order m of a cyclic group: its m-torsion."""
    if not G.is_cyclic:
        raise ValueError("group is not cyclic")
    return subgroups_of_order(G, m)[0]


def subgroups_of_order(G: AbelianGroup, m: int) -> list[Subgroup]:
    """All subgroups of order m, ascending by element tuple.  Each lies in
    the m-torsion T, the only one when |T| = m (always so for cyclic G)."""
    if m < 1:
        raise ValueError(f"subgroup order must be positive, got {m}")
    if G.order % m != 0:
        raise ValueError(f"{m} does not divide the group order {G.order}")
    T = _torsion(G, m)
    if T.order == m:
        return [T]
    return [S for S in _subgroups_within(G, T.elements, m) if S.order == m]


def all_subgroups(G: AbelianGroup) -> list[Subgroup]:
    """Every subgroup, by order and then element tuple."""
    return _subgroups_within(G, G.elements(), G.order)


def _subgroups_within(G: AbelianGroup, members, m: int) -> list[Subgroup]:
    """Every subgroup of G of order dividing m inside the subgroup with
    these elements, by closing its cyclic subgroups under joins.

    A subgroup of order dividing m is the join of its cyclic subgroups,
    and every partial join lies in it, so joins whose order does not
    divide m are never closed: |S + C| = |S| |C| / |S n C| is read off
    before the closure."""
    if len(members) > ENUMERATION_LIMIT:
        raise GroupSizeError(f"subgroup enumeration over {len(members)} elements "
                             f"exceeds the limit {ENUMERATION_LIMIT}")
    cyclics = {c for c in {_closure(G, (r,)) for r in members}
               if m % len(c) == 0}
    subs = set(cyclics)
    frontier = set(cyclics)
    while frontier:
        nxt = set()
        for s in frontier:
            within = set(s)
            for c in cyclics:
                common = sum(x in within for x in c)
                if common < len(c) and m % (len(s) * len(c) // common) == 0:
                    j = _closure(G, within | set(c))
                    if j not in subs:
                        subs.add(j)
                        nxt.add(j)
        frontier = nxt
    return [Subgroup(G, s) for s in sorted(subs, key=lambda t: (len(t), t))]


def cosets(G: AbelianGroup, H: Subgroup) -> CosetDecomposition:
    """Coset decomposition with minimal-rank representatives, ascending;
    for a product, the scan that finds them also fills `coset_of`."""
    if H.group != G:
        raise ValueError("subgroup belongs to a different group")
    r = G.order // H.order
    if len(G.factors) == 1:
        # difference of two ranks is in H iff ranks agree mod the index
        return CosetDecomposition(H, tuple(range(r)))
    if G.order > MATERIALIZE_LIMIT:
        raise GroupSizeError("coset decomposition needs a materializable group")
    coset_of = np.full(G.order, -1, dtype=np.int32)
    h = np.asarray(H.elements, dtype=np.int64)
    reps = []
    for x in range(G.order):
        if coset_of[x] < 0:
            coset_of[G.add(x, h)] = len(reps)
            reps.append(x)
            if len(reps) == r:
                break
    return CosetDecomposition(H, tuple(reps), coset_of)


def quotient_exponent(G: AbelianGroup, U: Subgroup) -> int:
    """Least m >= 1 with m*x in U for every x in G."""
    uset = U.element_set
    for d in divisors(G.exponent):
        # G._weights are the generators of the direct factors
        if all(G.scale(d, w) in uset for w in G._weights):
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
        generator = min(e for e in S.elements if G.element_order(e) == S.order)
    return S, cyclic, generator


def fixed_subgroup(G: AbelianGroup, m: int) -> Subgroup:
    """Fixed points of the power map x -> m*x; requires gcd(m, v) = 1."""
    if gcd(m, G.order) != 1:
        raise ValueError(f"x -> {m}x is not an automorphism of {G.descriptor()}")
    return _torsion(G, m - 1)


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
    G = H.group
    members = [0]               # members[c] is the element of S at coordinate c
    to_sub = {0: 0}
    orders = []
    while len(members) < H.order:
        bound = H.order // len(members)     # no order modulo S exceeds |H/S|
        best, f_best = None, 1
        for y in H.elements:
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
