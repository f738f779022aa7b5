"""Exhaustive difference-set search with multiplier-orbit pruning.

A normalized difference set is fixed setwise by any numerical
multiplier, so for a known multiplier m the search space collapses to
unions of orbits of x -> m*x.  Candidates are grown orbit by orbit with
one difference count per orbit, read off a precomputed orbit-pair table,
and an early abort as soon as any non-identity difference is counted
more than lambda times.  Classes are told apart by a cheap invariant and
their canonical forms computed once per class.

brute_force_search tests every k-subset and is the ground-truth oracle
the orbit search is validated against.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from math import comb, gcd

import numpy as np

from . import dset as ds
from .groups import AbelianGroup, _multiplier_orbit_ids, _orbit_firsts

#: orbit_union_search keeps at most this many sets and reports the rest
#: as incomplete.
RESULT_CAP = 100_000

#: brute_force_search refuses more k-subsets than this.
BRUTE_FORCE_BUDGET = 10_000_000


class BudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class SearchSpec:
    group: AbelianGroup
    k: int
    lam: int
    multiplier: int = 1
    node_budget: int = 50_000_000

    def __post_init__(self):
        v = self.group.order
        if not 0 <= self.k <= v:
            raise ValueError(f"k = {self.k} is outside [0, {v}]")
        if self.lam * (v - 1) != self.k * (self.k - 1):
            raise ValueError(
                f"infeasible parameters ({v},{self.k},{self.lam}): "
                "lambda(v-1) != k(k-1)")
        if gcd(self.multiplier, v) != 1:
            raise ValueError("multiplier must be a unit mod v")


@dataclass
class SearchResult:
    spec: SearchSpec
    sets: list                 # sorted rank tuples, lexicographic order
    class_reps: list           # sorted canonical_class form of each class
    nodes: int
    seconds: float
    complete: bool = True      # False when the node budget was exhausted

    @property
    def classes(self) -> int:
        """Classes up to translation and numerical multipliers."""
        return len(self.class_reps)

    def as_dict(self):
        return {"k": self.spec.k, "lam": self.spec.lam,
                "sets_found": len(self.sets), "classes": self.classes,
                "nodes": self.nodes, "seconds": self.seconds,
                "complete": self.complete}


def _power_maps(e: int, m: int) -> list[int]:
    """One unit per coset of <m> in the units mod e, the least of each:
    the least elements of the orbits of x -> m*x on the units, a set that
    m fixes (`groups._orbit_firsts` in Z_e); [1] for e = 1."""
    if e == 1:
        return [1]
    units = np.flatnonzero(np.gcd(np.arange(e), e) == 1)
    first = _orbit_firsts(AbelianGroup([e]), units, m)
    return units[first == np.arange(len(units))].tolist()


def _least_images(G: AbelianGroup, rows, m: int) -> list[tuple[int, ...]]:
    """Each row's least image under the power maps x -> u*x, as a sorted
    tuple, for u in one unit per coset of <m> in the units mod the
    exponent of G (with m = 1, each distinct power map once); a unit's
    sorted images replace the best rows that are larger at the first
    column where the two differ.  Callers pass m != 1 only when u*m
    gives no image of a row that u does not give of some row."""
    rows = np.asarray(rows, dtype=np.int64)
    units = _power_maps(G.exponent, m)
    best = np.sort(G.scale(units[0], rows), axis=1)
    for u in units[1:]:
        image = np.sort(G.scale(u, rows), axis=1)
        first = (image != best).argmax(axis=1)[:, None]
        smaller = np.take_along_axis(image < best, first, axis=1)[:, 0]
        best[smaller] = image[smaller]
    return [tuple(row) for row in best.tolist()]


def canonical_class(G: AbelianGroup, elements, m: int = 1) -> tuple[int, ...]:
    """Lexicographically least image under all translates and power maps.

    A multiplier m that fixes the set (m*D = D; 1 always does) lets the
    power maps run over one unit per coset of <m>: the row D - e is
    mapped by u*m onto the image of the row D - m*e by u.
    """
    if not elements:
        return ()
    # The least image contains 0, so only the k translates of u*D by -u*e
    # compete, and u*x - u*e = u*(x - e): the row D - e maps onto one.
    els = np.asarray(elements, dtype=np.int64)
    return min(_least_images(G, G.sub(els, els[:, None]), m))


def _class_keys(G: AbelianGroup, sets, m: int) -> list[tuple[int, ...]]:
    """Least power-map image of the normalized translate N of each set.

    Needs gcd(k, v) = 1.  N is unique and N(u*D + g) = u*N(D), so two
    sets share a key exactly when they share a class, and m*N = N when
    m fixes the set.
    """
    shifts = np.array([ds.normalizing_shift(G, s) for s in sets], dtype=np.int64)
    return _least_images(G, G.add(np.asarray(sets, dtype=np.int64),
                                  shifts[:, None]), m)


def _class_representatives(G: AbelianGroup, sets, m: int) -> list:
    """Sorted canonical_class forms of the classes met by k-subsets `sets`,
    each fixed by the multiplier m, computing each form once per class
    when gcd(k, v) = 1."""
    if not sets:
        return []
    if gcd(len(sets[0]), G.order) != 1:
        return sorted({canonical_class(G, s, m) for s in sets})
    members = {}
    for key, s in zip(_class_keys(G, sets, m), sets):
        members.setdefault(key, s)
    return sorted(canonical_class(G, s, m) for s in members.values())


def _orbit_pair_table(G: AbelianGroup, ids, reps) -> np.ndarray:
    """table[i, j, t]: how many times reps[t], the least element of orbit
    t, occurs as a difference between orbits i and j, where ids[x] is the
    number of the orbit of x.

    Differences are counted both ways, a - b and b - a for a in orbit i
    and b in orbit j, when j != i; table[i, i] counts the ordered pairs
    of distinct elements of orbit i.  One bincount of the orbit pairs
    (a, a - rep) over all a per representative rep.  MemoryError
    (`dset._guard`) first for its 4*r^3 bytes (r = v for the multiplier
    1) and four v-sized int64 temporaries.
    """
    r = len(reps)
    try:
        ds._guard(G.order, 4 * r**3 + 32 * G.order,
                  f"orbit-pair table for {r} multiplier orbits")
    except MemoryError as e:
        raise MemoryError(f"{e}; choose a multiplier with fewer orbits") from None
    a = np.arange(G.order, dtype=np.int64)
    first = ids * r
    table = np.zeros((r, r, r), dtype=np.int32)
    for t in range(1, r):
        pairs = first + ids[G.sub(a, reps[t])]
        counts = np.bincount(pairs, minlength=r * r).reshape(r, r)
        table[:, :, t] = counts + counts.T - np.diag(counts.diagonal())
    return table


def _pack(rows: np.ndarray, width: int) -> int:
    """The entries of rows, in C order, as fields of `width` bits of one
    int, the first entry in the lowest field."""
    return int.from_bytes(rows.astype(f"<u{width // 8}").tobytes(), "little")


def orbit_union_search(spec: SearchSpec) -> SearchResult:
    """All unions of multiplier orbits of size k with difference counts lambda.

    A union of m-orbits has difference counts that are constant on
    m-orbits, so the search keeps one count per orbit, each a field of
    `width` bits of one int `counts` (field 0, the identity, stays 0).
    What adding orbit i would add to them is the lowest block of r fields
    of the int `pending`, which holds that row for orbits i, i+1, ... in
    order; adding orbit i adds table[i, j] to the row of every later
    orbit j.  Counts only grow, so a branch dies as soon as one exceeds
    lambda: adding `bias` carries a field into its top bit exactly then,
    and `guard` holds the top bits.  No field overflows: a pending entry
    is at most the sum of its column of the table, which is symmetric in
    i and j, and `width` leaves a bit above that sum plus lambda.  Bit s
    of reachable[i] is set when some orbits from i on have s elements in
    all, s <= k.
    """
    G = spec.group
    k, lam = spec.k, spec.lam
    t0 = time.perf_counter()
    ids, sizes, reps = _multiplier_orbit_ids(G, spec.multiplier)
    table = _orbit_pair_table(G, ids, reps)
    r = len(reps)
    sizes = sizes.tolist()
    reachable = [0] * r + [1]
    for i in range(r - 1, -1, -1):
        below = reachable[i + 1]
        reachable[i] = (below | (below << sizes[i])) & ((2 << k) - 1)

    need = (int(table.sum(axis=1).max()) + lam).bit_length() + 1
    width = next(w for w in (8, 16, 32, 64) if w >= need)
    block_bits = r * width
    block_mask = (1 << block_bits) - 1
    ones = _pack(np.ones(r), width)
    bias = ((1 << (width - 1)) - 1 - lam) * ones
    guard = ones << (width - 1)
    full = lam * (ones - 1)
    diag = np.arange(r)
    tail = [_pack(table[i, i + 1:], width) for i in range(r)]
    chosen = np.zeros(r, dtype=bool)    # the orbits in the union
    results = []
    nodes = 0

    def dfs(i, size, counts, pending):
        nonlocal nodes
        nodes += 1
        if nodes > spec.node_budget:
            raise BudgetExceeded
        if size == k:
            if counts == full:
                results.append(tuple(np.flatnonzero(chosen[ids]).tolist()))
            return
        if i == r or not (reachable[i] >> (k - size)) & 1:
            return
        later = pending >> block_bits
        if size + sizes[i] <= k:
            grown = counts + (pending & block_mask)
            if not (grown + bias) & guard:
                chosen[i] = True
                dfs(i + 1, size + sizes[i], grown, later + tail[i])
                chosen[i] = False
        dfs(i + 1, size, counts, later)

    complete = True
    try:
        dfs(0, 0, 0, _pack(table[diag, diag], width))
    except BudgetExceeded:
        complete = False
    results.sort()
    if len(results) > RESULT_CAP:
        results = results[:RESULT_CAP]
        complete = False
    return SearchResult(spec, results,
                        _class_representatives(G, results, spec.multiplier),
                        nodes, time.perf_counter() - t0, complete)


def brute_force_search(G: AbelianGroup, k: int, lam: int) -> SearchResult:
    """Oracle: test every k-subset of G by direct difference counting."""
    v = G.order
    spec = SearchSpec(G, k, lam, node_budget=BRUTE_FORCE_BUDGET)
    if comb(v, k) > BRUTE_FORCE_BUDGET:
        raise BudgetExceeded(f"C({v},{k}) = {comb(v, k)} subsets exceeds "
                             f"budget {BRUTE_FORCE_BUDGET}")
    sub = G.sub
    t0 = time.perf_counter()
    results = []
    nodes = 0
    for cand in itertools.combinations(range(v), k):
        nodes += 1
        counts = [0] * v
        ok = True
        for i, a in enumerate(cand):
            for b in cand[:i]:
                for d in (sub(a, b), sub(b, a)):
                    counts[d] += 1
                    if counts[d] > lam:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok and (k == v or all(c == lam for c in counts[1:])):
            results.append(cand)
    return SearchResult(spec, results, _class_representatives(G, results, 1),
                        nodes, time.perf_counter() - t0)

