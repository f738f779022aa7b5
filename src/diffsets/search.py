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
from .groups import (MATERIALIZE_LIMIT, AbelianGroup, GroupSizeError,
                     _multiplier_orbit_ids)

#: The orbit-pair table holds 4*r^3 bytes for r multiplier orbits
#: (r = v for the multiplier 1).
ORBIT_TABLE_BYTE_LIMIT = 1 << 26

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


def _units(v: int) -> list[int]:
    return [m for m in range(1, max(v, 2)) if gcd(m, v) == 1]


def _least_images(G: AbelianGroup, rows) -> list[tuple[int, ...]]:
    """Each row's least image under the power maps x -> m*x, m a unit, as
    a sorted tuple; a unit's sorted images replace the best rows that are
    larger at the first column where the two differ.  The units mod the
    exponent of G give each distinct power map once."""
    rows = np.asarray(rows, dtype=np.int64)
    units = _units(G.exponent)
    best = np.sort(G.scale(units[0], rows), axis=1)
    for m in units[1:]:
        image = np.sort(G.scale(m, rows), axis=1)
        first = (image != best).argmax(axis=1)[:, None]
        smaller = np.take_along_axis(image < best, first, axis=1)[:, 0]
        best[smaller] = image[smaller]
    return [tuple(row) for row in best.tolist()]


def canonical_class(G: AbelianGroup, elements) -> tuple[int, ...]:
    """Lexicographically least image under all translates and power maps."""
    if not elements:
        return ()
    # The least image contains 0, so only the k translates of m*D by -m*e
    # compete, and m*x - m*e = m*(x - e): the row D - e maps onto one.
    els = np.asarray(elements, dtype=np.int64)
    return min(_least_images(G, G.sub(els, els[:, None])))


def _class_keys(G: AbelianGroup, sets) -> list[tuple[int, ...]]:
    """Least power-map image of the normalized translate N of each set.

    Needs gcd(k, v) = 1.  N is unique and N(m*D + g) = m*N(D), so two
    sets share a key exactly when they share a class.
    """
    shifts = np.array([ds.normalizing_shift(G, s) for s in sets], dtype=np.int64)
    return _least_images(G, G.add(np.asarray(sets, dtype=np.int64),
                                  shifts[:, None]))


def _class_representatives(G: AbelianGroup, sets) -> list:
    """Sorted canonical_class forms of the classes met by k-subsets `sets`,
    computing each form once per class when gcd(k, v) = 1."""
    if not sets:
        return []
    if gcd(len(sets[0]), G.order) != 1:
        return sorted({canonical_class(G, s) for s in sets})
    members = {}
    for key, s in zip(_class_keys(G, sets), sets):
        members.setdefault(key, s)
    return sorted(canonical_class(G, s) for s in members.values())


def _orbit_pair_table(G: AbelianGroup, ids, reps) -> np.ndarray:
    """table[i, j, t]: how many times reps[t], the least element of orbit
    t, occurs as a difference between orbits i and j, where ids[x] is the
    number of the orbit of x.

    Differences are counted both ways, a - b and b - a for a in orbit i
    and b in orbit j, when j != i; table[i, i] counts the ordered pairs
    of distinct elements of orbit i.  One bincount of the orbit pairs
    (a, a - rep) over all a per representative rep.
    """
    r = len(reps)
    nbytes = 4 * r**3
    if nbytes > ORBIT_TABLE_BYTE_LIMIT:
        raise GroupSizeError(
            f"orbit-pair table for {r} multiplier orbits needs {nbytes} bytes "
            f"> limit {ORBIT_TABLE_BYTE_LIMIT}; choose a multiplier with "
            "fewer orbits")
    a = np.arange(G.order, dtype=np.int64)
    first = ids * r
    table = np.zeros((r, r, r), dtype=np.int32)
    for t in range(1, r):
        pairs = first + ids[G.sub(a, reps[t])]
        counts = np.bincount(pairs, minlength=r * r).reshape(r, r)
        table[:, :, t] = counts + counts.T - np.diag(counts.diagonal())
    return table


def orbit_union_search(spec: SearchSpec) -> SearchResult:
    """All unions of multiplier orbits of size k with difference counts lambda.

    A union of m-orbits has difference counts that are constant on
    m-orbits, so the search keeps one count per orbit.  pending[i] holds
    what adding orbit i would add to those counts; counts only grow, so a
    branch dies as soon as one exceeds lambda.  Bit s of reachable[i] is
    set when some orbits from i on have s elements in all, s <= k.
    """
    G = spec.group
    k, lam = spec.k, spec.lam
    t0 = time.perf_counter()
    if G.order > MATERIALIZE_LIMIT:
        raise GroupSizeError("orbit decomposition needs a materializable group")
    ids, sizes = _multiplier_orbit_ids(G, spec.multiplier)
    reps = np.unique(ids, return_index=True)[1]
    table = _orbit_pair_table(G, ids, reps)
    r = len(reps)
    sizes = sizes.tolist()
    reachable = [0] * r + [1]
    for i in range(r - 1, -1, -1):
        below = reachable[i + 1]
        reachable[i] = (below | (below << sizes[i])) & ((2 << k) - 1)

    diag = np.arange(r)
    pending = table[diag, diag]         # a copy; row i is table[i, i]
    chosen = np.zeros(r, dtype=bool)    # the orbits in the union
    results = []
    nodes = 0

    def dfs(i, size, counts):
        nonlocal nodes, pending
        nodes += 1
        if nodes > spec.node_budget:
            raise BudgetExceeded
        if size == k:
            if (counts[1:] == lam).all():
                results.append(tuple(np.flatnonzero(chosen[ids]).tolist()))
            return
        if i == r or not (reachable[i] >> (k - size)) & 1:
            return
        if size + sizes[i] <= k:
            grown = counts + pending[i]
            if grown.max() <= lam:
                pending += table[i]
                chosen[i] = True
                dfs(i + 1, size + sizes[i], grown)
                chosen[i] = False
                pending -= table[i]
        dfs(i + 1, size, counts)

    complete = True
    try:
        dfs(0, 0, np.zeros(r, dtype=np.int32))
    except BudgetExceeded:
        complete = False
    results.sort()
    if len(results) > RESULT_CAP:
        results = results[:RESULT_CAP]
        complete = False
    return SearchResult(spec, results, _class_representatives(G, results),
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
    return SearchResult(spec, results, _class_representatives(G, results),
                        nodes, time.perf_counter() - t0)

