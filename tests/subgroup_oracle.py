"""Reference subgroups and cosets for the tests: every subgroup of a
finite abelian group as its sorted element tuple, by closing and joining
its cyclic subgroups, which `groups.subgroup_of_order` and
`groups.generated_subgroup` are tested against (it lists subgroups, so it
is for small groups only); the cosets of a subgroup by a scan of the
group, which `Subgroup.coset_index` and `Subgroup.representative` are
tested against; and the fixed points of a power map."""
from math import gcd

from diffsets.groups import _torsion


def closure(G, gens) -> tuple[int, ...]:
    """The subgroup generated by these ranks, its elements ascending, by
    adding each generator to every element found until nothing is new."""
    seen = {0}
    for g in gens:
        if g not in seen:
            for s in list(seen):
                t = G.add(s, g)
                while t not in seen:
                    seen.add(t)
                    t = G.add(t, g)
    return tuple(sorted(seen))


def subgroups_within(G, members, m):
    """The element tuple of every subgroup of G of order dividing m inside
    the subgroup with these elements, by order and then element tuple.

    A subgroup of order dividing m is the join of its cyclic subgroups,
    and every partial join lies in it, so joins whose order does not
    divide m are never closed: |S + C| = |S| |C| / |S n C| is read off
    before the closure."""
    cyclics = {c for c in {closure(G, (r,)) for r in members}
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
                    j = closure(G, within | set(c))
                    if j not in subs:
                        subs.add(j)
                        nxt.add(j)
        frontier = nxt
    return sorted(subs, key=lambda t: (len(t), t))


def all_subgroups(G):
    """The element tuple of every subgroup, by order and then tuple."""
    return subgroups_within(G, G.elements(), G.order)


def subgroups_of_order(G, m):
    """The element tuple of every subgroup of order m, ascending."""
    return [S for S in all_subgroups(G) if len(S) == m]


def scanned_cosets(G, elements):
    """(representatives, coset_of): the least rank of each coset of the
    subgroup with these elements, ascending, and the list of the coset
    index of every rank of G, by one scan of G that adds the subgroup to
    each rank not yet placed."""
    coset_of, reps = [-1] * G.order, []
    for x in G.elements():
        if coset_of[x] < 0:
            for h in elements:
                coset_of[G.add(x, h)] = len(reps)
            reps.append(x)
    return tuple(reps), coset_of


def fixed_subgroup(G, m):
    """Fixed points of the power map x -> m*x; requires gcd(m, v) = 1."""
    if gcd(m, G.order) != 1:
        raise ValueError(f"x -> {m}x is not an automorphism of {G.descriptor()}")
    return _torsion(G, m - 1)
