"""Reference subgroups and cosets for the tests: every subgroup of a
finite abelian group, by closing and joining its cyclic subgroups, which
`groups.subgroup_of_order` is tested against (it lists subgroups, so it
is for small groups only); the cosets of a subgroup by a scan of the
group, which `groups.cosets` is tested against; and the fixed points of
a power map."""
from math import gcd

from diffsets.groups import Subgroup, _closure, _torsion


def subgroups_within(G, members, m):
    """Every subgroup of G of order dividing m inside the subgroup with
    these elements, by order and then element tuple.

    A subgroup of order dividing m is the join of its cyclic subgroups,
    and every partial join lies in it, so joins whose order does not
    divide m are never closed: |S + C| = |S| |C| / |S n C| is read off
    before the closure."""
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


def all_subgroups(G):
    """Every subgroup, by order and then element tuple."""
    return subgroups_within(G, G.elements(), G.order)


def subgroups_of_order(G, m):
    """Every subgroup of order m, ascending by element tuple."""
    return [S for S in all_subgroups(G) if S.order == m]


def scanned_cosets(G, H):
    """(representatives, coset_of): the least rank of each coset of H,
    ascending, and the list of the coset index of every rank of G, by one
    scan of G that adds H to each rank not yet placed."""
    coset_of, reps = [-1] * G.order, []
    for x in G.elements():
        if coset_of[x] < 0:
            for h in H.elements:
                coset_of[G.add(x, h)] = len(reps)
            reps.append(x)
    return tuple(reps), coset_of


def fixed_subgroup(G, m):
    """Fixed points of the power map x -> m*x; requires gcd(m, v) = 1."""
    if gcd(m, G.order) != 1:
        raise ValueError(f"x -> {m}x is not an automorphism of {G.descriptor()}")
    return _torsion(G, m - 1)
