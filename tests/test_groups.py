import itertools
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffsets import dset, groups
from diffsets.groups import (AbelianGroup, GroupSizeError, Subgroup,
                             all_subgroups, cosets, cyclic_subgroup_of_order,
                             fixed_subgroup, generated_subgroup,
                             multiplier_orbits, parse_group, quotient_exponent,
                             subgroup_as_group, subgroups_of_order, sylow)
from diffsets.numth import divisors, multiplicative_order, totient

SMALL_FACTORS = st.lists(st.integers(min_value=2, max_value=12),
                         min_size=1, max_size=3)


def brute_add(factors, x, y):
    return tuple((a + b) % d for a, b, d in zip(x, y, factors))


def test_rank_most_significant_first():
    G = AbelianGroup([3, 15])
    assert G.rank((1, 4)) == 19
    assert G.unrank(19) == (1, 4)


def test_descriptor_and_parse():
    G = AbelianGroup([3, 5])
    assert G.descriptor() == "Z_3 x Z_5"
    assert parse_group("Z_3xZ_5") == G
    assert parse_group("Z_15") == AbelianGroup([15])
    with pytest.raises(ValueError):
        parse_group("Z_0")


@given(SMALL_FACTORS, st.data())
def test_arithmetic_matches_coordinates(factors, data):
    G = AbelianGroup(factors)
    r1 = data.draw(st.integers(min_value=0, max_value=G.order - 1))
    r2 = data.draw(st.integers(min_value=0, max_value=G.order - 1))
    m = data.draw(st.integers(min_value=-5, max_value=20))
    x, y = G.unrank(r1), G.unrank(r2)
    assert G.unrank(G.add(r1, r2)) == brute_add(factors, x, y)
    assert G.add(r1, G.neg(r1)) == 0
    assert G.sub(r1, r2) == G.add(r1, G.neg(r2))
    assert G.unrank(G.scale(m, r1)) == tuple((m * c) % d
                                             for c, d in zip(x, factors))


@given(SMALL_FACTORS, st.data())
def test_array_law_matches_scalar_law(factors, data):
    # on int64 arrays the law broadcasts and agrees with the scalar calls,
    # which still return Python ints
    G = AbelianGroup(factors)
    ranks = st.lists(st.integers(min_value=0, max_value=G.order - 1),
                     min_size=1, max_size=6)
    xs, ys = data.draw(ranks), data.draw(ranks)
    m = data.draw(st.integers(min_value=-10**20, max_value=10**20))
    col = np.array(xs, dtype=np.int64)[:, None]
    row = np.array(ys, dtype=np.int64)
    for got, want in [
            (G.add(col, row), [[G.add(x, y) for y in ys] for x in xs]),
            (G.sub(col, row), [[G.sub(x, y) for y in ys] for x in xs]),
            (G.neg(row), [G.neg(y) for y in ys]),
            (G.scale(m, col), [[G.scale(m, x)] for x in xs])]:
        assert got.dtype == np.int64 and got.tolist() == want
    assert all(type(r) is int for r in (G.add(xs[0], ys[0]), G.sub(xs[0], ys[0]),
                                        G.neg(xs[0]), G.scale(m, xs[0])))


@given(SMALL_FACTORS, st.integers(min_value=0, max_value=10**6))
def test_element_order_brute(factors, seed):
    G = AbelianGroup(factors)
    r = seed % G.order
    t, x = 1, r
    while x != 0:
        x = G.add(x, r)
        t += 1
    assert G.element_order(r) == t


def test_exponent_and_cyclicity():
    assert AbelianGroup([3, 5]).is_cyclic          # gcd(3,5)=1
    assert not AbelianGroup([2, 4]).is_cyclic
    assert AbelianGroup([2, 4]).exponent == 4
    assert AbelianGroup([6, 4]).exponent == 12


def test_cyclic_subgroup_of_order():
    G = AbelianGroup([15])
    H = cyclic_subgroup_of_order(G, 5)
    assert sorted(H.elements) == [0, 3, 6, 9, 12]
    assert cyclic_subgroup_of_order(G, 3).order == 3
    with pytest.raises(ValueError):
        cyclic_subgroup_of_order(G, 4)


def brute_subgroups(G):
    """All subgroups by closing every subset of generators (tiny groups only)."""
    els = list(range(G.order))
    found = set()
    for r in range(len(els) + 1):
        for gens in itertools.combinations(els, r):
            cur = {0}
            frontier = set(gens)
            while frontier:
                nxt = {G.add(a, b) for a in cur | frontier
                       for b in cur | frontier} | {G.neg(a) for a in frontier}
                newer = (nxt | frontier) - cur
                cur |= frontier
                frontier = newer - cur
            found.add(tuple(sorted(cur)))
        if r >= 2:
            break                           # rank <= 2 generators suffice here
    return found


def test_all_subgroups_z3xz3():
    G = AbelianGroup([3, 3])
    subs = all_subgroups(G)
    assert sorted(H.order for H in subs) == [1, 3, 3, 3, 3, 9]
    assert {tuple(H.elements) for H in subs} == brute_subgroups(G)


def test_subgroups_of_order_2x4():
    G = AbelianGroup([2, 4])
    assert sorted(H.order for H in subgroups_of_order(G, 2)) == [2, 2, 2]
    assert sorted(H.order for H in subgroups_of_order(G, 4)) == [4, 4, 4]
    with pytest.raises(ValueError):
        subgroups_of_order(G, 3)


@pytest.mark.parametrize("factors", [[3, 195], [2, 78], [2, 2, 10], [4, 4],
                                     [2, 4, 8], [6, 6], [3, 3, 3],
                                     [2, 2, 2, 2, 2]])
def test_subgroups_of_order_match_all_subgroups(factors):
    # same list in the same order: profile and mann report subgroups[0]
    G = AbelianGroup(factors)
    subs = all_subgroups(G)
    for m in divisors(G.order):
        assert subgroups_of_order(G, m) == [S for S in subs if S.order == m]


def test_subgroups_of_order_close_no_larger_join(monkeypatch):
    # Z_2^5 with m = 2: the 32 cyclic closures and one join per cyclic
    # with the trivial subgroup; no join of order 4 or more is closed
    calls = []
    closure = groups._closure

    def counted(G, gens):
        calls.append(len(gens))
        return closure(G, gens)

    monkeypatch.setattr(groups, "_closure", counted)
    subs = subgroups_of_order(AbelianGroup([2, 2, 2, 2, 2]), 2)
    assert len(subs) == 31
    assert len(calls) == 63


def test_subgroups_of_order_enumerate_the_torsion_only():
    # |G| = 1.2e5 is over ENUMERATION_LIMIT, its 2-torsion has 4 elements
    G = AbelianGroup([2, 60000])
    assert G.order > groups.ENUMERATION_LIMIT
    subs = subgroups_of_order(G, 2)
    assert [S.elements for S in subs] == [(0, 30000), (0, 60000),
                                          (0, 90000)]


def test_generated_subgroup_matches_closure():
    G = AbelianGroup([4, 6])
    H = generated_subgroup(G, [G.rank((2, 0)), G.rank((0, 3))])
    expected = {(a, b) for a in (0, 2) for b in (0, 3)}
    assert {G.unrank(e) for e in H.elements} == expected


def test_cosets_partition():
    G = AbelianGroup([2, 4])
    for H in all_subgroups(G):
        dec = cosets(G, H)
        assert dec.index * H.order == G.order
        buckets = {}
        for r in range(G.order):
            buckets.setdefault(dec.coset_index(r), set()).add(r)
        assert len(buckets) == dec.index
        assert all(len(b) == H.order for b in buckets.values())
        # same coset iff difference lies in H
        for r1 in range(G.order):
            for r2 in range(G.order):
                same = dec.coset_index(r1) == dec.coset_index(r2)
                assert same == (G.sub(r1, r2) in H)


def test_quotient_exponent():
    G = AbelianGroup([12])
    H = cyclic_subgroup_of_order(G, 2)
    assert quotient_exponent(G, H) == 6
    assert quotient_exponent(G, cyclic_subgroup_of_order(G, 12)) == 1
    G2 = AbelianGroup([2, 4])
    K = generated_subgroup(G2, [G2.rank((0, 2))])
    assert quotient_exponent(G2, K) == 2    # quotient is Z_2 x Z_2


def test_sylow():
    G = AbelianGroup([12])
    S2, cyc2, g2 = sylow(G, 2)
    assert S2.order == 4 and cyc2 and G.element_order(g2) == 4
    S3, cyc3, g3 = sylow(G, 3)
    assert S3.order == 3 and cyc3 and G.element_order(g3) == 3


@pytest.mark.parametrize("factors", [[3, 5], [4, 9], [2, 3, 5]])
def test_cyclic_subgroup_of_order_on_several_factors(factors):
    # cyclic groups written with more than one factor
    G = AbelianGroup(factors)
    assert G.is_cyclic
    for m in range(1, G.order + 1):
        if G.order % m == 0:
            brute = tuple(r for r in range(G.order) if G.scale(m, r) == 0)
            assert cyclic_subgroup_of_order(G, m).elements == brute
            assert len(brute) == m


@pytest.mark.parametrize("m", [0, -3])
def test_subgroup_order_must_be_positive(m):
    for G in (AbelianGroup([12]), AbelianGroup([2, 4])):
        with pytest.raises(ValueError, match="must be positive"):
            subgroups_of_order(G, m)
    with pytest.raises(ValueError, match="must be positive"):
        cyclic_subgroup_of_order(AbelianGroup([12]), m)


def test_fixed_subgroup_brute():
    for factors, m in [([15], 2), ([15], 4), ([21], 2), ([2, 4], 3), ([9, 3], 4)]:
        G = AbelianGroup(factors)
        if gcd(m, G.order) != 1:
            continue
        F = fixed_subgroup(G, m)
        brute = {r for r in range(G.order) if G.scale(m, r) == r}
        assert set(F.elements) == brute
        assert F.order == prod(gcd(m - 1, d) for d in factors)


def test_subgroup_as_group_cyclic():
    G = AbelianGroup([15])
    H = cyclic_subgroup_of_order(G, 5)
    pres = subgroup_as_group(H)
    assert pres.group.order == 5 and pres.group.is_cyclic
    for a in H.elements:
        for b in H.elements:
            # to_sub is an isomorphism onto Z_5
            assert pres.group.add(pres.to_sub[a], pres.to_sub[b]) \
                == pres.to_sub[G.add(a, b)]


def test_subgroup_as_group_cyclic_coordinates():
    # on a cyclic parent the least-rank generator of the order-m subgroup
    # is v/m, and its multiple j*(v/m) gets coordinate j
    G = AbelianGroup([585])
    for m in divisors(585):
        pres = subgroup_as_group(cyclic_subgroup_of_order(G, m))
        assert pres.group.factors == (m,)
        assert pres.to_sub == {e: e // (585 // m)
                               for e in range(0, 585, 585 // m)}


def test_subgroup_as_group_noncyclic():
    G = AbelianGroup([2, 4])
    H = generated_subgroup(G, [G.rank((1, 0)), G.rank((0, 2))])
    pres = subgroup_as_group(H)
    assert sorted(pres.group.factors) == [2, 2]
    for a in H.elements:
        for b in H.elements:
            assert pres.group.add(pres.to_sub[a], pres.to_sub[b]) \
                == pres.to_sub[G.add(a, b)]


@pytest.mark.parametrize("factors", [[9, 3], [8, 4, 2], [6, 4], [10, 15],
                                     [12, 6, 2], [2, 4], [3, 3, 3], [3, 5]],
                         ids=lambda f: "x".join(map(str, f)))
def test_subgroup_as_group_every_subgroup(factors):
    # every subgroup maps one-to-one and homomorphically onto a group in
    # invariant-factor form; in [6, 4], [10, 15] and [12, 6, 2] some
    # least-rank element of largest order modulo the basis so far is not
    # itself of that order, so the greedy basis must lift it by a
    # non-zero combination of the earlier basis elements
    G = AbelianGroup(factors)
    for H in all_subgroups(G):
        pres = subgroup_as_group(H)
        S = pres.group
        assert all(b % a == 0 for a, b in zip(S.factors, S.factors[1:]))
        assert sorted(pres.to_sub) == list(H.elements)
        assert sorted(pres.to_sub.values()) == list(range(S.order))
        for a in H.elements:
            for b in H.elements:
                assert S.add(pres.to_sub[a], pres.to_sub[b]) \
                    == pres.to_sub[G.add(a, b)]


def test_multiplier_orbits_z15():
    G = AbelianGroup([15])
    orbits = {frozenset(o) for o in multiplier_orbits(G, 2)}
    assert orbits == {frozenset({0}), frozenset({5, 10}),
                      frozenset({1, 2, 4, 8}), frozenset({3, 6, 12, 9}),
                      frozenset({7, 14, 13, 11})}


def naive_orbits(G, m):
    seen, orbits = set(), []
    for x in range(G.order):
        if x not in seen:
            orb, y = [], x
            while y not in seen:
                seen.add(y)
                orb.append(y)
                y = G.scale(m, y)
            orbits.append(sorted(orb))
    return orbits


@pytest.mark.parametrize("factors, m", [([15], 2), ([1], 1), ([585], 2),
                                        ([4, 4], 3), ([2, 8], 5), ([3, 15], 2),
                                        ([2, 2, 2, 2], 1), ([40], -1)])
def test_multiplier_orbits_match_naive_walk(factors, m):
    G = AbelianGroup(factors)
    assert multiplier_orbits(G, m) == naive_orbits(G, m)


ORBIT_CASES = [([1], 1), ([15], 2), ([585], 2), ([40], -1), ([4, 4], 3),
               ([2, 8], 5), ([3, 15], 2), ([2, 2, 2, 2], 1)]


def least_mates(ranks, orbits):
    """The index in `ranks` of the least orbit-mate of each rank."""
    at = {x: i for i, x in enumerate(ranks)}
    least = {x: min(o) for o in orbits for x in o}
    return [at[least[x]] for x in ranks]


@pytest.mark.parametrize("factors, t", ORBIT_CASES)
def test_orbit_firsts_match_naive_walk(factors, t):
    # the one multiplier-orbit routine on all of G and on t-fixed subsets:
    # the empty set, {0}, and the unions of every second or third orbit
    G = AbelianGroup(factors)
    orbits = naive_orbits(G, t)
    subsets = [list(range(G.order)), [], [0]]
    subsets += [sorted(x for o in orbits[j::step] for x in o)
                for step in (2, 3) for j in range(step)]
    for ranks in subsets:
        first = groups._orbit_firsts(G, np.asarray(ranks, dtype=np.int64), t)
        assert first.dtype == np.int32
        assert first.tolist() == least_mates(ranks, orbits)


@pytest.mark.parametrize("factors, t", [case for case in ORBIT_CASES
                                        if case[1] != 1])
def test_orbit_firsts_refuse_a_set_that_t_moves(factors, t):
    # in-range ranks that t does not fix: an orbit of more than one element
    # with its largest element left out
    G = AbelianGroup(factors)
    orbit = next(o for o in naive_orbits(G, t) if len(o) > 1)
    with pytest.raises(RuntimeError, match="does not fix"):
        groups._orbit_firsts(G, np.asarray(orbit[:-1], dtype=np.int64), t)


@pytest.mark.parametrize("factors, m", [([585], 2), ([585], 7), ([1000], 3),
                                        ([997], 5), ([3, 15], 2), ([40], -1)])
def test_orbit_ids_across_slices(factors, m):
    # every orbit of x -> m*x on all of G is numbered by its least element
    G = AbelianGroup(factors)
    ids, sizes, least = groups._multiplier_orbit_ids(G, m)
    orbits = naive_orbits(G, m)
    assert ids.dtype == least.dtype == np.int32
    assert least.tolist() == [min(o) for o in orbits]
    assert [ids[o].tolist() for o in orbits] == [[i] * len(o)
                                                 for i, o in enumerate(orbits)]
    assert sizes.tolist() == [len(o) for o in orbits]


def negation_merged(orbits, v):
    """The orbits of <m, -1> on Z_v from those of x -> m*x: each joined
    with its negative, in the order of their least elements."""
    merged = {}
    for o in orbits:
        joined = set(o) | {(v - x) % v for x in o}
        merged[min(joined)] = sorted(joined)
    return [merged[x] for x in sorted(merged)]


@pytest.mark.parametrize("v, m", [(585, 2), (585, 7), (1000, 3), (997, 5),
                                  (40, 3), (40, -1), (13, 5), (8, 3), (2, 1),
                                  (1, 1), (15, 2)])
def test_orbit_representatives_match_naive_orbits(v, m):
    # the least elements of the orbits of <m, -1> on Z_v, the offsets of
    # the coset count's cosets: v even and odd, -1 a power of m (Z_13,
    # m = 5; Z_40, m = -1) or not, m = 1 and Z_1
    orbits = negation_merged(naive_orbits(AbelianGroup([v]), m), v)
    reps = dset._orbit_representatives(v, m)
    assert reps.tolist() == [o[0] for o in orbits]
    assert len(reps) == dset._orbit_number(v, m, multiplicative_order(m, v))


def orbit_number_by_orders(v, t):
    """The orbits of <t, -1> on Z_v counted per divisor d of v: the
    phi(d) elements of order d fall into orbits of |<t, -1> mod d|
    elements, ord_d(t) when -1 is a power of t mod d (always for d <= 2)
    and twice that otherwise."""
    def orbit_size(d):
        e = multiplicative_order(t, d)
        if d <= 2 or (e % 2 == 0 and pow(t, e // 2, d) == d - 1):
            return e
        return 2 * e
    return sum(totient(d) // orbit_size(d) for d in divisors(v))


#: Orders of the benchmark instances: the q=2 s=7 and q=3 s=4 towers,
#: PG(12, 3), PG(10, 3), the q=2 s=5 and q=3 s=3 towers, and the
#: search groups Z_585 and Z_255.
BENCH_ORDERS = [2113665, 538084, 797161, 88573, 33825, 20440, 585, 255]


def test_orbit_number_by_burnside_matches_the_sum_over_divisors():
    for v in range(1, 400):
        for t in range(1, 60):
            if gcd(t, v) == 1:
                e = multiplicative_order(t, v)
                assert dset._orbit_number(v, t, e) == orbit_number_by_orders(v, t)
    for v in BENCH_ORDERS:
        for t in (2, 3, 5, 7):
            if gcd(t, v) == 1:
                e = multiplicative_order(t, v)
                assert dset._orbit_number(v, t, e) == orbit_number_by_orders(v, t)
    # the q=2 s=7 tower has 38,047 orbits of <2, -1>
    assert dset._orbit_number(2113665, 2, 28) == 38047


def test_orbit_number_of_t_and_minus_one_by_burnside():
    for v in range(1, 400):
        G = AbelianGroup([v])
        for t in range(1, 60):
            if gcd(t, v) == 1:
                e = multiplicative_order(t, v)
                merged = negation_merged(multiplier_orbits(G, t), v)
                assert dset._orbit_number(v, t, e) == len(merged)
    # the q=2 s=7 tower: 38,047 orbits of <2, -1>
    assert dset._orbit_number(2113665, 2, 28) == 38047


def test_multiplier_orbits_require_unit():
    with pytest.raises(ValueError):
        multiplier_orbits(AbelianGroup([15]), 3)


def test_group_size_guard():
    with pytest.raises(GroupSizeError):
        multiplier_orbits(AbelianGroup([1 << 25]), 3)


def test_torsion_guard_covers_cyclic_subgroups(monkeypatch):
    # the cyclic-group path materializes its subgroup through the same guard
    monkeypatch.setattr(groups, "MATERIALIZE_LIMIT", 1024)
    G = AbelianGroup([4096])
    assert subgroups_of_order(G, 1024)[0].order == 1024
    with pytest.raises(GroupSizeError, match="materialization limit"):
        subgroups_of_order(G, 2048)
