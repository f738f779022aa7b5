import itertools
import json
import os
import random
from math import comb, gcd

import pytest

from diffsets.analysis import conjecture_scan
from diffsets.cli import run
from diffsets.dset import apply_power_map, read_set_file, verify
from diffsets.groups import AbelianGroup, _multiplier_orbit_ids, multiplier_orbits
from diffsets.search import (SearchSpec, _orbit_pair_table, _power_maps,
                             brute_force_search, canonical_class,
                             orbit_union_search)


def hand_enumerate(G, k, lam):
    """Oracle: test every k-subset by direct difference counting."""
    found = []
    for combo in itertools.combinations(range(G.order), k):
        counts = [0] * G.order
        for a in combo:
            for b in combo:
                counts[G.sub(a, b)] += 1
        if all(c == lam for c in counts[1:]):
            found.append(combo)
    return found


def naive_canonical_class(G, elements):
    """Oracle: least sorted image over every unit m and all v translates."""
    best = None
    for m in range(1, G.order):
        if gcd(m, G.order) != 1:
            continue
        mapped = sorted(G.scale(m, e) for e in elements)
        for g in range(G.order):
            cand = tuple(sorted(G.add(e, g) for e in mapped))
            if best is None or cand < best:
                best = cand
    return best


def test_spec_rejects_infeasible():
    with pytest.raises(ValueError):
        SearchSpec(AbelianGroup([15]), 7, 2)
    with pytest.raises(ValueError):
        SearchSpec(AbelianGroup([15]), 7, 3, multiplier=3)


def test_fano_brute_matches_hand_enumeration():
    G = AbelianGroup([7])
    expected = hand_enumerate(G, 3, 1)
    got = brute_force_search(G, 3, 1)
    assert got.sets == expected
    assert len(got.sets) == 14
    assert all(verify(G, s).ok for s in got.sets)


def test_fano_orbit_search_m2():
    G = AbelianGroup([7])
    res = orbit_union_search(SearchSpec(G, 3, 1, multiplier=2))
    assert res.sets == [(1, 2, 4), (3, 5, 6)]
    assert res.complete
    # exactly the multiplier-fixed subsets of the full enumeration
    brute = brute_force_search(G, 3, 1)
    fixed = [s for s in brute.sets if apply_power_map(G, s, 2) == s]
    assert fixed == res.sets


def test_pg32_orbit_search_m2():
    G = AbelianGroup([15])
    res = orbit_union_search(SearchSpec(G, 7, 3, multiplier=2))
    assert res.sets == [(0, 1, 2, 4, 5, 8, 10), (0, 5, 7, 10, 11, 13, 14)]
    brute = brute_force_search(G, 7, 3)
    assert len(brute.sets) == 30
    assert [s for s in brute.sets if apply_power_map(G, s, 2) == s] == res.sets
    assert all(verify(G, s).ok for s in res.sets)


def test_nonexistence_case():
    # Z_16 carries no (16,6,2) difference set
    G = AbelianGroup([16])
    assert orbit_union_search(SearchSpec(G, 6, 2)).sets == []
    assert brute_force_search(G, 6, 2).sets == []


def test_canonical_class_invariance():
    G = AbelianGroup([15])
    base = (0, 5, 7, 10, 11, 13, 14)
    canon = canonical_class(G, base)
    for g in range(15):
        shifted = tuple(sorted((e + g) % 15 for e in base))
        assert canonical_class(G, shifted) == canon
    for m in (2, 4, 7, 8):
        mapped = tuple(sorted(m * e % 15 for e in base))
        assert canonical_class(G, mapped) == canon
    # the two m=2 survivors are equivalent: one class
    assert canonical_class(G, (0, 1, 2, 4, 5, 8, 10)) == canon


def test_class_counts():
    G = AbelianGroup([7])
    res = orbit_union_search(SearchSpec(G, 3, 1, multiplier=2))
    assert res.classes == 1
    assert orbit_union_search(SearchSpec(AbelianGroup([15]), 7, 3,
                                         multiplier=2)).classes == 1


def test_budget_marks_incomplete():
    G = AbelianGroup([15])
    res = orbit_union_search(SearchSpec(G, 7, 3, node_budget=3))
    assert not res.complete


def test_multiplier_one_is_unpruned():
    G = AbelianGroup([7])
    res = orbit_union_search(SearchSpec(G, 3, 1, multiplier=1))
    assert res.sets == brute_force_search(G, 3, 1).sets


def test_conjecture_scan_small():
    rows = conjecture_scan(2, [1, 3])
    assert [r.status for r in rows] == ["embedded", "embedded"]
    assert rows[0].v == 15 and rows[1].v == 585
    assert all(r.subgroup_order == 15 for r in rows)


def test_conjecture_scan_over_ceiling_is_error_row():
    rows = conjecture_scan(2, [1, 3], ceiling=1 << 8)
    assert rows[0].status == "embedded"
    assert rows[1].status.startswith("error:") and rows[1].v == 0


def test_conjecture_scan_subgroup_absent_builds_nothing(monkeypatch):
    # M of order 15 is no subgroup of Z_85 (q = 2, s = 2): the row says so
    # without reading D
    def no_construction(*args, **kwargs):
        raise AssertionError("D was read")

    monkeypatch.setattr("diffsets.analysis.singer_restriction", no_construction)
    rows = conjecture_scan(2, [2])
    assert [(r.s, r.v, r.subgroup_order, r.status) for r in rows] == \
        [(2, 85, 15, "subgroup-absent")]


def test_conjecture_scan_does_not_mask_bad_input():
    with pytest.raises(ValueError, match="not a prime power"):
        conjecture_scan(6, [1])


def test_orbit_search_matches_brute_on_noncyclic_group():
    # gcd(k, v) = 2: classes come from canonical_class on every set
    G = AbelianGroup([4, 4])
    orbit = orbit_union_search(SearchSpec(G, 6, 2))
    brute = brute_force_search(G, 6, 2)
    assert orbit.sets == brute.sets and len(orbit.sets) == 192
    assert orbit.class_reps == brute.class_reps
    assert orbit.classes == 10
    assert orbit.class_reps == sorted({naive_canonical_class(G, s)
                                       for s in brute.sets})


def test_canonical_class_matches_naive_reference():
    rng = random.Random(7)
    for factors in ([15], [16], [21], [4, 4], [2, 6], [3, 3, 2]):
        G = AbelianGroup(factors)
        for k in (1, 2, 5, G.order // 2):
            for _ in range(4):
                s = tuple(sorted(rng.sample(range(G.order), k)))
                assert canonical_class(G, s) == naive_canonical_class(G, s)


def test_brute_force_result_carries_spec():
    G = AbelianGroup([7])
    res = brute_force_search(G, 3, 1)
    assert isinstance(res.spec, SearchSpec)
    assert (res.spec.group, res.spec.k, res.spec.lam) == (G, 3, 1)
    assert res.as_dict()["k"] == 3 and res.as_dict()["lam"] == 1


def scalar_orbit_pair_table(G, orbits):
    """Oracle: the table by one scalar G.sub per element and representative."""
    r = len(orbits)
    orbit_of = {x: i for i, o in enumerate(orbits) for x in o}
    table = [[[0] * r for _ in range(r)] for _ in range(r)]
    for t in range(1, r):
        for a in range(G.order):
            i, j = orbit_of[a], orbit_of[G.sub(a, orbits[t][0])]
            table[i][j][t] += 1
            if i != j:
                table[j][i][t] += 1
    return table


@pytest.mark.parametrize("factors, m", [([4, 4], 5), ([4, 4], 3), ([2, 8], 3),
                                        ([15], 2)])
def test_orbit_pair_table_matches_scalar_reference(factors, m):
    G = AbelianGroup(factors)
    ids, _, least = _multiplier_orbit_ids(G, m)
    reps = [o[0] for o in multiplier_orbits(G, m)]
    assert least.tolist() == reps
    assert _orbit_pair_table(G, ids, reps).tolist() == \
        scalar_orbit_pair_table(G, multiplier_orbits(G, m))


@pytest.mark.parametrize("k, lam", [(0, 0), (1, 0), (7, 6), (8, 8)])
def test_search_matches_brute_at_the_size_edges(k, lam):
    # multiplier 1: every orbit is a single element; k = 0 and k = v are
    # the lowest and highest bits of the reachable-size masks
    G = AbelianGroup([2, 4])
    orbit = orbit_union_search(SearchSpec(G, k, lam))
    brute = brute_force_search(G, k, lam)
    assert orbit.complete and orbit.sets == brute.sets
    assert orbit.class_reps == brute.class_reps


def feasible_parameters(v, subset_limit=10**5):
    """Every (k, lambda) with lambda(v-1) = k(k-1) and C(v, k) <= the limit."""
    return [(k, k * (k - 1) // (v - 1)) for k in range(v + 1)
            if k * (k - 1) % (v - 1) == 0 and comb(v, k) <= subset_limit]


@pytest.mark.parametrize("factors", [[v] for v in range(2, 17)]
                         + [[4, 4], [2, 8], [2, 2, 4]],
                         ids=lambda f: "x".join(map(str, f)))
def test_orbit_search_matches_brute_for_every_unit(factors):
    # the sets fixed by m among all sets, and their classes, for every
    # feasible (v, k, lambda) with v <= 16 and every unit m
    G = AbelianGroup(factors)
    v = G.order
    for k, lam in feasible_parameters(v):
        brute = brute_force_search(G, k, lam)
        canon = {s: canonical_class(G, s) for s in brute.sets}
        for m in range(1, v):
            if gcd(m, v) != 1:
                continue
            orbit = orbit_union_search(SearchSpec(G, k, lam, multiplier=m))
            fixed = [s for s in brute.sets if apply_power_map(G, s, m) == s]
            assert orbit.complete
            assert orbit.sets == fixed, (k, lam, m)
            assert orbit.class_reps == sorted({canon[s] for s in fixed}), \
                (k, lam, m)


@pytest.mark.parametrize("k, lam, expected", [(130, 129, range(1, 131)),
                                              (131, 131, range(131))])
def test_packed_counts_take_wider_fields(k, lam, expected):
    # 2 is a primitive root mod 131: one orbit of 130 elements, whose
    # pending count 131 plus lambda needs 16-bit fields
    res = orbit_union_search(SearchSpec(AbelianGroup([131]), k, lam,
                                        multiplier=2))
    assert res.complete and res.sets == [tuple(expected)]


@pytest.mark.parametrize("group, k, lam, m, nodes, sets, classes", [
    ([127], 63, 31, 2, 131904, 80, 6),
    ([133], 12, 1, 11, 40011, 36, 1),
])
def test_search_node_counts_are_pinned(group, k, lam, m, nodes, sets, classes):
    res = orbit_union_search(SearchSpec(AbelianGroup(group), k, lam,
                                        multiplier=m))
    assert res.complete
    assert (res.nodes, len(res.sets), res.classes) == (nodes, sets, classes)


def power_maps_by_walk(e, m):
    """Oracle: the least unit of each coset of <m> in the units mod e,
    walking u, u*m, u*m^2, ... from each unit not yet covered."""
    units = [u for u in range(1, max(e, 2)) if gcd(u, e) == 1]
    covered = set()
    reps = []
    for u in units:
        if u not in covered:
            reps.append(u)
            while u not in covered:
                covered.add(u)
                u = u * m % e
    return reps


@pytest.mark.parametrize("e, m", [(1, 1), (2, 1), (15, 2), (15, 4), (16, 3),
                                  (127, 2), (133, 11), (40, 3)])
def test_power_maps_are_a_transversal_of_the_multiplier(e, m):
    # Z_1 has the one power map x -> 1*x
    reps = _power_maps(e, m)
    assert reps[0] == 1 and reps == sorted(reps) == power_maps_by_walk(e, m)
    if e == 1:
        return
    units = {u for u in range(1, e) if gcd(u, e) == 1}
    powers = {pow(m, j, e) for j in range(e)}
    cosets = [frozenset(u * p % e for p in powers) for u in reps]
    assert sum(map(len, cosets)) == len(units)
    assert set().union(*cosets) == units


def test_power_maps_match_the_walk_for_every_unit():
    for e in range(1, 60):
        for m in range(1, max(e, 2)):
            if gcd(m, e) == 1:
                assert _power_maps(e, m) == power_maps_by_walk(e, m), (e, m)


def test_orbit_table_guard_raises_before_allocating(traced_peak):
    # m = 1 on Z_1023 would need a 1023^3 int32 table (about 4.3 GB)
    spec = SearchSpec(AbelianGroup([1023]), 511, 255)

    def refused():
        with pytest.raises(MemoryError, match="orbit-pair table.*fewer orbits"):
            orbit_union_search(spec)

    _, peak = traced_peak(refused)
    assert peak < 1 << 20


def test_cli_orbit_table_guard(capsys):
    code = run(["search", "--group", "Z_1023", "--k", "511",
                "--lambda", "255"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("resource limit:") and err.count("\n") == 1


@pytest.mark.parametrize("group,k,lam,m", [
    ("Z_31", 15, 7, 2),          # gcd(k, v) = 1: class keys
    ("Z_4xZ_4", 6, 2, 1),        # gcd(k, v) = 2: canonical_class per set
    ("Z_133", 12, 1, 11),        # power maps over the cosets of <11>
    ("Z_40", 13, 4, 3),
])
def test_cli_class_files_match_naive_classes(capsys, tmp_path, group, k, lam, m):
    out_dir = str(tmp_path / "out")
    code = run(["search", "--group", group, "--k", str(k), "--lambda",
                str(lam), "--m", str(m), "--out-dir", out_dir, "--json",
                "--no-timestamps"])
    capsys.readouterr()
    assert code == 0
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    G = read_set_file(os.path.join(out_dir, "class_000.dset")).group
    expected = sorted({naive_canonical_class(G, s) for s in summary["sets"]})
    names = sorted(n for n in os.listdir(out_dir) if n.endswith(".dset"))
    assert len(names) == summary["classes"] == len(expected)
    got = [read_set_file(os.path.join(out_dir, n)).elements for n in names]
    assert got == expected
