import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diffsets import dset, groups
from diffsets.dset import (Params, SetFileError, VerificationReport,
                           classical_params, difference_counts,
                           distribution_bound_check, element_sum,
                           intersection_profile, is_normalized,
                           make_difference_set, normalize, read_set_file,
                           restrict, translate, verify, write_set_file)
from diffsets.groups import (AbelianGroup, cyclic_subgroup_of_order,
                             generated_subgroup, multiplier_orbits,
                             subgroup_as_group)
from diffsets.numth import multiplicative_order
from diffsets.search import SearchSpec, orbit_union_search
from diffsets.singer import singer_construct

FANO = (1, 2, 4)                            # (7,3,1) in Z_7
PG32 = (0, 5, 7, 10, 11, 13, 14)            # (15,7,3) in Z_15


def brute_counts(G, elements):
    counts = [0] * G.order
    for a in elements:
        for b in elements:
            counts[G.sub(a, b)] += 1
    return counts


def test_params():
    p = Params(15, 7, 3)
    assert p.n == 4 and p.as_tuple() == (15, 7, 3) and str(p) == "(15,7,3)"
    assert classical_params(2, 4) == Params(15, 7, 3)
    assert classical_params(3, 4) == Params(40, 13, 4)
    assert classical_params(4, 3) == Params(21, 5, 1)


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=2),
       st.data())
def test_difference_counts_match_brute(factors, data):
    G = AbelianGroup(factors)
    size = data.draw(st.integers(min_value=0, max_value=min(G.order, 8)))
    els = data.draw(st.lists(st.integers(min_value=0, max_value=G.order - 1),
                             min_size=size, max_size=size, unique=True))
    assert list(difference_counts(G, sorted(els))) == brute_counts(G, els)


def unfold(counts, ids, v):
    """Per-orbit counts over the folded half expanded to one count a
    group element: the count of x is counts[ids[min(x, v - x)]]."""
    x = np.arange(v)
    return counts[ids[np.minimum(x, v - x)]]


def orbit_counts(G, ranks, t):
    """`_orbit_counts` expanded to one count a group element."""
    return unfold(*dset._orbit_counts(G, ranks, t), G.order)


def _orbit_and_pair_counts(G, elements, t):
    ranks = np.asarray(sorted(elements), dtype=np.int64)
    return orbit_counts(G, ranks, t), dset._pair_counts(G, ranks)


def plan_of(G, elements, n):
    """The `_plan` of `verify` for the set `elements` with n = k - lambda."""
    ranks = np.sort(np.asarray(elements, dtype=np.int64))
    return dset._plan(G, len(ranks), n, ranks)


def listed_plan(G, k, strategy, t=None):
    """The entry of `strategy` (by the multiplier t) in the price list of
    k ranks of G."""
    return next(plan for _, plan in dset._prices(G, k, t or 0)
                if plan.strategy == strategy)


def force(mp, strategy, t=None):
    """Force `verify` onto `strategy` (by the multiplier t) at its listed
    price."""
    mp.setattr(dset, "_plan",
               lambda G, k, n, ranks=None: listed_plan(G, k, strategy, t))


class _Planned(Exception):
    pass


def rejected_before_counting(G, elements):
    """Whether `verify` rejects the set before it plans a count: for a
    repeated rank, a non-integral lambda or a failed quotient image."""
    def plan(*args):
        raise _Planned

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dset, "_plan", plan)
        try:
            rep = verify(G, elements)
        except _Planned:
            return False
    assert not rep.ok
    return True


@pytest.mark.parametrize("q, d, t", [(2, 4, 2), (4, 3, 2), (3, 4, 3),
                                     (9, 3, 3), (4, 4, 2), (2, 6, 2)])
def test_orbit_counts_match_pair_counts_on_singer_sets(q, d, t):
    D = singer_construct(q, d)
    G, v = D.group, D.group.order
    assert sorted(t * x % v for x in D.elements) == list(D.elements)
    e = multiplicative_order(t, v)
    short = [o for o in multiplier_orbits(G, t)
             if o[0] in D.element_set and len(o) < e]
    assert short                          # orbits shorter than ord_v(t) occur
    orbit, pair = _orbit_and_pair_counts(G, D.elements, t)
    assert np.array_equal(orbit, pair)


@pytest.mark.parametrize("q, d", [(3, 4), (3**4, 4)])
def test_orbit_counts_at_the_self_negative_half(q, d):
    # v even, so v/2 is its own negative and, as 3 is odd, an orbit of
    # <3, -1> of one element: PG(3, 3) in Z_40 and the q=3 s=4 tower in
    # Z_538084
    D = singer_construct(q, d)
    G, v, (_, k, lam) = D.group, D.group.order, D.params.as_tuple()
    ranks = np.asarray(D.elements, dtype=np.int64)
    counts, ids = dset._orbit_counts(G, ranks, 3)
    sizes = groups._folded_orbit_ids(v, 3)[1]
    assert v % 2 == 0 and sizes[ids[v // 2]] == sizes[ids[0]] == 1
    assert sizes.sum() == v
    assert counts[0] == k and (counts[1:] == lam).all()
    assert np.array_equal(unfold(counts, ids, v), dset._pair_counts(G, ranks))


@pytest.mark.parametrize("v, t, met", [
    (31, 2, [0, 1, 30]),        # P = {1, 2, 4, 8, 16} and -P both in D
    (31, 2, [1, 3]),            # P in D, -P not
    (41, 3, [0, 1, 2]),         # -1 = 3^4 mod 41: every orbit is its own negative
    (13, 5, [4, 2]),            # -1 = 5^2 mod 13
    (40, 3, [0, 1, 20]),        # v/2 = 20 in D
    (40, 3, [5, 8, 10]),        # v even, v/2 not in D
    (40, 7, [1, 2, 4, 20]),     # orbits of 7 and their negatives
    (2, 3, [1]), (1, 2, [0])])
def test_orbit_counts_on_the_fold(v, t, met):
    # D is the union of the t-orbits that meet `met`
    G = AbelianGroup([v])
    orbits = multiplier_orbits(G, t)
    els = sorted(x for o in orbits if set(o) & set(met) for x in o)
    ranks = np.asarray(els, dtype=np.int64)
    counts, ids = dset._orbit_counts(G, ranks, t)
    assert len(ids) == v // 2 + 1
    assert len(counts) == len(negation_merged(orbits, v))
    assert np.array_equal(unfold(counts, ids, v), brute_counts(G, els))
    by_orbits, by_pairs = forced_reports(G, els, t)
    assert by_orbits == by_pairs


def test_orbit_path_on_orbit_union_that_is_not_a_difference_set(monkeypatch):
    # {0} and five 2-orbits of Z_127: k = 36, so lambda = 36*35/126 = 10 and
    # n = 26 are integers, t = 2 | n fixes the set, and the cost model
    # picks the orbit path (e = 7).
    G = AbelianGroup([127])
    orbits = multiplier_orbits(G, 2)
    els = sorted([0] + [x for o in orbits[1:6] for x in o])
    assert len(els) == 36
    assert plan_of(G, els, 26)[:2] == ("orbit", 2)
    orbit, pair = _orbit_and_pair_counts(G, els, 2)
    assert np.array_equal(orbit, pair)
    by_orbits = verify(G, els)
    force(monkeypatch, "pair")
    by_pairs = verify(G, els)
    assert by_orbits == by_pairs and not by_pairs.ok


def test_orbit_counts_reject_a_multiplier_that_does_not_fix_the_set():
    # {1, 5} is not fixed by 2 in Z_15: the orbit {1, 2, 4, 8} collects a
    # weighted count of 2, which its size 4 does not divide
    with pytest.raises(RuntimeError):
        dset._orbit_counts(AbelianGroup([15]), np.array([1, 5]), 2)


SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def forced_reports(G, elements, t):
    """`verify` forced onto the orbit count with the multiplier t and onto
    the pair count."""
    reports = []
    for strategy in ["orbit", "pair"]:
        with pytest.MonkeyPatch.context() as mp:
            force(mp, strategy, t)
            reports.append(verify(G, elements))
    return reports


def negation_merged(orbits, v):
    """The orbits of <t, -1>: each t-orbit joined with its negative."""
    merged = {}
    for o in orbits:
        neg = [(v - x) % v for x in o]
        merged.setdefault(min(o + neg), set()).update(o + neg)
    return [sorted(m) for _, m in sorted(merged.items())]


def minus_one_in_powers(t, v):
    """Whether -1 is a power of t mod v, so that every t-orbit is its own
    negative."""
    return any(pow(t, j, v) == (v - 1) % v
               for j in range(multiplicative_order(t, v)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_orbit_kernel_matches_pair_counts(data):
    # D is a union of t-orbits: always {0}, random orbits and one short
    # orbit of elements with gcd(x, v) > 1 when there is one; -1 is a
    # power of t (Z_13, t = 2: -O = O for every orbit) or it is not (each
    # orbit's negative is another orbit)
    v = data.draw(st.one_of(st.sampled_from([x for x in EDGE_ORDERS if x >= 2]),
                            st.sampled_from([13, 585, 2 * 3 * 5 * 7 * 11]),
                            st.integers(2, 3000)), label="v")
    self_negative = data.draw(st.booleans(), label="-1 in <t>")
    primes = [p for p in SMALL_PRIMES
              if v % p and minus_one_in_powers(p, v) == self_negative]
    assume(primes)
    t = data.draw(st.sampled_from(primes), label="t")
    G = AbelianGroup([v])
    orbits = multiplier_orbits(G, t)
    picked = data.draw(st.lists(st.integers(1, len(orbits) - 1), max_size=12,
                                unique=True)
                       if len(orbits) > 1 else st.just([]), label="orbits")
    shared = [i for i, o in enumerate(orbits) if i and gcd(o[0], v) > 1]
    if shared:
        picked.append(data.draw(st.sampled_from(shared), label="short orbit"))
    kept = []
    for i in dict.fromkeys(picked):         # at most 600 elements
        if sum(len(orbits[j]) for j in kept) + len(orbits[i]) < 600:
            kept.append(i)
    els = [0] + [x for i in kept for x in orbits[i]]
    ranks = np.sort(np.asarray(els, dtype=np.int64))
    counts, ids = dset._orbit_counts(G, ranks, t)
    assert len(ids) == v // 2 + 1
    assert ids[0] == 0 and (ids[1:] != 0).all()
    assert len(counts) == len(negation_merged(orbits, v)) == \
        groups._orbit_number(v, t, multiplicative_order(t, v))
    if self_negative:
        assert len(counts) == len(orbits)
    assert np.array_equal(unfold(counts, ids, v), dset._pair_counts(G, ranks))
    by_orbits, by_pairs = forced_reports(G, els, t)
    assert by_orbits == by_pairs


@pytest.mark.parametrize("v, t, els, off", [
    (6, 5, [0, 2, 4], 2),                   # per orbit (3, 0, 3, 0)
    (8, 7, [0, 1, 3, 4, 5, 7], 4),          # (6, 4, 4, 4, 6): the last orbit
    (13, 5, [0, 4, 6, 7, 9], 1),            # (5, 1, 2, 2): the first one
    (8, 3, [0, 1, 3], 3)])                  # (3, 1, 1, 0), {4} missed
def test_orbit_verdict_sees_one_orbit_off(v, t, els, off):
    # t-fixed sets whose non-identity counts per orbit of <t, -1> agree
    # except at the orbit numbered `off`; their lambda is not an integer,
    # so verify rejects them before it counts, whatever the strategy.  In
    # the first three -1 is a power of t; in Z_8 the orbits {1, 3} and
    # {5, 7} of 3 are one orbit of <3, -1>
    G = AbelianGroup([v])
    counts, ids = dset._orbit_counts(G, np.asarray(els, dtype=np.int64), t)
    others = np.delete(counts, [0, off])
    assert (others == others[0]).all() and counts[off] != others[0]
    assert np.array_equal(unfold(counts, ids, v), brute_counts(G, els))
    by_orbits, by_pairs = forced_reports(G, els, t)
    assert by_orbits == by_pairs == pair_count_report(G, els)
    assert not by_orbits.ok and by_orbits.identity_count == len(els)


@pytest.mark.parametrize("q, s", [(2, 5), (3, 3)])
def test_orbit_verify_peak_within_estimate(q, s):
    # the towers PG(3, 32) in Z_33825 and PG(3, 27) in Z_20440, fixed by p
    D = singer_construct(q**s, 4)
    G, (v, k, _) = D.group, D.params.as_tuple()
    els = list(D.elements)
    plan = plan_of(G, els, D.params.n)
    assert plan[:2] == ("orbit", q)
    tracemalloc.start()
    try:
        rep = verify(G, els)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.identity_count == k
    assert peak <= plan.nbytes


def test_orbit_verify_peak_within_estimate_at_a_wide_slice(monkeypatch):
    # groups prices its own orbit-numbering buffers: with slices of 2^20
    # elements they take 20 MiB (the default slices keep the whole verify
    # under 8 MiB), which the estimate reads at call time
    D = singer_construct(2**7, 4)
    G, (v, k, _) = D.group, D.params.as_tuple()
    els = list(D.elements)
    monkeypatch.setattr(groups, "_KEY_SLICE", 1 << 20)
    tracemalloc.start()
    try:
        rep = verify(G, els)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and peak > 20 * 2**20
    assert peak <= plan_of(G, els, D.params.n).nbytes


def test_counts_over_the_byte_limit_refused_before_counting(monkeypatch):
    # the q=2 s=5 tower (orbit count, about 5.75 MB) and a translate of
    # PG(12, 2) (NTT, about 0.85 MB) against a 256 KiB limit: MemoryError
    # before any counter runs
    tower = singer_construct(2**5, 4)
    D = singer_construct(2, 13)
    shifted = translate(D, 1).elements

    def no_counting(*args, **kw):
        raise AssertionError("counted")

    for name in ("_orbit_counts", "_ntt_counts", "_pair_counts"):
        monkeypatch.setattr(dset, name, no_counting)
    monkeypatch.setattr(dset, "BYTE_LIMIT", 1 << 18)
    for G, els, n, plan in [(tower.group, tower.elements, tower.params.n, ("orbit", 2)),
                            (D.group, shifted, D.params.n, ("ntt", None))]:
        assert plan_of(G, els, n)[:2] == plan
        with pytest.raises(MemoryError, match="MiB limit"):
            verify(G, els)
    with pytest.raises(MemoryError, match="MiB limit"):
        difference_counts(D.group, shifted)


@pytest.mark.parametrize("factors, els, lam", [
    ([4, 4], (0, 1, 2, 4, 9, 14), 2),
    # Z_3 x Z_5 is cyclic, but its ranks are mixed-radix, so x -> 2x is
    # not multiplication of ranks mod 15; the second set is fixed by that
    # multiplication and has k(k-1)/(v-1) = 3
    ([3, 5], (0, 5, 6, 9, 10, 12, 13), 3),
    ([3, 5], (0, 1, 2, 4, 5, 8, 10), None)])
def test_product_presentations_use_pair_count(factors, els, lam):
    G = AbelianGroup(factors)
    rep = verify(G, els)
    assert rep.ok == (lam is not None) and rep.lambda_observed == lam
    assert plan_of(G, els, 4)[:2] == ("pair", None)
    assert not rejected_before_counting(G, els)
    assert list(difference_counts(G, els)) == brute_counts(G, els)


def test_plan_skips_a_multiplier_prime_that_divides_v():
    # Z_16, k = 6, lambda = 2, n = 4: the prime t = 2 | n also divides v,
    # so it is no multiplier candidate; the Z_2 image (2, 4) passes, so
    # verify plans the pair count, which rejects D
    G, els = AbelianGroup([16]), (0, 1, 2, 3, 5, 7)
    assert plan_of(G, els, 4)[:2] == ("pair", None)
    assert not rejected_before_counting(G, els)
    rep = verify(G, els)
    assert rep == pair_count_report(G, els) and not rep.ok


@pytest.mark.parametrize("factors, blocks", [([10007], 1), ([97, 103], 2)])
def test_pair_counts_reuse_their_blocks(factors, blocks):
    # k = 2100 needs two row blocks of about 4M int64 differences each;
    # the one-factor count holds one block, the product count two
    G = AbelianGroup(factors)
    rng = np.random.default_rng(7)
    ranks = np.sort(rng.choice(G.order, 2100, replace=False)).astype(np.int64)
    tracemalloc.start()
    try:
        counts = dset._pair_counts(G, ranks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts[0] == 2100 and counts.sum() == 2100**2
    assert peak < (blocks + 0.25) * 4_000_000 * 8


@pytest.mark.parametrize("factors", [[10007], [97, 103]])
def test_pair_verify_peak_within_estimate(monkeypatch, factors):
    # verify forced onto the pair count: k random ranks with an integral
    # lambda pass the O(k) tests (Z_10007 has no proper quotient, the
    # product presentation takes none), and Z_10007 would otherwise
    # choose the transform
    force(monkeypatch, "pair")
    G = AbelianGroup(factors)
    v = G.order
    k = next(k for k in range(2100, v) if k * (k - 1) % (v - 1) == 0)
    rng = np.random.default_rng(7)
    els = rng.choice(v, k, replace=False).tolist()
    tracemalloc.start()
    try:
        rep = verify(G, els)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.identity_count == k and not rep.ok
    assert peak <= listed_plan(G, k, "pair").nbytes


# -- the NTT counter and the cost-chosen strategy ----------------------------------

#: Orders next to powers of two, where the transform length L = 2^ceil(log2(2v-1))
#: is tight or loose.
EDGE_ORDERS = sorted({max(1, 2**j + s) for j in range(12) for s in (-1, 0, 1)})


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_ntt_counts_match_pair_counts(data):
    v = data.draw(st.one_of(st.sampled_from(EDGE_ORDERS), st.integers(1, 3000)),
                  label="v")
    if data.draw(st.booleans(), label="D = G"):
        els = list(range(v))
    else:
        els = data.draw(st.lists(st.integers(0, v - 1), max_size=300, unique=True),
                        label="set")
    ranks = np.sort(np.asarray(els, dtype=np.int64))
    assert np.array_equal(dset._ntt_counts(v, ranks),
                          dset._pair_counts(AbelianGroup([v]), ranks))


@pytest.mark.parametrize("q, d", [(2, 12), (5, 6)])
def test_ntt_counts_match_pair_counts_on_singer_sets(q, d):
    D = singer_construct(q, d)
    ranks = np.asarray(D.elements, dtype=np.int64)
    assert np.array_equal(dset._ntt_counts(D.group.order, ranks),
                          dset._pair_counts(D.group, ranks))


def test_ntt_counts_on_the_pg10_3_set():
    # k^2 = 8.7e8 pairs would take seconds, so the orbit count (checked
    # against the pair count above) and the Singer parameters are the oracle
    D = singer_construct(3, 11)
    G, (v, k, lam) = D.group, D.params.as_tuple()
    ranks = np.asarray(D.elements, dtype=np.int64)
    counts = dset._ntt_counts(v, ranks)
    assert counts[0] == k and (counts[1:] == lam).all()
    assert np.array_equal(counts, orbit_counts(G, ranks, 3))


@pytest.mark.parametrize("v, k, e, strategy", [
    (2113665, 16513, 28, "orbit"),      # the q=2 s=7 tower
    (538084, 6643, 16, "orbit"),        # the q=3 s=4 tower
    (88573, 29524, 11, "ntt"),          # PG(10, 3)
    (797161, 265720, 13, "ntt"),        # PG(12, 3)
    (127, 63, 7, "orbit"),              # the search sizes
    (127, 63, None, "pair"),
    (133, 12, 3, "pair"),
    (15, 7, 4, "orbit"),
    (7, 3, None, "pair")])
def test_strategy_from_the_cost_model(v, k, e, strategy):
    # read through the price list with the multiplier t behind each e
    t = {28: 2, 16: 3, 11: 3, 13: 3, 7: 2, 3: 11, 4: 2}.get(e)
    assert e is None or multiplicative_order(t, v) == e
    assert dset._plan(AbelianGroup([v]), k, t or 0).strategy == strategy


def test_product_groups_take_the_pair_count():
    # dense enough that Z_4096 would take the NTT
    G = AbelianGroup([64, 64])
    assert dset._plan(AbelianGroup([G.order]), 2048, 0).strategy == "ntt"
    ranks = np.sort(np.random.default_rng(3).choice(G.order, 2048, replace=False))
    assert plan_of(G, ranks, 1024)[:2] == ("pair", None)
    assert np.array_equal(difference_counts(G, ranks.tolist()),
                          dset._pair_counts(G, ranks))


def test_verify_by_ntt_accepts_and_rejects_unfixed_sets():
    # PG(12, 2) in Z_8191: v is prime, so no quotient image decides, and
    # neither a translate nor a one-element corruption is fixed by 2, so
    # both are counted by the NTT
    D = singer_construct(2, 13)
    G, n = D.group, D.params.n
    shifted = translate(D, 1).elements
    bad = D.elements[1:] + (next(x for x in range(G.order) if x not in D.element_set),)
    for els in (shifted, bad):
        assert plan_of(G, els, n)[:2] == ("ntt", None)
    assert verify(G, shifted).ok
    assert verify(G, bad) == pair_count_report(G, bad) and not verify(G, bad).ok


@pytest.mark.parametrize("factors, els", [
    ([7], [8, 9, 11]), ([7], [-1, 1, 3]), ([2, 2], [0, 5, 6]), ([7], [2**70]),
    ([7], [1.5, 2.5, 4.5]), ([7], ["1", "2", "4"]), ([7], [1.9, 2.2, 4.0]),
    ([7], [1, 2, 4.0]), ([7], np.array([1.0, 2.0, 4.0])), ([7], [2**63]),
    ([7], [-1, 2**63])])
def test_ranks_outside_the_group_are_refused(factors, els):
    # reduced mod v, [8, 9, 11] would be (7,3,1) and [0, 5, 6] the (4,3,2)
    # set {0, 1, 2} of Z_2 x Z_2; truncated or parsed, the floats and the
    # strings would be the (7,3,1) set {1, 2, 4}
    G = AbelianGroup(factors)
    integral = all(isinstance(x, int) for x in els)
    for check in (verify, make_difference_set, difference_counts):
        with pytest.raises(ValueError, match="outside" if integral else "integers"):
            check(G, els)


@pytest.mark.parametrize("els", [
    [1, 2, 4], (x for x in [4, 2, 1]), np.array([1, 2, 4], dtype=np.int32),
    np.array([4, 1, 2], dtype=np.uint8), np.array([1, 2, 4], dtype=object),
    [np.int64(1), np.int16(2), 4]])
def test_integer_ranks_are_read(els):
    # Python ints, numpy integers and integer arrays of any width
    G = AbelianGroup([7])
    assert make_difference_set(G, els).elements == FANO
    assert verify(G, []).ok and len(difference_counts(G, [])) == 7


# -- the quotient certificate against the pair count -------------------------------

def pair_count_report(G, elements):
    """The report of `verify`, read off all k^2 pair counts (the oracle)."""
    counts = dset._pair_counts(G, np.asarray(elements, dtype=np.int64))
    k, v = len(set(elements)), G.order
    lam = int(counts[1])
    if counts[0] == k and (counts[1:] == lam).all():
        return VerificationReport(True, v, k, lam, k)
    return VerificationReport(False, v, k, None, int(counts[0]))


def test_quotient_obstruction_passes_every_genuine_set():
    # every kind of difference set the suite builds
    sets = [(D.group, D.elements) for D in
            [singer_construct(2, 4), singer_construct(3, 4), singer_construct(4, 3),
             singer_construct(2, 6), singer_construct(2**5, 4)]]
    for v, k, lam, m in [(127, 63, 31, 2), (133, 12, 1, 11)]:
        G = AbelianGroup([v])
        found = orbit_union_search(SearchSpec(G, k, lam, m)).sets
        assert found
        sets += [(G, els) for els in found]
    for G, els in sets:
        assert not rejected_before_counting(G, els)
    G, els = sets[4]                            # the q=2 s=5 tower
    assert G.order == 33825 and verify(G, els).ok


def test_quotient_obstruction_steps():
    D = singer_construct(2, 6)                  # (63,31,15), image in Z_3
    G, els = D.group, list(D.elements)
    # 1: a repeated element, so the identity coefficient is 29 + 4 != 30
    repeated = els[:-1] + els[:1]
    assert rejected_before_counting(G, repeated)
    assert verify(G, repeated).identity_count == 33
    # 2: k = 30 and 30*29 is not a multiple of 62
    assert rejected_before_counting(G, els[:-1])
    assert verify(G, els[:-1]) == pair_count_report(G, els[:-1])
    # 3: the image in Z_3 counts (13, 9, 9) elements per class, with
    # autocorrelation n + lambda*21 = 16 + 315 at 0 and 315 elsewhere;
    # moving one element to another class changes its autocorrelation at 0
    image = np.bincount(np.asarray(els) % 3, minlength=3)
    assert image.tolist() == [13, 9, 9]
    assert not dset._quotient_obstruction(image, 16, 15 * 21)
    x = els[-1]
    outside = [y for y in range(63) if y not in D.element_set]
    moved = els[:-1] + [next(y for y in outside if (y - x) % 3)]
    assert dset._quotient_obstruction(np.bincount(np.asarray(moved) % 3), 16, 15 * 21)
    assert rejected_before_counting(G, moved)
    rep = verify(G, moved)
    assert rep == pair_count_report(G, moved)
    assert not rep.ok and rep.identity_count == 31
    # staying in its class leaves every image as it was: no certificate,
    # and only the full count rejects the set
    kept = els[:-1] + [next(y for y in outside if (y - x) % 3 == 0)]
    assert not rejected_before_counting(G, kept)
    assert verify(G, kept) == pair_count_report(G, kept)
    assert not verify(G, kept).ok


#: Singer sets whose v has divisors m with m^2 <= k, so a one-element
#: corruption keeps lambda integral and leaves step 3 to decide.
CORRUPTIBLE = [(3, 4), (2, 6), (2, 8)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_verify_equals_pair_count_oracle(data):
    if data.draw(st.booleans(), label="corrupt a Singer set"):
        D = singer_construct(*data.draw(st.sampled_from(CORRUPTIBLE)))
        G, v = D.group, D.group.order
        els = list(D.elements)
        i = data.draw(st.integers(0, len(els) - 1), label="position")
        els[i] = data.draw(st.integers(0, v - 1).filter(
            lambda x: x not in D.element_set), label="new element")
    else:
        v = data.draw(st.sampled_from([4, 6, 8, 9, 12, 15, 16, 21, 25, 40, 45, 63]))
        G = AbelianGroup([v])
        els = data.draw(st.lists(st.integers(0, v - 1), max_size=v + 4))
    rep = verify(G, els)
    assert rep == pair_count_report(G, els)
    assert not (rejected_before_counting(G, els) and rep.ok)


def _singer_63_corrupted(same_class: bool):
    """The (63,31,15) Singer set with its last element replaced by the
    least rank outside it in the same class mod 3, or in another one."""
    D = singer_construct(2, 6)
    els = list(D.elements)
    x = els[-1]
    y = next(y for y in range(63) if y not in D.element_set
             and ((y - x) % 3 == 0) == same_class)
    return els[:-1] + [y]


def _report(verified, v, k, lam, identity_count, fundamental_ok, mode):
    return {"verified": verified, "v": v, "k": k, "lambda_observed": lam,
            "identity_count": identity_count, "fundamental_ok": fundamental_ok,
            "mode": mode}


#: (factors, elements, expected report) of `test_verify_report_table`.
VERIFY_TABLE = [
    ([7], [], _report(True, 7, 0, 0, 0, True, "full")),
    ([2, 4], [], _report(True, 8, 0, 0, 0, True, "full")),
    ([1], [], _report(True, 1, 0, 0, 0, True, "full")),
    ([1], [0], _report(True, 1, 1, 1, 1, True, "full")),
    ([6], list(range(6)), _report(True, 6, 6, 6, 6, True, "full")),
    ([2, 3], list(range(6)), _report(True, 6, 6, 6, 6, True, "full")),
    ([7], [1, 2, 4], _report(True, 7, 3, 1, 3, True, "full")),
    ([3, 5], [0, 5, 6, 9, 10, 12, 13], _report(True, 15, 7, 3, 7, True, "full")),
    ([63], [1, 2, 4, 4], _report(False, 63, 3, None, 6, False, "full")),
    ([2, 4], [0, 1, 1], _report(False, 8, 2, None, 5, False, "full")),
    ([1], [0, 0], _report(False, 1, 1, None, 4, False, "full")),
    ([2, 8], [0, 1, 3], _report(False, 16, 3, None, 3, False, "full")),
    ([63], "image", _report(False, 63, 31, None, 31, False, "full")),
    ([63], "count", _report(False, 63, 31, None, 31, False, "full"))]


@pytest.mark.parametrize("factors, elements, expected", VERIFY_TABLE, ids=[
    "empty", "empty-product", "v1-empty", "v1", "D=G", "D=G-product", "fano",
    "product", "repeat", "repeat-product", "v1-repeat", "lambda-product",
    "image-rejects", "count-rejects"])
def test_verify_report_table(factors, elements, expected):
    # the reports of the verifier as it stood before the counting kernels
    # took distinct ranks only, except "v1-repeat": a repeated rank is
    # rejected in every group, Z_1 included
    if isinstance(elements, str):
        elements = _singer_63_corrupted(same_class=elements == "count")
    assert verify(AbelianGroup(factors), elements).as_dict() == expected


@pytest.mark.parametrize("elements", [[0, 0], [0, 1, 3]])
def test_verify_refuses_large_orders_before_judging(elements):
    with pytest.raises(MemoryError):
        verify(AbelianGroup([1 << 27]), elements)


def test_verify_reads_runs_of_sorted_ranks(monkeypatch):
    # k and sum(mult^2) come from the runs of equal sorted ranks; no
    # np.unique sorts them again
    def no_unique(*args, **kw):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", no_unique)
    for factors, elements, expected in VERIFY_TABLE:
        test_verify_report_table(factors, elements, expected)
    for elements in ([0, 0], [0, 1, 3]):
        test_verify_refuses_large_orders_before_judging(elements)


def test_repeated_ranks_are_no_set():
    for G in (AbelianGroup([7]), AbelianGroup([2, 4])):
        with pytest.raises(ValueError, match="distinct"):
            difference_counts(G, [0, 1, 1])
        with pytest.raises(ValueError, match="outside"):
            verify(G, [0, 1, G.order])


def test_verify_fano():
    rep = verify(AbelianGroup([7]), FANO)
    assert rep.ok and rep.lambda_observed == 1 and rep.mode == "full"
    assert rep.identity_count == 3 and rep.as_dict()["fundamental_ok"]


def test_verify_mixed_coordinates():
    # same (15,7,3) design presented on Z_3 x Z_5
    G = AbelianGroup([3, 5])
    rep = verify(G, (0, 5, 6, 9, 10, 12, 13))
    assert rep.ok and rep.lambda_observed == 3


def test_verify_rejects_non_difference_set():
    rep = verify(AbelianGroup([7]), (0, 1, 2))
    assert not rep.ok


def test_make_difference_set_verifies():
    D = make_difference_set(AbelianGroup([7]), FANO)
    assert D.verified and D.params == Params(7, 3, 1)
    # a one-pass iterable is read once
    E = make_difference_set(AbelianGroup([7]), (x for x in FANO))
    assert E.verified and E.params == Params(7, 3, 1) and E.elements == FANO
    with pytest.raises(ValueError):
        make_difference_set(AbelianGroup([7]), (0, 1, 2))


@pytest.fixture
def d15():
    return make_difference_set(AbelianGroup([15]), PG32)


def test_translate_preserves_verification(d15):
    for g in range(15):
        T = translate(d15, g)
        assert verify(T.group, T.elements).ok
        assert sorted((e + g) % 15 for e in d15.elements) == list(T.elements)


def test_normalize_known_example():
    D = make_difference_set(AbelianGroup([7]), (0, 1, 3))
    N = normalize(D)
    assert N.elements == (1, 2, 4)
    assert element_sum(N.group, N.elements) == 0
    assert is_normalized(N.group, N.elements)
    assert normalize(N).elements == N.elements          # idempotent


def scalar_element_sum(G, elements):
    s = 0
    for e in elements:
        s = G.add(s, e)
    return s


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=3), st.data())
def test_element_sum_matches_scalar_loop(factors, data):
    # one integer reduction per coordinate against k scalar group additions,
    # on Z_v and on products in any presentation
    G = AbelianGroup(factors)
    els = data.draw(st.lists(st.integers(0, G.order - 1), max_size=200),
                    label="elements")
    assert element_sum(G, els) == scalar_element_sum(G, els)
    assert element_sum(G, np.asarray(els, dtype=np.int64)) == \
        scalar_element_sum(G, els)
    assert is_normalized(G, els) == (scalar_element_sum(G, els) == 0)


def test_element_sum_exact_past_int64_partial_sums():
    # 2^62 + 1 coordinates of Z_(2^62 + 1) would overflow one int64 sum;
    # partial sums of at most (2^63 - 1) // d coordinates do not
    d = 2**62 + 1
    G = AbelianGroup([d])
    els = [d - 1] * 5
    assert element_sum(G, els) == scalar_element_sum(G, els) == (5 * (d - 1)) % d


def test_ranks_sort_once():
    # a sorted int64 array is read as it is; any other input is sorted
    # without touching the caller's array
    G = AbelianGroup([15])
    ranks = np.array([0, 5, 7, 10, 11, 13, 14], dtype=np.int64)
    assert dset._ranks(G, ranks) is ranks
    shuffled = ranks[::-1].copy()
    assert np.array_equal(dset._ranks(G, shuffled), ranks)
    assert shuffled[0] == 14
    assert np.array_equal(dset._ranks(G, (14, 0, 5, 13, 7, 11, 10)), ranks)


def test_normalize_requires_coprime_k():
    # k = 3 shares a factor with v = 9: no normalizing translate exists
    from diffsets.dset import normalizing_shift
    with pytest.raises(ValueError):
        normalizing_shift(AbelianGroup([9]), (0, 1, 2))


def test_intersection_profile_order5(d15):
    H = cyclic_subgroup_of_order(d15.group, 5)
    prof = intersection_profile(d15, H)
    assert prof.multiset() == [1, 3, 3]
    assert prof.sum_ok() and prof.sum_sq_ok()
    # sum s_i^2 = lambda*|H| + n = 3*5 + 4 = 19
    assert sum(s * s for s in prof.counts) == 19


def test_intersection_profile_order3(d15):
    H = cyclic_subgroup_of_order(d15.group, 3)
    prof = intersection_profile(d15, H)
    assert sum(prof.multiset()) == 7
    assert sum(s * s for s in prof.counts) == 3 * 3 + 4


def test_distribution_bound(d15):
    for order in (1, 3, 5, 15):
        H = cyclic_subgroup_of_order(d15.group, order)
        chk = distribution_bound_check(intersection_profile(d15, H))
        assert chk.ok, chk.violations


def test_distribution_bound_flags_violation():
    # a skewed non-design: all elements inside one coset of H
    G = AbelianGroup([15])
    D = make_difference_set(G, (0, 3, 6, 9, 12), Params(15, 5, 1))
    assert not D.verified
    H = cyclic_subgroup_of_order(G, 5)
    chk = distribution_bound_check(intersection_profile(D, H))
    assert not chk.ok
    # the full coset, then one entry for the empty cosets
    assert chk.violations == ((0, 5), (-1, 0))


def test_restrict_to_subgroup(d15):
    M = cyclic_subgroup_of_order(d15.group, 5)
    res = restrict(d15, M, Params(5, 1, 0))
    assert res.group.order == 5
    assert len(res.elements) == 1           # profile says D meets M once
    assert res.verified                     # one element: a (5,1,0) set
    to_sub = subgroup_as_group(M).to_sub
    assert res.elements == tuple(sorted(to_sub[e] for e in d15.elements if e in M))


def test_restrict_noncyclic_parent():
    G = AbelianGroup([3, 5])
    D = make_difference_set(G, (0, 5, 6, 9, 10, 12, 13))
    M = generated_subgroup(G, [G.rank((0, 1))])
    res = restrict(D, M, Params(5, 1, 0))
    assert res.group.order == 5
    assert len(res.elements) == len(set(D.elements)
                                    & set(M.elements))
    assert res.verified


def test_set_file_roundtrip(tmp_path, d15):
    path = tmp_path / "d.dset"
    write_set_file(path, d15)
    back = read_set_file(path)
    assert back.group == d15.group
    assert back.elements == d15.elements
    assert back.params == d15.params


def test_set_file_errors(tmp_path):
    bad = tmp_path / "bad.dset"
    bad.write_text("group Z_15\n15 7 3\n0\n99\n")
    with pytest.raises(SetFileError) as ei:
        read_set_file(bad)
    assert "bad.dset:" in str(ei.value)
    bad.write_text("15 7 3\n0\n")
    with pytest.raises(SetFileError):
        read_set_file(bad)
    bad.write_text("group Z_15\n14 7 3\n")
    with pytest.raises(SetFileError):
        read_set_file(bad)


#: The (40,13,4) set file: a header and one rank a line.
S40 = ["group Z_40", "40 13 4", "0", "2", "5", "6", "11", "14", "15", "17", "18",
       "19", "25", "33", "35"]


@pytest.mark.parametrize("lines, message", [
    (S40[:3] + ["x1"] + S40[3:], "4: bad element rank 'x1'"),
    (S40[:3] + ["40"] + S40[4:], "4: element rank 40 out of range"),
    (S40[:2] + ["-1"] + S40[3:], "3: element rank -1 out of range"),
    (S40[:2] + ["99999999999999999999999"] + S40[3:],
     "3: element rank 99999999999999999999999 out of range"),
    (S40[:2] + ["0 2"] + S40[4:], "3: bad element rank '0 2'"),
    (S40[:-1], "14: expected 13 elements, found 12"),
    (S40 + ["39"], "16: expected 13 elements, found 14"),
    (S40[:1] + ["40 1 0", ""], "3: expected 1 elements, found 0"),
    (S40[:2], "2: expected 13 elements, found 0"),
    (S40[:3] + ["0"] + S40[4:], "4: element rank 0 repeats line 3"),
    (S40[:2] + ["# c"] + S40[2:4] + [""] + ["0"] + S40[5:],
     "7: element rank 0 repeats line 4"),
    (S40[:2] + ["# c", ""] + S40[2:4] + ["  # x", "40"] + S40[5:],
     "8: element rank 40 out of range"),
    (["grp Z_40"] + S40[1:], '1: first line must be "group Z_..."'),
    (S40[:1] + ["40 13"] + S40[2:], '2: expected "v k lambda"'),
    (S40[:1] + ["41 13 4"] + S40[2:], "2: v = 41 does not match group order 40"),
    (S40[:1], "1: expected a group line and a parameter line")],
    ids=["bad rank", "rank out of range", "negative rank", "huge rank",
         "two ranks a line", "too few", "too many", "blank body", "no body",
         "repeated rank", "repeat past comments", "range past comments",
         "group line", "parameter line", "v of another group", "header only"])
def test_set_file_error_table(tmp_path, lines, message):
    # each message names the line of the first fault, byte for byte as the
    # line-by-line reader gives it
    path = tmp_path / "bad.dset"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SetFileError) as ei:
        read_set_file(path)
    assert str(ei.value) == f"{path}:{message}"


@pytest.mark.parametrize("lines, plain", [
    (S40, True),
    (["# top", "", S40[0], "# mid", S40[1]] + S40[2:] + ["", ""], True),
    (S40[:2] + ["00" + x for x in S40[2:]], True),
    (S40[:2] + ["# c", ""] + S40[2:5] + ["  # x", "   "] + S40[5:], False),
    (S40[:2] + [" " + x + "\t" for x in S40[2:]], False),
    (S40[:2] + ["+0"] + S40[3:], False),
    (["group Z_40\x0c40 13 4"] + S40[2:], True),
    (["# a\r\n", "group Z_40\r", "\u2028# b\x85", "40 13 4\r"] + S40[2:], True),
    (S40[:2] + ["0\r2"] + S40[4:], False)],
    ids=["written", "header comments", "leading zeros", "body comments",
         "padded", "signed", "form feed", "other line ends", "carriage return"])
def test_set_file_plain_and_line_readers_agree(tmp_path, lines, plain):
    # one reader takes the header, at str.splitlines boundaries (a form
    # feed among them); then a plain body is parsed by one numpy call, any
    # other line by line; both read the same set
    text = "\n".join(lines) + "\n"
    path = tmp_path / "d.dset"
    path.write_text(text)
    G, params, start, pos = dset._set_file_header(path, text)
    lines = text.splitlines(keepends=True)
    header = [i for i, ln in enumerate(lines)
              if ln.strip() and not ln.strip().startswith("#")][:2]
    assert start == header[1] + 1 and pos == len("".join(lines[:start]))
    assert (dset._plain_ranks(text[pos:], params) is not None) == plain
    D = read_set_file(path)
    assert D == dset._set_file_body(path, text.splitlines(), start, G, params)
    assert D.verified
    assert D.elements == tuple(int(x) for x in S40[2:])


def test_tower_set_file_read_and_verify_peak(tmp_path):
    # PG(3, 128) in Z_2113665 verified on the orbit path: the file's ranks
    # in one int64 array, then the int32 orbit numbers of the folded half
    # (4 MiB), the numbering's slice buffers and a 1 MiB block of pairs
    D = singer_construct(2**7, 4)
    path = tmp_path / "d.dset"
    write_set_file(path, D)
    tracemalloc.start()
    try:
        back = read_set_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.verified and back.elements == D.elements
    assert peak <= 8.5 * 2**20


def test_set_file_comments_ignored(tmp_path, d15):
    path = tmp_path / "d.dset"
    write_set_file(path, d15)
    text = "# header comment\n" + path.read_text()
    path.write_text(text)
    assert read_set_file(path).elements == d15.elements
