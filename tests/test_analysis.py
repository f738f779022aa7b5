import pytest

from diffsets import analysis
from diffsets.analysis import (check_dintk, check_hk, check_ho,
                               check_lemma_mfix, check_lemma_size, check_main,
                               check_minimal_embedding, check_planar_subset,
                               check_thm_classical_profile, hall_check,
                               is_multiplier, main_theorem_hypotheses,
                               mann_test)
from diffsets.dset import (DifferenceSet, Params, VerificationReport,
                           classical_params, make_difference_set, restrict,
                           verify)
from diffsets.field import FieldSizeError
from diffsets.groups import AbelianGroup, cyclic_subgroup_of_order
from diffsets.numth import is_prime, multiplicative_order
from diffsets.singer import singer_construct


@pytest.fixture(scope="module")
def d15():
    return singer_construct(2, 4)


@pytest.fixture(scope="module")
def d40():
    return singer_construct(3, 4)


@pytest.fixture(scope="module")
def d585():
    return singer_construct(2**3, 4)


def test_is_multiplier_powers_of_two(d15):
    for m in (1, 2, 4, 8):
        rep = is_multiplier(d15, m)
        assert rep.is_multiplier
        assert rep.fixes_set            # normalized sets are fixed setwise
    brute_multipliers = set()
    from diffsets.dset import apply_power_map, translate
    translates = {translate(d15, g).elements for g in range(15)}
    for m in range(1, 15):
        if m % 3 and m % 5 and \
                apply_power_map(d15.group, d15.elements, m) in translates:
            brute_multipliers.add(m)
    assert brute_multipliers == {1, 2, 4, 8}
    assert not is_multiplier(d15, 7).is_multiplier


def test_is_multiplier_non_coprime_k():
    # gcd(k, factor) > 1: the (16,6,2) design in Z_2 x Z_8.  For every unit
    # m, is_multiplier agrees with "m*D is a translate of D" by brute force,
    # and its translator g gives D + g = m*D.
    from diffsets.dset import apply_power_map, translate
    G = AbelianGroup([2, 8])
    D = make_difference_set(G, (G.rank((0, 0)), G.rank((0, 1)),
                                G.rank((0, 2)), G.rank((0, 5)),
                                G.rank((1, 0)), G.rank((1, 6))))
    translates = {translate(D, g).elements: g for g in range(16)}
    for m in range(1, 16, 2):
        image = apply_power_map(G, D.elements, m)
        rep = is_multiplier(D, m)
        assert rep.is_multiplier == (image in translates), m
        if rep.is_multiplier:
            assert translate(D, rep.translator).elements == image
            assert rep.fixes_set == (rep.translator == 0)
        else:
            assert rep.translator is None


@pytest.mark.parametrize("q, g", [(2, 4), (2, 11), (3, 7), (3, 30)])
def test_is_multiplier_translator_of_translate(q, g):
    # gcd(k, v) = 1 for (15,7,3) and (40,13,4).  The normalized Singer set
    # N is fixed by p = q, so p*(N + g) = (N + g) + (p - 1)g.
    from diffsets.dset import translate
    N = singer_construct(q, 4)
    v = N.params.v
    rep = is_multiplier(translate(N, g), q)
    assert rep.is_multiplier and not rep.fixes_set
    assert rep.translator == (q - 1) * g % v


def test_hall_check_fano():
    D = make_difference_set(AbelianGroup([7]), (1, 2, 4))
    rep = hall_check(D)
    assert rep.status == "verified"
    assert rep.instance["p"] == 2


def test_hall_check_falsified_on_fake_set():
    # (13,4,1) parameters but not a difference set; hall_check takes the
    # report on trust, so with a forged accepting report the Hall
    # conclusion is checked and fails
    D = DifferenceSet(AbelianGroup([13]), (0, 1, 2, 5), Params(13, 4, 1),
                      VerificationReport(True, 13, 4, 1, 4))
    assert D.verified
    rep = hall_check(D)
    assert rep.status == "FALSIFIED"


def test_mann_counts_empty_cosets():
    # (15,5,1) parameters, all of D in one coset of the order-5 subgroup:
    # the profile {5, 0, 0} is not congruent mod 2 (p = 2, u* = 3, j = 1)
    D = DifferenceSet(AbelianGroup([15]), (0, 3, 6, 9, 12), Params(15, 5, 1),
                      VerificationReport(True, 15, 5, 1, 5))
    rep = mann_test(D, cyclic_subgroup_of_order(D.group, 5))
    assert rep.status == "FALSIFIED"
    congruent = rep.conclusions[1]
    assert congruent.name == "intersection numbers congruent mod p^j"
    assert not congruent.ok and congruent.witness["profile"] == [0, 0, 5]


def test_mann_q3_witness(d40):
    U = cyclic_subgroup_of_order(d40.group, 10)
    rep = mann_test(d40, U)
    assert rep.status == "verified"
    w = rep.instance["witness"]
    assert (w["p"], w["f"], w["j"]) == (3, 1, 1)
    # all intersection numbers congruent to 1 mod 3
    from diffsets.dset import intersection_profile
    assert {s % 3 for s in intersection_profile(d40, U).multiset()} == {1}


def test_mann_no_applicable_prime():
    D = singer_construct(4, 3)      # (21,5,1), n = 4
    U = cyclic_subgroup_of_order(D.group, 3)
    rep = mann_test(D, U)           # u* = 7 and 2^f is never -1 mod 7
    assert rep.status == "no-applicable-prime"


def test_mann_whole_group_degenerate():
    D = make_difference_set(AbelianGroup([7]), (1, 2, 4))
    U = cyclic_subgroup_of_order(D.group, 7)
    rep = mann_test(D, U)           # G/U trivial: the test says nothing
    assert rep.status == "hypothesis-not-met"


def minus_one_exponent_by_walk(p, u_star):
    """The least f >= 1 with p^f = -1 mod u*, by stepping through the
    powers of p up to its order, else None."""
    t = p % u_star
    for f in range(1, multiplicative_order(p, u_star) + 1):
        if t == u_star - 1:
            return f
        t = t * p % u_star
    return None


def test_mann_exponent_matches_the_walk():
    # every prime p < 80 against every u* < 400 that p does not divide
    found = 0
    for p in filter(is_prime, range(2, 80)):
        for u_star in range(2, 400):
            if u_star % p:
                f = analysis._minus_one_exponent(p, u_star)
                assert f == minus_one_exponent_by_walk(p, u_star)
                found += f is not None
    assert found > 1000


def test_classical_profile_checker(d15, d40, d585):
    assert check_thm_classical_profile(d15, 2, 1).status == "verified"
    assert check_thm_classical_profile(d40, 3, 1).status == "verified"
    assert check_thm_classical_profile(d585, 2, 3).status == "verified"


def test_fixed_subgroup_lemma(d585):
    rep = check_lemma_mfix(2, 3)
    assert rep.status == "verified"


def test_size_lemma(d585):
    rep = check_lemma_size(2, 3)
    assert rep.status == "verified"
    # oracle: the built set meets M in the counted q^2 + q + 1 elements
    M = cyclic_subgroup_of_order(d585.group, 15)
    assert rep.conclusions[0].witness == len(set(d585.elements) & set(M.elements))


def test_far_towers_refused_before_v_is_formed(monkeypatch):
    # s = 1000003 asks for GF(2^4000012): lem4.2 and the scan's row are
    # refused by the field degree, with make_field's text, before v, a
    # number of three million digits, is formed
    def no_params(*args):
        raise AssertionError("v formed")

    monkeypatch.setattr(analysis.ds, "_projective_params", no_params)
    text = ("GF(2^4000012) is larger than the ceiling 268435456; "
            "pass a larger ceiling to override")
    with pytest.raises(FieldSizeError) as err:
        check_lemma_size(2, 1000003)
    assert str(err.value) == text
    rows = analysis.conjecture_scan(2, [1000003])
    assert [(r.v, r.status) for r in rows] == [(0, f"error: {text}")]


def test_main_theorem_hypotheses_precheck():
    assert all(c.ok for c in main_theorem_hypotheses(2, 3))
    failed = {c.name: c.ok for c in main_theorem_hypotheses(2, 5)}
    assert failed["s does not divide q^2 + 1"] is False
    failed = {c.name: c.ok for c in main_theorem_hypotheses(3, 2)}
    assert not all(failed.values())         # s = 2 is neither odd nor >= q


def test_main_theorem_q2_s3(d585):
    rep = check_main(2, 3)
    assert rep.status == "verified"
    # oracle: D ∩ M of the built set verifies to the same report
    M = cyclic_subgroup_of_order(d585.group, 15)
    res = restrict(d585, M, classical_params(2, 4))
    assert res.verified and res.report == verify(res.group, res.elements)
    assert rep.conclusions[0].witness == res.report.as_dict()


def test_dintk(d15, d40):
    assert check_dintk(d15, 2).status == "verified"
    assert check_dintk(d40, 3).status == "verified"


def test_hk_even_q(d15, d585):
    assert check_hk(d15, 2, 1).status == "verified"
    assert check_hk(d585, 2, 3).status == "verified"


def test_hk_odd_q_hypothesis(d40):
    rep = check_hk(d40, 3, 1)
    assert rep.status == "hypothesis-not-met"   # requires q even


def test_minimal_embedding(d585):
    rep = check_minimal_embedding(d585)
    assert rep.status == "verified"


def tower_exponent_by_loop(v, params):
    """s with params those of PG(3, 2^s) in a group of order v, found by
    trying every t with (2^t + 1)(2^(2t) + 1) <= v, else None."""
    t = 1
    while (2**t + 1) * (2**(2 * t) + 1) <= v:
        if (2**t + 1) * (2**(2 * t) + 1) == v and params == classical_params(2**t, 4):
            return t
        t += 1
    return None


def test_tower_exponent_matches_the_loop():
    # PG(3, 2^t) for t <= 8 in its own group, with k one more and in a
    # group one larger; PG(3, q) for q not a power of 2, PG(d - 1, 2)
    # (n = 16 for d = 6), and n = 0 and n < 0
    cases = []
    for t in range(1, 9):
        v, k, lam = classical_params(2**t, 4).as_tuple()
        cases += [(v, Params(v, k, lam)), (v, Params(v, k + 1, lam)),
                  (v + 1, Params(v, k, lam))]
    cases += [(P.v, P) for P in [classical_params(q, 4) for q in (3, 5, 7, 9)]
              + [classical_params(2, d) for d in (3, 5, 6)]
              + [Params(1, 0, 0), Params(15, 3, 7)]]
    assert len(cases) == 33
    assert [analysis._tower_exponent(v, P) for v, P in cases] == \
        [tower_exponent_by_loop(v, P) for v, P in cases]
    assert [analysis._tower_exponent(v, P) for v, P in cases[:24:3]] == \
        list(range(1, 9))


def test_planar_subset_m2():
    D = singer_construct(4, 3)
    rep = check_planar_subset(D, 2)
    assert rep.status == "verified"


def test_ho_subgroup_absent():
    # order 8 = 2^3 planar set: v = 73 has no subgroup of order 7
    D = singer_construct(8, 3)
    rep = check_ho(D, 2, 3)
    assert rep.status == "subgroup-absent"


def test_ho_identity_case():
    D = singer_construct(3, 3)
    rep = check_ho(D, 3, 1)
    assert rep.status == "verified"


def test_product_group_profile_mann_and_bound():
    # The (16,6,2) design in Z_2 x Z_8 against every subgroup of order 2, 4
    # and 8: the coset counts from the one-pass coset map, the Mann test
    # and the distribution bound agree with cosets listed by brute force.
    from diffsets.dset import distribution_bound_check, intersection_profile
    from diffsets.groups import subgroups_of_order
    G = AbelianGroup([2, 8])
    D = make_difference_set(G, (0, 1, 2, 5, 8, 14))
    k, n = D.params.k, D.params.n
    for order in (2, 4, 8):
        for H in subgroups_of_order(G, order):
            classes = {frozenset(G.add(x, h) for h in H.elements)
                       for x in range(G.order)}
            brute = sorted((min(c), len(c & D.element_set)) for c in classes)
            prof = intersection_profile(D, H)
            assert list(zip(prof.decomposition.representatives,
                            prof.counts)) == brute
            assert prof.sum_ok() and prof.sum_sq_ok()
            r = len(brute)
            rhs = n * (r - 1) ** 2
            bad = [(x, s) for x, s in brute if s and (r * s - k) ** 2 > rhs]
            if any(s == 0 for _, s in brute) and k * k > rhs:
                bad.append((-1, 0))
            chk = distribution_bound_check(prof)
            assert chk.violations == tuple(bad) and chk.ok == (not bad)
            u_star = min(m for m in range(1, 9)
                         if all(G.scale(m, x) in H for x in range(G.order)))
            rep = mann_test(D, H)
            assert rep.instance["u_star"] == u_star
            # n = 4 and u* is a power of 2 above 1: no prime p | n applies
            assert rep.status == "no-applicable-prime"
