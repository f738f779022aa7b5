"""Multiplier machinery, the Mann test, per-theorem instance checkers and
the conjecture evidence scan.

Every checker produces a TheoremReport with named hypothesis and
conclusion checks.  A failed hypothesis short-circuits to
"hypothesis-not-met"; FALSIFIED is reserved for the case where all
hypotheses hold and a conclusion fails, so vacuous truth is never
conflated with refutation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, isqrt

from . import dset as ds
from .dset import DifferenceSet, apply_power_map, intersection_profile, restrict
from .field import FieldSizeError
from .groups import (AbelianGroup, Subgroup, _torsion, generated_subgroup,
                     subgroups_of_order, sylow)
from .numth import (factorize, is_prime, is_prime_power, multiplicative_order,
                    prime_divisors)
from .singer import Tower, hyperplane_containment, singer_restriction


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    witness: object = None

    def as_dict(self):
        d = {"name": self.name, "ok": self.ok}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass
class TheoremReport:
    theorem: str
    instance: dict
    hypotheses: list = field(default_factory=list)
    conclusions: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    status_override: str | None = None

    def hyp(self, name, ok, witness=None):
        self.hypotheses.append(Check(name, bool(ok), witness))
        return ok

    def con(self, name, ok, witness=None):
        self.conclusions.append(Check(name, bool(ok), witness))
        return ok

    @property
    def hypotheses_ok(self) -> bool:
        return all(c.ok for c in self.hypotheses)

    @property
    def status(self) -> str:
        if self.status_override:
            return self.status_override
        if not self.hypotheses_ok:
            return "hypothesis-not-met"
        if all(c.ok for c in self.conclusions):
            return "verified"
        return "FALSIFIED"

    def as_dict(self):
        return {
            "theorem": self.theorem,
            "instance": self.instance,
            "hypotheses": [c.as_dict() for c in self.hypotheses],
            "conclusions": [c.as_dict() for c in self.conclusions],
            "notes": list(self.notes),
            "status": self.status,
        }


# -- multipliers ------------------------------------------------------------------

@dataclass(frozen=True)
class MultiplierReport:
    m: int
    is_multiplier: bool
    translator: int | None      # g with sigma(D) = D + g
    fixes_set: bool             # sigma(D) == D

    def as_dict(self):
        return {"m": self.m, "is_multiplier": self.is_multiplier,
                "translator": self.translator, "fixes_set": self.fixes_set}


def is_multiplier(D: DifferenceSet, m: int) -> MultiplierReport:
    """Does x -> m*x map D onto a translate D + g of itself?  g is one of
    the differences image[0] - d0, d0 in D; it is unique, as a nontrivial
    difference set has no nontrivial period."""
    G = D.group
    image = apply_power_map(G, D.elements, m)
    if image == D.elements:             # also the empty set
        return MultiplierReport(m, True, 0, True)
    img_set = set(image)
    for d0 in D.elements:
        g = G.sub(image[0], d0)
        if all(G.add(e, g) in img_set for e in D.elements):
            return MultiplierReport(m, True, g, g == 0)
    return MultiplierReport(m, False, None, False)


def hall_check(D: DifferenceSet) -> TheoremReport:
    """Hall multiplier theorem: if n is a prime power p^a with gcd(p, v) = 1,
    then x -> x^p is a multiplier, fixing the normalized translate."""
    n = D.params.n
    rep = TheoremReport("hall", {"params": D.params.as_tuple(), "n": n})
    rep.hyp("difference set verified", D.verified)
    pe = is_prime_power(n)
    rep.hyp("n is a prime power", pe is not None, n)
    if pe is None:
        return rep
    p, _ = pe
    rep.instance["p"] = p
    if not rep.hyp("gcd(p, v) = 1", gcd(p, D.params.v) == 1):
        return rep
    mrep = is_multiplier(D, p)
    rep.con("x -> x^p is a multiplier", mrep.is_multiplier,
            mrep.translator)
    N = ds.normalize(D)
    nrep = is_multiplier(N, p)
    rep.con("x -> x^p fixes the normalized translate", nrep.fixes_set)
    return rep


# -- Mann test --------------------------------------------------------------------

@dataclass(frozen=True)
class MannWitness:
    subgroup_order: int
    u_star: int
    p: int
    f: int
    j: int
    n_prime: int

    def as_dict(self):
        return {"subgroup_order": self.subgroup_order, "u_star": self.u_star,
                "p": self.p, "f": self.f, "j": self.j, "n_prime": self.n_prime}


def _minus_one_exponent(p: int, u_star: int) -> int | None:
    """The least f >= 1 with p^f = -1 mod u* > 1, p a unit mod u*, else
    None.  With e = ord(p): for u* = 2, -1 = 1 and f = e; otherwise p^f =
    -1 gives p^(2f) = 1 but p^f != 1, so f is an odd multiple of e/2 and
    p^f = p^(e/2), the least f being e/2 when p^(e/2) = -1."""
    e = multiplicative_order(p, u_star)
    return next((f for f in (e // 2, e) if f and pow(p, f, u_star) == u_star - 1), None)


def mann_test(D: DifferenceSet, U: Subgroup) -> TheoremReport:
    """Abridged Mann test relative to a subgroup U.

    Searches primes p | n (ascending) with p not dividing u* and
    p^f = -1 mod u*; on success checks the modular congruence of the
    intersection numbers and p^j <= |U|.
    """
    from .groups import quotient_exponent
    G = D.group
    n = D.params.n
    u_star = quotient_exponent(G, U)
    rep = TheoremReport("mann", {"params": D.params.as_tuple(),
                                 "subgroup_order": U.order, "u_star": u_star})
    rep.hyp("difference set verified", D.verified)
    if not rep.hyp("exponent of G/U exceeds 1", u_star > 1, u_star):
        # a congruence mod 1 is vacuous; the test needs a nontrivial
        # character of G/U to say anything
        return rep
    witness = None
    for p in prime_divisors(n):
        if u_star % p == 0:
            continue
        f = _minus_one_exponent(p, u_star)
        if f is None:
            continue
        vp = factorize(n).get(p, 0)
        j = vp // 2
        n_prime = n // p**vp
        witness = MannWitness(U.order, u_star, p, f, j, n_prime)
        rep.instance["witness"] = witness.as_dict()
        rep.con("n = p^(2j) n' with gcd(p, n') = 1", vp % 2 == 0,
                {"p": p, "v_p(n)": vp})
        prof = intersection_profile(D, U)
        mod = p**j
        residues = {s % mod for s in prof.counts}
        rep.con("intersection numbers congruent mod p^j", len(residues) <= 1,
                {"mod": mod, "profile": prof.multiset()})
        rep.con("p^j <= |U|", mod <= U.order, {"p^j": mod, "|U|": U.order})
        break
    if witness is None:
        rep.status_override = "no-applicable-prime"
        rep.notes.append("no prime p | n satisfies p^f = -1 mod u*")
    return rep


# -- theorem checkers --------------------------------------------------------------


def _unique_subgroup(G: AbelianGroup, order: int):
    """(subgroup, unique flag); ValueError when order does not divide |G|."""
    subs = subgroups_of_order(G, order)
    return subs[0], len(subs) == 1


#: The note of the checks that read D through singer_restriction: their
#: hypotheses on D hold by construction, not by a count.
_CONSTRUCTION_FACTS = ("classical d=4 parameters and difference set normalized "
                       "are facts of the Singer construction and its "
                       "closed-form normalizing shift t (the witness, in Z_v)")


def check_thm_classical_profile(D: DifferenceSet, q: int, s: int) -> TheoremReport:
    """Two-valued H-coset profile of a classical d=4 difference set.

    H is the subgroup of order q^s + 1; depending on the parity of q the
    full coset inside D is H itself or Hz with z generating Syl_2(G).
    """
    Q = q**s
    rep = TheoremReport("thm2.2", {"q": q, "s": s, "params": D.params.as_tuple()})
    expected = ds.classical_params(Q, 4)
    rep.hyp("classical d=4 parameters", D.params == expected, str(expected))
    rep.hyp("difference set normalized",
            ds.is_normalized(D.group, D.elements))
    if not rep.hypotheses_ok:
        return rep
    G = D.group
    H, unique = _unique_subgroup(G, Q + 1)
    rep.con("unique subgroup of order q^s + 1", unique)
    S2, cyclic, z = sylow(G, 2)
    rep.con("Syl_2(G) cyclic", cyclic, {"order": S2.order, "generator": z})
    prof = intersection_profile(D, H)
    expected_profile = sorted([Q + 1] + [1] * (Q * Q))
    rep.con("profile is {q^s+1, 1, ..., 1}", prof.multiset() == expected_profile,
            prof.multiset() if prof.index <= 64 else None)
    # a coset of H lies in D when D meets it |H| times
    if q % 2 == 0:
        rep.con("H contained in D", prof.counts[0] == H.order)
    else:
        z_coset = prof.decomposition.coset_index(z)
        rep.con("Hz contained in D", prof.counts[z_coset] == H.order, {"z": z})
    return rep


def check_lemma_mfix(q: int, s: int) -> TheoremReport:
    """Fixed points of x -> x^(q^4) in Z_(q^s+1)(q^2s+1) contain (and
    often equal) the subgroup M of order (q+1)(q^2+1), read by arithmetic:
    in the cyclic Z_v the fixed points are the subgroup of order f =
    gcd(q^4-1, v), so M lies in it when |M| divides f and equals it when
    |M| = f.  Sylow subgroups of Z_v are cyclic, so the side conditions
    hold."""
    T = Tower(q, s)                     # q checked
    rep = TheoremReport("lem4.1", {"q": q, "s": s, "group": f"Z_{T.v}"})
    rep.hyp("|G| = (q^s+1)(q^2s+1)", True)
    rep.hyp("s odd", s % 2 == 1)
    if not rep.hypotheses_ok:
        return rep
    m, f = T.m_order, gcd(q**4 - 1, T.v)
    rep.con("M <= fixed points of x -> x^(q^4)", f % m == 0,
            {"|M|": m, "|fixed|": f})
    rep.notes.append("using c = gcd(q^2+1, s)")
    rep.instance["side_conditions_hold"] = True
    rep.con("M equals the fixed-point subgroup", f == m)
    return rep


def check_lemma_size(q: int, s: int, ceiling: int | None = None) -> TheoremReport:
    """|D ∩ M| = q^2 + q + 1 for D the normalized PG(3, q^s) Singer set in
    G = Z_v and M of order (q+1)(q^2+1), read by singer_restriction."""
    T = Tower(q, s)                     # q checked
    # for odd s every hypothesis holds: read D ∩ M first, refusing a far
    # tower's field by its degree before v is formed
    R = singer_restriction(q, s, ceiling) if s % 2 else None
    rep = TheoremReport("lem4.2", {"q": q, "s": s, "params": T.params.as_tuple()})
    rep.hyp("|G| = (q^s+1)(q^2s+1)", True)
    rep.hyp("s odd", s % 2 == 1)
    rep.hyp("difference set normalized", True, T.shift)
    rep.notes.append("using c = gcd(q^2+1, s) for the side conditions")
    rep.notes.append(_CONSTRUCTION_FACTS)
    if not rep.hypotheses_ok:
        return rep
    # every Sylow subgroup of the cyclic Z_v is cyclic
    rep.hyp("Syl_r(G) cyclic for r | b or r | c", True,
            {"b": gcd(q + 1, s), "c": gcd(q * q + 1, s)})
    hits = len(R.elements)
    rep.con("|D ∩ M| = q^2 + q + 1", hits == q * q + q + 1, hits)
    return rep


def main_theorem_hypotheses(q: int, s: int) -> list[Check]:
    """The (q, s) hypotheses of the headline restriction theorem, checkable
    without constructing anything."""
    return [
        Check("s is an odd prime", s % 2 == 1 and is_prime(s), s),
        Check("s >= q", s >= q),
        Check("s does not divide q^2 + 1", (q * q + 1) % s != 0),
    ]


def check_main(q: int, s: int, ceiling: int | None = None) -> TheoremReport:
    """Headline theorem: D ∩ M is a normalized classical difference set in
    the subgroup M of order (q+1)(q^2+1), for D the normalized PG(3, q^s)
    Singer set, read by singer_restriction.  Nothing is built when the
    hypotheses fail on (q, s) alone."""
    T = Tower(q, s)
    rep = TheoremReport("thm4.3", {"q": q, "s": s})
    rep.hypotheses.extend(main_theorem_hypotheses(q, s))
    if not rep.hypotheses_ok:
        rep.notes.append("construction skipped: hypotheses fail on (q, s) alone")
        return rep
    R = singer_restriction(q, s, ceiling)
    rep.instance["params"] = T.params.as_tuple()    # of D, in Z_v
    rep.hyp("classical d=4 parameters", True, str(T.params))
    rep.hyp("difference set normalized", True, T.shift)
    rep.notes.append(_CONSTRUCTION_FACTS)
    rep.con("D ∩ M verifies with classical parameters",
            R.verified, R.report.as_dict())
    rep.con("D ∩ M is normalized in M", ds.is_normalized(R.group, R.elements))
    rep.con("lambda = q^s + 1 = q + 1 mod s",
            (T.Q + 1) % s == (q + 1) % s,
            {"lambda": T.Q + 1, "mod": s})
    return rep


def check_hyperplane_containment(q: int, a: int, b: int,
                                 ceiling: int | None = None) -> TheoremReport:
    """Theorem 3.1 on the traces of GF(q^(ab)), read by
    singer.hyperplane_containment."""
    crep = hyperplane_containment(q, a, b, ceiling=ceiling)
    rep = TheoremReport("thm3.1", crep.as_dict())
    rep.hyp("gcd(a, b) = 1", crep.gcd_ab == 1, crep.gcd_ab)
    rep.con("E contained in D", crep.contained, crep.witness)
    if crep.gcd_ab != 1:
        rep.notes.append("gcd(a,b) != 1: containment status reported by "
                         "brute force, no theorem claim at stake")
    return rep


def check_tower_restriction(q: int, s: int,
                            ceiling: int | None = None) -> TheoremReport:
    """Corollary 3.2: for odd s, the PG(3, q^s) Singer set D meets the
    subgroup R of order (q^4-1)/(q-1) = (q+1)(q^2+1) in a set with the
    PG(3, q) Singer parameters.  Nothing is built when s is even."""
    T = Tower(q, s)
    rep = TheoremReport("cor3.2", {"q": q, "s": s})
    if not rep.hyp("s odd", s % 2 == 1, s):
        return rep
    R = singer_restriction(q, s, ceiling)
    rep.instance["params"] = list(T.params.as_tuple())
    rep.instance["field_descriptor"] = R.field_descriptor
    rep.con("D ∩ R verifies as the small Singer parameters",
            R.verified, R.report.as_dict())
    return rep


def check_dintk(D: DifferenceSet, q: int) -> TheoremReport:
    """Two-valued K-coset profile, K the unique subgroup of order q^2+1,
    plus identification of the distinguished coset."""
    rep = TheoremReport("thm5.1", {"q": q, "params": D.params.as_tuple()})
    G = D.group
    v = (q + 1) * (q * q + 1)
    rep.hyp("difference set verified", D.verified)
    rep.hyp("|G| = (q+1)(q^2+1)", G.order == v)
    rep.hyp("classical parameters", D.params == ds.classical_params(q, 4))
    rep.hyp("difference set normalized", ds.is_normalized(G, D.elements))
    if not rep.hypotheses_ok:
        return rep
    K, unique = _unique_subgroup(G, q * q + 1)
    rep.con("unique subgroup K of order q^2 + 1", unique)
    prof = intersection_profile(D, K)
    expected = sorted([1] + [q + 1] * q)
    rep.con("profile is {1, q+1, ..., q+1}", prof.multiset() == expected,
            prof.multiset())
    dec = prof.decomposition
    ones = [x for x, s_i in zip(dec.representatives, prof.counts) if s_i == 1]
    if len(ones) != 1:
        rep.con("distinguished coset exists", False, ones)
        return rep
    x_star = ones[0]
    in_k = dec.coset_index(x_star) == dec.coset_index(0)
    if q % 2 == 0:
        rep.con("distinguished coset is K itself (q even)", in_k, x_star)
        hits = sorted(set(D.elements) & K.element_set)
        rep.con("D ∩ K = {identity}", hits == [0], hits)
    else:
        # any order-4 element w with w^2 in K marks the other fixed coset;
        # each lies in the 4-torsion
        ok = in_k or any(G.element_order(w) == 4 and G.scale(2, w) in K and
                         dec.coset_index(w) == dec.coset_index(x_star)
                         for w in _torsion(G, 4).elements)
        rep.con("distinguished coset is K or Kw with w of order 4", ok, x_star)
    return rep


def check_hk(D: DifferenceSet, q: int, s: int) -> TheoremReport:
    """Even-q corollary: H ⊆ D with singleton intersections elsewhere, and
    D ∩ K = {identity} with |D ∩ Kx| = q^s + 1 elsewhere."""
    rep = TheoremReport("cor5.2", {"q": q, "s": s, "params": D.params.as_tuple()})
    rep.hyp("q even", q % 2 == 0, q)
    Q = q**s
    G = D.group
    rep.hyp("|G| = (q^s+1)(q^2s+1)", G.order == (Q + 1) * (Q * Q + 1))
    rep.hyp("difference set normalized", ds.is_normalized(G, D.elements))
    if not rep.hypotheses_ok:
        return rep
    H, _ = _unique_subgroup(G, Q + 1)
    K, _ = _unique_subgroup(G, Q * Q + 1)
    hprof = intersection_profile(D, H)
    rep.con("H contained in D", hprof.counts[0] == H.order)
    rep.con("other H-cosets meet D once",
            hprof.multiset() == sorted([Q + 1] + [1] * (Q * Q)))
    hits = sorted(set(D.elements) & K.element_set)
    rep.con("D ∩ K = {identity}", hits == [0], hits)
    kprof = intersection_profile(D, K)
    rep.con("other K-cosets meet D in q^s + 1 elements",
            kprof.multiset() == sorted([1] + [Q + 1] * Q), kprof.multiset())
    return rep


def _tower_exponent(v: int, params: ds.Params) -> int | None:
    """s >= 1 when params are those of PG(3, 2^s) in a group of order v,
    else None: then n = Q^2 for Q = 2^s, so Q = isqrt(n)."""
    Q = isqrt(max(params.n, 0))
    if Q >= 2 and Q & (Q - 1) == 0 and v == params.v and \
            params == ds.classical_params(Q, 4):
        return Q.bit_length() - 1
    return None


def check_minimal_embedding(D: DifferenceSet) -> TheoremReport:
    """Locate the order-15 subgroup M through the proof's h*k construction
    and verify D ∩ M as a (15,7,3) difference set."""
    rep = TheoremReport("thm6.1", {"params": D.params.as_tuple()})
    G = D.group
    s = _tower_exponent(G.order, D.params)
    rep.hyp("parameters match the q = 2^s family", s is not None)
    if s is None:
        return rep
    rep.instance["s"] = s
    rep.hyp("s odd", s % 2 == 1, s)
    rep.hyp("difference set normalized", ds.is_normalized(G, D.elements))
    if not rep.hypotheses_ok:
        return rep
    Q = 2**s
    H, _ = _unique_subgroup(G, Q + 1)
    K, _ = _unique_subgroup(G, Q * Q + 1)
    k5 = min(e for e in _torsion(G, 5).elements
             if e in K and G.element_order(e) == 5)
    eset = D.element_set
    coset_hits = [G.add(h, k5) for h in H.elements if G.add(h, k5) in eset]
    rep.con("coset Hk meets D exactly once", len(coset_hits) == 1, coset_hits)
    if len(coset_hits) != 1:
        return rep
    d = coset_hits[0]
    h = G.sub(d, k5)
    rep.con("h has order 3", G.element_order(h) == 3,
            {"h": h, "order": G.element_order(h)})
    M = generated_subgroup(G, [d])
    rep.con("M = <hk> has order 15", M.order == 15, M.order)
    if M.order != 15:
        return rep
    res = restrict(D, M, ds.Params(15, 7, 3))
    rep.con("D ∩ M verifies as (15,7,3)", res.verified, res.report.as_dict())
    structure = {0, h, G.scale(2, h),
                 d, G.scale(2, d), G.scale(4, d), G.scale(8, d)}
    rep.con("D ∩ M = {1, h, h^2, hk, h^2k^2, hk^4, h^2k^3}",
            eset & M.element_set == structure)
    return rep


def check_planar_subset(D: DifferenceSet, m: int) -> TheoremReport:
    """Jungnickel-Vedder: a normalized planar set of square order m^2
    restricts to a planar set of order m in the subgroup of order m^2+m+1."""
    rep = TheoremReport("jv", {"m": m, "params": D.params.as_tuple()})
    rep.hyp("planar (lambda = 1)", D.params.lam == 1)
    rep.hyp("order is m^2", D.params.n == m * m, D.params.n)
    rep.hyp("difference set normalized", ds.is_normalized(D.group, D.elements))
    if not rep.hypotheses_ok:
        return rep
    h_order = m * m + m + 1
    H, unique = _unique_subgroup(D.group, h_order)
    rep.con("unique subgroup of order m^2+m+1", unique)
    res = restrict(D, H, ds.Params(h_order, m + 1, 1))
    rep.con("D ∩ H is a planar difference set of order m",
            res.verified, res.report.as_dict())
    rep.con("D ∩ H is normalized in H",
            ds.is_normalized(res.group, res.elements))
    return rep


def check_ho(D: DifferenceSet, m: int, s: int) -> TheoremReport:
    """Ho's criterion: a cyclic planar set of order m^s contains a planar
    subset of order m iff 3 does not divide s."""
    rep = TheoremReport("ho", {"m": m, "s": s, "params": D.params.as_tuple()})
    rep.hyp("group cyclic", D.group.is_cyclic)
    rep.hyp("planar (lambda = 1)", D.params.lam == 1)
    rep.hyp("order is m^s", D.params.n == m**s, D.params.n)
    rep.hyp("difference set normalized", ds.is_normalized(D.group, D.elements))
    if not rep.hypotheses_ok:
        return rep
    h_order = m * m + m + 1
    if D.params.v % h_order != 0:
        rep.status_override = "subgroup-absent"
        rep.notes.append(f"no subgroup of order {h_order} in Z_{D.params.v}; "
                         "the theorem's premise names a subgroup that does not exist")
        return rep
    H, _ = _unique_subgroup(D.group, h_order)
    contained = restrict(D, H, ds.Params(h_order, m + 1, 1)).verified
    expected = s % 3 != 0
    rep.con("containment outcome matches the 3 ∤ s criterion",
            contained == expected,
            {"contained": contained, "expected": expected})
    return rep


# -- conjecture evidence -------------------------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    q: int
    s: int
    v: int
    subgroup_order: int
    status: str                # "(not-)embedded", "subgroup-absent" or an error
    detail: dict = field(default_factory=dict)

    def as_dict(self):
        return {"q": self.q, "s": self.s, "v": self.v,
                "subgroup_order": self.subgroup_order,
                "status": self.status, "detail": dict(self.detail)}


def conjecture_scan(q: int, s_list, ceiling: int | None = None) -> list[ScanRow]:
    """For each s, does the PG(3, q^s) Singer set restrict to a minimal
    difference set on the subgroup M of order (q+1)(q^2+1)?

    One row per s, read by singer_restriction.  M exists when
    (q+1)(q^2+1) divides v = (q^s+1)(q^(2s)+1), as for odd s; otherwise
    (q = 2, s = 2: v = 85) the row is "subgroup-absent" and nothing is
    built.  `ceiling` bounds the field order; a field over it gives an
    error row.
    """
    pe = is_prime_power(q)
    rows = []
    for s in s_list:
        T = Tower(q, s)                 # q checked
        try:    # a far tower's field, or else its v, is refused before v is formed
            R = singer_restriction(q, s, ceiling) if T.has_m else None
            v = T.v
        except (FieldSizeError, MemoryError) as e:
            rows.append(ScanRow(q, s, 0, T.m_order, f"error: {e}"))
            continue
        if R is None:
            rows.append(ScanRow(q, s, v, T.m_order, "subgroup-absent"))
            continue
        detail = {"restriction": R.report.as_dict(),
                  "q_is_p^(2^i)": (pe[1] & (pe[1] - 1)) == 0} if R.verified else {}
        rows.append(ScanRow(q, s, v, T.m_order,
                            "embedded" if R.verified else "not-embedded", detail))
    return rows
