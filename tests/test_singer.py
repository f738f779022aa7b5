import json
from math import isqrt

import numpy as np
import pytest

from diffsets.analysis import check_tower_restriction
from diffsets.cli import run
from diffsets.dset import classical_params, normalizing_shift, restrict, verify
from diffsets.field import _basis_traces, make_field
from diffsets.groups import AbelianGroup, cyclic_subgroup_of_order
from diffsets.numth import is_prime_power
from diffsets import dset, field, numth, singer
from diffsets.singer import (_enumeration_bytes, _trace_zero_exponents,
                             hyperplane_containment, singer_construct,
                             singer_restriction, tower_shift)


def brute_singer(q, d):
    """Trace-zero exponent set computed with naive field arithmetic."""
    from diffsets.numth import is_prime_power
    p, e = is_prime_power(q)
    F = make_field(p, e * d)
    v = (q**d - 1) // (q - 1)
    out = []
    x = 1
    for i in range(v):
        if F.rel_trace(e, x) == 0:
            out.append(i)
        x = F.mul(x, F.gen)
    return sorted(out)


def test_q2_d4_frozen():
    D = singer_construct(2, 4)
    assert D.params.as_tuple() == (15, 7, 3)
    assert D.elements == (0, 5, 7, 10, 11, 13, 14)
    assert D.verified and D.report.mode == "full"
    assert D.field_descriptor.startswith("2 4 ")


def test_q3_d4_frozen():
    D = singer_construct(3, 4)
    assert D.params.as_tuple() == (40, 13, 4)
    assert D.elements == (0, 2, 5, 6, 11, 14, 15, 17, 18, 19, 25, 33, 35)


def test_q4_d3_frozen():
    D = singer_construct(4, 3)
    assert D.params.as_tuple() == (21, 5, 1)
    assert D.elements == (7, 9, 14, 15, 18)


def assert_matches_oracle(D, raw):
    # normalize the raw trace-zero indices before comparing
    shift = normalizing_shift(D.group, raw)
    assert sorted((e + shift) % D.group.order for e in raw) == list(D.elements)
    assert verify(D.group, D.elements).ok


@pytest.mark.parametrize("q,d", [(2, 4), (3, 4), (4, 4), (5, 3), (8, 3), (9, 3),
                                 (131, 3), (257, 3)])
def test_matches_naive_trace_oracle(q, d):
    # at p = 131 three chunk sums reach 390 and at p = 257 one table entry
    # reaches 256: neither fits a byte
    assert_matches_oracle(singer_construct(q, d), brute_singer(q, d))


@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("q,d", [(2**3, 4), (9, 3), (2**5, 3), (27, 3)])
def test_lookup_block_and_chunk_boundaries(monkeypatch, rows, q, d):
    # n = 12 falls into whole chunks of 4 binary digits and n = 6 of 2
    # ternary ones; n = 15 into 4 + 4 + 4 + 3 and n = 9 into 2 + 2 + 2 +
    # 2 + 1, a partial last chunk; with 5 blocks a group the last group is
    # partial
    monkeypatch.setattr(singer, "_BLOCK_ROWS", rows)
    assert_matches_oracle(singer_construct(q, d), brute_singer(q, d))


@pytest.mark.parametrize("q,s", [(2, 3), (2, 5)])
def test_subfield_trace_matches_naive_oracle(q, s):
    # GF(q^(4s)) traced onto GF(q^s): subfield degree s > 1
    assert_matches_oracle(singer_construct(q**s, 4), brute_singer(q**s, 4))


def test_enumeration_memory_below_dense_matrix(traced_peak):
    # q = 3, d = 11: a v x n int16 matrix alone would take v * 11 * 2 bytes
    F = make_field(3, 11)
    v = classical_params(3, 11).v
    indices, peak = traced_peak(_trace_zero_exponents, F, 1, v)
    assert len(indices) == classical_params(3, 11).k
    assert peak < v * 11 * 2


def serial_power_rows(modulus, p, count):
    """x^r mod the modulus for r < count, one shift-and-reduce a row."""
    n = len(modulus) - 1
    mod = np.array(modulus[:n], dtype=np.int64)
    C = np.zeros((count, n), dtype=np.int64)
    C[:n] = np.eye(n, dtype=np.int64)
    for r in range(n, count):
        C[r, 1:] = C[r - 1, :-1]
        C[r] = (C[r] - C[r - 1, -1] * mod) % p
    return C


def serial_windows(step, first, p, count):
    """W[b] = step @ W[b-1] mod p, one block at a time."""
    W = np.empty((count, len(first)), dtype=np.int64)
    W[0] = first
    for b in range(1, count):
        W[b] = step @ W[b - 1] % p
    return W


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2),
                                 (5, 3), (7, 2), (2, 8), (3, 5), (2, 12),
                                 (131, 1), (257, 2)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_doubled_rows_and_windows_match_serial_loops(p, n, m):
    # the enumeration's own sizes: L = isqrt(m*v) + 1 rows past n and
    # ceil(m*v / L) windows, v = (p^n - 1)/(p - 1) or 2 for n = 1
    F = make_field(p, n)
    v = max(2, (p**n - 1) // (p - 1))
    L = isqrt(m * v) + 1
    blocks = -(-m * v // L)
    C = field._power_rows(F.modulus, p, L + n)
    assert np.array_equal(C, serial_power_rows(F.modulus, p, L + n))
    first = _basis_traces(F.modulus, p)
    for count in sorted({1, 2, 3, blocks, blocks + 5}):
        assert np.array_equal(field._windows(C[L:], first, p, count),
                              serial_windows(C[L:], first, p, count))


@pytest.mark.parametrize("p,e,d", [(2, 5, 4), (3, 1, 11), (131, 1, 3), (2, 7, 4)])
def test_enumeration_estimate_bounds_traced_peak(p, e, d, traced_peak):
    params = classical_params(p**e, d)
    F = make_field(p, e * d)
    indices, peak = traced_peak(_trace_zero_exponents, F, e, params.v)
    assert len(indices) == params.k
    assert peak <= _enumeration_bytes(p, e * d, e, params.v, params.k)
    if (p, e, d) == (2, 7, 4):
        # GF(2^28) onto GF(2^7): a length-v mask, not m*v = 14.8M flags,
        # and seven tables of 16 rows
        assert peak <= 4 << 20


def test_gf2_tower_at_s5_verifies():
    D = singer_construct(2**5, 4)           # GF(2^20), v = 33825
    assert D.params.as_tuple() == (33825, 1057, 33)
    assert D.verified


#: PG(d-1, 2) for d <= 13, PG(d-1, 3) for d <= 11 and the towers PG(3, q^s)
#: for q = 2, s in {1, 3, 5} and q = 3, s in {1, 3}: pair, NTT and orbit
#: plans.
PLANNED = sorted({(2, d) for d in range(3, 14)} | {(3, d) for d in range(3, 12)}
                 | {(2**s, 4) for s in (1, 3, 5)} | {(3**s, 4) for s in (1, 3)})


def test_construction_prices_the_plan_verify_runs(monkeypatch):
    # singer_construct guards the plan dset._plan prices for k ranks of
    # Z_v fixed by p; verify then plans the count of the set it built,
    # which must be that plan: the same strategy, t and bytes
    plans = []
    plan = dset._plan

    def spy(*args):
        plans.append(plan(*args))
        return plans[-1]

    monkeypatch.setattr(dset, "_plan", spy)
    strategies = set()
    for q, d in PLANNED:
        plans.clear()
        D = singer_construct(q, d)
        assert D.verified
        priced, counted = plans
        assert priced == counted, (q, d)
        strategies.add(priced.strategy)
    assert strategies == {"pair", "ntt", "orbit"}


@pytest.mark.parametrize("q, d", [qd for qd in PLANNED if qd != (3, 11)])
def test_coset_counts_match_pair_counts_on_planned_sets(q, d):
    # the coset count by p, at the modulus the price list picks and at
    # the least prime divisor of v, equals the pair count at every element
    # of its cosets; PG(10, 3) (k^2 = 8.7e8 pairs) is checked against the
    # NTT in test_dset.  A prime v has no coset plan
    D = singer_construct(q, d)
    G, v, (_, k, lam) = D.group, D.group.order, D.params.as_tuple()
    p = is_prime_power(q)[0]
    if numth.is_prime(v):
        assert all(plan.strategy != "orbit" for _, plan in dset._prices(G, k, k - lam))
        return
    priced = min(dset._coset_price(v, k, p, a) for a in numth.divisors(v)[1:-1])
    ranks = np.asarray(D.elements, dtype=np.int64)
    x = np.arange(v)
    pairs = dset._pair_counts(G, ranks)[np.minimum(x, v - x)]
    for a in {priced[1].a, numth.prime_divisors(v)[0]}:
        reps = dset._orbit_representatives(a, p)
        counts = dset._coset_counts(G, ranks, p, a)
        assert np.array_equal(counts, pairs[(reps[:, None] + a * np.arange(v // a)).ravel()])
        assert counts[0] == k and (counts[1:] == lam).all()


def test_order_refused_before_q_is_factored(monkeypatch, capsys):
    # q = 2^127 - 1 is prime, and confirming that factors it by trial
    # division to sqrt(q); v = q^2 + q + 1 is refused by its order first
    def no_factoring(*args, **kw):
        raise AssertionError("q factored")

    monkeypatch.setattr(numth, "_trial", no_factoring)
    q = 2**127 - 1
    message = ("difference counting needs v < 2^31 for int32 differences; "
               f"v = {q * q + q + 1}")
    with pytest.raises(MemoryError) as err:
        singer_construct(q, 3)
    assert str(err.value) == message
    assert run(["construct", "--q", str(q), "--d", "3"]) == 1
    assert capsys.readouterr() == ("", f"resource limit: {message}\n")


def test_s9_tower_passes_the_guard(monkeypatch):
    # the q=2 s=9 tower, v = 134480385 past 2^26, is priced at about 254
    # MiB (its orbit plan, the enumeration and the index lists), under
    # the byte limit: the field is the next thing built
    class FieldBuilt(Exception):
        pass

    def make_field(*args, **kw):
        raise FieldBuilt

    monkeypatch.setattr(singer, "make_field", make_field)
    with pytest.raises(FieldBuilt):
        singer_construct(2**9, 4, ceiling=2**36)


def test_rejects_non_prime_power():
    with pytest.raises(ValueError):
        singer_construct(6, 4)


def test_hyperplane_containment_coprime_degrees():
    rep = hyperplane_containment(2, 4, 3)
    assert rep.gcd_ab == 1 and rep.contained and rep.witness is None


def test_hyperplane_containment_non_coprime():
    rep = hyperplane_containment(2, 2, 2)
    assert rep.gcd_ab == 2
    if not rep.contained:
        # witness is an element of the small hyperplane outside the big one
        F = make_field(2, 4)
        assert F.rel_trace(2, rep.witness) == 0       # in E's hyperplane
        assert F.rel_trace(1, rep.witness) != 0       # not in D's


def naive_containment(q, a, b):
    """(contained, witness) by scanning N* in generator order, with the
    traces written out as explicit sums of conjugates."""
    from diffsets.numth import is_prime_power
    p, e = is_prime_power(q)
    F = make_field(p, e * a * b)

    def conj_sum(x, step, count):
        acc = 0
        for i in range(count):
            acc = F.add(acc, F.pow(x, step**i))
        return acc

    stride = F.mult_order // (q**b - 1)
    for i in range(q**b - 1):
        x = F.pow(F.gen, stride * i)
        big = conj_sum(x, q**a, b)                  # Tr_{F/M}
        assert big == F.rel_trace(e * a, x)
        if conj_sum(x, q, b) == 0 and big != 0:     # Tr_{N/K}
            return False, x
    return True, None


@pytest.mark.parametrize("q,a,b,contained,witness", [
    (2, 3, 3, False, 238), (3, 2, 2, False, 47),
    (2, 4, 3, True, None), (2, 2, 2, True, None)])
def test_hyperplane_containment_pins(q, a, b, contained, witness):
    rep = hyperplane_containment(q, a, b)
    assert (rep.contained, rep.witness) == (contained, witness)
    assert naive_containment(q, a, b) == (contained, witness)


def test_restriction_check_q2_s3():
    # cor3.2 on the PG(3, 2^3) set: R has order (2^4-1)/(2-1) = 15
    D = singer_construct(2**3, 4)
    assert D.params.as_tuple() == (585, 73, 9)
    expected = classical_params(2, 4)
    assert expected.as_tuple() == (15, 7, 3)
    rep = check_tower_restriction(2, 3)
    assert rep.status == "verified"
    w = rep.conclusions[0].witness
    assert w["verified"] and (w["v"], w["k"], w["lambda_observed"]) == (15, 7, 3)
    R = cyclic_subgroup_of_order(D.group, 15)
    res = restrict(D, R, expected)
    assert res.verified and res.report.as_dict() == w
    assert res.elements == (0, 1, 2, 4, 5, 8, 10)


@pytest.mark.parametrize("q,s", [(2, 1), (2, 3), (2, 5), (2, 7), (3, 1), (3, 3),
                                 (4, 1), (4, 3), (5, 1), (5, 3), (7, 1), (8, 1),
                                 (9, 1)])
def test_singer_restriction_matches_full_construction(q, s):
    # E + t from |M| traces is the restriction of the normalized Singer set
    # built and verified in all of Z_v, in the same M coordinates
    R = singer_restriction(q, s)
    D = singer_construct(q**s, 4)
    M = cyclic_subgroup_of_order(D.group, (q + 1) * (q * q + 1))
    small = classical_params(q, 4)
    assert R.elements == restrict(D, M, small).elements
    assert R.group == AbelianGroup([M.order])
    assert R.params == small and R.verified
    assert R.field_descriptor == D.field_descriptor


@pytest.mark.parametrize("q,s", [(2, 1), (2, 3), (2, 5), (3, 1), (3, 2), (3, 3),
                                 (4, 1), (4, 3), (5, 1), (5, 2), (5, 3), (7, 1),
                                 (8, 1), (9, 1), (11, 1), (13, 1)])
def test_tower_shift_is_the_normalizing_shift(q, s):
    # the closed form 0 (p = 2) or v/2 (odd p), read off the parity of v,
    # against the shift that dset computes from the raw trace-zero list,
    # even s included
    p, e = is_prime_power(q)
    v = classical_params(q**s, 4).v
    raw = _trace_zero_exponents(make_field(p, 4 * e * s), e * s, v)
    t = tower_shift(v)
    assert t == normalizing_shift(AbelianGroup([v]), raw)
    assert t == (0 if p == 2 else v // 2)


def test_singer_restriction_needs_the_subgroup():
    # q = 2, s = 2: v = 85 has no subgroup of order 15
    with pytest.raises(ValueError, match="no subgroup of order 15"):
        singer_restriction(2, 2)


def test_restriction_check_requires_odd_s(capsys):
    code = run(["check", "cor3.2", "--q", "2", "--s", "2", "--json",
                "--no-timestamps"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 2 and rep["status"] == "hypothesis-not-met"
    assert rep["hypotheses"] == [{"name": "s odd", "ok": False, "witness": 2}]
    assert rep["conclusions"] == [] and "params" not in rep["instance"]
