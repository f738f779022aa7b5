import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffsets.field import (SIZE_CEILING, FieldSizeError, FiniteField,
                            _basis_traces, _is_primitive_root, make_field)
from diffsets.numth import is_prime


# -- brute-force polynomial oracle over GF(p) ------------------------------------

def poly_mul_mod(p, mod, a, b):
    """Multiply coefficient lists a, b modulo the monic polynomial mod."""
    n = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(len(prod) - 1, n - 1, -1):
        c = prod[d]
        if c:
            for i in range(n + 1):
                prod[d - n + i] = (prod[d - n + i] - c * mod[i]) % p
    return prod[:n] + [0] * (n - len(prod))


def brute_primitive(p, n, mod):
    """Is x a generator of GF(p^n)* for this irreducible modulus?"""
    one = [1] + [0] * (n - 1)
    x = [0, 1] + [0] * (n - 2) if n > 1 else [(-mod[0]) % p]
    seen = set()
    cur = one
    for _ in range(p**n - 1):
        cur = poly_mul_mod(p, mod, cur, x)
        key = tuple(cur)
        if key in seen:
            return False
        seen.add(key)
    return len(seen) == p**n - 1 and tuple(one) in seen


def is_irreducible_brute(p, mod):
    """No root and no monic factor of degree up to n//2 (n <= 4 only)."""
    n = len(mod) - 1
    for d in range(1, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            f = list(tail) + [1]
            # trial division: mod by f must leave a nonzero remainder
            rem = list(mod)
            for top in range(n, d - 1, -1):
                c = rem[top]
                if c:
                    for i in range(d + 1):
                        rem[top - d + i] = (rem[top - d + i] - c * f[i]) % p
            if not any(rem[:d]):
                return False
    return True


def test_primitive_root_matches_power_walk():
    # a generates Z_p^* iff its powers a, a^2, ... reach p - 1 residues
    for p in filter(is_prime, range(200)):
        for a in range(p):
            powers, x = set(), a
            while x and x not in powers:
                powers.add(x)
                x = x * a % p
            assert _is_primitive_root(a, p) == (len(powers) == p - 1), (a, p)


def test_modulus_is_lex_smallest_primitive_gf16():
    F = make_field(2, 4)
    assert F.modulus == (1, 0, 0, 1, 1)      # 1 + x^3 + x^4
    cands = []
    for tail in itertools.product(range(2), repeat=4):
        mod = tuple(tail) + (1,)
        if is_irreducible_brute(2, mod) and brute_primitive(2, 4, mod):
            cands.append(mod)
    assert min(cands) == F.modulus


def test_modulus_is_lex_smallest_primitive_gf27():
    F = make_field(3, 3)
    cands = []
    for tail in itertools.product(range(3), repeat=3):
        mod = tuple(tail) + (1,)
        if is_irreducible_brute(3, mod) and brute_primitive(3, 3, mod):
            cands.append(mod)
    assert min(cands) == F.modulus


def test_prime_field():
    F = make_field(7, 1)
    assert F.order == 7
    assert pow(F.gen, 3, 7) != 1 and pow(F.gen, 2, 7) != 1
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5


@pytest.fixture(scope="module")
def gf16():
    return make_field(2, 4)


def test_field_axioms_exhaustive_gf16(gf16):
    F = gf16
    els = list(range(16))
    for a in els:
        assert F.add(a, 0) == a
        assert F.add(a, F.neg(a)) == 0
        assert F.mul(a, 1) == a
        assert F.mul(a, 0) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_generator_order_gf16(gf16):
    F = gf16
    x = 1
    seen = set()
    for _ in range(15):
        x = F.mul(x, F.gen)
        seen.add(x)
    assert len(seen) == 15 and x == 1


def test_pow_against_repeated_mul():
    for p, n in [(2, 1), (3, 1), (7, 1), (2, 2), (2, 4), (2, 5), (3, 2),
                 (3, 3), (5, 2), (7, 2)]:
        F = make_field(p, n)
        for a in range(F.order):
            # the inverse by search, so that no pow enters the oracle
            inv = next((b for b in range(F.order) if F.mul(a, b) == 1), None)
            acc = inv_acc = 1
            for e in range(F.order + 2):
                assert F.pow(a, e) == acc
                acc = F.mul(acc, a)
                if inv is not None:
                    assert F.pow(a, -e) == inv_acc
                    inv_acc = F.mul(inv_acc, inv)


def test_trace_to_prime_field_gf16(gf16):
    F = gf16
    tr = F.trace_map(1)
    for a in range(16):
        # Tr(a) = a + a^2 + a^4 + a^8
        expect = 0
        for e in (1, 2, 4, 8):
            expect = F.add(expect, F.pow(a, e))
        assert tr(a) == expect
    zeros = sum(1 for a in range(16) if tr(a) == 0)
    assert zeros == 8                       # kernel is a GF(2)-hyperplane


def test_relative_trace_tower():
    F = make_field(2, 4)
    tr2 = F.trace_map(2)                    # Tr_{F/GF(4)}
    for a in range(16):
        expect = F.add(a, F.pow(a, 4))
        assert tr2(a) == expect
        assert F.rel_trace(2, a) == expect
        # image lies in the degree-2 subfield: fixed by x -> x^4
        assert F.pow(tr2(a), 4) == tr2(a)


def test_coeffs_roundtrip():
    F = make_field(5, 3)
    for a in range(0, 125, 7):
        assert F.from_coeffs(F.coeffs(a)) == a


def test_size_ceiling_enforced():
    with pytest.raises(FieldSizeError):
        make_field(2, 29)
    F = make_field(2, 29, ceiling=1 << 30)
    assert F.order == 1 << 29


def test_descriptor_roundtrip(gf16):
    parts = gf16.descriptor().split()
    assert parts[:2] == ["2", "4"]
    assert tuple(int(c) for c in parts[2:]) == gf16.modulus


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=342), st.integers(min_value=0, max_value=342))
def test_gf343_oracle_mul(a, b):
    F = make_field(7, 3)
    assert F.coeffs(F.mul(a, b)) == tuple(
        poly_mul_mod(7, list(F.modulus), list(F.coeffs(a)), list(F.coeffs(b))))


@pytest.mark.parametrize("p,n", [(2, 1), (2, 4), (2, 12), (2, 20), (2, 28),
                                 (3, 11), (3, 16), (5, 6),
                                 (3, 1), (7, 1), (13, 1)])
def test_basis_traces_match_trace_map(p, n):
    # block traces of the power table against the conjugate-sum columns
    F = make_field(p, n)
    trace = F.trace_map(1)                  # x^j is packed as p^j
    assert _basis_traces(F.modulus, p) == [trace(p**j) for j in range(n)]


@settings(max_examples=200)
@given(st.data())
def test_gf2n_mul_oracle(data):
    n = data.draw(st.integers(min_value=1, max_value=28))
    F = make_field(2, n)
    a = data.draw(st.integers(min_value=0, max_value=F.order - 1))
    b = data.draw(st.integers(min_value=0, max_value=F.order - 1))
    assert F.coeffs(F.mul(a, b)) == tuple(
        poly_mul_mod(2, list(F.modulus), list(F.coeffs(a)), list(F.coeffs(b))))


@pytest.mark.parametrize("p,n", [(2, 4), (7, 1)])
def test_every_operation_refuses_a_non_element(p, n):
    F = make_field(p, n)
    ops = [lambda a: F.add(a, 0), lambda a: F.add(0, a), F.neg,
           lambda a: F.mul(a, 1), lambda a: F.mul(1, a), lambda a: F.pow(a, 1),
           lambda a: F.pow(a, -1), F.inv, F.trace_map(1),
           lambda a: F.rel_trace(1, a)]
    for a in (-1, F.order):
        for op in ops:
            with pytest.raises(ValueError, match=f"{a} is not an element"):
                op(a)


def poly_pow_mod(p, mod, a, e):
    """a^e modulo the monic polynomial mod by square and multiply, over
    poly_mul_mod."""
    n = len(mod) - 1
    result = [1] + [0] * (n - 1)
    while e:
        if e & 1:
            result = poly_mul_mod(p, mod, result, a)
        a = poly_mul_mod(p, mod, a, a)
        e >>= 1
    return result


@pytest.mark.parametrize("p,modulus", [
    (2**61 - 1, (2**61 - 1 - 37, 1)),       # x - 37
    (3037000493, (2, 0, 1)),                # x^2 + 2, (p - 1)^2 < 2^63
], ids=["p61-n1", "p31.5-n2"])
def test_products_past_the_int64_bound_match_python_ints(p, modulus):
    # 2n(p - 1)^2 >= 2^63: the power table holds Python ints, and every
    # operand is cast to them before a product could wrap in int64
    n = len(modulus) - 1
    F = FiniteField(p, n, modulus)
    elements = [1, 2, p - 1, p - 2, p // 2 + 1, 123456789]
    if n == 2:
        elements += [p * c + d for c in (1, p - 1, p - 2) for d in (0, p - 1)]
    trace = F.trace_map(1)
    for a in elements:
        ca = list(F.coeffs(a))
        # Tr(a) = a + a^p + ... + a^(p^(n-1))
        conj = [poly_pow_mod(p, modulus, ca, p**i) for i in range(n)]
        assert trace(a) == F.from_coeffs([sum(c) % p for c in zip(*conj)])
        for e in (2, 3, p - 2, p**n - 2):
            assert F.coeffs(F.pow(a, e)) == tuple(poly_pow_mod(p, modulus, ca, e))
        for b in elements:
            assert F.coeffs(F.mul(a, b)) == tuple(
                poly_mul_mod(p, list(modulus), ca, list(F.coeffs(b))))
            if n == 1:
                assert F.mul(a, b) == a * b % p
        if n == 1:
            assert F.pow(a, p - 2) == pow(a, p - 2, p)
    # Tr(x^j) is the trace of multiplication by x^j, whose column i is x^(i+j)
    xs = [[int(i == j) for i in range(n)] for j in range(n)]
    assert _basis_traces(modulus, p) == [
        sum(poly_mul_mod(p, list(modulus), xs[i], xs[j])[i] for i in range(n)) % p
        for j in range(n)]


def test_gf2_124_modulus_is_pinned():
    # 1 + x^117 + x^118 + x^119 + x^124
    F = make_field(2, 124, ceiling=2**124)
    assert [i for i, c in enumerate(F.modulus) if c] == [0, 117, 118, 119, 124]
    assert set(F.modulus) == {0, 1}
