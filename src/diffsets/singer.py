"""Singer difference sets from trace-zero hyperplanes.

The quotient F*/K* is identified with Z_v (v = (q^d-1)/(q-1)) through
discrete-log indices: the coset of g^i maps to i mod v.  Trace-zero
membership is K*-invariant because the relative trace is K-linear, so
the construction streams x <- x*g with one multiplication per step and
never materializes a log table.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd as _gcd

import numpy as np

from . import dset
from .dset import DifferenceSet, Params, classical_params, normalize, restrict
from .field import SIZE_CEILING, FieldSizeError, FiniteField, make_field
from .groups import AbelianGroup, cyclic_subgroup_of_order
from .numth import is_prime_power


def _trace_zero_exponents(F: FiniteField, sub_degree: int, v: int) -> list[int]:
    """Indices i in [0, v) with Tr(g^i) = 0 onto the degree-sub_degree subfield."""
    if F.p == 2:
        return _trace_zero_exponents_gf2(F, sub_degree, v)
    return _trace_zero_exponents_generic(F, sub_degree, v)


def _trace_zero_exponents_gf2(F: FiniteField, sub_degree: int, v: int) -> list[int]:
    n = F.n
    modmask = F._modmask
    cols = F.trace_map(sub_degree).cols
    tabs = []
    for c in range((n + 7) // 8):
        tab = [0] * 256
        for byte in range(1, 256):
            acc = 0
            b, bit = byte, 0
            while b:
                if b & 1:
                    j = c * 8 + bit
                    if j < n:
                        acc ^= cols[j]
                b >>= 1
                bit += 1
            tab[byte] = acc
        tabs.append(tab)
    while len(tabs) < 4:
        tabs.append([0] * 256)
    t0, t1, t2, t3 = tabs[:4]
    if n > 32:
        raise FieldSizeError("GF(2) streamed path supports degrees up to 32")
    out = []
    push = out.append
    x = 1
    for i in range(v):
        if not (t0[x & 255] ^ t1[(x >> 8) & 255] ^ t2[(x >> 16) & 255]
                ^ t3[(x >> 24) & 255]):
            push(i)
        x <<= 1
        if (x >> n) & 1:
            x ^= modmask
    return out


def _trace_zero_exponents_generic(F: FiniteField, sub_degree: int, v: int) -> list[int]:
    n, p = F.n, F.p
    tmat = np.array(F.trace_map(sub_degree).matrix(), dtype=np.int64)
    mod = F.modulus
    rows = np.empty((v, n), dtype=np.int16)
    x = [1] + [0] * (n - 1)
    for i in range(v):
        rows[i] = x
        c = x[n - 1]
        x = [(-c * mod[0]) % p] + [(x[j - 1] - c * mod[j]) % p for j in range(1, n)]
    img = (rows.astype(np.int64) @ tmat.T) % p
    return np.nonzero(~img.any(axis=1))[0].tolist()


def _finish(G: AbelianGroup, indices, params: Params, meta: dict,
            full_verify: bool | None, workers: int = 1) -> DifferenceSet:
    """Verify (fully or sampled), wrap, and normalize a constructed set."""
    k = len(indices)
    if k != params.k:
        raise RuntimeError(f"construction produced {k} elements, expected {params.k}")
    if full_verify is None:
        full_verify = (k * k <= dset.AUTO_VERIFY_PAIR_LIMIT
                       and G.order <= dset.FULL_VERIFY_ORDER_LIMIT)
    if full_verify:
        rep = dset.verify(G, indices, workers=workers)
        if not rep.ok or rep.lambda_observed != params.lam:
            raise RuntimeError(f"constructed set failed verification: {rep.as_dict()}")
        verified = True
    else:
        sample = list(range(min(G.order, 64)))
        sample += list(range(64, G.order, max(1, G.order // 64)))[:64]
        rep = dset.verify_sampled(G, indices, sorted(set(sample)))
        if not rep.ok or rep.lambda_observed != params.lam:
            raise RuntimeError(f"constructed set failed sampled verification: "
                               f"{rep.as_dict()}")
        verified = False
    meta = dict(meta)
    meta["verification_mode"] = rep.mode
    D = DifferenceSet(G, tuple(sorted(indices)), params, verified, meta)
    return normalize(D)


def singer_construct(q: int, d: int, full_verify: bool | None = None,
                     ceiling: int = SIZE_CEILING, workers: int = 1) -> DifferenceSet:
    """The Singer difference set of PG(d-1, q) in Z_v, v = (q^d-1)/(q-1)."""
    pe = is_prime_power(q)
    if pe is None:
        raise ValueError(f"{q} is not a prime power")
    p, e = pe
    F = make_field(p, e * d, ceiling=ceiling)
    params = classical_params(q, d)
    G = AbelianGroup([params.v])
    indices = _trace_zero_exponents(F, e, params.v)
    meta = {"construction": "singer", "q": q, "d": d,
            "field_descriptor": F.descriptor()}
    return _finish(G, indices, params, meta, full_verify, workers)


def singer_construct_streamed(q: int, s: int, full_verify: bool | None = None,
                              ceiling: int = SIZE_CEILING,
                              workers: int = 1) -> DifferenceSet:
    """Same set as singer_construct(q^s, 4), built over GF(q^s) streamed."""
    pe = is_prime_power(q)
    if pe is None:
        raise ValueError(f"{q} is not a prime power")
    p, e = pe
    F = make_field(p, 4 * e * s, ceiling=ceiling)
    params = classical_params(q**s, 4)
    G = AbelianGroup([params.v])
    indices = _trace_zero_exponents(F, e * s, params.v)
    meta = {"construction": "singer-streamed", "q": q, "s": s,
            "field_descriptor": F.descriptor()}
    return _finish(G, indices, params, meta, full_verify, workers)


@dataclass(frozen=True)
class ContainmentReport:
    q: int
    a: int
    b: int
    gcd_ab: int
    contained: bool
    witness: int | None         # packed field element violating containment
    field_descriptor: str

    def as_dict(self):
        return {"q": self.q, "a": self.a, "b": self.b, "gcd": self.gcd_ab,
                "contained": self.contained, "witness": self.witness,
                "field_descriptor": self.field_descriptor}


def hyperplane_containment(q: int, a: int, b: int,
                           ceiling: int = SIZE_CEILING) -> ContainmentReport:
    """Is the K-trace-zero hyperplane of N inside the M-trace-zero hyperplane of F?

    F = GF(q^(ab)); M and N are the intermediate fields of degree a and b
    over K = GF(q).  E = ker Tr_{N/K} is enumerated through the subgroup
    N* of F* and each element is tested against ker Tr_{F/M}.
    """
    pe = is_prime_power(q)
    if pe is None:
        raise ValueError(f"{q} is not a prime power")
    p, e = pe
    F = make_field(p, e * a * b, ceiling=ceiling)
    big_trace = F.trace_map(e * a)           # Tr_{F/M}
    qq = q

    def trace_n_over_k(x: int) -> int:
        acc = 0
        t = x
        for i in range(b):
            acc = F.add(acc, t)
            if i + 1 < b:
                t = F.pow(t, qq)
        return acc

    # enumerate N* = the subgroup of F* of order q^b - 1
    stride = (F.mult_order) // (q**b - 1)
    gstride = F.pow(F.gen, stride)
    witness = None
    contained = True
    x = 1
    for _ in range(q**b - 1):
        if trace_n_over_k(x) == 0 and big_trace(x) != 0:
            contained = False
            witness = x
            break
        x = F.mul(x, gstride)
    # zero is in both hyperplanes, nothing to test there
    return ContainmentReport(q, a, b, _gcd(a, b), contained, witness,
                             F.descriptor())


def singer_restriction_check(q: int, s: int, ceiling: int = SIZE_CEILING,
                             workers: int = 1):
    """Restrict the streamed d=4 Singer set to the subgroup of order
    (q^4-1)/(q-1) and verify the small Singer parameters there.

    Returns (D, restriction, VerificationReport, expected Params).
    """
    if s % 2 == 0:
        raise ValueError("the restriction theorem requires odd s")
    D = singer_construct_streamed(q, s, ceiling=ceiling, workers=workers)
    r0 = (q**4 - 1) // (q - 1)
    if D.params.v % r0 != 0:
        raise ValueError(f"no subgroup of order {r0} in Z_{D.params.v}")
    R = cyclic_subgroup_of_order(D.group, r0)
    res = restrict(D, R)
    rep = dset.verify(res.group, res.elements)
    expected = classical_params(q, 4)
    return D, res, rep, expected
