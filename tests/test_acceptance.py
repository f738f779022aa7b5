"""Acceptance gate: twelve end-to-end criteria, exact integer assertions.

Each test prints a single "Axx PASS/FAIL" line.  Construction-heavy objects
are shared through module-scoped fixtures so the stated runtime limits
apply to the operations they name, measured once.
"""
import itertools
import json
import os
import time
from pathlib import Path

import pytest

from diffsets.analysis import check_hk, check_main, hall_check, mann_test
from diffsets.cli import run as cli_run
from diffsets.dset import (apply_power_map, classical_params,
                           distribution_bound_check, intersection_profile,
                           normalize, read_set_file, restrict)
from diffsets.groups import subgroup_of_order
from diffsets.numth import divisors
from diffsets.search import SearchSpec, brute_force_search, orbit_union_search
from diffsets.singer import singer_construct, singer_restriction


def gate(name, ok, detail="", capsys=None):
    if capsys is not None:
        with capsys.disabled():
            print(f"\n{name} {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    else:
        print(f"\n{name} {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def d15():
    return timed(singer_construct, 2, 4)


@pytest.fixture(scope="module")
def d40():
    return timed(singer_construct, 3, 4)


@pytest.fixture(scope="module")
def d85():
    return timed(singer_construct, 4, 4)


@pytest.fixture(scope="module")
def d585():
    return singer_construct(2**3, 4)


@pytest.fixture(scope="module")
def d33825():
    return singer_construct(2**5, 4)


@pytest.fixture(scope="module")
def big_q2_s7():
    return timed(singer_construct, 2**7, 4)


def test_a1_q2_construction(d15, capsys):
    D, elapsed = d15
    checks = {"params": D.params.as_tuple() == (15, 7, 3),
              "verified": D.verified,
              "runtime<1s": elapsed < 1.0}
    H = subgroup_of_order(D.group, 3)[0]
    checks["H subset of D"] = {0, 5, 10} <= set(D.elements)
    checks["other H-cosets hit once"] = \
        intersection_profile(D, H).multiset() == [1, 1, 1, 1, 3]
    K = subgroup_of_order(D.group, 5)[0]
    checks["D cap K = {0}"] = set(D.elements) & set(K.elements) == {0}
    checks["K-profile {1,3,3}"] = \
        intersection_profile(D, K).multiset() == [1, 3, 3]
    gate("A1", all(checks.values()), checks, capsys=capsys)


def test_a2_q3_construction(d40, capsys):
    from diffsets.analysis import check_thm_classical_profile
    D, elapsed = d40
    checks = {"params": D.params.as_tuple() == (40, 13, 4),
              "verified": D.verified,
              "runtime<1s": elapsed < 1.0}
    # one coset of the order-4 subgroup H lies entirely inside D
    H = subgroup_of_order(D.group, 4)[0]
    checks["Hz subset of D, others hit once"] = \
        intersection_profile(D, H).multiset() == [1] * 9 + [4]
    checks["classical profile theorem"] = \
        check_thm_classical_profile(D, 3, 1).status == "verified"
    K = subgroup_of_order(D.group, 10)[0]
    checks["K-profile {1,4,4,4}"] = \
        intersection_profile(D, K).multiset() == [1, 4, 4, 4]
    mrep = mann_test(D, K)
    w = mrep.instance.get("witness", {})
    checks["mann (3,1,1)"] = mrep.status == "verified" and \
        (w.get("p"), w.get("f"), w.get("j")) == (3, 1, 1)
    checks["intersections = 1 mod 3"] = \
        {s % 3 for s in intersection_profile(D, K).multiset()} == {1}
    gate("A2", all(checks.values()), checks, capsys=capsys)


def test_a3_q4_construction(d85, capsys):
    D, elapsed = d85
    checks = {"params": D.params.as_tuple() == (85, 21, 5),
              "verified": D.verified,
              "runtime<5s": elapsed < 5.0,
              "even-q subfield pattern": check_hk(D, 4, 1).status == "verified"}
    U = subgroup_of_order(D.group, 17)[0]
    mrep = mann_test(D, U)
    w = mrep.instance.get("witness", {})
    checks["mann (2,2,2)"] = mrep.status == "verified" and \
        (w.get("p"), w.get("f"), w.get("j")) == (2, 2, 2)
    gate("A3", all(checks.values()), checks, capsys=capsys)


def test_a4_minimal_embedding_s3(capsys):
    t0 = time.perf_counter()
    code = cli_run(["check", "thm6.1", "--q", "2", "--s", "3",
                    "--json", "--no-timestamps"])
    elapsed = time.perf_counter() - t0
    rep = json.loads(capsys.readouterr().out)
    checks = {"exit 0": code == 0,
              "status verified": rep["status"] == "verified",
              "params": rep["instance"]["params"] == [585, 73, 9],
              "runtime<5s": elapsed < 5.0}
    gate("A4", all(checks.values()), checks, capsys=capsys)


def test_a5_minimal_embedding_s5_and_exclusion(capsys, d33825):
    t0 = time.perf_counter()
    code = cli_run(["check", "thm6.1", "--q", "2", "--s", "5",
                    "--ceiling", str(1 << 28),   # force full verification
                    "--json", "--no-timestamps"])
    elapsed = time.perf_counter() - t0
    rep = json.loads(capsys.readouterr().out)
    checks = {"thm6.1 exit 0": code == 0,
              "status verified": rep["status"] == "verified",
              "params": rep["instance"]["params"] == [33825, 1057, 33],
              "full verification <30s": elapsed < 30.0}
    code2 = cli_run(["check", "thm4.3", "--q", "2", "--s", "5",
                     "--json", "--no-timestamps"])
    rep2 = json.loads(capsys.readouterr().out)
    failed = [h["name"] for h in rep2["hypotheses"] if not h["ok"]]
    checks["thm4.3 exits 2"] = code2 == 2
    checks["failed hypothesis is s | q^2+1"] = \
        failed == ["s does not divide q^2 + 1"]
    gate("A5", all(checks.values()), checks, capsys=capsys)


def test_a6_gf2_28(big_q2_s7, capsys):
    D, elapsed = big_q2_s7
    checks = {"v": D.params.v == 2_113_665,
              "k": D.params.k == 16_513,
              "field GF(2^28)": D.field_descriptor.startswith("2 28 "),
              "construction <60s": elapsed < 60.0,
              "exact verification by default":
                  D.verified and D.report.mode == "full"}
    rep = check_main(2, 7)
    checks["thm4.3 verified (D cap M is (15,7,3))"] = rep.status == "verified"
    M = subgroup_of_order(D.group, 15)[0]
    checks["D cap M read from 15 traces = restriction of D"] = \
        singer_restriction(2, 7).elements == \
        restrict(D, M, classical_params(2, 4)).elements
    gate("A6", all(checks.values()), checks, capsys=capsys)


def test_a7_hyperplane_containment(capsys):
    code = cli_run(["check", "thm3.1", "--q", "2", "--a", "4", "--b", "3",
                    "--json", "--no-timestamps"])
    rep = json.loads(capsys.readouterr().out)
    checks = {"coprime case exit 0": code == 0,
              "contained": rep["instance"]["contained"] is True}
    code2 = cli_run(["check", "thm3.1", "--q", "2", "--a", "2", "--b", "2",
                     "--json", "--no-timestamps"])
    rep2 = json.loads(capsys.readouterr().out)
    checks["non-coprime reports status"] = code2 == 2 and \
        "contained" in rep2["instance"] and "witness" in rep2["instance"]
    checks["witness present if not contained"] = \
        rep2["instance"]["contained"] or rep2["instance"]["witness"] is not None
    gate("A7", all(checks.values()), checks, capsys=capsys)


def test_a8_tower_restrictions(capsys):
    t0 = time.perf_counter()
    code = cli_run(["check", "cor3.2", "--q", "2", "--s", "3",
                    "--json", "--no-timestamps"])
    rep = json.loads(capsys.readouterr().out)
    code2 = cli_run(["check", "cor3.2", "--q", "3", "--s", "3",
                     "--json", "--no-timestamps"])
    rep2 = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - t0
    c1 = rep["conclusions"][0]["witness"]
    c2 = rep2["conclusions"][0]["witness"]
    checks = {"q2 exit 0": code == 0 and rep["status"] == "verified",
              "q2 restricts to (15,7,3)":
                  (c1["v"], c1["k"], c1["lambda_observed"]) == (15, 7, 3),
              "q3 exit 0": code2 == 0 and rep2["status"] == "verified",
              "q3 restricts to (40,13,4)":
                  (c2["v"], c2["k"], c2["lambda_observed"]) == (40, 13, 4),
              "q3 built in GF(3^12)":
                  rep2["instance"]["field_descriptor"].startswith("3 12 "),
              "runtime<120s": elapsed < 120.0}
    gate("A8", all(checks.values()), checks, capsys=capsys)


def test_a9_planar_subsets(capsys):
    code = cli_run(["check", "jv", "--m", "2", "--json", "--no-timestamps"])
    rep = json.loads(capsys.readouterr().out)
    code2 = cli_run(["check", "jv", "--m", "3", "--json", "--no-timestamps"])
    rep2 = json.loads(capsys.readouterr().out)
    checks = {"m=2 exit 0": code == 0 and rep["status"] == "verified",
              "m=2 params": rep["instance"]["params"] == [21, 5, 1],
              "m=3 exit 0": code2 == 0 and rep2["status"] == "verified",
              "m=3 params": rep2["instance"]["params"] == [91, 10, 1]}
    gate("A9", all(checks.values()), checks, capsys=capsys)


def test_a10_search_oracle_equivalence(capsys, tmp_path):
    from diffsets.dset import verify
    from diffsets.groups import AbelianGroup
    checks = {}
    for v, k, lam in ((7, 3, 1), (15, 7, 3)):
        G = AbelianGroup([v])
        brute = brute_force_search(G, k, lam)
        orbit = orbit_union_search(SearchSpec(G, k, lam, multiplier=2))
        fixed = [s for s in brute.sets if apply_power_map(G, s, 2) == s]
        checks[f"({v},{k},{lam}) oracle agreement"] = fixed == orbit.sets
        checks[f"({v},{k},{lam}) all re-verify"] = \
            all(verify(G, s).ok for s in brute.sets)
    outs = []
    for run in ("1", "2"):
        d = str(tmp_path / f"run{run}")
        cli_run(["search", "--group", "Z_15", "--k", "7", "--lambda", "3",
                 "--m", "2", "--out-dir", d, "--json", "--no-timestamps"])
        capsys.readouterr()
        outs.append({name: Path(d, name).read_bytes()
                     for name in sorted(os.listdir(d))})
    checks["two runs byte-identical"] = outs[0] == outs[1]
    gate("A10", all(checks.values()), checks, capsys=capsys)


def test_a11_property_suite(d15, d40, d85, d585, d33825, big_q2_s7, capsys):
    sets = [d15[0], d40[0], d85[0], d585, d33825, big_q2_s7[0],
            singer_construct(4, 3), singer_construct(9, 3)]
    failures = []
    for D in sets:
        tag = str(D.params.as_tuple())
        if normalize(D).elements != normalize(normalize(D)).elements:
            failures.append(f"{tag}: normalize not idempotent")
        if hall_check(D).status != "verified":
            failures.append(f"{tag}: hall_check failed")
        for m in divisors(D.group.order):
            H = subgroup_of_order(D.group, m)[0]
            prof = intersection_profile(D, H)
            if not (prof.sum_ok() and prof.sum_sq_ok()):
                failures.append(f"{tag}: profile sums fail for |H|={m}")
            if not distribution_bound_check(prof).ok:
                failures.append(f"{tag}: distribution bound fails for |H|={m}")
    gate("A11", not failures,
         failures or f"{len(sets)} sets, all subgroups checked", capsys=capsys)


def test_a12_evidence_scan(capsys):
    code = cli_run(["scan", "--q", "2", "--s", "1,3,5,7",
                    "--json", "--no-timestamps"])
    rep = json.loads(capsys.readouterr().out)
    statuses = [(r["s"], r["status"]) for r in rep["rows"]]
    checks = {"exit 0": code == 0,
              "all embedded": statuses == [(1, "embedded"), (3, "embedded"),
                                           (5, "embedded"), (7, "embedded")]}
    gate("A12", all(checks.values()), checks, capsys=capsys)
