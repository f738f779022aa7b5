import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diffsets import dset, search, singer
from diffsets.cli import build_parser, check_instance_flags, run
from diffsets.dset import read_set_file
from diffsets.singer import singer_construct


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv, "--json", "--no-timestamps")
    return code, json.loads(out)


def test_construct_writes_verified_set(capsys, tmp_path):
    out = str(tmp_path / "d.dset")
    code, rep = invoke_json(capsys, "construct", "--q", "2", "--d", "4",
                            "--out", out)
    assert code == 0
    assert rep["params"] == [15, 7, 3] and rep["verified"]
    assert rep["elements"] == [0, 5, 7, 10, 11, 13, 14]
    D = read_set_file(out)
    assert list(D.elements) == rep["elements"]


def test_construct_tower_by_s(capsys, tmp_path):
    out = str(tmp_path / "d.dset")
    code, rep = invoke_json(capsys, "construct", "--q", "2", "--s", "3",
                            "--out", out)
    assert code == 0 and rep["params"] == [585, 73, 9]


def test_tower_verbs_under_profile_and_trace_hooks(hooked_runs, tmp_path):
    # the orbit count in Z_15 and on the q=2 s=5 tower, reached by
    # construct, verify --set and profile --set: a profile or trace hook
    # changes no exit code and no byte of the report
    small, tower = str(tmp_path / "d4.dset"), str(tmp_path / "s5.dset")
    for argv in (["construct", "--q", "2", "--d", "4", "--out", small],
                 ["construct", "--q", "2", "--s", "5", "--out", tower],
                 ["verify", "--set", tower],
                 ["profile", "--set", tower, "--subgroup-order", "33"]):
        plain, profiled, traced = hooked_runs(*argv, "--json", "--no-timestamps")
        assert plain[0] == 0 and json.loads(plain[1])["verified"]
        assert profiled == plain and traced == plain


def test_verify_roundtrip(capsys, tmp_path):
    out = str(tmp_path / "d.dset")
    invoke_json(capsys, "construct", "--q", "3", "--d", "4", "--out", out)
    code, rep = invoke_json(capsys, "verify", "--set", out)
    assert code == 0 and rep["lambda_observed"] == 4 and rep["mode"] == "full"


def test_verify_detects_tampering(capsys, tmp_path):
    out = str(tmp_path / "d.dset")
    invoke_json(capsys, "construct", "--q", "2", "--d", "4", "--out", out)
    path = Path(out)
    text = path.read_text().splitlines()
    text[-1] = "1"                          # swap 14 -> 1
    path.write_text("\n".join(text) + "\n")
    code, rep = invoke_json(capsys, "verify", "--set", out)
    assert code == 3 and not rep["verified"]


def test_verify_names_the_line_of_a_repeated_rank(capsys, tmp_path):
    # the second 2 (line 5) repeats line 4; refused before any verification
    path = tmp_path / "rep.dset"
    path.write_text("group Z_7\n7 3 1\n1\n2\n2\n")
    assert run(["verify", "--set", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}:5: element rank 2 repeats line 4\n"


def test_verify_rejects_a_wrong_declared_lambda(capsys, tmp_path):
    # a genuine (15,7,3) set declared as (15,7,5): verify, profile, mann and
    # the checks that need a verified set all read it as unverified
    out = str(tmp_path / "d.dset")
    invoke_json(capsys, "construct", "--q", "2", "--d", "4", "--out", out)
    path = Path(out)
    path.write_text(path.read_text().replace("\n15 7 3\n", "\n15 7 5\n"))
    code, rep = invoke_json(capsys, "verify", "--set", out)
    assert code == 3 and not rep["verified"]
    assert rep["lambda_observed"] == 3 and rep["params"] == [15, 7, 5]
    code, rep = invoke_json(capsys, "profile", "--set", out,
                            "--subgroup-order", "5")
    assert not rep["verified"]
    code, rep = invoke_json(capsys, "check", "hall", "--set", out)
    assert code == 2 and rep["status"] == "hypothesis-not-met"


def _replace_last_element(path, v):
    """Replace the last element of a set file by the least non-member."""
    lines = Path(path).read_text().splitlines()
    members = {int(x) for x in lines[2:]}
    lines[-1] = str(min(set(range(v)) - members))
    Path(path).write_text("\n".join(lines) + "\n")


def test_full_verify_rejects_one_element_corruption(capsys, tmp_path):
    # The q=2, s=5 Singer set is fixed by x -> 2x, so its exact check counts
    # per 2-orbit; one replaced element breaks that symmetry, so no
    # multiplier fixes the corrupted set, and the exact check rejects it
    # (from its images in small quotients Z_m, see the next test).
    out = str(tmp_path / "d.dset")
    code, rep = invoke_json(capsys, "construct", "--q", "2", "--s", "5",
                            "--out", out)
    assert code == 0 and rep["params"] == [33825, 1057, 33]

    def fixing_multiplier():
        D = read_set_file(out)
        return dset._plan(D.group, len(D.elements), D.params.n,
                          np.asarray(D.elements)).t

    assert fixing_multiplier() == 2
    _replace_last_element(out, 33825)
    assert fixing_multiplier() is None
    code, rep = invoke_json(capsys, "verify", "--set", out,
                            "--ceiling", "268435456")
    assert code == 3 and not rep["verified"] and rep["mode"] == "full"


def test_quotient_image_rejects_without_counting_pairs(capsys, tmp_path,
                                                       monkeypatch):
    out = str(tmp_path / "d.dset")
    code, _ = invoke_json(capsys, "construct", "--q", "2", "--s", "5",
                          "--out", out)
    assert code == 0
    _replace_last_element(out, 33825)

    def no_counting(*args):
        raise AssertionError("difference counting was planned")

    monkeypatch.setattr(dset, "_plan", no_counting)
    code, rep = invoke_json(capsys, "verify", "--set", out,
                            "--ceiling", "268435456")
    assert code == 3
    assert rep == {"command": "verify", "set_file": out, "group": "Z_33825",
                   "params": [33825, 1057, 33], "verified": False,
                   "v": 33825, "k": 1057, "lambda_observed": None,
                   "identity_count": 1057, "fundamental_ok": False,
                   "mode": "full"}


@pytest.mark.parametrize("verb", [["scan", "--q", "4", "--s", "3"],
                                  ["check", "cor3.2", "--q", "4", "--s", "3"]],
                         ids=["scan", "cor3.2"])
def test_ceiling_changes_no_verification(capsys, monkeypatch, verb):
    # PG(3, 4^3) has v = 266305; D ∩ M, M of order 85, is counted exactly
    # whether or not --ceiling is given, nothing of order v is counted,
    # and the ceiling changes no report
    exact, verify = [], dset.verify

    def counted(G, elements):
        rep = verify(G, elements)
        exact.append((G.order, rep.mode, rep.ok))
        return rep

    monkeypatch.setattr(dset, "verify", counted)
    reports = []
    for ceiling in ([], ["--ceiling", "268435456"]):
        exact.clear()
        code, rep = invoke_json(capsys, *verb, *ceiling)
        assert code == 0 and exact == [(85, "full", True)]
        reports.append(rep)
    assert reports[0] == reports[1]


def test_verify_rejects_corruption_off_the_sample_points(capsys, tmp_path):
    # The former spot check counted differences at the ranks below 64, the
    # multiples of v // 64, and the negatives of both.  Replace a in D by
    # b not in D so that no changed difference a - x, x - a, b - x, x - b
    # (x in D) is such a point: the coefficients of D D^(-1) there are
    # unchanged, so the spot check passed the set.  It is not a difference
    # set, and verify counts every difference.
    D = singer_construct(4**3, 4)
    v, ranks = D.params.v, np.asarray(D.elements)
    base = np.array(sorted(set(range(64)) | set(range(0, v, v // 64))))
    hit = np.zeros(v, dtype=bool)
    hit[base] = hit[-base % v] = True

    def off_samples(c, xs):
        return not (hit[(c - xs) % v].any() or hit[(xs - c) % v].any())

    a = next(a for a in D.elements if off_samples(a, ranks[ranks != a]))
    b = next(b for b in range(v)
             if b not in D.element_set and off_samples(b, ranks))
    bad = str(tmp_path / "bad.dset")
    els = sorted(set(D.elements) - {a} | {b})
    dset.write_set_file(bad, dset.make_difference_set(D.group, els, D.params))
    code, rep = invoke_json(capsys, "verify", "--set", bad)
    assert code == 3 and rep["verified"] is False and rep["mode"] == "full"


@pytest.mark.parametrize("ceiling", [[], ["--ceiling", "268435456"]],
                         ids=["default", "ceiling"])
def test_mann_on_q4_s3_verified(capsys, ceiling):
    code, rep = invoke_json(capsys, "mann", "--q", "4", "--s", "3",
                            "--subgroup-order", "65", *ceiling)
    assert code == 0 and rep["verified"] and rep["verification_mode"] == "full"


@pytest.mark.parametrize("q, d, limit", [(3, 17, "MiB limit"), (2, 26, "MiB limit"),
                                         (2, 27, "MiB limit"), (2, 28, "MiB limit")])
def test_construct_over_byte_limit_fails_before_building(capsys, monkeypatch,
                                                         q, d, limit):
    # v = 64570081 for (3, 17) and 2^26 - 1 for (2, 26): their exact NTT
    # check on 2^27-word buffers and their sets of 2.2e7 and 3.4e7 ranks
    # together are over the byte limit; v = 2^27 - 1 and 2^28 - 1 are past
    # the NTT's longest transform, and their sets of 6.7e7 and 1.3e8 ranks
    # alone are over it.  All are refused before the field is built,
    # though GF(2^27) and GF(2^28) are within the field ceiling
    def no_building(*args, **kw):
        raise AssertionError("field built or enumerated")

    monkeypatch.setattr(singer, "make_field", no_building)
    monkeypatch.setattr(singer, "_trace_zero_exponents", no_building)
    assert run(["construct", "--q", str(q), "--d", str(d)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("resource limit:") and err.count("\n") == 1
    assert limit in err


@pytest.mark.parametrize("q, d, err", [
    (2, 25, "construction of v = 33554431 needs about 3111 MiB, over the 2048 MiB limit"),
    (2, 32, "difference counting needs v < 2^31 for int32 differences; v = 4294967295"),
    (2, 127, "difference counting needs v < 2^31 for int32 differences; "
             "v = 170141183460469231731687303715884105727"),
    (10**6, 3, "difference counting needs v < 2^31 for int32 differences; "
               "v = 1000001000001")],
    ids=["bytes", "order", "order-prime-v", "order-not-prime-power"])
def test_construct_refusals_keep_their_text(capsys, q, d, err):
    # v = 2^127 - 1 is refused by its order before the plan is priced,
    # which would factor v; and v is tested before q is factored, so a q
    # that is not a prime power is refused by its order when v is too large
    assert run(["construct", "--q", str(q), "--d", str(d)]) == 1
    assert capsys.readouterr() == ("", f"resource limit: {err}\n")


@pytest.mark.parametrize("q, d, err", [
    (6, 2, "dimension must be at least 3"), (6, 4, "6 is not a prime power"),
    (1, 2, "1 is not a prime power")])
def test_construct_argument_errors_in_order(capsys, q, d, err):
    # q < 2 first, then the dimension, then (after the order test) the
    # factoring of q
    assert run(["construct", "--q", str(q), "--d", str(d)]) == 1
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_order_refusals_share_one_text(capsys, tmp_path):
    # a set file of Z_(2^31) is refused by the same order test, naming v,
    # as the construction of PG(31, 2)
    path = tmp_path / "big.dset"
    path.write_text("group Z_2147483648\n2147483648 3 0\n0\n1\n3\n")
    limit = "resource limit: difference counting needs v < 2^31 for int32 differences"
    assert run(["verify", "--set", str(path)]) == 1
    assert capsys.readouterr() == ("", f"{limit}; v = 2147483648\n")
    assert run(["construct", "--q", "2", "--d", "32"]) == 1
    assert capsys.readouterr() == ("", f"{limit}; v = 4294967295\n")


def test_set_file_past_2_to_the_26_is_judged(capsys, tmp_path):
    # three ranks of Z_(2^27) give no integral lambda: rejected (exit 3),
    # not refused by the group's order
    path = tmp_path / "big.dset"
    path.write_text("group Z_134217728\n134217728 3 0\n0\n1\n3\n")
    code, rep = invoke_json(capsys, "verify", "--set", str(path))
    assert code == 3 and rep["verified"] is False and rep["v"] == 134217728


def test_counts_over_the_byte_limit_exit_1(capsys, monkeypatch, tmp_path):
    # the q=2 s=5 tower's coset count needs about 0.8 MB and the
    # (15,7,3) D ∩ M of q=2 s=3 about 6.3 MB, both over a 256 KiB limit:
    # the scan's row is refused, which exits 1
    path = str(tmp_path / "d.dset")
    assert run(["construct", "--q", "2", "--s", "5", "--out", path]) == 0
    capsys.readouterr()
    monkeypatch.setattr(dset, "BYTE_LIMIT", 1 << 18)
    assert run(["verify", "--set", path]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("resource limit: ") and err.count("\n") == 1
    code, rep = invoke_json(capsys, "scan", "--q", "2", "--s", "3")
    assert code == 1 and rep["rows"][0]["status"].startswith("error: ")


def test_tower_errors_name_the_given_q_and_s(capsys):
    for argv, err in [(["--q", "6", "--s", "2"], "error: 6 is not a prime power\n"),
                      (["--q", "2", "--s", "0"],
                       "error: field degree must be positive\n")]:
        assert run(["construct", *argv]) == 1
        assert capsys.readouterr().err == err
        assert run(["scan", *argv]) == 1
        assert capsys.readouterr().err == err


def test_profile(capsys):
    code, rep = invoke_json(capsys, "profile", "--q", "2",
                            "--subgroup-order", "5")
    assert code == 0
    assert rep["profile"]["profile"] == [1, 3, 3]
    assert rep["distribution_bound"]["ok"]


def test_profile_decomposes_into_cosets_once(capsys, tmp_path, monkeypatch):
    # the bound check reads the profile's coset decomposition; on Z_2 x Z_8
    # that decomposition is a scan of G
    out = str(tmp_path / "d.dset")
    Path(out).write_text("group Z_2xZ_8\n16 6 2\n0\n1\n2\n5\n8\n14\n")
    calls, cosets = [], dset.cosets

    def counted(G, H):
        calls.append(H.order)
        return cosets(G, H)

    monkeypatch.setattr(dset, "cosets", counted)
    code, rep = invoke_json(capsys, "profile", "--set", out, "--subgroup-order", "4")
    assert code == 0 and rep["distribution_bound"]["ok"]
    assert calls == [4]


def test_mann(capsys):
    code, rep = invoke_json(capsys, "mann", "--q", "3",
                            "--subgroup-order", "10")
    assert code == 0 and rep["status"] == "verified"
    w = rep["instance"]["witness"]
    assert (w["p"], w["f"], w["j"]) == (3, 1, 1)


def test_profile_and_mann_name_a_subgroup_that_is_not_unique(capsys, tmp_path):
    # Z_2 x Z_8 has three subgroups of order 2; the report names the one it
    # dissected.  A cyclic group has one, and its reports gain no key.
    out = str(tmp_path / "d.dset")
    with open(out, "w") as fh:
        fh.write("group Z_2xZ_8\n16 6 2\n0\n1\n2\n5\n8\n14\n")
    for verb in ("profile", "mann"):
        code, rep = invoke_json(capsys, verb, "--set", out, "--subgroup-order", "2")
        assert rep["subgroup_unique"] is False
        assert rep["subgroup_elements"] == [0, 4]
    code, rep = invoke_json(capsys, "profile", "--set", out, "--subgroup-order", "2")
    assert code == 0 and rep["profile"]["profile"] == [0, 0, 0, 1, 1, 1, 1, 2]
    for verb in ("profile", "mann"):
        code, rep = invoke_json(capsys, verb, "--q", "2", "--subgroup-order", "5")
        assert "subgroup_unique" not in rep and "subgroup_elements" not in rep


@pytest.mark.parametrize("verb", ["profile", "mann"])
@pytest.mark.parametrize("order", ["0", "-3"])
def test_nonpositive_subgroup_order_is_one_line_error(capsys, verb, order):
    code = run([verb, "--q", "2", "--d", "4", "--subgroup-order", order])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == f"error: subgroup order must be positive, got {order}\n"


def test_check_verified(capsys):
    code, rep = invoke_json(capsys, "check", "thm5.1", "--q", "2")
    assert code == 0 and rep["status"] == "verified"


@pytest.mark.parametrize("argv, code, status, hyps, cons", [
    (["thm2.2", "--q", "2"], 0, "verified", [True] * 2, [True] * 4),
    (["lem4.1", "--q", "2", "--s", "3"], 0, "verified", [True] * 2, [True] * 2),
    (["lem4.2", "--q", "2", "--s", "3"], 0, "verified", [True] * 4, [True]),
    (["cor5.2", "--q", "2", "--s", "3"], 0, "verified", [True] * 3, [True] * 4),
    (["thm4.3", "--q", "2", "--s", "3"], 0, "verified", [True] * 5, [True] * 3),
    (["ho", "--m", "2", "--s", "2"], 0, "verified", [True] * 4, [True]),
    (["ho", "--m", "2", "--s", "3"], 2, "subgroup-absent", [True] * 4, []),
], ids=["thm2.2", "lem4.1", "lem4.2", "cor5.2", "thm4.3", "ho-s2", "ho-s3"])
def test_check_applicable_instance(capsys, argv, code, status, hyps, cons):
    got, rep = invoke_json(capsys, "check", *argv)
    assert (got, rep["status"]) == (code, status)
    assert [h["ok"] for h in rep["hypotheses"]] == hyps
    assert [c["ok"] for c in rep["conclusions"]] == cons


def test_lem41_builds_no_set(capsys, monkeypatch):
    # the lemma reads only the group Z_v, v = (q^s + 1)(q^2s + 1)
    def no_set(*args, **kw):
        raise AssertionError("check lem4.1 must not construct the set")

    monkeypatch.setattr(singer, "singer_construct", no_set)
    code, rep = invoke_json(capsys, "check", "lem4.1", "--q", "2", "--s", "3")
    assert code == 0 and rep["status"] == "verified"
    assert rep["instance"] == {"q": 2, "s": 3, "group": "Z_585",
                               "side_conditions_hold": True}
    assert [c["ok"] for c in rep["conclusions"]] == [True, True]
    assert rep["conclusions"][0]["witness"] == {"|M|": 15, "|fixed|": 15}


@pytest.mark.parametrize("argv, rows", [
    (["check", "thm4.3", "--q", "2", "--s", "3"], None),
    (["check", "cor3.2", "--q", "2", "--s", "3"], None),
    (["check", "lem4.2", "--q", "2", "--s", "3"], None),
    (["scan", "--q", "2", "--s", "1,2,3"],
     [(1, 15, "embedded"), (2, 85, "subgroup-absent"), (3, 585, "embedded")]),
], ids=["thm4.3", "cor3.2", "lem4.2", "scan"])
def test_tower_checks_build_no_set(capsys, monkeypatch, argv, rows):
    # thm4.3, cor3.2, lem4.2 and scan read D ∩ M from |M| = 15 traces:
    # neither the Singer set nor any group of order v is built or counted
    def no_set(*args, **kw):
        raise AssertionError(f"{argv[:2]} must not construct the set")

    orders, verify = [], dset.verify

    def counted(G, elements):
        orders.append(G.order)
        return verify(G, elements)

    monkeypatch.setattr(singer, "singer_construct", no_set)
    monkeypatch.setattr(singer, "_trace_zero_exponents", no_set)
    monkeypatch.setattr(dset, "verify", counted)
    code, rep = invoke_json(capsys, *argv)
    assert set(orders) <= {15}
    if rows is not None:
        assert code == 2
        assert [(r["s"], r["v"], r["status"]) for r in rep["rows"]] == rows
        assert [r["detail"]["restriction"]["verified"] for r in rep["rows"]
                if r["status"] == "embedded"] == [True, True]
        return
    assert code == 0 and rep["status"] == "verified"
    assert rep["instance"]["params"] == [585, 73, 9]
    witness = rep["conclusions"][0]["witness"]
    if argv[1] == "lem4.2":
        assert witness == 7
    else:
        assert (witness["v"], witness["k"], witness["lambda_observed"]) == (15, 7, 3)


@pytest.mark.parametrize("argv, params", [
    (["thm4.3", "--q", "2", "--s", "11", "--ceiling", "17592186044416"],
     [8594130945, 4196353, 2049]),
    (["cor3.2", "--q", "3", "--s", "5", "--ceiling", "3486784401"],
     [14408200, 59293, 244]),
    (["thm4.3", "--q", "2", "--s", "31", "--ceiling",
      "21267647932558653966460912964485513216"],       # GF(2^124)
     [9903520318894728219767865345, 4611686020574871553, 2147483649]),
], ids=["thm4.3-q2-s11", "cor3.2-q3-s5", "thm4.3-q2-s31"])
def test_tower_checks_past_the_counting_limit(capsys, argv, params):
    # v = 8594130945 is past the order test's 2^31, where D itself cannot
    # be verified; D ∩ M is, in M of order 15 or 40
    code, rep = invoke_json(capsys, "check", *argv)
    assert code == 0 and rep["status"] == "verified"
    assert rep["instance"]["params"] == params
    assert all(c["ok"] for c in rep["hypotheses"] + rep["conclusions"])


@pytest.mark.parametrize("s", [100003, 1000003])
def test_far_tower_is_refused_by_its_field_degree(capsys, monkeypatch, s):
    # GF(2^(4s)) is over the ceiling by its degree alone, so it is refused
    # before v = (2^s + 1)(2^2s + 1) or 2^(4s) is formed or printed
    def forbidden(self):
        raise AssertionError(f"v of q = {self.q}, s = {self.s} was formed")

    monkeypatch.setattr(singer.Tower, "v", property(forbidden))
    assert run(["check", "thm4.3", "--q", "2", "--s", str(s)]) == 1
    assert capsys.readouterr().err == (
        f"resource limit: GF(2^{4 * s}) is larger than the ceiling 268435456; "
        "pass a larger ceiling to override\n")


@pytest.mark.parametrize("argv, s", [
    (["scan", "--q", "2", "--s"], 1000002),
    (["check", "lem4.2", "--q", "2", "--s"], 1000002),
    (["check", "lem4.1", "--q", "2", "--s"], 1000003),
    (["construct", "--q", "2", "--s"], 1000003),
], ids=["scan", "lem4.2", "lem4.1", "construct"])
def test_far_tower_v_refused_with_one_line(capsys, argv, s):
    # v = (2^s + 1)(2^2s + 1) has over 900,000 digits: refused by the bit
    # length of 2^s before it is formed, as an error row of the scan and
    # as one resource-limit line of a check or a construction, exit 1
    # either way
    text = (f"v = (q^s+1)(q^2s+1) for q = 2, s = {s} has up to {3 * (s + 1)} "
            "bits, past the 4300 decimal digits that a report can print")
    code = run([*argv, str(s), "--json", "--no-timestamps"])
    out, err = capsys.readouterr()
    assert code == 1
    if argv[0] == "scan":
        assert err == ""
        assert [(r["v"], r["status"]) for r in json.loads(out)["rows"]] == \
            [(0, f"error: {text}")]
    else:
        assert (out, err) == ("", f"resource limit: {text}\n")


def test_closed_stdout_is_a_quiet_exit(tmp_path):
    # a reader that takes one line and closes the pipe (`| head -1`): the
    # report is longer than the pipe holds, so the write fails mid-way
    env = {**os.environ, "PYTHONPATH": os.path.join(
        os.path.dirname(__file__), "..", "src")}
    with subprocess.Popen(
            [sys.executable, "-m", "diffsets.cli", "construct", "--q", "2",
             "--d", "16", "--elements", "--json", "--out", str(tmp_path / "d.dset")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1 and err == b""


def test_hall_on_unverified_set_is_not_falsified(capsys, tmp_path):
    out = str(tmp_path / "bad.dset")
    invoke_json(capsys, "construct", "--q", "2", "--s", "3", "--out", out)
    _replace_last_element(out, 585)
    assert not read_set_file(out).verified
    code, rep = invoke_json(capsys, "check", "hall", "--set", out)
    assert code == 2 and rep["status"] == "hypothesis-not-met"
    assert rep["hypotheses"][0] == {"name": "difference set verified",
                                    "ok": False}


def test_thm51_on_unverified_set_is_not_falsified(capsys, tmp_path):
    # a normalized 7-subset of Z_15 that is not a (15,7,3) difference set
    path = tmp_path / "fake.dset"
    path.write_text("group Z_15\n15 7 3\n1\n4\n7\n10\n11\n13\n14\n")
    code, rep = invoke_json(capsys, "check", "thm5.1", "--q", "2",
                            "--set", str(path))
    assert code == 2 and rep["status"] == "hypothesis-not-met"
    assert [h["ok"] for h in rep["hypotheses"]] == [False, True, True, True]


def test_check_hypothesis_short_circuit(capsys):
    code, rep = invoke_json(capsys, "check", "thm4.3", "--q", "2", "--s", "5")
    assert code == 2 and rep["status"] == "hypothesis-not-met"
    failed = [h["name"] for h in rep["hypotheses"] if not h["ok"]]
    assert failed == ["s does not divide q^2 + 1"]
    assert any("skipped" in n for n in rep["notes"])


def test_check_unknown_theorem(capsys):
    assert run(["check", "nope", "--q", "2"]) == 1


def test_check_missing_flag(capsys):
    assert run(["check", "cor5.2", "--q", "2"]) == 1   # --s missing


@pytest.mark.parametrize("argv", [
    "construct",
    "construct --d 4",
    "verify",
    "construct --q 2 --s 3 --d 5",
    "construct --q 2 --d 4 --workers 2",
    "check thm4.3 --q 2 --s 3 --set x.dset",
    "check thm5.1 --q 2 --s 3",
    "profile --q 2 --set x.dset --subgroup-order 5",
    "search --group Z_7 --k 3 --lambda 1 --q 5",
    "search --group Z_7 --k 3 --lambda 1 --m 0",
    "check jv --m -2",
    "check ho --m -2 --s 2",
    "check thm3.1 --q 2 --a -1 --b -3",
    "search --group Z_3 --k -1 --lambda 1",
    "search --group Z_7 --k -2 --lambda 1",
    "search --group Z_3 --k 4 --lambda 6",
    "search --group Z_7 --k 3 --lambda 1 --budget 0",
    "search --group Z_7 --k 3 --lambda 1 --budget -5",
    "check thm4.3 --q 2 --s 0",
    "check thm4.3 --q 2 --s -3",
    "check thm4.3 --q 6 --s 3",
    "check cor3.2 --q 6 --s 2",
])
def test_misuse_is_one_line_error(capsys, tmp_path, monkeypatch, argv):
    # a missing flag, or one the verb or check id does not read, is an error
    # before any work is done, never a traceback or a silently ignored flag
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.dset").write_text("group Z_7\n7 3 1\n1\n2\n4\n")
    code = run(argv.split())
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_package_exports_exist():
    import diffsets
    assert [name for name in diffsets.__all__
            if not hasattr(diffsets, name)] == []


def test_readme_commands_parse():
    # every `diffset` line of README's sh blocks names flags its verb (and
    # check id) reads, so a removed or renamed flag cannot leave stale docs
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    lines = [ln.split("#")[0] for b in blocks for ln in b.splitlines()
             if ln.startswith("diffset ")]
    assert len(lines) >= 9
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        if args.verb == "check":
            check_instance_flags(args)


def test_search_writes_class_files(capsys, tmp_path):
    out_dir = str(tmp_path / "res")
    code, rep = invoke_json(capsys, "search", "--group", "Z_7", "--k", "3",
                            "--lambda", "1", "--m", "2", "--out-dir", out_dir)
    assert code == 0
    assert rep["classes"] == 1 and rep["sets"] == [[1, 2, 4], [3, 5, 6]]
    summary = json.loads(Path(out_dir, "summary.json").read_text())
    assert summary["classes"] == 1
    D = read_set_file(os.path.join(out_dir, "class_000.dset"))
    assert D.params.as_tuple() == (7, 3, 1)


def test_search_stdout_is_byte_stable(capsys, tmp_path):
    # without timestamps the search's wall time is left out, so two runs of
    # one search print the same bytes; summary.json never carries it
    out_dir = str(tmp_path / "res")
    argv = ["search", "--group", "Z_15", "--k", "7", "--lambda", "3", "--m", "2",
            "--out-dir", out_dir, "--json", "--no-timestamps"]
    first, second = invoke(capsys, *argv), invoke(capsys, *argv)
    assert first == second and first[0] == 0
    assert "seconds" not in json.loads(first[1])
    assert "seconds" not in json.loads(Path(out_dir, "summary.json").read_text())
    code, out = invoke(capsys, *argv[:-1])
    assert "seconds" in json.loads(out) and "timestamp" in json.loads(out)


def test_orbit_path_verify_leaves_numpy_ma_unimported(tmp_path):
    # the plain np.unique imports numpy.ma (13 ms, 0.6 MB); a construction
    # and a verify on the orbit path use none
    env = {**os.environ, "PYTHONPATH": os.path.join(
        os.path.dirname(__file__), "..", "src")}
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from diffsets import dset\n"
        "from diffsets.cli import run\n"
        "path = sys.argv[1]\n"
        "assert run(['construct', '--q', '2', '--s', '5', '--out', path]) == 0\n"
        "assert run(['verify', '--set', path]) == 0\n"
        "D = dset.read_set_file(path)\n"
        "ranks = np.asarray(D.elements)\n"
        "assert dset._plan(D.group, len(ranks), D.params.n, ranks).t == 2\n"
        "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "d.dset")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_search_writes_only_verified_class_files(capsys, tmp_path, monkeypatch):
    # a class representative that is no difference set is an error, and
    # no file is written for it
    def wrong_search(spec):
        return search.SearchResult(spec, [(0, 1, 2)], [(0, 1, 2)], 1, 0.0)

    monkeypatch.setattr(search, "orbit_union_search", wrong_search)
    out_dir = tmp_path / "res"
    code = run(["search", "--group", "Z_7", "--k", "3", "--lambda", "1",
                "--out-dir", str(out_dir)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_dir.exists()


def test_scan(capsys):
    code, rep = invoke_json(capsys, "scan", "--q", "2", "--s", "1,3")
    assert code == 0
    assert [r["status"] for r in rep["rows"]] == ["embedded", "embedded"]


def test_scan_even_s_is_one_subgroup_absent_row(capsys):
    # 15 does not divide v = 85 at s = 2: that row alone says so, exit 2
    code, rep = invoke_json(capsys, "scan", "--q", "2", "--s", "1,2,3")
    assert code == 2
    assert [(r["s"], r["v"], r["status"]) for r in rep["rows"]] == \
        [(1, 15, "embedded"), (2, 85, "subgroup-absent"), (3, 585, "embedded")]


@pytest.mark.parametrize("statuses, code", [
    (["embedded", "embedded"], 0),
    (["embedded", "subgroup-absent"], 2),
    (["subgroup-absent", "error: refused"], 1),
    (["error: refused", "not-embedded", "subgroup-absent"], 3),
    (["not-embedded", "embedded"], 3)])
def test_scan_exit_codes_rank_rows(capsys, monkeypatch, statuses, code):
    # a not-embedded row exits 3, else a refused (error) row 1, else a
    # subgroup-absent row 2, so that a script tells a refusal from a
    # counterexample
    from diffsets import analysis
    rows = [analysis.ScanRow(2, s, 0, 15, status) for s, status in enumerate(statuses)]
    monkeypatch.setattr(analysis, "conjecture_scan", lambda *args, **kw: rows)
    assert invoke_json(capsys, "scan", "--q", "2", "--s", "1")[0] == code


def test_scan_refused_row_exits_1(capsys):
    # GF(2^4) fits a ceiling of 256, GF(2^12) does not, and M is absent at
    # s = 2: the refused row outranks the absent one
    code, rep = invoke_json(capsys, "scan", "--q", "2", "--s", "1,2,3",
                            "--ceiling", "256")
    assert code == 1
    assert [r["status"][:6] for r in rep["rows"]] == ["embedd", "subgro", "error:"]


@pytest.mark.parametrize("s", ["x", "1,,3", "1,3,", "2.5", ""])
def test_scan_malformed_s_names_the_flag(capsys, s):
    # a value that is no comma-separated list of integers is refused by
    # the parser before any row is computed; a non-positive s is an
    # integer, refused by the scan as by construct
    assert run(["scan", "--q", "2", "--s", s]) == 1
    assert capsys.readouterr() == (
        "", f"error: argument --s: expected comma-separated integers, got {s!r}\n")


def test_text_and_json_agree(capsys):
    code_t, text = invoke(capsys, "check", "hall", "--q", "2",
                          "--no-timestamps")
    code_j, rep = invoke_json(capsys, "check", "hall", "--q", "2")
    assert code_t == code_j == 0
    assert f"status: {rep['status']}" in text
    assert "theorem: hall" in text


def test_malformed_flag_is_one_line_usage_error(capsys):
    code = run(["search", "--group", "Z_7", "--k", "abc", "--lambda", "1"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "error: argument --k: invalid int value: 'abc'\n"
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0


def test_resource_guard_exit_code(capsys):
    # GF(2^40) exceeds the default field-size ceiling
    assert run(["construct", "--q", "2", "--s", "10"]) == 1
