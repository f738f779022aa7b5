"""Command-line front end.

Verbs map 1:1 onto module operations; every invocation emits the same
facts as text or (with --json) as a JSON document.  Exit codes:
0 success/verified, 1 usage or resource error, 2 hypothesis-not-met,
3 FALSIFIED or verification failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import analysis as an
from . import dset as ds
from . import search as se
from . import singer as si
from .field import SIZE_CEILING, FieldSizeError
from .groups import GroupSizeError, parse_group

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_FALSIFIED = 3

def _status_exit(status: str) -> int:
    if status == "verified":
        return EXIT_OK
    if status in ("hypothesis-not-met", "no-applicable-prime", "subgroup-absent"):
        return EXIT_HYPOTHESIS
    return EXIT_FALSIFIED


def _render_text(obj, indent=0, out=None):
    pad = "  " * indent
    if isinstance(obj, dict):
        for key, val in obj.items():
            if isinstance(val, (dict, list)) and val and \
                    any(isinstance(x, (dict, list)) for x in
                        (val.values() if isinstance(val, dict) else val)):
                out.append(f"{pad}{key}:")
                _render_text(val, indent + 1, out)
            elif isinstance(val, dict):
                out.append(f"{pad}{key}: " + json.dumps(val, sort_keys=True))
            else:
                out.append(f"{pad}{key}: " +
                           (json.dumps(val) if isinstance(val, list) else str(val)))
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)):
                out.append(f"{pad}-")
                _render_text(item, indent + 1, out)
            else:
                out.append(f"{pad}- {item}")
    else:
        out.append(f"{pad}{obj}")


def emit(report: dict, args) -> None:
    if not args.no_timestamps:
        report = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), **report}
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=False))
    else:
        lines: list[str] = []
        _render_text(report, 0, lines)
        print("\n".join(lines))


def _construct(args, q=None, d=None, s=None):
    """Build a Singer set from CLI options; returns the normalized set.

    --s builds PG(3, q^s); --ceiling forces exact verification.
    """
    q = q if q is not None else args.q
    if s is None and d is None:
        s = getattr(args, "s", None)
    if s is not None:
        q, d = si.tower_base(q, s), 4
    elif d is None:
        d = getattr(args, "d", None) or 4
    return si.singer_construct(q, d, ceiling=args.ceiling or None)


def _load_or_construct(args):
    if getattr(args, "set", None):
        return ds.read_set_file(args.set)
    if args.q is None:
        raise SystemExit("either --set FILE or --q is required")
    return _construct(args)


def _set_report(D) -> dict:
    rep = {
        "group": D.group.descriptor(),
        "params": list(D.params.as_tuple()),
        "n": D.params.n,
        "verified": D.verified,
        "normalized": ds.is_normalized(D.group, D.elements),
    }
    if "field_descriptor" in D.meta:
        rep["field_descriptor"] = D.meta["field_descriptor"]
    if "verification_mode" in D.meta:
        rep["verification_mode"] = D.meta["verification_mode"]
    return rep


# -- verb handlers ---------------------------------------------------------------

def cmd_construct(args):
    D = _construct(args)
    report = {"command": "construct", **_set_report(D)}
    out = args.out
    if out is None:
        tag = f"q{args.q}_s{args.s}" if args.s is not None else \
            f"q{args.q}_d{args.d or 4}"
        out = f"singer_{tag}.dset"
    ds.write_set_file(out, D)
    report["set_file"] = out
    if args.elements or D.params.k <= 64:
        report["elements"] = list(D.elements)
    return EXIT_OK, report


def cmd_verify(args):
    D = ds.read_set_file(args.set, verify_now=False)
    rep = ds.auto_verify(D.group, D.elements, True if args.ceiling else None)
    report = {"command": "verify", "set_file": args.set,
              "group": D.group.descriptor(),
              "params": list(D.params.as_tuple()), **rep.as_dict()}
    return (EXIT_OK if rep.ok else EXIT_FALSIFIED), report


def cmd_profile(args):
    D = _load_or_construct(args)
    if args.subgroup_order is None:
        raise SystemExit("--subgroup-order is required for profile")
    H, _ = an._unique_subgroup(D.group, args.subgroup_order)
    prof = ds.intersection_profile(D, H)
    bound = ds.distribution_bound_check(D, H)
    ok = prof.sum_ok() and prof.sum_sq_ok() and bound.ok
    report = {"command": "profile", **_set_report(D),
              "subgroup_order": H.order,
              "profile": prof.as_dict(), "distribution_bound": bound.as_dict()}
    return (EXIT_OK if ok else EXIT_FALSIFIED), report


def cmd_mann(args):
    D = _load_or_construct(args)
    if args.subgroup_order is None:
        raise SystemExit("--subgroup-order is required for mann")
    U, _ = an._unique_subgroup(D.group, args.subgroup_order)
    rep = an.mann_test(D, U)
    report = {"command": "mann", **_set_report(D), **rep.as_dict()}
    return _status_exit(rep.status), report


def cmd_check(args):
    tid = args.theorem
    if tid not in CHECKS:
        raise SystemExit(f"unknown theorem id {tid!r}; choose from {tuple(CHECKS)}")
    rep = CHECKS[tid](args)
    report = {"command": f"check {tid}", **rep.as_dict()}
    return _status_exit(rep.status), report


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise SystemExit(f"--{name} is required for this check")


def _check_thm22(args):
    _require(args, "q")
    s = args.s if args.s is not None else 1
    D = _construct(args, s=s)
    return an.check_thm_classical_profile(D, args.q, s)


def _check_lem41(args):
    _require(args, "q", "s")
    D = _construct(args)
    return an.check_lemma_mfix(D.group, args.q, args.s)


def _check_lem42(args):
    _require(args, "q", "s")
    D = _construct(args)
    return an.check_lemma_size(D, args.q, args.s)


def _check_thm43(args):
    _require(args, "q", "s")
    hyps = an.main_theorem_hypotheses(args.q, args.s)
    if not all(c.ok for c in hyps):
        rep = an.TheoremReport("thm4.3", {"q": args.q, "s": args.s})
        rep.hypotheses.extend(hyps)
        rep.notes.append("construction skipped: hypotheses fail on (q, s) alone")
        return rep
    D = _construct(args)
    return an.check_main(D, args.q, args.s)


def _check_thm51(args):
    _require(args, "q")
    D = _construct(args, d=4) if not getattr(args, "set", None) \
        else ds.read_set_file(args.set)
    return an.check_dintk(D, args.q)


def _check_cor52(args):
    _require(args, "q", "s")
    D = _construct(args)
    return an.check_hk(D, args.q, args.s)


def _check_thm61(args):
    _require(args, "q", "s")
    D = _construct(args)
    return an.check_minimal_embedding(D)


def _check_jv(args):
    _require(args, "m")
    D = _construct(args, q=args.m**2, d=3)
    return an.check_planar_subset(D, args.m)


def _check_ho(args):
    _require(args, "m", "s")
    D = _construct(args, q=args.m**args.s, d=3)
    return an.check_ho(D, args.m, args.s)


def _check_thm31(args):
    _require(args, "q", "a", "b")
    ceiling = args.ceiling if args.ceiling else SIZE_CEILING
    crep = si.hyperplane_containment(args.q, args.a, args.b, ceiling=ceiling)
    rep = an.TheoremReport("thm3.1", crep.as_dict())
    rep.hyp("gcd(a, b) = 1", crep.gcd_ab == 1, crep.gcd_ab)
    rep.con("E contained in D", crep.contained, crep.witness)
    if crep.gcd_ab != 1:
        rep.notes.append("gcd(a,b) != 1: containment status reported by "
                         "brute force, no theorem claim at stake")
    return rep


def _check_cor32(args):
    _require(args, "q", "s")
    # an even s fails the hypothesis on s alone: report it without building D
    D = _construct(args) if args.s % 2 == 1 else None
    return an.check_tower_restriction(D, args.q, args.s)


def _check_hall(args):
    D = _load_or_construct(args)
    return an.hall_check(D)


#: Checker id -> handler, in the order the help text lists them.
CHECKS = {
    "thm2.2": _check_thm22, "lem4.1": _check_lem41, "lem4.2": _check_lem42,
    "thm4.3": _check_thm43, "thm5.1": _check_thm51, "cor5.2": _check_cor52,
    "thm6.1": _check_thm61, "jv": _check_jv, "ho": _check_ho,
    "thm3.1": _check_thm31, "cor3.2": _check_cor32, "hall": _check_hall,
}


def cmd_search(args):
    if args.group is None:
        raise SystemExit("--group is required for search")
    G = parse_group(args.group)
    if args.k is None or args.lam is None:
        raise SystemExit("--k and --lambda are required for search")
    spec = se.SearchSpec(G, args.k, args.lam, multiplier=args.m or 1,
                         node_budget=args.budget or 50_000_000)
    result = se.orbit_union_search(spec)
    report = {"command": "search", "group": G.descriptor(),
              "spec": {"k": spec.k, "lambda": spec.lam,
                       "multiplier": spec.multiplier},
              **result.as_dict()}
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        files = []
        for i, rep_set in enumerate(result.class_reps):
            D = ds.DifferenceSet(G, rep_set, ds.Params(G.order, spec.k, spec.lam),
                                 verified=True)
            path = os.path.join(args.out_dir, f"class_{i:03d}.dset")
            ds.write_set_file(path, D)
            files.append(path)
        summary = {"spec": report["spec"], "group": G.descriptor(),
                   "classes": result.classes,
                   "sets": [list(s) for s in result.sets],
                   "nodes": result.nodes, "seconds": result.seconds}
        spath = os.path.join(args.out_dir, "summary.json")
        with open(spath, "w") as fh:
            json.dump({k: v for k, v in summary.items() if k != "seconds"},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
        report["result_files"] = files + [spath]
    report["sets"] = [list(s) for s in result.sets[:64]]
    return (EXIT_OK if result.complete else EXIT_USAGE), report


def cmd_scan(args):
    if args.q is None or not args.s_list:
        raise SystemExit("--q and --s LIST are required for scan")
    s_values = [int(x) for x in str(args.s_list).split(",")]
    rows = an.conjecture_scan(args.q, s_values, ceiling=args.ceiling or None)
    report = {"command": "scan", "q": args.q,
              "rows": [r.as_dict() for r in rows]}
    bad = [r for r in rows if r.status not in ("embedded",)]
    return (EXIT_OK if not bad else EXIT_FALSIFIED), report


# -- argument parsing -----------------------------------------------------------------

def _default_workers() -> int:
    raw = os.environ.get("DIFFSET_WORKERS", "1")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"DIFFSET_WORKERS must be an integer, got {raw!r}") from None


class _Parser(argparse.ArgumentParser):
    """Raises on a malformed command line, so that `run` reports it as one
    `error:` line with exit 1 instead of a usage block with exit 2, which
    means "hypothesis not met"."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    workers = _default_workers()
    parser = _Parser(
        prog="diffset",
        description="Construct, verify, and dissect abelian difference sets "
                    "with PG(3,q) parameters.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, needs_set=False, add_s=True):
        p.add_argument("--q", type=int, help="base prime power")
        if add_s:
            p.add_argument("--s", type=int,
                           help="tower exponent (d = 4 presentation)")
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--workers", type=int, default=workers,
                       help="accepted for compatibility; has no effect "
                            "(default: $DIFFSET_WORKERS or 1)")
        p.add_argument("--ceiling", type=int, default=0,
                       help="override size guards (field order bound)")
        p.add_argument("--no-timestamps", action="store_true")
        if needs_set:
            p.add_argument("--set", help="difference-set file")

    p = sub.add_parser("construct", help="build a Singer difference set")
    common(p)
    p.add_argument("--d", type=int, help="projective dimension parameter")
    p.add_argument("--out", help="output set file")
    p.add_argument("--elements", action="store_true",
                   help="list elements in the report regardless of size")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify a difference-set file")
    common(p, needs_set=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("profile", help="coset intersection profile and bound")
    common(p, needs_set=True)
    p.add_argument("--d", type=int)
    p.add_argument("--subgroup-order", type=int)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("mann", help="run the Mann test against a subgroup")
    common(p, needs_set=True)
    p.add_argument("--d", type=int)
    p.add_argument("--subgroup-order", type=int)
    p.set_defaults(func=cmd_mann)

    p = sub.add_parser("check", help="check one theorem on one instance")
    p.add_argument("theorem", help=f"one of {', '.join(CHECKS)}")
    common(p, needs_set=True)
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int, help="planar order parameter")
    p.add_argument("--a", type=int, help="intermediate field degree a")
    p.add_argument("--b", type=int, help="intermediate field degree b")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("search", help="multiplier-orbit pruned search")
    common(p)
    p.add_argument("--group", help='group descriptor, e.g. "Z_15"')
    p.add_argument("--k", type=int)
    p.add_argument("--lambda", dest="lam", type=int)
    p.add_argument("--m", type=int, help="numerical multiplier to prune with")
    p.add_argument("--budget", type=int, help="search node budget")
    p.add_argument("--out-dir", help="write one set file per class here")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("scan", help="conjecture evidence scan over s values")
    common(p, add_s=False)
    p.add_argument("--s", dest="s_list", help="comma-separated s values")
    p.set_defaults(func=cmd_scan)

    return parser


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code, report = args.func(args)
    except SystemExit as e:
        if isinstance(e.code, str):
            print(e.code, file=sys.stderr)
            return EXIT_USAGE
        raise
    except (FieldSizeError, GroupSizeError, MemoryError, se.BudgetExceeded) as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    emit(report, args)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
