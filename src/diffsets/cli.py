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
from .field import FieldSizeError
from .groups import GroupSizeError, parse_group, subgroup_of_order

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


def _construct(args):
    """The Singer set named by --q with --s (PG(3, q^s)) or --d (PG(d-1, q),
    d = 4 by default)."""
    if args.s is not None:
        T = si.Tower(args.q, args.s)
        ds._order_test(T.v)             # a far tower, by v formed by multiplication
        return si.singer_construct(T.Q, 4, ceiling=args.ceiling)
    return si.singer_construct(args.q, 4 if args.d is None else args.d,
                               ceiling=args.ceiling)


def _load_or_construct(args):
    """The set in --set, or the one _construct builds from --q."""
    if args.set is None:
        if args.q is None:
            raise ValueError("either --set FILE or --q is required")
        return _construct(args)
    if (args.q, args.s, args.d) != (None, None, None):
        raise ValueError("--set cannot be combined with --q, --s or --d")
    return ds.read_set_file(args.set)


def _set_report(D) -> dict:
    rep = {
        "group": D.group.descriptor(),
        "params": list(D.params.as_tuple()),
        "n": D.params.n,
        "verified": D.verified,
        "normalized": ds.is_normalized(D.group, D.elements),
    }
    if D.field_descriptor is not None:          # built here, not read from a file
        rep["field_descriptor"] = D.field_descriptor
        rep["verification_mode"] = D.report.mode
    return rep


# -- verb handlers ---------------------------------------------------------------

def cmd_construct(args):
    D = _construct(args)
    report = {"command": "construct", **_set_report(D)}
    out = args.out
    if out is None:
        tag = f"q{args.q}_s{args.s}" if args.s is not None else \
            f"q{args.q}_d{4 if args.d is None else args.d}"
        out = f"singer_{tag}.dset"
    ds.write_set_file(out, D)
    report["set_file"] = out
    if args.elements or D.params.k <= 64:
        report["elements"] = list(D.elements)
    return EXIT_OK, report


def cmd_verify(args):
    D = ds.read_set_file(args.set)
    report = {"command": "verify", "set_file": args.set,
              "group": D.group.descriptor(),
              "params": list(D.params.as_tuple()),
              **D.report.as_dict(), "verified": D.verified}
    return (EXIT_OK if D.verified else EXIT_FALSIFIED), report


def _dissected_subgroup(D, order):
    """(H, keys): the subgroup of `order` that profile and mann dissect, and
    the report keys naming it when it is not the only one of its order."""
    H, unique = subgroup_of_order(D.group, order)
    return H, {} if unique else {"subgroup_unique": False,
                                 "subgroup_elements": list(H.elements)}


def cmd_profile(args):
    D = _load_or_construct(args)
    H, named = _dissected_subgroup(D, args.subgroup_order)
    prof = ds.intersection_profile(D, H)
    bound = ds.distribution_bound_check(prof)
    ok = prof.sum_ok() and prof.sum_sq_ok() and bound.ok
    report = {"command": "profile", **_set_report(D),
              "subgroup_order": H.order, **named,
              "profile": prof.as_dict(), "distribution_bound": bound.as_dict()}
    return (EXIT_OK if ok else EXIT_FALSIFIED), report


def cmd_mann(args):
    D = _load_or_construct(args)
    U, named = _dissected_subgroup(D, args.subgroup_order)
    rep = an.mann_test(D, U)
    report = {"command": "mann", **_set_report(D), **named, **rep.as_dict()}
    return _status_exit(rep.status), report


def cmd_check(args):
    check_instance_flags(args)
    rep = CHECKS[args.theorem][0](args)
    report = {"command": f"check {args.theorem}", **rep.as_dict()}
    return _status_exit(rep.status), report


def check_instance_flags(args) -> None:
    """Reject a missing instance flag that the check id requires, or a given
    one that it does not read."""
    _, needs, takes = CHECKS[args.theorem]
    for flag in INSTANCE_FLAGS:
        given = getattr(args, flag) is not None
        if flag in needs and not given:
            raise ValueError(f"check {args.theorem} requires --{flag}")
        if given and flag not in needs and flag not in takes:
            raise ValueError(f"check {args.theorem} does not read --{flag}")


def _check_thm22(args):
    s = 1 if args.s is None else args.s
    return an.check_thm_classical_profile(_construct(args), args.q, s)


def _check_lem41(args):
    return an.check_lemma_mfix(args.q, args.s)


def _check_lem42(args):
    return an.check_lemma_size(args.q, args.s, args.ceiling)


def _check_thm43(args):
    return an.check_main(args.q, args.s, args.ceiling)


def _check_thm51(args):
    D = _construct(args) if args.set is None else ds.read_set_file(args.set)
    return an.check_dintk(D, args.q)


def _check_cor52(args):
    return an.check_hk(_construct(args), args.q, args.s)


def _check_thm61(args):
    return an.check_minimal_embedding(_construct(args))


def _check_jv(args):
    D = si.singer_construct(args.m**2, 3, ceiling=args.ceiling)
    return an.check_planar_subset(D, args.m)


def _check_ho(args):
    if args.s < 1:
        raise ValueError("field degree must be positive")
    ds._construction_params(args.m, 3, args.s)     # before m^s is formed
    D = si.singer_construct(args.m**args.s, 3, ceiling=args.ceiling)
    return an.check_ho(D, args.m, args.s)


def _check_thm31(args):
    return an.check_hyperplane_containment(args.q, args.a, args.b, args.ceiling)


def _check_cor32(args):
    return an.check_tower_restriction(args.q, args.s, args.ceiling)


def _check_hall(args):
    return an.hall_check(_load_or_construct(args))


#: The flags that name a check instance.
INSTANCE_FLAGS = ("q", "s", "set", "d", "m", "a", "b")

#: Check id -> (handler, instance flags it requires, instance flags it may
#: also take), in the order the help text lists them.  Any other instance
#: flag is an error.  hall takes --set alone or --q with --s or --d, which
#: _load_or_construct enforces.
CHECKS = {
    "thm2.2": (_check_thm22, ("q",), ("s",)),
    "lem4.1": (_check_lem41, ("q", "s"), ()),
    "lem4.2": (_check_lem42, ("q", "s"), ()),
    "thm4.3": (_check_thm43, ("q", "s"), ()),
    "thm5.1": (_check_thm51, ("q",), ("set",)),
    "cor5.2": (_check_cor52, ("q", "s"), ()),
    "thm6.1": (_check_thm61, ("q", "s"), ()),
    "jv": (_check_jv, ("m",), ()),
    "ho": (_check_ho, ("m", "s"), ()),
    "thm3.1": (_check_thm31, ("q", "a", "b"), ()),
    "cor3.2": (_check_cor32, ("q", "s"), ()),
    "hall": (_check_hall, (), ("q", "s", "d", "set")),
}


def cmd_search(args):
    G = parse_group(args.group)
    spec = se.SearchSpec(G, args.k, args.lam, multiplier=args.m,
                         node_budget=args.budget)
    result = se.orbit_union_search(spec)
    report = {"command": "search", "group": G.descriptor(),
              "spec": {"k": spec.k, "lambda": spec.lam,
                       "multiplier": spec.multiplier},
              **result.as_dict()}
    if args.no_timestamps:              # wall time differs from run to run
        del report["seconds"]
    if args.out_dir:
        # each class file holds a set that verify has just accepted
        classes = [ds.make_difference_set(G, s) for s in result.class_reps]
        os.makedirs(args.out_dir, exist_ok=True)
        files = []
        for i, D in enumerate(classes):
            path = os.path.join(args.out_dir, f"class_{i:03d}.dset")
            ds.write_set_file(path, D)
            files.append(path)
        summary = {"spec": report["spec"], "group": G.descriptor(),
                   "classes": result.classes,
                   "sets": [list(s) for s in result.sets],
                   "nodes": result.nodes}
        spath = os.path.join(args.out_dir, "summary.json")
        with open(spath, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
        report["result_files"] = files + [spath]
    report["sets"] = [list(s) for s in result.sets[:64]]
    return (EXIT_OK if result.complete else EXIT_USAGE), report


def cmd_scan(args):
    rows = an.conjecture_scan(args.q, args.s_list, ceiling=args.ceiling)
    report = {"command": "scan", "q": args.q,
              "rows": [r.as_dict() for r in rows]}
    statuses = [r.status for r in rows]
    # 3 for a not-embedded row, else 1 for a refused (error) row, so that a
    # refusal is no counterexample, else 2 for a subgroup-absent one
    if "not-embedded" in statuses:
        return EXIT_FALSIFIED, report
    if any(status.startswith("error") for status in statuses):
        return EXIT_USAGE, report
    return (EXIT_HYPOTHESIS if "subgroup-absent" in statuses else EXIT_OK), report


# -- argument parsing -----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises on a malformed command line, so that `run` reports it as one
    `error:` line with exit 1 instead of a usage block with exit 2, which
    means "hypothesis not met"."""

    def error(self, message):
        raise ValueError(message)


def positive_int(text: str) -> int:
    """The argparse type of an integer flag that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def int_list(text: str) -> list[int]:
    """The argparse type of a comma-separated list of integers."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    """The one declaration of the flags each verb reads; a flag a verb does
    not declare is an error."""
    parser = _Parser(
        prog="diffset",
        description="Construct, verify, and dissect abelian difference sets "
                    "with PG(3,q) parameters.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, func, summary, **kw):
        p = sub.add_parser(name, help=summary, **kw)
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--ceiling", type=int,
                       help="field-order bound in place of 2^28")
        p.add_argument("--no-timestamps", action="store_true",
                       help="leave the timestamp out of the report")
        p.set_defaults(func=func)
        return p

    def instance(p, q_required=False):
        p.add_argument("--q", type=int, required=q_required,
                       help="base prime power")
        sd = p.add_mutually_exclusive_group()
        sd.add_argument("--s", type=int, help="tower exponent: build PG(3, q^s)")
        sd.add_argument("--d", type=int, help="build PG(d-1, q) (default: 4)")

    p = verb("construct", cmd_construct, "build a Singer difference set")
    instance(p, q_required=True)
    p.add_argument("--out", help="output set file")
    p.add_argument("--elements", action="store_true",
                   help="list elements in the report regardless of size")

    p = verb("verify", cmd_verify, "verify a difference-set file")
    p.add_argument("--set", required=True, help="difference-set file")

    for name, func, summary in (
            ("profile", cmd_profile, "coset intersection profile and bound"),
            ("mann", cmd_mann, "run the Mann test against a subgroup")):
        p = verb(name, func, summary)
        instance(p)
        p.add_argument("--set", help="difference-set file, in place of --q")
        p.add_argument("--subgroup-order", type=int, required=True)

    p = verb("check", cmd_check, "check one theorem on one instance",
             description="Each check id requires and accepts only the "
                         "instance flags it reads, as README lists them; "
                         "any other one is an error.")
    p.add_argument("theorem", choices=CHECKS, help="check id")
    instance(p)
    p.add_argument("--set", help="difference-set file")
    p.add_argument("--m", type=positive_int, help="planar order parameter")
    p.add_argument("--a", type=positive_int, help="intermediate field degree a")
    p.add_argument("--b", type=positive_int, help="intermediate field degree b")

    p = verb("search", cmd_search, "multiplier-orbit pruned search")
    p.add_argument("--group", required=True,
                   help='group descriptor, e.g. "Z_15"')
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--m", type=int, default=se.SearchSpec.multiplier,
                   help="numerical multiplier to prune with (default: %(default)s)")
    p.add_argument("--budget", type=positive_int, default=se.SearchSpec.node_budget,
                   help="search node budget (default: %(default)s)")
    p.add_argument("--out-dir", help="write one set file per class here")

    p = verb("scan", cmd_scan, "conjecture evidence scan over s values")
    p.add_argument("--q", type=int, required=True, help="base prime power")
    p.add_argument("--s", dest="s_list", type=int_list, required=True,
                   help="comma-separated s values")

    return parser


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code, report = args.func(args)
    except (FieldSizeError, GroupSizeError, MemoryError, se.BudgetExceeded) as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        emit(report, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): send what is still
        # buffered to devnull, so the interpreter's last flush cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
