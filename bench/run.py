"""End-to-end and per-layer benchmark of the `diffset` CLI.

Usage (from the repository root):

    python3 bench/run.py --workload tower-gf2 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --quick        # self-test: every workload, tiny inputs

A closed loop with one client: a pass runs the workload's verbs in order,
each as a fresh single-threaded interpreter (bench/launch.py), because
every real CLI call starts cold.  Passes repeat until --seconds have
elapsed (at least one).  Every output is checked against the pins in
bench/expected.json (exit code, facts, sha256 of written files); an op
also fails when any verification in it reports the `sampled` mode, since
only the exact check (forced by --ceiling) counts as verified.

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over
passes).  --trace 1 alternates untraced and traced passes and reports the
per-layer metrics from the spans the launcher records.  The last stdout
line is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAUNCHER = os.path.join(ROOT, "bench", "launch.py")
WORK = os.path.join(ROOT, ".bench_work")
EXACT = ["--ceiling", "268435456", "--json", "--no-timestamps"]
SETUP_PROBES = 12
CALL_TIMEOUT_S = 150


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple
    files: tuple = ()        # outputs whose sha256 is pinned (files or dirs)
    corrupt: tuple = ()      # (source, target): seeded one-element corruption


def _ops(*specs):
    return [Op(name, tuple(argv.split()), tuple(files), tuple(corrupt))
            for name, argv, files, corrupt in specs]


# Why each workload: see BENCHMARK.json.  "quick" runs the same verbs on
# tiny instances so the harness itself can be tested in seconds.
WORKLOADS = {
    "tower-gf2": {
        "full": _ops(
            ("construct", "construct --q 2 --s 7 --out d.dset", ["d.dset"], []),
            ("verify", "verify --set d.dset", [], []),
            ("verify-corrupt", "verify --set bad.dset", [], ["d.dset", "bad.dset"]),
            ("thm4.3", "check thm4.3 --q 2 --s 7", [], []),
            ("profile", "profile --set d.dset --subgroup-order 129", [], []),
            ("scan", "scan --q 2 --s 1,3,5", [], [])),
        "quick": _ops(
            ("construct", "construct --q 2 --s 3 --out d.dset", ["d.dset"], []),
            ("verify", "verify --set d.dset", [], []),
            ("verify-corrupt", "verify --set bad.dset", [], ["d.dset", "bad.dset"]),
            ("thm4.3", "check thm4.3 --q 2 --s 3", [], []),
            ("profile", "profile --set d.dset --subgroup-order 9", [], []),
            ("scan", "scan --q 2 --s 1,3", [], [])),
    },
    "oddp-dense": {
        "full": _ops(
            ("construct-s4", "construct --q 3 --s 4 --out s4.dset", ["s4.dset"], []),
            ("construct-d11", "construct --q 3 --d 11 --out d11.dset", ["d11.dset"], []),
            ("thm4.3", "check thm4.3 --q 3 --s 3", [], []),
            ("mann", "mann --q 3 --subgroup-order 10", [], []),
            ("profile", "profile --set s4.dset --subgroup-order 82", [], [])),
        "quick": _ops(
            ("construct-s1", "construct --q 3 --s 1 --out s1.dset", ["s1.dset"], []),
            ("construct-d3", "construct --q 3 --d 3 --out d3.dset", ["d3.dset"], []),
            ("thm4.3", "check thm4.3 --q 3 --s 3", [], []),
            ("mann", "mann --q 3 --subgroup-order 10", [], []),
            ("profile", "profile --set s1.dset --subgroup-order 10", [], [])),
    },
    "search-orbits": {
        "full": _ops(
            ("search-127", "search --group Z_127 --k 63 --lambda 31 --m 2", [], []),
            ("search-133", "search --group Z_133 --k 12 --lambda 1 --m 11 --out-dir out",
             ["out"], [])),
        "quick": _ops(
            ("search-15", "search --group Z_15 --k 7 --lambda 3 --m 2", [], []),
            ("search-13", "search --group Z_13 --k 4 --lambda 1 --m 3 --out-dir out",
             ["out"], [])),
    },
}


# -- checking outputs ------------------------------------------------------------

def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_sha(obj) -> str:
    return _sha(json.dumps(obj, separators=(",", ":")).encode())


def _pick(rep, *keys):
    return {k: rep.get(k) for k in keys}


def _oks(items):
    return [item["ok"] for item in items]


FACTS = {
    "construct": lambda r: _pick(r, "group", "params", "verified", "normalized",
                                 "verification_mode", "field_descriptor"),
    "verify": lambda r: _pick(r, "group", "params", "verified", "mode",
                              "lambda_observed", "identity_count"),
    "check": lambda r: {**_pick(r, "status"),
                        "params": r["instance"].get("params"),
                        "hypotheses_ok": _oks(r["hypotheses"]),
                        "conclusions_ok": _oks(r["conclusions"])},
    "mann": lambda r: {**_pick(r, "params", "verified", "status"),
                       "witness": r["instance"].get("witness"),
                       "conclusions_ok": _oks(r["conclusions"])},
    "profile": lambda r: {**_pick(r, "params", "subgroup_order"),
                          "index": r["profile"]["index"],
                          "sum_ok": r["profile"]["sum_ok"],
                          "sum_sq_ok": r["profile"]["sum_sq_ok"],
                          "bound_ok": r["distribution_bound"]["ok"],
                          "profile_sha256": _json_sha(r["profile"]["profile"])},
    "scan": lambda r: {"rows": [[x["s"], x["v"], x["status"],
                                 x["detail"].get("restriction", {}).get("verified")]
                                for x in r["rows"]]},
    "search": lambda r: {**_pick(r, "group", "spec", "sets_found", "classes",
                                 "complete"),
                         "sets_sha256": _json_sha(r["sets"])},
}


def _sampled(obj) -> bool:
    """Does any verification inside a report use the sampled spot check?"""
    if isinstance(obj, dict):
        if "sampled" in (obj.get("mode"), obj.get("verification_mode")):
            return True
        return any(_sampled(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_sampled(v) for v in obj)
    return False


def _digests(cwd, paths) -> dict:
    out = {}
    for rel in paths:
        full = os.path.join(cwd, rel)
        names = ([os.path.join(rel, n) for n in sorted(os.listdir(full))]
                 if os.path.isdir(full) else [rel])
        for name in names:
            with open(os.path.join(cwd, name), "rb") as fh:
                out[name] = _sha(fh.read())
    return out


def observe(op: Op, call, cwd) -> dict:
    """What an op produced, in the form bench/expected.json pins."""
    obs = {"exit": call.exit}
    try:
        rep = json.loads(call.stdout)
        obs["facts"] = FACTS[op.argv[0]](rep)
        obs["sampled"] = _sampled(rep)
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        obs["facts"] = f"unreadable report: {e}"
    try:
        obs["files"] = _digests(cwd, op.files)
    except OSError as e:
        obs["files"] = f"missing output: {e}"
    return obs


def mismatch(obs: dict, expected: dict) -> str | None:
    if obs.get("sampled"):
        return "a verification ran in sampled mode"
    for key in ("exit", "facts", "files"):
        if obs.get(key) != expected.get(key):
            return f"{key}: got {obs.get(key)!r}, expected {expected.get(key)!r}"
    return None


# -- running one cold CLI call ----------------------------------------------------

@dataclass
class Call:
    exit: int
    wall_s: float
    cpu_s: float
    rss_kb: int
    setup_s: float | None
    stdout: str = ""
    stderr: str = ""
    info: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("DIFFSET_WORKERS", None)
    return env


def spawn(argv, cwd, trace: bool, op_id: str, env: dict) -> Call:
    """Run one launcher process; wall time runs from spawn to reap."""
    tag = op_id.replace("/", "_")
    sidecar = os.path.join(cwd, f".{tag}.sidecar.json")
    out_path = os.path.join(cwd, f".{tag}.out")
    with open(out_path, "wb") as out, open(out_path[:-4] + ".err", "wb") as err:
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, LAUNCHER, sidecar, "1" if trace else "0", op_id,
             *argv], cwd=cwd, stdout=out, stderr=err, env=env)
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    info = {}
    if os.path.exists(sidecar):
        with open(sidecar) as fh:
            info = json.load(fh)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(out_path[:-4] + ".err") as fh:
        stderr = fh.read()
    setup = (info["imported_ns"] - t0) / 1e9 if "imported_ns" in info else None
    return Call(proc.returncode, (t1 - t0) / 1e9,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss, setup,
                stdout, stderr, info)


def corrupt(cwd, source, target, rng: random.Random):
    """Copy a set file with one element replaced by a seeded non-member."""
    with open(os.path.join(cwd, source)) as fh:
        lines = fh.read().splitlines()
    v = int(lines[1].split()[0])
    members = {int(x) for x in lines[2:]}
    pos = 2 + rng.randrange(len(lines) - 2)
    value = rng.randrange(v)
    while value in members:
        value = rng.randrange(v)
    lines[pos] = str(value)
    with open(os.path.join(cwd, target), "w") as fh:
        fh.write("\n".join(lines) + "\n")


# -- passes ------------------------------------------------------------------------

@dataclass
class Pass:
    traced: bool
    calls: list
    failures: list


def run_pass(ops, expected, pass_dir, traced, rng, env, label) -> Pass:
    os.makedirs(pass_dir)
    calls, failures = [], []
    for op in ops:
        if op.corrupt:
            corrupt(pass_dir, *op.corrupt, rng)
        call = spawn([*op.argv, *EXACT], pass_dir, traced, f"{label}/{op.name}", env)
        calls.append(call)
        why = mismatch(observe(op, call, pass_dir), expected[op.name])
        if why is None and not call.info.get("package", "").startswith("src"):
            why = f"imported the package from {call.info.get('package')}"
        if why is not None:
            failures.append(f"{label}/{op.name}: {why}; stderr: {call.stderr[-300:]!r}")
    shutil.rmtree(pass_dir)
    return Pass(traced, calls, failures)


def pass_wall(p: Pass) -> float:
    return sum(c.wall_s for c in p.calls)


# -- metrics -----------------------------------------------------------------------

def _family(*names):
    """Span-name matcher: exact function names, or whole layers by name."""
    return lambda span: span in names or span.split(".")[0] in names


CONSTRUCT = ("singer.singer_construct", "singer.singer_construct_streamed")
SELF_TIME = {
    "cli.self_s": _family("cli"),
    "singer.construct_self_s": _family(*CONSTRUCT),
    "dset.io_s": _family("dset.read_set_file", "dset.write_set_file"),
    "analysis.check_self_s": _family("analysis"),
    "search.dfs_self_s": _family("search.orbit_union_search"),
}
INCLUSIVE_TIME = {     # outermost spans of the family, so nesting counts once
    "field.make_field_s": _family("field.make_field"),
    "dset.verify_s": _family("dset.verify"),
    "dset.normalize_s": _family("dset.normalize"),
    "dset.restrict_s": _family("dset.restrict"),
    "dset.profile_s": _family("dset.intersection_profile",
                              "dset.distribution_bound_check"),
    "groups.subgroup_s": _family("groups"),
    "search.canonical_s": _family("search.canonical_class"),
}
CALLS = {
    "singer.construct_calls": _family(*CONSTRUCT),
    "dset.verify_calls": _family("dset.verify"),
    "dset.verify_sampled_calls": _family("dset.verify_sampled"),
    "search.canonical_calls": _family("search.canonical_class"),
}
COUNTERS = {"dset.verify_pairs": "pairs", "dset.io_bytes": "bytes",
            "search.nodes": "nodes", "search.sets_found": "sets_found",
            "search.classes": "classes"}


def layer_metrics(p: Pass) -> dict:
    """Per-layer totals over one traced pass."""
    m = dict.fromkeys([*SELF_TIME, *INCLUSIVE_TIME, *CALLS, *COUNTERS], 0)
    covered = 0
    for call in p.calls:
        spans = call.info.get("spans", [])
        child_ns = [0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
            else:
                covered += t1 - t0

        def nested_in(i, match):
            i = spans[i][3]
            while i >= 0:
                if match(spans[i][0]):
                    return True
                i = spans[i][3]
            return False

        for i, (name, t0, t1, parent, counters) in enumerate(spans):
            for key, match in SELF_TIME.items():
                if match(name):
                    m[key] += (t1 - t0 - child_ns[i]) / 1e9
            for key, match in INCLUSIVE_TIME.items():
                if match(name) and not nested_in(i, match):
                    m[key] += (t1 - t0) / 1e9
            for key, match in CALLS.items():
                m[key] += match(name)
            for key, counter in COUNTERS.items():
                m[key] += (counters or {}).get(counter, 0)
    pairs = m["dset.verify_pairs"]
    m["dset.verify_ns_per_pair"] = m["dset.verify_s"] * 1e9 / pairs if pairs else 0.0
    m["trace.uncovered_share"] = 1 - covered / 1e9 / pass_wall(p)
    return m


def median_of(values):
    return statistics.median(values) if values else 0.0


def summarize(passes, setups, trace: bool) -> dict:
    """metric name -> (value, sample count)."""
    plain = [p for p in passes if not p.traced]
    if not trace:
        return {
            "wall_s": (median_of([pass_wall(p) for p in plain]), len(plain)),
            "cpu_s": (median_of([sum(c.cpu_s for c in p.calls) for p in plain]),
                      len(plain)),
            "setup_s": (median_of(setups), len(setups)),
            "peak_rss_mb": (median_of([max(c.rss_kb for c in p.calls) / 1024
                                       for p in plain]), len(plain)),
        }
    traced = [p for p in passes if p.traced]
    per_pass = [layer_metrics(p) for p in traced]
    out = {k: (median_of([pm[k] for pm in per_pass]), len(per_pass))
           for k in per_pass[0]}
    out["proc.import_s"] = (median_of(setups), len(setups))
    out["trace.overhead_s"] = (median_of([pass_wall(p) for p in traced])
                               - median_of([pass_wall(p) for p in plain]),
                               len(traced))
    return out


# -- environment -------------------------------------------------------------------

def _git_sha():
    """HEAD of a .git directory at the root, read without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _src_sha():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "diffsets")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(probe_info: dict) -> dict:
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": probe_info.get("python"),
            "numpy": probe_info.get("numpy"), "git_sha": _git_sha(),
            "src_sha256": _src_sha(),
            "child_env": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}}


# -- driver ------------------------------------------------------------------------

def load_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        config = json.load(fh)
    with open(os.path.join(ROOT, "bench", "expected.json")) as fh:
        expected = json.load(fh)
    return config, expected


def run_workload(name, seed, seconds, trace, quick, config, expected):
    """One benchmark run; returns (result line, report lines)."""
    mode = "quick" if quick else "full"
    ops = WORKLOADS[name][mode]
    pins = {e["op"]: e for e in expected[name][mode]}
    rng = random.Random(seed)
    env = child_env()
    run_dir = os.path.join(WORK, f"run-{os.getpid()}-{name}-{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        spawn([], run_dir, False, "warmup", env)        # compiles bytecode once
        probes = [spawn([], run_dir, False, f"probe{i}", env)
                  for i in range(SETUP_PROBES)]
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            for traced in ((False, True) if trace else (False,)):
                i = len(passes)
                passes.append(run_pass(ops, pins, os.path.join(run_dir, f"p{i}"),
                                       traced, rng, env, f"{name}/p{i}"))
        if trace:
            dump = [{"op": c.info.get("op"), "wall_s": c.wall_s,
                     "spans": c.info.get("spans", [])}
                    for p in passes if p.traced for c in p.calls]
            with open(os.path.join(WORK, f"spans-{name}-{mode}.json"), "w") as fh:
                json.dump(dump, fh)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    calls = [c for p in passes for c in p.calls]
    setups = [c.setup_s for c in probes + calls if c.setup_s is not None]
    failures = [f for p in passes for f in p.failures]
    stats = summarize(passes, setups, trace)
    wanted = config["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": stats[m["name"]][0], "unit": m["unit"]}
               for m in wanted}
    lines = [f"env: {json.dumps(environment(probes[0].info))}",
             f"run: workload={name} mode={mode} seed={seed} seconds={seconds} "
             f"trace={int(trace)} passes={len(passes)} ops={len(calls)}"]
    lines += [f"  {m['name']:<28} {stats[m['name']][0]:>14.6g} {m['unit']:<6} "
              f"n={stats[m['name']][1]}" for m in wanted]
    lines.append(f"  {'error_rate':<28} {len(failures) / max(1, len(calls)):>14.6g} "
                 f"{'ratio':<6} n={len(calls)}")
    for i, op in enumerate(ops):
        walls = [p.calls[i].wall_s for p in passes if not p.traced]
        lines.append(f"  op {op.name:<25} {median_of(walls):>14.6g} s      "
                     f"n={len(walls)} (median wall of one call)")
    lines += [f"FAILED {f}" for f in failures]
    result = {"correct": not failures, "attempted": len(calls),
              "failed": len(failures), "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny instances; without --workload, self-test "
                             "every workload with and without tracing")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "diffsets", "cli.py")):
        print(f"error: no diffsets source under {ROOT}/src", file=sys.stderr)
        return 2
    if args.workload is None and not args.quick:
        parser.error("--workload is required unless --quick is given")
    config, expected = load_config()
    seconds = config["run_seconds"] if args.seconds is None else args.seconds
    if args.workload is not None:
        result, lines = run_workload(args.workload, args.seed, seconds,
                                     bool(args.trace), args.quick, config, expected)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        return 0
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result, lines = run_workload(name, args.seed, 0, trace, True,
                                         config, expected)
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
            ok = ok and result["correct"]
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
