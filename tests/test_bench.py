import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["tower-gf2", "oddp-dense", "search-orbits"])
def test_harness_quick_run(workload):
    # the benchmark harness end to end on each workload's tiny instances,
    # including tower-gf2's seeded one-element corruption that must exit 3
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"),
         "--workload", workload, "--quick", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout


#: Runs every quick op of the benchmark through `cli.run` in one fresh
#: interpreter and prints each op's exit code and whether numpy.ma, which
#: a plain np.unique imports at a cost of about 14 ms cold, is loaded
#: after it ("import" for the package import itself).
IMPORT_PROBE = r"""
import contextlib, io, json, os, random, runpy, sys, tempfile
bench = runpy.run_path(sys.argv[1], run_name="bench_run")
from diffsets import cli
seen = [("import", None, "numpy.ma" in sys.modules)]
for name, workload in bench["WORKLOADS"].items():
    with tempfile.TemporaryDirectory() as cwd:
        os.chdir(cwd)
        for op in workload["quick"]:
            if op.corrupt:
                bench["corrupt"](cwd, *op.corrupt, random.Random(0))
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run([*op.argv, *bench["EXACT"]])
            seen.append((f"{name}/{op.name}", code, "numpy.ma" in sys.modules))
        os.chdir(os.path.dirname(cwd))
print(json.dumps(seen))
"""


def test_quick_ops_do_not_import_numpy_ma():
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, os.path.join(ROOT, "bench", "run.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    assert proc.returncode == 0, proc.stderr[-2000:]
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "bench", "expected.json")) as fh:
        expected = json.load(fh)
    pins = [(f"{name}/{pin['op']}", pin["exit"])
            for name, modes in expected.items() for pin in modes["quick"]]
    assert [(op, code) for op, code, _ in seen[1:]] == pins
    assert [op for op, _, loaded in seen if loaded] == []
