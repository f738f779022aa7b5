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
