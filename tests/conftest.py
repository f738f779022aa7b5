import cProfile
import sys
import tracemalloc

import pytest

from diffsets import cli


@pytest.fixture
def traced_peak():
    """traced_peak(fn, *args): (fn(*args), the peak bytes tracemalloc
    traced during the call)."""
    def run(fn, *args):
        tracemalloc.start()
        try:
            out = fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out, peak
    return run


@pytest.fixture
def hooked_runs(capsys):
    """hooked_runs(*argv): the (exit code, stdout) of `cli.run(argv)` run
    three ways, plainly, under `cProfile.Profile().runcall` and under a
    `sys.settrace` tracer of every line."""
    def tracer(frame, event, arg):
        return tracer

    def traced(fn, *args):
        before = sys.gettrace()
        sys.settrace(tracer)
        try:
            return fn(*args)
        finally:
            sys.settrace(before)

    def run(*argv):
        runs = []
        for call in (lambda fn, *args: fn(*args), cProfile.Profile().runcall, traced):
            code = call(cli.run, list(argv))
            runs.append((code, capsys.readouterr().out))
        return runs
    return run
