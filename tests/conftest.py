import tracemalloc

import pytest


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
