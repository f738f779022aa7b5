"""Start one cold `diffset` call for the benchmark and report on it.

Usage: python3 bench/launch.py SIDECAR TRACE OP_ID [VERB ARGS...]

The interpreter starts, imports the package exactly as the `diffset`
entry point does, and records the CLOCK_MONOTONIC time at which the
import finished, so the parent can subtract its spawn time.  Without a
verb the call stops there (a set-up probe).  With TRACE = 1, every public
function of the layer modules is wrapped before the verb runs, and each
call becomes a span [name, start_ns, end_ns, parent index, counters].
The sidecar JSON file is written when the call ends, also on failure.
"""
import sys
import time

import diffsets.cli  # noqa: E402  (timed: this is the set-up being measured)

IMPORTED_NS = time.monotonic_ns()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402

LAYERS = ("cli", "field", "singer", "dset", "groups", "analysis", "search")


def _count_pairs(args, kwargs, out):
    elements = kwargs.get("elements", args[1] if len(args) > 1 else ())
    return {"pairs": len(elements) ** 2}


def _count_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _count_search(args, kwargs, out):
    return {"nodes": out.nodes, "sets_found": len(out.sets),
            "classes": out.classes}


#: Counters recorded at the layer boundary, keyed by span name.  "pairs" is
#: computed (k^2 of the verified element list), not counted by the program.
COUNTERS = {
    "dset.verify": _count_pairs,
    "dset.read_set_file": _count_bytes,
    "dset.write_set_file": _count_bytes,
    "search.orbit_union_search": _count_search,
}


class Tracer:
    """In-memory span recorder around the public functions of each layer."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.monotonic_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic_ns()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, out)
            return out
        return traced

    def install(self):
        """Replace each public layer function everywhere the package binds
        it, including names copied by `from .module import name`."""
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"diffsets.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname == "diffsets" or modname.startswith("diffsets."):
                for name, obj in list(vars(mod).items()):
                    if id(obj) in wrapped:
                        setattr(mod, name, wrapped[id(obj)])


def main(argv):
    sidecar, trace, op_id, verb = argv[0], argv[1] == "1", argv[2], argv[3:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    info = {"op": op_id, "imported_ns": IMPORTED_NS,
            "package": os.path.relpath(diffsets.__file__, root),
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__}
    tracer = Tracer() if trace else None
    code = 0
    try:
        if verb:
            if tracer is not None:
                tracer.install()
            code = diffsets.cli.run(verb)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            info["spans"] = tracer.spans
        with open(sidecar, "w") as fh:
            json.dump(info, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
