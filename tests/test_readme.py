"""README.md names only what the package has."""
import importlib
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The modules whose attributes README.md names as `module.name`.
MODULES = ("dset", "groups", "singer", "field", "numth", "search", "analysis")


def test_readme_module_names_resolve():
    # `singer.construct_self_s` and the like are per-layer metrics of the
    # benchmark, not attributes
    text = (ROOT / "README.md").read_text()
    refs = set(re.findall(r"`((?:%s)\.\w+)`" % "|".join(MODULES), text))
    metrics = {m["name"] for m in
               json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert refs - metrics
    missing = [ref for ref in sorted(refs - metrics)
               if not hasattr(importlib.import_module(
                   "diffsets." + ref.split(".")[0]), ref.split(".")[1])]
    assert not missing
