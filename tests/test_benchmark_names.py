import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    # the benchmark attributes time by these names; a rename in the package
    # would silently drop a layer boundary or a pinned count
    tracer = _load_tracer()
    names = {f"{m}.{f}" for m, fs in tracer.BOUNDARIES.items() for f in fs}
    names |= {*tracer.INCLUSIVE, *tracer.CALLS, *tracer.COUNTED}
    missing = []
    for name in sorted(names):
        module, fname = name.split(".")
        if not callable(getattr(importlib.import_module(f"stringcone.{module}"), fname, None)):
            missing.append(name)
    assert not missing
