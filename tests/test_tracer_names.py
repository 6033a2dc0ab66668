"""perfbench/tracer.py names the traced poma functions and caches as
strings, so a refactor that renames or drops one would break the traced
benchmark batches without failing any other test.  The file is loaded, not
changed."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_and_caches_resolve():
    tracer = _tracer()
    for mod, fns in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"poma.{mod}")
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"poma.{mod}.{fn}"
    for mod, fn in tracer.CACHES:
        cached = getattr(importlib.import_module(f"poma.{mod}"), fn, None)
        assert callable(getattr(cached, "cache_info", None)), f"poma.{mod}.{fn}"
