"""The benchmark's tracer names library functions by (module, name); each
must resolve in the package as the tracer resolves it, so that a rename
fails here rather than in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer_targets() -> tuple:
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_traced_name_resolves_in_the_package():
    targets = _tracer_targets()
    assert ("cli", "run") in targets
    missing = []
    for layer, qualname in targets:
        owner = importlib.import_module(f"gkdim.{layer}")
        if "." in qualname:
            # a method is rebound on its class, so the class must define it
            cls_name, attr = qualname.split(".")
            found = attr in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, qualname, None))
        if not found:
            missing.append(f"{layer}.{qualname}")
    assert missing == []
