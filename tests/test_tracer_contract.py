"""The benchmark tracer wraps einselect functions by name; every name must resolve.

einbench/tracer.py rebinds each (module, attribute) pair in its LAYERS table
when a run asks for per-layer spans, and a renamed or deleted function only
shows up there as a crash. This test loads the tracer by path and resolves
every pair, so a rename fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "einbench" / "tracer.py"


def _resolve(module_name: str, attr: str):
    """The callable the tracer would wrap, or None when the name is gone."""
    owner_name, _, method = attr.partition(".")
    owner = getattr(importlib.import_module(module_name), owner_name, None)
    if method:
        # the tracer wraps the method found in the class's own namespace
        return vars(owner).get(method) if owner is not None else None
    return owner


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("einbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [pair for pairs in tracer.LAYERS.values() for pair in pairs]
    assert targets
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr in targets
        if not callable(_resolve(module_name, attr))
    ]
    assert missing == []
