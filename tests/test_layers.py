"""The layers the benchmark traces (perfbench/tracer.py) still name molstore
functions; a renamed or deleted one would crash its traced run."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers():
    """LAYERS as written in the tracer, read without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no LAYERS")


def test_traced_layers_resolve_to_callables():
    layers = _layers()
    assert layers
    for module, function in layers:
        target = getattr(importlib.import_module(f"molstore.{module}"), function, None)
        assert callable(target), f"molstore.{module}.{function}"
