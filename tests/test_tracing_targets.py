"""The benchmark's traced run wraps program functions by name; a rename or
deletion in ``causalid`` must not leave a wrapper pointing at nothing."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def tracing_table(name: str) -> dict:
    """The dict literal assigned to ``name`` in the tracing module, read
    from its source without importing it."""
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING.name}")


def test_traced_functions_resolve():
    functions = tracing_table("FUNCTIONS")
    assert functions
    for span, (module, attr) in functions.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), span


def test_traced_methods_resolve():
    methods = tracing_table("METHODS")
    assert methods
    for span, (module, cls, attr) in methods.items():
        owner = getattr(importlib.import_module(module), cls, None)
        assert owner is not None and attr in vars(owner), span
