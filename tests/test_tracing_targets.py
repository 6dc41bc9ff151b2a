"""The benchmark's traced run wraps program functions by name; a rename or
deletion in ``causalid`` must not leave a wrapper pointing at nothing.  It
also counts derivation steps through the in-memory shape of a derivation,
which must keep leading it to every nested fragment."""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

from causalid.docalc import Derivation, derive_effect

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


def test_cli_keeps_a_module_level_json():
    # The traced run replaces the CLI's JSON codec through this attribute
    # (``Tracer.install``) to time the derivation file's load.
    cli = importlib.import_module("causalid.cli")
    assert vars(cli).get("json") is json


def load_tracing():
    """The tracing module, loaded from its file; it needs only the
    standard library."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_counts_find_nested_fragments(g_frontdoor):
    step_counts = load_tracing().step_counts
    d = derive_effect({"X"}, {"Y"}, g_frontdoor)
    # By hand: the query takes 6 steps, two of them substitutions.  The
    # first substitutes a 3-step fragment that substitutes a 9-step one;
    # the second substitutes a 7-step fragment.  No fragment is shared.
    assert [len(s.justification.derivation.steps) for s in d.steps
            if s.justification is not None] == [3, 7]
    assert step_counts(d) == (6 + 3 + 9 + 7, 6 + 3 + 9 + 7)
    # The first substitution twice: its fragments count once unique, and
    # twice inlined.
    step = next(s for s in d.steps if s.justification is not None)
    twice = Derivation(d.graph, None, step.before, (step, step))
    assert step_counts(twice) == (2 + 3 + 9, 2 * (1 + 3 + 9))
