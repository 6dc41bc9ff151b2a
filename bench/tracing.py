"""Span tracing for the benchmark's traced run.

:class:`Tracer` wraps the program's public functions at the names their
callers look up: module-level functions are replaced in every ``causalid``
module that binds them, and graph/oracle methods on their class.  Each
wrapped call records a span ``(name, start, end, parent, query id)``; spans
stay in memory until the run ends.  A recursive call of a function already
on top of the span stack runs unwrapped, so one span covers the whole
recursion.

:func:`layer_metrics` turns the spans into per-layer numbers.  A span's
self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import types
from collections import defaultdict
from time import perf_counter

SpanRecord = tuple  # (name, start, end, parent index or -1, query id)

# Span name -> (module, attribute) of each wrapped module-level function.
FUNCTIONS = {
    "graph.parse_graph_text": ("causalid.graph", "parse_graph_text"),
    "sep.d_separated": ("causalid.sep", "d_separated"),
    "sep.rule_applicable": ("causalid.sep", "rule_applicable"),
    "sep.z_w": ("causalid.sep", "z_w"),
    "ccomp.c_components": ("causalid.ccomp", "c_components"),
    "ccomp.observable_blocks": ("causalid.ccomp", "observable_blocks"),
    "expr.canonicalize": ("causalid.expr", "canonicalize"),
    "expr.simplify": ("causalid.expr", "simplify"),
    "expr.evaluate_grid": ("causalid.expr", "evaluate_grid"),
    "ident.causal_effect": ("causalid.ident", "causal_effect"),
    "ident.compute_q": ("causalid.ident", "compute_q"),
    "ident.effect": ("causalid.ident", "_causal_effect_traced"),
    "ident.q": ("causalid.ident", "_compute_q_traced"),
    "docalc.derive_effect": ("causalid.docalc", "derive_effect"),
    "docalc.verify": ("causalid.docalc", "verify_derivation"),  # or docalc.verify_numeric
    "docalc.derivation_to_json": ("causalid.docalc", "derivation_to_json"),
    "docalc.derivation_from_json": ("causalid.docalc", "derivation_from_json"),
    "oracle.random_model": ("causalid.oracle", "random_model"),
    "oracle.observational_joint": ("causalid.oracle", "observational_joint"),
    "oracle.intervened_array": ("causalid.oracle", "intervened_array"),
    "oracle.full_joint": ("causalid.oracle", "full_joint"),
    "oracle.check_estimand": ("causalid.oracle", "check_estimand"),
    "oracle.witness_search": ("causalid.oracle", "witness_search"),
}

# Span name -> (module, class, method) of each wrapped method.
METHODS = {
    "graph.build": ("causalid.graph", "CausalGraph", "__init__"),
    "graph.cut_incoming": ("causalid.graph", "CausalGraph", "cut_incoming"),
    "graph.cut_outgoing": ("causalid.graph", "CausalGraph", "cut_outgoing"),
    "graph.latent_subgraph": ("causalid.graph", "CausalGraph", "latent_subgraph"),
    "graph.remove_barren_latents": ("causalid.graph", "CausalGraph", "remove_barren_latents"),
    "oracle.grid": ("causalid.oracle", "DoEvaluator", "grid"),
}

MUTILATIONS = ("graph.cut_incoming", "graph.cut_outgoing", "graph.latent_subgraph",
               "graph.remove_barren_latents")
JOINTS = ("oracle.observational_joint", "oracle.intervened_array", "oracle.full_joint")


class Tracer:
    """Records spans of wrapped calls; :meth:`install` patches the program,
    :meth:`uninstall` restores it."""

    def __init__(self):
        self.spans: list[SpanRecord | None] = []
        self.qid: str | None = None
        self.last_derivation = None  # kept until the query ends, for step counts
        self.unidentifiable = 0
        self.steps_unique = 0
        self.steps_inlined = 0
        self._stack: list[tuple[str, int]] = []  # (name, span index)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn, name_of=None):
        """A traced version of ``fn``; ``name_of(args, kwargs)`` may pick
        the span name per call."""
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name_of(args, kwargs) if name_of is not None else name
            if stack and stack[-1][0] == span:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][1] if stack else -1
            stack.append((span, idx))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (span, start, perf_counter(), parent, self.qid)
                stack.pop()

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][1] if self._stack else -1
        self._stack.append((name, idx))
        start = perf_counter()
        try:
            yield
        finally:
            self.spans[idx] = (name, start, perf_counter(), parent, self.qid)
            self._stack.pop()

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import causalid  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items()
                   if n == "causalid" or n.startswith("causalid.")]
        for name, (mod, attr) in FUNCTIONS.items():
            fn = getattr(sys.modules[mod], attr)
            wrapped = self.wrap(name, fn, _verify_span_name if name == "docalc.verify" else None)
            if name == "docalc.derive_effect":
                wrapped = self._observe(wrapped, self._keep_derivation)
            elif name == "ident.effect":
                wrapped = self._observe(wrapped, self._count_verdict)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._set(m, key, wrapped)
        for name, (mod, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[mod], cls_name)
            self._set(cls, attr, self.wrap(name, cls.__dict__[attr]))
        cli = sys.modules["causalid.cli"]
        self._set(cli, "json", self._json_proxy())

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @staticmethod
    def _observe(fn, hook):
        @functools.wraps(fn)
        def observed(*args, **kwargs):
            out = fn(*args, **kwargs)
            hook(out)
            return out

        return observed

    def _keep_derivation(self, out) -> None:
        if hasattr(out, "steps"):
            self.last_derivation = out

    def _count_verdict(self, out) -> None:
        self.unidentifiable += not out[0].identifiable

    def _json_proxy(self):
        """The ``json`` module as the CLI sees it, with the derivation
        file's dump and load traced as encode and decode work."""
        proxy = types.SimpleNamespace(
            **{k: getattr(json, k) for k in dir(json) if not k.startswith("__")}
        )
        proxy.dumps = self.wrap(
            "cli.dumps", json.dumps,
            lambda a, kw: "docalc.dump" if isinstance(a[0], dict) and "steps" in a[0]
            else "cli.dumps",
        )
        proxy.loads = self.wrap("docalc.load", json.loads)
        return proxy


def _verify_span_name(args, kwargs) -> str:
    models = kwargs.get("models", args[1] if len(args) > 1 else 5)
    return "docalc.verify_numeric" if models > 0 else "docalc.verify"


def step_counts(d) -> tuple[int, int]:
    """(unique, inlined) step counts of a derivation tree: each nested
    fragment counted once, against each reference expanded."""
    seen: set[int] = set()
    unique = 0
    todo = [d]
    while todo:
        cur = todo.pop()
        for step in cur.steps:
            unique += 1
            nested = getattr(step.justification, "derivation", None)
            if nested is not None and id(nested) not in seen:
                seen.add(id(nested))
                todo.append(nested)

    memo: dict[int, int] = {}

    def inlined(cur) -> int:
        got = memo.get(id(cur))
        if got is None:
            got = 0
            for step in cur.steps:
                nested = getattr(step.justification, "derivation", None)
                got += 1 + (inlined(nested) if nested is not None else 0)
            memo[id(cur)] = got
        return got

    return unique, inlined(d)


def self_times(spans: list[SpanRecord]) -> list[float]:
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans: list[SpanRecord], queries: int,
                  extra_counts: dict[str, float]) -> dict[str, float]:
    """Per-query layer metrics from the spans of ``queries`` queries."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    own: dict[str, float] = defaultdict(float)
    witness_evals = 0
    names = [s[0] for s in spans]
    for i, (name, _, _, parent, _) in enumerate(spans):
        calls[name] += 1
        own[name] += selfs[i]
        if name in JOINTS:
            p = parent
            while p >= 0 and names[p] != "oracle.witness_search":
                p = spans[p][3]
            witness_evals += p >= 0

    def s(*keys):
        return sum(own[k] for k in keys)

    def layer(prefix):
        return sum(v for k, v in own.items() if k.startswith(prefix + "."))

    m = {
        "graph.builds": calls["graph.build"],
        "graph.build_s": own["graph.build"],
        "graph.mutilations": sum(calls[k] for k in MUTILATIONS),
        "graph.parse_s": own["graph.parse_graph_text"],
        "sep.dsep_calls": calls["sep.d_separated"],
        "sep.dsep_s": own["sep.d_separated"],
        "sep.rule_checks": calls["sep.rule_applicable"],
        "sep.rule_s": s("sep.rule_applicable", "sep.z_w"),
        "ccomp.calls": calls["ccomp.c_components"],
        "ccomp.s": layer("ccomp"),
        "expr.canonicalize_calls": calls["expr.canonicalize"],
        "expr.canonicalize_s": own["expr.canonicalize"],
        "expr.simplify_s": own["expr.simplify"],
        "expr.eval_grid_calls": calls["expr.evaluate_grid"],
        "expr.eval_grid_s": own["expr.evaluate_grid"],
        "ident.s": layer("ident"),
        "docalc.derive_s": own["docalc.derive_effect"],
        "docalc.verify_s": own["docalc.verify"],
        "docalc.verify_numeric_s": own["docalc.verify_numeric"],
        "docalc.encode_s": s("docalc.derivation_to_json", "docalc.dump"),
        "docalc.decode_s": s("docalc.load", "docalc.derivation_from_json"),
        "oracle.models": calls["oracle.random_model"],
        "oracle.joint_calls": sum(calls[k] for k in JOINTS),
        "oracle.joint_s": s(*JOINTS),
        "oracle.grid_s": own["oracle.grid"],
        "oracle.witness_evals": witness_evals,
        "cli.self_s": layer("cli"),
        "trace.uncovered_s": own["query"],
        "trace.query_s": sum(e - b for (name, b, e, _, _) in spans if name == "query"),
    }
    for name in ("graph", "sep", "expr", "docalc", "oracle"):
        m[f"{name}.self_s"] = layer(name)
    m.update(extra_counts)
    n = max(queries, 1)
    return {k: v / n for k, v in m.items()}
