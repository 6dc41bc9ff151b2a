"""The identification decision procedure.

Decides identifiability of P_t(s) from graph structure alone and, when the
effect is identifiable, builds a symbolic estimand over observational
marginals.  The decision is a recursion on sets: the observables are split
into confounded components, and each target block is reduced against its
component by a chain of ancestral sets, recorded as a trace.  The estimand
is a fold over that trace (sums of products of quotients of prefix
marginals), built only once the decision has succeeded; the derivation
compiler reads the trace alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .ccomp import c_components, observable_blocks
from .expr import (
    JointMarginal,
    One,
    Product,
    ProbExpr,
    Quotient,
    Sum,
    canonicalize,
    free_vars,
    simplify,
)
from .graph import CausalGraph, GraphError

__all__ = [
    "QFactor",
    "IdentResult",
    "sum_to_ancestral",
    "factorize_components",
    "identify",
    "compute_q",
    "causal_effect",
]


@dataclass(frozen=True)
class QFactor:
    """A post-intervention factor: the effect on ``scope`` of holding every
    other observable fixed, together with its identified estimand."""

    scope: frozenset[str]
    estimand: ProbExpr


@dataclass(frozen=True)
class IdentResult:
    """Outcome of an identification query: ``witness`` is the innermost
    failing (c, t) pair of the recursion, or None when the effect is
    identifiable, and then ``estimand`` is set (save in the bare decision
    that :func:`_causal_effect_traced` returns)."""

    estimand: ProbExpr | None
    witness: tuple[frozenset[str], frozenset[str]] | None

    @property
    def identifiable(self) -> bool:
        return self.witness is None


class Unidentifiable(Exception):
    """Raised where a set chain stalls, with the failing (c, t) pair."""

    def __init__(self, c: frozenset[str], t: frozenset[str]):
        self.pair = (c, t)
        super().__init__(f"not identifiable: c={sorted(c)}, t={sorted(t)}")

    @property
    def result(self) -> IdentResult:
        return IdentResult(estimand=None, witness=self.pair)


# -- traces of the set recursion ------------------------------------------------


@dataclass(frozen=True)
class IdentifyTrace:
    """The (t, a) chain of one block reduction; the final level has a == c."""

    c: frozenset[str]
    levels: tuple[tuple[frozenset[str], frozenset[str]], ...]


@dataclass(frozen=True)
class EffectTrace:
    """The chains behind Q[d]: one per confounded component of ``d``."""

    graph: CausalGraph  # after barren-latent removal
    d: frozenset[str]
    s_blocks: tuple[frozenset[str], ...]
    identify_traces: tuple[IdentifyTrace, ...]


# -- operations ------------------------------------------------------------------


def sum_to_ancestral(q: QFactor, w: Iterable[str], g: CausalGraph) -> QFactor:
    """Restrict a factor to an ancestral subset by summing the rest out.

    ``w`` must contain all of its own observed ancestors within the latent
    subgraph over ``q.scope``; a violation is a caller bug, not a property
    of the query.
    """
    w = frozenset(w)
    if not w <= q.scope:
        raise GraphError("w must be a subset of the factor scope")
    if not g.is_ancestral(w, q.scope):
        raise GraphError(
            f"{sorted(w)} is not ancestral within {sorted(q.scope)}"
        )
    return QFactor(w, canonicalize(Sum(q.scope - w, q.estimand)))


def factorize_components(
    h: Iterable[str], q_h: QFactor, g: CausalGraph
) -> list[QFactor]:
    """Split a factor along the confounded components of its scope.

    The scope is ordered topologically and the factor for each component is
    the product, over the component's members, of quotients of consecutive
    prefix sums of the scope estimand.  Summing the returned estimands over
    nothing and multiplying them back together reproduces ``q_h``
    numerically.
    """
    h = frozenset(h)
    if q_h.scope != h:
        raise GraphError("factor scope does not match h")
    return [_component_factor(g, h, b, q_h.estimand) for b in _observable_components(g, h)]


def _component_factor(
    g: CausalGraph, scope: frozenset[str], block: frozenset[str], q: ProbExpr
) -> QFactor:
    """The factor of ``block``, one confounded component of ``scope``, from
    the estimand ``q`` of the factor on ``scope``: the product over the
    block's members, in topological order, of quotients of consecutive
    prefix sums of ``q``."""
    order = g.topo_order(scope)
    js = [j for j, name in enumerate(order, start=1) if name in block]
    prefix = {j: canonicalize(Sum(frozenset(order[j:]), q))
              for j in {*js, *(j - 1 for j in js if j > 1)}}
    parts = [prefix[j] if j == 1 else Quotient(prefix[j], prefix[j - 1]) for j in js]
    return QFactor(block, parts[0] if len(parts) == 1 else Product(parts))


def _observable_components(g: CausalGraph, scope: frozenset[str]) -> list[frozenset[str]]:
    return observable_blocks(c_components(g, scope), g)


def _assert_single_component(g: CausalGraph, scope: frozenset[str], role: str):
    blocks = _observable_components(g, scope)
    if len(blocks) != 1:
        raise GraphError(
            f"contract violation: {role} {sorted(scope)} spans "
            f"{len(blocks)} confounded components"
        )


def _identify_traced(c: frozenset[str], t: frozenset[str], g: CausalGraph) -> IdentifyTrace:
    """The (t, a) chain that reduces Q[t] to Q[c]; Unidentifiable when it
    stalls at a == t.  ``t`` and ``c`` are each one confounded component."""
    levels: list[tuple[frozenset[str], frozenset[str]]] = []
    while True:
        a = g._ancestors_within(c, t)
        levels.append((t, a))
        if a == c:
            return IdentifyTrace(c=c, levels=tuple(levels))
        if a == t:
            raise Unidentifiable(c, t)
        # c is a proper subset of a, itself a proper subset of t: go on in
        # the component of a that contains c.
        t = next(b for b in _observable_components(g, a) if c <= b)


def _reduce(q_t: QFactor, tr: IdentifyTrace, g: CausalGraph) -> ProbExpr:
    """Fold the factor on the chain's first t down the chain to Q[c]."""
    for (t, a), (t1, _) in zip(tr.levels, tr.levels[1:]):
        # a is ancestral in t and t1 one confounded component of a, as the
        # trace built them.
        q_t = _component_factor(g, a, t1, canonicalize(Sum(t - a, q_t.estimand)))
    t = tr.levels[-1][0]
    return canonicalize(Sum(t - tr.c, q_t.estimand))


def identify(
    c: Iterable[str], t: Iterable[str], q_t: QFactor, g: CausalGraph
) -> IdentResult:
    """Reduce the factor on ``t`` to one on ``c`` when possible.

    Both ``t`` and ``c`` must each lie inside a single confounded component
    of their latent subgraphs; this is checked here, as the set recursion
    and its callers in this module take it for granted.
    """
    c, t = frozenset(c), frozenset(t)
    if q_t.scope != t:
        raise GraphError("factor scope does not match t")
    if not c <= t:
        raise GraphError("c must be a subset of t")
    _assert_single_component(g, t, "t")
    _assert_single_component(g, c, "c")
    try:
        tr = _identify_traced(c, t, g)
    except Unidentifiable as u:
        return u.result
    return IdentResult(estimand=_reduce(q_t, tr, g), witness=None)


def _compute_q_traced(s: frozenset[str], g: CausalGraph) -> EffectTrace:
    # Barren latents cannot affect any observable; the trace keeps the
    # stripped graph that derivations are written against.
    g = g.remove_barren_latents()
    n = frozenset(g.observable_names)
    if not s <= n:
        raise GraphError("s must consist of observable nodes")

    n_blocks = observable_blocks(c_components(g), g)
    s_blocks = tuple(_observable_components(g, s))
    traces = tuple(_identify_traced(sb, next(b for b in n_blocks if sb <= b), g)
                   for sb in s_blocks)
    return EffectTrace(graph=g, d=s, s_blocks=s_blocks, identify_traces=traces)


def _q_estimand(tr: EffectTrace) -> ProbExpr:
    """Q[d] as the product of the reduced component factors of Q[n]."""
    if not tr.identify_traces:
        return One()
    g = tr.graph
    n = frozenset(g.observable_names)
    factors = [_reduce(_component_factor(g, n, it.levels[0][0], JointMarginal(n)), it, g)
               for it in tr.identify_traces]
    return factors[0] if len(factors) == 1 else Product(factors)


def compute_q(s: Iterable[str], g: CausalGraph) -> IdentResult:
    """Identify the effect of all other observables on ``s``."""
    try:
        tr = _compute_q_traced(frozenset(s), g)
    except Unidentifiable as u:
        return u.result
    return IdentResult(estimand=_q_estimand(tr), witness=None)


def _causal_effect_traced(
    t: frozenset[str], s: frozenset[str], g: CausalGraph
) -> tuple[IdentResult, EffectTrace | None]:
    """The decision on P_t(s), without an estimand, and its trace."""
    if not s:
        raise GraphError("outcome set s must be nonempty")
    if t & s:
        raise GraphError("do-set and outcome set must be disjoint")
    for v in t | s:
        if not g.is_observable(v):
            raise GraphError(f"query variable {v!r} is latent")
    # No barren latent is an ancestor of an observable, so d is the same
    # with or without them.
    n = frozenset(g.observable_names)
    try:
        return IdentResult(None, None), _compute_q_traced(g._ancestors_within(s, n - t), g)
    except Unidentifiable as u:
        return u.result, None


def causal_effect(t: Iterable[str], s: Iterable[str], g: CausalGraph) -> IdentResult:
    """Identify P_t(s): the distribution of ``s`` under do(``t``).

    Latent nodes without observable descendants are removed up front (they
    cannot influence anything observable).  On success the estimand is an
    observational expression whose free variables are exactly within
    ``s`` and ``t``; on failure the witness names the failing (c, t) pair.
    """
    t, s = frozenset(t), frozenset(s)
    res, tr = _causal_effect_traced(t, s, g)
    if not res.identifiable:
        return res
    raw: ProbExpr = canonicalize(Sum(tr.d - s, _q_estimand(tr)))
    # Chain-rule prefixes can mention observables that are neither outcomes
    # nor interventions; the value does not depend on them (they are
    # non-ancestors of the outcome once t is held fixed), so averaging them
    # out under their observational marginal pins the estimand to s and t.
    extras = free_vars(raw) - (s | t)
    if extras:
        raw = Sum(extras, Product([JointMarginal(extras), raw]))
    return IdentResult(estimand=simplify(raw), witness=None)
