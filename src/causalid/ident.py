"""The identification decision procedure.

Decides identifiability of P_t(s) and produces a symbolic estimand over
observational marginals when the effect is identifiable.  The procedure
factorizes the observables into confounded components, reduces each target
block against its component with an ancestral-set recursion, and assembles
the answer as sums of products of quotients of prefix marginals.

Every public entry point returns an :class:`IdentResult`; the recursion also
records a structural trace that the derivation compiler replays to emit
rule-2/rule-3 justifications for each reduction.
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
    """Outcome of an identification query.

    Either ``estimand`` is set (identifiable) or ``witness`` carries the
    innermost failing (c, t) pair of the recursion.
    """

    estimand: ProbExpr | None
    witness: tuple[frozenset[str], frozenset[str]] | None

    @property
    def identifiable(self) -> bool:
        return self.estimand is not None


class Unidentifiable(Exception):
    """Internal unwind signal carrying the failing (c, t) pair."""

    def __init__(self, c: frozenset[str], t: frozenset[str]):
        self.pair = (c, t)
        super().__init__(f"not identifiable: c={sorted(c)}, t={sorted(t)}")


# -- traces consumed by the derivation compiler --------------------------------


@dataclass(frozen=True)
class IdentifyTrace:
    """The (t, a) chain of one block reduction; the final level has a == c."""

    c: frozenset[str]
    levels: tuple[tuple[frozenset[str], frozenset[str]], ...]


@dataclass(frozen=True)
class ComputeQTrace:
    s_blocks: tuple[frozenset[str], ...]
    identify_traces: tuple[IdentifyTrace, ...]


@dataclass(frozen=True)
class EffectTrace:
    graph: CausalGraph  # after barren-latent removal
    d: frozenset[str]
    cq: ComputeQTrace


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
    blocks = _observable_components(g, h)
    order = g.topo_order(h)

    prefix: list[ProbExpr] = [One()]
    for j in range(1, len(order) + 1):
        tail = frozenset(order[j:])
        prefix.append(canonicalize(Sum(tail, q_h.estimand)))

    position = {name: j for j, name in enumerate(order, start=1)}
    out = []
    for b in blocks:
        parts: list[ProbExpr] = []
        for name in sorted(b, key=position.__getitem__):
            j = position[name]
            parts.append(prefix[j] if j == 1 else Quotient(prefix[j], prefix[j - 1]))
        out.append(QFactor(b, parts[0] if len(parts) == 1 else Product(parts)))
    return out


def _observable_components(g: CausalGraph, scope: frozenset[str]) -> list[frozenset[str]]:
    return observable_blocks(c_components(g, scope), g)


def _assert_single_component(g: CausalGraph, scope: frozenset[str], role: str):
    blocks = _observable_components(g, scope)
    if len(blocks) != 1:
        raise GraphError(
            f"contract violation: {role} {sorted(scope)} spans "
            f"{len(blocks)} confounded components"
        )


def _identify_traced(
    c: frozenset[str], t: frozenset[str], q_t: QFactor, g: CausalGraph
) -> tuple[QFactor, IdentifyTrace]:
    if not c <= t:
        raise GraphError("c must be a subset of t")
    if q_t.scope != t:
        raise GraphError("factor scope does not match t")
    _assert_single_component(g, t, "t")
    _assert_single_component(g, c, "c")

    levels: list[tuple[frozenset[str], frozenset[str]]] = []
    while True:
        a = g._ancestors_within(c, t)
        levels.append((t, a))
        if a == c:
            qf = QFactor(c, canonicalize(Sum(t - c, q_t.estimand)))
            return qf, IdentifyTrace(c=c, levels=tuple(levels))
        if a == t:
            raise Unidentifiable(c, t)
        # c is a proper subset of a, itself a proper subset of t: shrink to
        # the component of a that contains c and recurse.
        q_a = sum_to_ancestral(q_t, a, g)
        blocks = _observable_components(g, a)
        t1 = next(b for b in blocks if c <= b)
        if not c <= t1:
            raise GraphError("c straddles components of its ancestral closure")
        factors = factorize_components(a, q_a, g)
        q_t = next(f for f in factors if f.scope == t1)
        t = t1


def identify(
    c: Iterable[str], t: Iterable[str], q_t: QFactor, g: CausalGraph
) -> IdentResult:
    """Reduce the factor on ``t`` to one on ``c`` when possible.

    Both ``t`` and ``c`` must each lie inside a single confounded component
    of their latent subgraphs (the callers in this module construct their
    arguments that way; the condition is re-checked defensively).
    """
    try:
        qf, _ = _identify_traced(frozenset(c), frozenset(t), q_t, g)
    except Unidentifiable as u:
        return IdentResult(estimand=None, witness=u.pair)
    return IdentResult(estimand=qf.estimand, witness=None)


def _compute_q_traced(
    s: frozenset[str], g: CausalGraph
) -> tuple[IdentResult, ComputeQTrace | None]:
    # Barren latents can merge confounded components without affecting any
    # observable, which would desynchronize the block bookkeeping below, so
    # they are always stripped first (a no-op for preprocessed graphs).
    g = g.remove_barren_latents()
    n = frozenset(g.observable_names)
    if not s <= n:
        raise GraphError("s must consist of observable nodes")
    if not s:
        return IdentResult(estimand=One(), witness=None), None

    part = c_components(g)
    q_n = QFactor(n, JointMarginal(n))
    n_factors = {f.scope: f for f in factorize_components(n, q_n, g)}

    s_blocks = _observable_components(g, s)
    factors: list[ProbExpr] = []
    traces: list[IdentifyTrace] = []
    for sb in s_blocks:
        owners = {part.block_of[v] for v in sb}
        if len(owners) != 1:
            raise GraphError("component block straddles graph components")
        nj = part.blocks[owners.pop()] & n
        try:
            qf, tr = _identify_traced(sb, nj, n_factors[nj], g)
        except Unidentifiable as u:
            return IdentResult(estimand=None, witness=u.pair), None
        factors.append(qf.estimand)
        traces.append(tr)

    estimand = factors[0] if len(factors) == 1 else Product(factors)
    trace = ComputeQTrace(s_blocks=tuple(s_blocks), identify_traces=tuple(traces))
    return IdentResult(estimand=estimand, witness=None), trace


def compute_q(s: Iterable[str], g: CausalGraph) -> IdentResult:
    """Identify the effect of all other observables on ``s``."""
    res, _ = _compute_q_traced(frozenset(s), g)
    return res


def _causal_effect_traced(
    t: frozenset[str], s: frozenset[str], g: CausalGraph
) -> tuple[IdentResult, EffectTrace | None]:
    if not s:
        raise GraphError("outcome set s must be nonempty")
    if t & s:
        raise GraphError("do-set and outcome set must be disjoint")
    for v in t | s:
        if not g.is_observable(v):
            raise GraphError(f"query variable {v!r} is latent")

    g = g.remove_barren_latents()
    n = frozenset(g.observable_names)
    d = g._ancestors_within(s, n - t)

    res, cq = _compute_q_traced(d, g)
    if not res.identifiable:
        return res, None

    raw: ProbExpr = canonicalize(Sum(d - s, res.estimand))
    # Chain-rule prefixes can mention observables that are neither outcomes
    # nor interventions; the value does not depend on them (they are
    # non-ancestors of the outcome once t is held fixed), so averaging them
    # out under their observational marginal pins the estimand to s and t.
    extras = free_vars(raw) - (s | t)
    if extras:
        raw = Sum(extras, Product([JointMarginal(extras), raw]))
    estimand = simplify(canonicalize(raw))
    trace = EffectTrace(graph=g, d=d, cq=cq)
    return IdentResult(estimand=estimand, witness=None), trace


def causal_effect(t: Iterable[str], s: Iterable[str], g: CausalGraph) -> IdentResult:
    """Identify P_t(s): the distribution of ``s`` under do(``t``).

    Latent nodes without observable descendants are removed up front (they
    cannot influence anything observable).  On success the estimand is an
    observational expression whose free variables are exactly within
    ``s`` and ``t``; on failure the witness names the failing (c, t) pair.
    """
    res, _ = _causal_effect_traced(frozenset(t), frozenset(s), g)
    return res
