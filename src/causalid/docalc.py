"""Machine-checkable do-calculus derivations.

The identification recursion is compiled into an explicit chain of rewrite
steps on interventional expressions: every ancestral-sum reduction becomes
one rule-3 move on a set of actions and one marginalization, and every
component factorization becomes a schedule of chain-rule, rule-2, and rule-3
moves (with factor substitutions carrying nested derivations for the
inductive regrouping).  Rule 1 is never emitted; where its condition holds,
rules 2 and 3 suffice (see :func:`expand_rule1`).

The compiler writes three sorts of fragment: one per component factor of
the outcome's ancestral closure, which reduces it through its
identification chain (a component that is its own covering set uses its
level's fragment); one per level of a chain, written once per chain prefix
and shared by every factor that expands to it; and the regroupings of a
factor into the product of its confounded components.

A step is its local rewrite: the path to the rewritten subexpression and
that subexpression before and after, the same in memory as in a derivation
file.  A derivation holds its initial expression, and every later state is
a replay of the steps from it.

The generator writes every step through one small vocabulary of named
rewrites, each of which reads the sentence at a path and computes the new
subexpression: chain-rule ``split``, ``merge`` and ``quotient``,
``marginalize``, and the set-valued rule-2 and rule-3 moves; the factor
substitutions are the only steps written by hand.  The generator tests no
side condition: a rule step is correct by the construction of the
identification trace, and only the verifier decides its separation test.

Every step but a substitution is justified by its rewrite alone, and
stores no claim: a rule instance can be read off the two sentences, and
its edge cuts and verdict follow from the instance; the set that a
chain-rule or marginalization step moves can be read off its two sides,
and each is an equality, so either side may come first.

The verifier trusts nothing from the generator and shares no code with its
rewrites: it replays the steps and requires each to rewrite the
subexpression its path reaches, narrows each rewrite to its changed
subexpression by diffing, reads each rule instance off the two sentences
and runs its separation test on the graph with the rule's edge cuts
applied, checks each chain-rule and marginalization step against the
schema of its kind with the set read off its sides, and spot-checks each
step numerically on random positive models through the oracle's
interventional-sentence evaluator.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .expr import (
    DoSentence,
    One,
    PositivityError,
    Product,
    Quotient,
    Sum,
    expr_from_json,
    expr_to_text,
    free_vars,
    iter_leaves,
)
from .graph import CausalGraph, GraphError, json_field, json_names
from .ident import IdentResult, _causal_effect_traced, _observable_components
from .oracle import DoEvaluator, _check_tolerance, _per_model_max, _seed_batches, random_model
from .sep import RuleInstance, rule_applicable

__all__ = [
    "DoSentence",
    "DoExpr",
    "DerivationStep",
    "Derivation",
    "Verdict",
    "derive_effect",
    "expand_rule1",
    "verify_derivation",
    "derivation_to_text",
    "derivation_to_json",
    "derivation_from_json",
]

RULE2 = "Rule2"
RULE3 = "Rule3"
CHAIN = "ChainRule"
MARGINALIZE = "Marginalize"
SUBSTITUTE = "FactorSubstitute"


DoExpr = DoSentence | One | Sum | Product | Quotient


@dataclass(frozen=True)
class Substitution:
    """Justification of a factor substitution: a nested derivation whose
    endpoints are the two sides of the replaced subexpression."""

    derivation: "Derivation"


@dataclass(frozen=True)
class DerivationStep:
    """One rewrite: the subexpression at ``path`` of the previous state
    goes from ``before`` to ``after``; the rest of the state is unchanged.
    Only a factor substitution carries a justification; every other step
    is justified by its rewrite."""

    kind: str
    path: Path
    before: DoExpr
    after: DoExpr
    justification: Substitution | None


@dataclass(frozen=True)
class Derivation:
    """An ordered chain of justified rewrites of ``initial``.

    For query derivations the initial state is the query sentence
    P(s | do(t)) and the final one is observational; nested fragments carry
    ``query=None`` and are free-standing equalities.  ``initial`` is None
    only when there are no steps."""

    graph: CausalGraph
    query: tuple[frozenset[str], frozenset[str]] | None  # (t, s)
    initial: DoExpr | None
    steps: tuple[DerivationStep, ...]

    @property
    def final(self) -> DoExpr | None:
        """The initial state with every step replayed; None if a step does
        not chain from the state before it."""
        return _replay(self)[0]


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    step: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.accepted


def observational(e: DoExpr) -> bool:
    return all(
        isinstance(leaf, DoSentence) and not leaf.do for leaf in iter_leaves(e)
    )


# -- expression paths -----------------------------------------------------------

# A path leads from an expression to one of its subexpressions: "body" enters
# a sum, "num"/"den" a quotient, and an int a product's factor.
Path = tuple


def _child(e: DoExpr, part) -> DoExpr:
    """The subexpression of ``e`` at one path element; KeyError if ``e`` has
    none there."""
    if part == "body" and isinstance(e, Sum):
        return e.body
    if part == "num" and isinstance(e, Quotient):
        return e.num
    if part == "den" and isinstance(e, Quotient):
        return e.den
    if type(part) is int and isinstance(e, Product) and 0 <= part < len(e.factors):
        return e.factors[part]
    raise KeyError(part)


def _get(e: DoExpr, path: Path) -> DoExpr:
    for part in path:
        e = _child(e, part)
    return e


def _replace(e: DoExpr, path: Path, new: DoExpr) -> DoExpr:
    """``e`` with the subexpression at ``path`` replaced by ``new``; only the
    nodes along the path are rebuilt.  KeyError if the path does not resolve."""
    if not path:
        return new
    head, rest = path[0], path[1:]
    inner = _replace(_child(e, head), rest, new)
    if head == "body":
        return Sum(e.bound, inner)
    if head == "num":
        return Quotient(inner, e.den)
    if head == "den":
        return Quotient(e.num, inner)
    factors = list(e.factors)
    factors[head] = inner
    return Product(factors)


def _normalize_product(factors: list) -> DoExpr:
    if not factors:
        return One()
    if len(factors) == 1:
        return factors[0]
    return Product(factors)


class _Writer:
    """Accumulates rewrite steps against a live expression state.

    Each named rewrite (:meth:`split`, :meth:`merge`, :meth:`ratio`,
    :meth:`marginalize`, :meth:`rule2`, :meth:`rule3`) reads the
    subexpression at ``path`` and computes its replacement, and writes a
    step with no justification.  The rule moves take the set of variables
    to move and test nothing: their side conditions are the verifier's."""

    def __init__(self, graph: CausalGraph, root: DoExpr):
        self.graph = graph
        self.root = root
        self.state = root
        self.steps: list[DerivationStep] = []

    def derivation(self, query=None) -> Derivation:
        return Derivation(self.graph, query, self.root, tuple(self.steps))

    def apply(self, kind: str, path: Path, after_local: DoExpr,
              justification: Substitution | None = None):
        self.steps.append(
            DerivationStep(kind, path, _get(self.state, path), after_local, justification)
        )
        self.state = _replace(self.state, path, after_local)

    def window(self, kind: str, prod_path: Path, lo: int, hi: int,
               new_factors: tuple, justification):
        node = _get(self.state, prod_path)
        factors = list(node.factors)
        factors[lo:hi] = list(new_factors)
        after = factors[0] if len(factors) == 1 else Product(factors)
        self.apply(kind, prod_path, after, justification)

    def at(self, path: Path) -> DoExpr:
        return _get(self.state, path)

    def split(self, path: Path, x: str):
        """Chain split: P(S | do, w) -> P(x | do, w, S-x) · P(S-x | do, w)."""
        e = self.at(path)
        rest = e.outcome - {x}
        self.apply(CHAIN, path, Product([
            DoSentence(frozenset({x}), e.do, e.given | rest),
            DoSentence(rest, e.do, e.given),
        ]))

    def merge(self, path: Path, i: int, j: int):
        """Chain merge of the factors P(A | do, w, B) at ``i`` and
        P(B | do, w) at ``j`` of the product at ``path`` into P(A∪B | do, w)
        at ``i``."""
        factors = list(self.at(path).factors)
        a, b = factors[i], factors[j]
        factors[i] = DoSentence(a.outcome | b.outcome, b.do, b.given)
        del factors[j]
        self.apply(CHAIN, path, _normalize_product(factors))

    def ratio(self, path: Path, b: frozenset[str]):
        """Chain rule as a ratio: P(A | do, w, B) -> P(A∪B | do, w) / P(B | do, w)."""
        e = self.at(path)
        w = e.given - b
        self.apply(CHAIN, path, Quotient(DoSentence(e.outcome | b, e.do, w),
                                         DoSentence(b, e.do, w)))

    def marginalize(self, path: Path, m: frozenset[str]):
        """Marginalization: P(S | do, w) -> Σ_m P(S∪m | do, w)."""
        e = self.at(path)
        self.apply(MARGINALIZE, path, Sum(m, DoSentence(e.outcome | m, e.do, e.given)))

    def rule2(self, path: Path, z: frozenset[str]):
        """Rule 2: exchange the actions on ``z`` for observations of ``z``
        in the sentence at ``path``, or the observations for actions."""
        e = self.at(path)
        x, w = e.do - z, e.given - z
        do, given = (x, w | z) if z <= e.do else (x | z, w)
        self.apply(RULE2, path, DoSentence(e.outcome, do, given))

    def rule3(self, path: Path, z: frozenset[str]):
        """Rule 3: insert the actions on ``z`` into the sentence at ``path``,
        or delete them."""
        e = self.at(path)
        do = e.do - z if z <= e.do else e.do | z
        self.apply(RULE3, path, DoSentence(e.outcome, do, e.given))


# -- schedule emitters -----------------------------------------------------------


def _q_sentence(g: CausalGraph, scope: frozenset[str]) -> DoSentence:
    n = frozenset(g.observable_names)
    return DoSentence(outcome=scope, do=n - scope, given=frozenset())


def _emit_grouped_factorization(
    w: _Writer, scope: frozenset[str], groups: list[frozenset[str]], path: Path
):
    """Rewrite the factor sentence on ``scope`` into a product of factor
    sentences, one per group (each group a union of confounded components of
    the scope's latent subgraph)."""
    if len(groups) <= 1:
        return
    x = w.graph.topo_order(scope)[-1]
    gx = next(grp for grp in groups if x in grp)
    others = [grp for grp in groups if grp is not gx]
    gx_rest = gx - {x}

    # Peel the topologically last variable off the joint factor.
    w.split(path, x)
    # Its own factor only needs the variables of its group as observations;
    # the other groups can be held fixed instead.
    w.rule2(path + (0,), frozenset().union(*others))
    # The remainder is unaffected by intervening on the last variable.
    w.rule3(path + (1,), frozenset({x}))

    sub_groups = ([gx_rest] if gx_rest else []) + others
    if len(sub_groups) >= 2:
        final, nested = _grouped_factorization_derivation(w.graph, scope - {x}, sub_groups)
        new_factors = final.factors if isinstance(final, Product) else (final,)
        w.window(SUBSTITUTE, path, 1, 2, tuple(new_factors), Substitution(nested))

    if gx_rest:
        # Reattach the last variable to its own group's factor, wherever the
        # recursion left that factor in the product.
        idx = w.at(path).factors.index(_q_sentence(w.graph, gx_rest))
        w.rule3(path + (idx,), frozenset({x}))
        w.merge(path, 0, idx)


def _grouped_factorization_derivation(
    g: CausalGraph, scope: frozenset[str], groups: list[frozenset[str]]
) -> tuple[DoExpr, Derivation]:
    """The factorized product and the fragment that derives it."""
    w = _Writer(g, _q_sentence(g, scope))
    _emit_grouped_factorization(w, scope, groups, ())
    return w.state, w.derivation()


def _emit_block_to_prefixes(
    w: _Writer, scope: frozenset[str], block: frozenset[str], path: Path
) -> list[Path]:
    """Rewrite the factor sentence on ``block`` (one confounded component of
    ``scope``) into quotients of factor sentences on topological prefixes of
    ``scope``.  Returns the paths of the prefix sentences."""
    g = w.graph
    if len(scope) == 1:
        # The block is the one-variable prefix itself.
        return [path]
    x = g.topo_order(scope)[-1]
    h = scope - {x}
    if x not in block:
        return _emit_block_to_prefixes(w, h, block, path)

    b_rest = block - {x}
    if b_rest:
        w.split(path, x)
        first, second = path + (0,), path + (1,)
    else:
        first, second = path, None
    if scope - block:
        w.rule2(first, scope - block)
    # Conditional as a ratio of the two adjacent prefix factors.
    w.ratio(first, h)
    w.rule3(first + ("den",), frozenset({x}))
    leaves = [first + ("num",), first + ("den",)]
    if second is None:
        return leaves

    w.rule3(second, frozenset({x}))
    sub_blocks = [b for b in _observable_components(g, h) if b <= b_rest]
    assert frozenset().union(*sub_blocks) == b_rest
    if len(sub_blocks) == 1:
        return leaves + _emit_block_to_prefixes(w, h, b_rest, second)
    final, nested = _grouped_factorization_derivation(g, b_rest, sub_blocks)
    w.apply(SUBSTITUTE, second, final, Substitution(nested))
    for i, factor in enumerate(final.factors):
        sub = next(b for b in sub_blocks if _q_sentence(g, b) == factor)
        leaves += _emit_block_to_prefixes(w, h, sub, second + (i,))
    return leaves


# -- generator --------------------------------------------------------------------

# The levels ((t_0, a_0), ..., (t_k, a_k)) of an identification chain up to
# level k.
Levels = tuple[tuple[frozenset[str], frozenset[str]], ...]
# The fragment of each chain level, keyed by the chain prefix
# (t_0, a_0, ..., a_{k-1}, t_k) that is all it depends on.
Memo = dict[tuple[Levels, frozenset[str]], tuple[DoExpr, Derivation]]


def _reduce_factor(w: _Writer, path: Path, levels: Levels, memo: Memo) -> None:
    """Rewrite the factor sentence at ``path`` into an observational
    expression: expand it to the covering set of the last of ``levels``
    (to all observables when there are none), then substitute that level's
    fragment if the expanded sentence still has actions.

    The expansion reverses an ancestral reduction, and the factor's scope
    is ancestral in the covering set.  Rule 3 deletes the actions on
    Z = covering set - scope at once: with the edges into the remaining
    actions and into Z cut, a path from Z without a collider is directed,
    and a directed path from Z into the scope would make a member of Z an
    ancestor of the scope inside the covering set."""
    cover = levels[-1][0] if levels else frozenset(w.graph.observable_names)
    z = cover - w.at(path).outcome
    if z:
        w.rule3(path, z)
        w.marginalize(path, z)
        path += ("body",)
    if w.at(path).do:
        final, fragment = _level_fragment(w.graph, levels, memo)
        w.apply(SUBSTITUTE, path, final, Substitution(fragment))


def _level_fragment(g: CausalGraph, levels: Levels, memo: Memo) -> tuple[DoExpr, Derivation]:
    """Q[t_k], for the last level (t_k, a_k) of ``levels``, written as
    ratios of factors on prefixes of its decomposition scope (a_{k-1}, or
    all observables at k = 0), each reduced through the levels before; and
    the fragment that derives it.  Built once per chain prefix, and shared
    by every factor that expands to it."""
    t, outer = levels[-1][0], levels[:-1]
    hit = memo.get((outer, t))
    if hit is None:
        w = _Writer(g, _q_sentence(g, t))
        scope = outer[-1][1] if outer else frozenset(g.observable_names)
        # Rewriting at one leaf moves no other leaf, so the paths stay valid.
        for leaf in _emit_block_to_prefixes(w, scope, t, ()):
            _reduce_factor(w, leaf, outer, memo)
        hit = memo[outer, t] = (w.state, w.derivation())
    return hit


def derive_effect(
    t: Iterable[str], s: Iterable[str], g: CausalGraph
) -> "Derivation | IdentResult":
    """Compile the identification of P_t(s) into a checkable derivation.

    Replays the set trace of the identification recursion, and builds no
    estimand: it returns the not-identifiable result exactly where
    :func:`~causalid.ident.causal_effect` does, and otherwise a derivation
    from P(s | do(t)) to an observational expression, using only rules 2
    and 3 plus probability manipulations.
    """
    t, s = frozenset(t), frozenset(s)
    if not t:
        raise GraphError("derivations require a nonempty do-set")
    res, trace = _causal_effect_traced(t, s, g)
    if not res.identifiable:
        return res
    g2 = trace.graph
    n = frozenset(g2.observable_names)

    w = _Writer(g2, DoSentence(outcome=s, do=t, given=frozenset()))
    # Phase A: spread the query over the ancestral closure d of the outcome.
    d = trace.d
    if d - s:
        w.marginalize((), d - s)
    leaf: Path = ("body",) if d - s else ()
    # Phase B: insert the actions on the observables outside t ∪ d, which
    # leaves the factor sentence on d.
    if n - t - d:
        w.rule3(leaf, n - t - d)
    # Phase C: split the closure factor into its confounded components.
    _emit_grouped_factorization(w, d, list(trace.s_blocks), leaf)

    # Phase D: replace each component factor by one substitution step, whose
    # fragment reduces it through its identification chain.
    levels_of = {
        _q_sentence(g2, sb): tr.levels
        for sb, tr in zip(trace.s_blocks, trace.identify_traces)
    }
    memo: Memo = {}
    node = w.at(leaf)
    for p in ([leaf + (i,) for i in range(len(node.factors))]
              if isinstance(node, Product) else [leaf]):
        factor = w.at(p)
        levels = levels_of[factor]
        if factor.outcome == levels[-1][0]:
            # A component that is its own covering set needs no expansion:
            # its fragment would hold only the level's substitution.
            final, fragment = _level_fragment(g2, levels, memo)
        else:
            wf = _Writer(g2, factor)
            _reduce_factor(wf, (), levels, memo)
            final, fragment = wf.state, wf.derivation()
        w.apply(SUBSTITUTE, p, final, Substitution(fragment))
    return w.derivation(query=(t, s))


def expand_rule1(r: RuleInstance) -> tuple[RuleInstance, RuleInstance]:
    """Replace an applicable rule-1 instance by a rule-2 then rule-3 pair.

    Edge deletion only ever separates more, so both replacement instances
    hold whenever the rule-1 condition does; the pair rewrites
    P(y|do(x),z,w) to P(y|do(x),do(z),w) and then to P(y|do(x),w).
    """
    if r.rule != 1:
        raise GraphError("expected a rule-1 instance")
    if not rule_applicable(r).holds:
        raise GraphError("rule 1 is not applicable to this instance")
    two = RuleInstance(2, r.x, r.y, r.z, r.w, r.graph)
    three = RuleInstance(3, r.x, r.y, r.z, r.w, r.graph)
    return two, three


# -- verification -----------------------------------------------------------------


class _Mismatch(Exception):
    pass


def _local_diff(b: DoExpr, a: DoExpr) -> tuple[DoExpr, DoExpr] | None:
    """Smallest differing subexpression pair, descending through equal
    context.

    Product factor lists are compared as multisets (multiplication
    commutes), so a step may also deposit its result at a different
    position within the same product."""
    if b == a:
        return None
    if isinstance(b, Product) and isinstance(a, Product):
        cb, ca = Counter(b.factors), Counter(a.factors)

        def in_order(factors, surplus):
            out, left = [], Counter(surplus)
            for f in factors:
                if left[f] > 0:
                    out.append(f)
                    left[f] -= 1
            return out

        removed = in_order(b.factors, cb - ca)
        added = in_order(a.factors, ca - cb)
        if len(removed) == 1 and len(added) == 1:
            return _local_diff(removed[0], added[0])
        return (_normalize_product(removed), _normalize_product(added))
    if isinstance(b, Sum) and isinstance(a, Sum) and b.bound == a.bound:
        return _local_diff(b.body, a.body)
    if isinstance(b, Quotient) and isinstance(a, Quotient):
        if b.num == a.num:
            return _local_diff(b.den, a.den)
        if b.den == a.den:
            return _local_diff(b.num, a.num)
    return (b, a)


def _as_sum(e: DoExpr) -> tuple[frozenset[str], DoExpr]:
    if isinstance(e, Sum):
        return e.bound, e.body
    return frozenset(), e


def _check_rule_step(kind: str, graph: CausalGraph, b: DoExpr, a: DoExpr) -> None:
    """The rule instance read off the two sentences ``b`` and ``a`` must
    hold."""
    if not (isinstance(b, DoSentence) and isinstance(a, DoSentence)):
        raise _Mismatch("rule step must rewrite a single sentence")
    if b.outcome != a.outcome:
        raise _Mismatch("rule step changed the outcome set")
    want_rule = 2 if kind == RULE2 else 3
    x = b.do & a.do
    moved = (b.do | a.do) - x
    if not moved:
        raise _Mismatch("rule step moved no interventions")
    if kind == RULE2:
        # moved set swaps between do and given
        hat_side, obs_side = (b, a) if moved <= b.do else (a, b)
        w = hat_side.given
        if obs_side.given != w | moved or obs_side.do != x:
            raise _Mismatch("sets do not match an action/observation exchange")
    else:
        if b.given != a.given:
            raise _Mismatch("rule-3 step changed the observation set")
        hat_side = b if moved <= b.do else a
        if not moved <= hat_side.do:
            raise _Mismatch("sets do not match an action insertion/deletion")
        w = b.given
    if not rule_applicable(RuleInstance(want_rule, x, b.outcome, moved, w, graph)).holds:
        raise _Mismatch("separation condition fails on the mutilated graph")


def _chain_split(whole: DoExpr, parts: DoExpr) -> bool:
    """P(A∪B | do, w) == P(A | do, w∪B) · P(B | do, w), the factors in
    either order; B is the outcome of the factor given w alone."""
    if not (isinstance(whole, DoSentence) and isinstance(parts, Product)
            and len(parts.factors) == 2):
        return False
    return any(
        isinstance(f1, DoSentence) and isinstance(f2, DoSentence)
        and f2.given == whole.given
        and f1.outcome == whole.outcome - f2.outcome
        and f1.outcome
        and whole.outcome == f1.outcome | f2.outcome
        and f1.do == f2.do == whole.do
        and f1.given == whole.given | f2.outcome
        for f1, f2 in (parts.factors, parts.factors[::-1])
    )


def _chain_ratio(cond: DoExpr, ratio: DoExpr) -> bool:
    """P(A | do, w∪B) == P(A∪B | do, w) / P(B | do, w); B is the
    denominator's outcome."""
    if not (isinstance(cond, DoSentence) and isinstance(ratio, Quotient)):
        return False
    num, den = ratio.num, ratio.den
    return (
        isinstance(num, DoSentence) and isinstance(den, DoSentence)
        and cond.given == den.given | den.outcome
        and num.outcome == cond.outcome | den.outcome
        and num.given == den.given
        and num.do == den.do == cond.do
    )


def _marginal(summed: DoExpr, marginal: DoExpr) -> bool:
    """Σ_M P(A∪M | do, w) == P(A | do, w), inside sums over equal bounds;
    M is the summed bound less the marginal one."""
    s_bound, s_body = _as_sum(summed)
    m_bound, m_body = _as_sum(marginal)
    m = s_bound - m_bound
    return (
        bool(m)
        and not (m_bound - s_bound)
        and isinstance(s_body, DoSentence) and isinstance(m_body, DoSentence)
        and s_body.outcome == m_body.outcome | m
        and not (m & m_body.leaf_vars)
        and s_body.do == m_body.do
        and s_body.given == m_body.given
    )


def _check_schema(kind: str, b: DoExpr, a: DoExpr) -> None:
    """The two sides of a chain-rule or marginalization step must fit its
    schema, in the orientation that the sides fix: each schema is an
    equality, so a step may rewrite either side into the other."""
    if kind == CHAIN:
        # The undivided side is the one sentence: the joint of a split, or
        # the conditional of a ratio.
        whole, divided = (b, a) if isinstance(b, DoSentence) else (a, b)
        holds = _chain_split(whole, divided) or _chain_ratio(whole, divided)
    else:
        # The summed side is the one with the larger bound.
        summed, marginal = (b, a) if len(_as_sum(b)[0]) > len(_as_sum(a)[0]) else (a, b)
        holds = _marginal(summed, marginal)
    if not holds:
        raise _Mismatch(f"not a {kind} rewrite")


def _same(p: DoExpr, q: DoExpr) -> bool:
    """Equal, up to the order of a product's factors."""
    if isinstance(p, Product) and isinstance(q, Product):
        return Counter(p.factors) == Counter(q.factors)
    return p == q


def _replay(d: Derivation) -> tuple[DoExpr | None, int | None]:
    """The final state of ``d``, or None and the first step whose path does
    not reach its ``before`` in the previous state."""
    state = d.initial
    for i, step in enumerate(d.steps):
        try:
            chains = _get(state, step.path) == step.before
        except KeyError:
            chains = False
        if not chains:
            return None, i
        state = _replace(state, step.path, step.after)
    return state, None


def _check_step(step: DerivationStep, graph: CausalGraph,
                evaluators: list[DoEvaluator] | None, tolerance: float,
                cache: dict[int, tuple[Verdict, DoExpr | None]]) -> None:
    """Raise _Mismatch naming the first check of ``step`` that fails."""
    site = _local_diff(step.before, step.after)
    if site is None:
        raise _Mismatch("step changes nothing")
    if step.kind in (RULE2, RULE3, CHAIN, MARGINALIZE):
        if step.justification is not None:
            raise _Mismatch(f"{step.kind} step carries a justification")
        if step.kind in (RULE2, RULE3):
            _check_rule_step(step.kind, graph, *site)
        else:
            _check_schema(step.kind, *site)
    elif step.kind == SUBSTITUTE:
        just = step.justification
        if not isinstance(just, Substitution):
            raise _Mismatch("missing nested derivation")
        nested = just.derivation
        if not nested.steps:
            raise _Mismatch("nested derivation has no steps")
        hit = cache.get(id(nested))
        if hit is None:
            hit = cache[id(nested)] = _verify_structure(nested, evaluators, tolerance, cache)
        sub, nested_final = hit
        if not sub.accepted:
            raise _Mismatch(f"nested derivation rejected at step {sub.step}: {sub.reason}")
        if not (_same(nested.initial, site[0]) and _same(nested_final, site[1])):
            raise _Mismatch("nested derivation endpoints do not match the site")
    else:
        raise _Mismatch(f"unknown step kind {step.kind!r}")

    if evaluators is not None:
        b, a = site
        frees = sorted(free_vars(b) | free_vars(a))
        for ev in evaluators:
            try:
                diff = np.abs(ev.grid(b, frees) - ev.grid(a, frees))
            except PositivityError as exc:
                raise _Mismatch(f"numeric check failed: {exc}") from None
            for err in _per_model_max(diff, ev.m.batch):
                if err > tolerance:
                    raise _Mismatch(f"numeric check failed: sides differ by {err:.3e}")


def _verify_structure(
    d: Derivation,
    evaluators: list[DoEvaluator] | None,
    tolerance: float,
    cache: dict[int, tuple[Verdict, DoExpr | None]],
) -> tuple[Verdict, DoExpr | None]:
    """The verdict on ``d`` and, if accepted, its final state.  ``cache``
    holds the same pair for each nested derivation already checked."""
    if not d.steps:
        if d.query is not None:
            return Verdict(False, None, "query derivation has no steps"), None
        return Verdict(accepted=True), d.initial
    if d.query is not None:
        t, s = d.query
        want = DoSentence(outcome=s, do=t, given=frozenset())
        if d.initial != want:
            return Verdict(False, 0, "derivation does not start at the query sentence"), None
    final, broken = _replay(d)
    if broken is not None:
        return Verdict(False, broken, "step does not chain from the previous state"), None
    if d.query is not None and not observational(final):
        return Verdict(False, len(d.steps) - 1,
                       "final expression still contains interventions"), None
    for i, step in enumerate(d.steps):
        try:
            _check_step(step, d.graph, evaluators, tolerance, cache)
        except (_Mismatch, GraphError) as err:
            return Verdict(False, i, str(err)), None
    return Verdict(accepted=True), final


def verify_derivation(
    d: Derivation,
    models: int = 5,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> Verdict:
    """Re-check a derivation from scratch.

    Chaining, per-step structural schemas, and every separation condition
    are recomputed without trusting the generator; in addition the changed
    subexpression of each step is evaluated on ``models`` random positive
    models (seeds ``seed`` onward, stacked and evaluated together) and both
    sides must agree within ``tolerance`` on every assignment of their free
    variables; a rejection reports the first disagreeing model in seed
    order.  ``tolerance`` must be a finite number >= 0.
    """
    _check_tolerance(tolerance)
    evaluators = None
    if models > 0:
        # One evaluator per chunk of stacked models: one for any graph small
        # enough that all of them fit in MAX_STATES joint cells.
        evaluators = [DoEvaluator(random_model(d.graph, seed=seeds))
                      for seeds in _seed_batches(d.graph, seed, models)]
    return _verify_structure(d, evaluators, tolerance, {})[0]


# -- serialization ----------------------------------------------------------------

FORMAT = 2

_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class _Encoder:
    """Writes the fragment table of one derivation file.  A class, not
    closures: closures that call each other form a reference cycle that
    would keep the whole encoded file alive until a full garbage
    collection."""

    def __init__(self, graph: CausalGraph):
        self.graph = graph
        self.fragments: list[str] = []
        self.index: dict[int, int] = {}

    def fragment(self, nested: Derivation) -> int:
        k = self.index.get(id(nested))
        if k is None:
            if nested.query is not None or nested.graph != self.graph:
                raise ValueError(
                    "a nested derivation must be a fragment on the derivation's graph"
                )
            initial, steps = self.members(nested)
            k = self.index[id(nested)] = len(self.fragments)
            self.fragments.append('{"initial":' + initial + ',"steps":' + steps + "}")
        return k

    def justification(self, j) -> str:
        if j is None:
            return '{"type":"rule"}'
        if isinstance(j, Substitution):
            return '{"fragment":' + str(self.fragment(j.derivation)) + ',"type":"substitution"}'
        raise TypeError(j)

    def members(self, x: Derivation) -> tuple[str, str]:
        """The texts of the ``initial`` and ``steps`` values of ``x``."""
        steps = ",".join([
            '{"after":' + expr_to_text(step.after)
            + ',"before":' + expr_to_text(step.before)
            + ',"justification":' + self.justification(step.justification)
            + ',"kind":' + _compact(step.kind)
            + ',"path":' + _compact(list(step.path)) + "}"
            for step in x.steps
        ])
        return "null" if x.initial is None else expr_to_text(x.initial), "[" + steps + "]"


def derivation_to_text(d: Derivation) -> str:
    """``d`` as a format-2 derivation file: compact JSON text with sorted
    keys.

    The graph is written once.  Nested derivations become entries of
    ``"fragments"``, each written once (shared fragments are found by
    identity) and after every fragment it refers to.  Each body stores its
    ``initial`` expression and its steps' fields as they are: the ``path``
    and the subexpressions at that path before and after the rewrite.
    Every expression is the text that :func:`expr_to_text` keeps on its
    node, so a subexpression shared by several steps is written from one
    string, and the file is those texts joined with the few fields that are
    not expressions.
    """
    graph = d.graph
    encoder = _Encoder(graph)
    initial, steps = encoder.members(d)
    query = None if d.query is None else {
        "do": list(graph.sorted_nodes(d.query[0])),
        "on": list(graph.sorted_nodes(d.query[1])),
    }
    return ('{"format":' + str(FORMAT) + ',"fragments":[' + ",".join(encoder.fragments)
            + '],"graph":' + _compact(graph.to_json()) + ',"initial":' + initial
            + ',"query":' + _compact(query) + ',"steps":' + steps + "}")


def derivation_to_json(d: Derivation) -> dict:
    """The format-2 file of ``d`` (see :func:`derivation_to_text`) as
    decoded JSON."""
    return json.loads(derivation_to_text(d))


def _path_from_json(data: list) -> Path:
    for part in data:
        if part not in ("body", "num", "den") and not (type(part) is int and part >= 0):
            raise ValueError(f"unknown path element {part!r}")
    return tuple(data)


class _Decoder:
    """Decodes the expressions of one derivation file into shared nodes.

    Every subexpression that recurs in the file decodes to one object (see
    :func:`expr_from_json`), and the check that a node names only
    observable nodes runs once per node."""

    def __init__(self, graph: CausalGraph):
        self.graph = graph
        self.observable = frozenset(graph.observable_names)
        self.memo: dict = {}
        self.checked: set[int] = set()  # ids of the nodes checked, all kept by memo

    def expr(self, data) -> DoExpr:
        """Decode an expression whose leaves must be sentences over
        observable nodes, so that no later evaluation meets an unknown
        variable.  The nodes are checked in the same order as without
        sharing: a node checked earlier in the file has passed, so skipping
        it changes neither the outcome nor the first error."""
        e = expr_from_json(data, self.memo)
        checked, observable = self.checked, self.observable
        todo = [e]
        while todo:
            node = todo.pop()
            if id(node) in checked:
                continue
            checked.add(id(node))
            if isinstance(node, DoSentence):
                names = node.leaf_vars
            elif isinstance(node, Sum):
                names = node.bound
                todo.append(node.body)
            elif isinstance(node, Product):
                todo.extend(node.factors)
                continue
            elif isinstance(node, Quotient):
                todo += (node.num, node.den)
                continue
            elif isinstance(node, One):
                continue
            else:
                raise ValueError("derivation expressions must have sentences as leaves")
            if not names <= observable:
                raise ValueError(f"{min(names - observable)!r} is not an observable node")
        return e


def _body_from_json(data: Mapping, decoder: _Decoder,
                    query: tuple[frozenset[str], frozenset[str]] | None,
                    fragments: list[Derivation], total: int) -> Derivation:
    """Decode one ``{"initial", "steps"}`` body.  ``fragments`` holds the
    decoded fragments it may refer to, the first ``len(fragments)`` of the
    file's ``total``."""
    steps_data = json_field(data, "steps", list)
    initial = json_field(data, "initial", (dict, type(None)))
    if steps_data and initial is None:
        raise ValueError("'initial' must be an object when there are steps")
    if initial is not None:
        initial = decoder.expr(initial)
    steps = []
    for i, sd in enumerate(steps_data):
        try:
            kind = json_field(sd, "kind", str)
            path = _path_from_json(json_field(sd, "path", list))
            before = decoder.expr(json_field(sd, "before", dict))
            after = decoder.expr(json_field(sd, "after", dict))
            jd = json_field(sd, "justification", dict)
            jtype = json_field(jd, "type", str)
            if jtype in ("rule", "params"):
                just = None  # the claim keys of older files are ignored
            elif jtype == "substitution":
                k = json_field(jd, "fragment", int)
                if not 0 <= k < total:
                    raise ValueError(f"fragment {k} is out of range ({total} fragments)")
                if k == len(fragments):
                    raise ValueError(f"fragment {k} refers to itself")
                if k > len(fragments):
                    raise ValueError(f"fragment {k} is referred to before it is defined")
                just = Substitution(fragments[k])
            else:
                raise ValueError(f"unknown justification type {jtype!r}")
        except ValueError as err:
            raise ValueError(f"steps[{i}]: {err}") from None
        steps.append(DerivationStep(kind, path, before, after, just))
    return Derivation(decoder.graph, query, initial, tuple(steps))


def derivation_from_json(data: Mapping) -> Derivation:
    """Decode a format-2 derivation file (see :func:`derivation_to_text`).

    Steps are decoded as stored, without replaying them, and each fragment
    into one shared :class:`Derivation`; chaining is taken as claimed, for
    the verifier to recompute.  Expressions are hash-consed per file: each
    distinct subexpression is validated once and decodes to one node that
    every occurrence shares, so the verifier's equality tests on them end
    at identity.  A ``rule`` or ``params`` justification,
    which older files write with claims about the step, decodes to None,
    whatever other keys it has.  Malformed input raises ValueError.
    """
    where = "format"
    try:
        version = json_field(data, "format", int)
        if version != FORMAT:
            raise ValueError(f"unsupported version {version} (this reader takes {FORMAT})")
        where = "graph"
        graph = CausalGraph.from_json(json_field(data, "graph", dict))
        decoder = _Decoder(graph)
        where = "query"
        qd = json_field(data, "query", (dict, type(None)))
        query = None
        if qd is not None:
            query = t, s = json_names(qd, "do"), json_names(qd, "on")
            if not t or not s:
                raise ValueError("'do' and 'on' must be nonempty")
            if t & s:
                raise ValueError(f"{min(t & s)!r} is in both 'do' and 'on'")
            outside = (t | s) - decoder.observable
            if outside:
                raise ValueError(f"{min(outside)!r} is not an observable node")
        fragments: list[Derivation] = []
        where = "fragments"
        fragments_data = json_field(data, "fragments", list)
        for k, fd in enumerate(fragments_data):
            where = f"fragments[{k}]"
            fragments.append(_body_from_json(fd, decoder, None, fragments, len(fragments_data)))
        where = "derivation"
        return _body_from_json(data, decoder, query, fragments, len(fragments))
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None
