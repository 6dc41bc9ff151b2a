"""d-separation and the applicability conditions of the do-calculus rules.

Separation is decided by reachability over active trails: the search visits
``(node, direction)`` states, where the direction records whether the trail
entered the node from a child or from a parent, giving linear-time behaviour
in the size of the graph (the Bayes-ball walk of Shachter 1998).  A rule's
edge cuts are applied by leaving the cut edges out of the walk over the
base graph's index adjacency, so no mutilated graph is built.  Latent nodes
take part in separation like any other node; the engine simply never puts
them into conditioning sets.

Each rule check returns an evidence object naming the edge cuts and the
decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import CausalGraph, GraphError

__all__ = [
    "SeparationQuery",
    "RuleInstance",
    "RuleEvidence",
    "d_separated",
    "z_w",
    "rule_applicable",
]


def _disjoint(*sets: frozenset) -> bool:
    seen: set = set()
    for s in sets:
        if seen & s:
            return False
        seen |= s
    return True


@dataclass(frozen=True)
class SeparationQuery:
    """Is ``x`` d-separated from ``y`` given ``z`` in ``graph``?"""

    x: frozenset[str]
    y: frozenset[str]
    z: frozenset[str]
    graph: CausalGraph

    def __post_init__(self):
        object.__setattr__(self, "x", frozenset(self.x))
        object.__setattr__(self, "y", frozenset(self.y))
        object.__setattr__(self, "z", frozenset(self.z))
        if not _disjoint(self.x, self.y, self.z):
            raise GraphError("separation query sets must be pairwise disjoint")
        for n in self.x | self.y | self.z:
            self.graph.index(n)

    def to_json(self) -> dict:
        g = self.graph
        return {
            "x": list(g.sorted_nodes(self.x)),
            "y": list(g.sorted_nodes(self.y)),
            "z": list(g.sorted_nodes(self.z)),
        }


@dataclass(frozen=True)
class RuleInstance:
    """One candidate application of a do-calculus rule.

    ``x`` holds the interventions kept on both sides, ``y`` the outcome set,
    ``z`` the set being inserted/deleted/exchanged, and ``w`` the plain
    observations.  All four must be pairwise disjoint.
    """

    rule: int
    x: frozenset[str]
    y: frozenset[str]
    z: frozenset[str]
    w: frozenset[str]
    graph: CausalGraph

    def __post_init__(self):
        if self.rule not in (1, 2, 3):
            raise GraphError(f"rule must be 1, 2 or 3, got {self.rule}")
        for name in ("x", "y", "z", "w"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))
        if not _disjoint(self.x, self.y, self.z, self.w):
            raise GraphError("rule instance sets must be pairwise disjoint")
        for n in self.x | self.y | self.z | self.w:
            self.graph.index(n)


@dataclass(frozen=True)
class RuleEvidence:
    """The separation test behind a rule decision, as :func:`rule_applicable`
    returns it; a derivation step does not store it, since its rewrite names
    the instance.

    ``cut_incoming``/``cut_outgoing`` are the node sets whose incoming and
    outgoing edges the rule cuts; the test is whether ``instance.y`` is
    d-separated from ``instance.z`` given ``instance.x | instance.w`` on the
    graph with those cuts applied.  Truthiness is the decision itself.
    """

    instance: RuleInstance
    cut_incoming: frozenset[str]
    cut_outgoing: frozenset[str]
    holds: bool

    def __bool__(self) -> bool:
        return self.holds


def _ancestors(g: CausalGraph, seeds: Iterable[int], cut_in: frozenset[int],
               cut_out: frozenset[int]) -> set[int]:
    """``seeds`` and every node with a directed path into them once the
    incoming edges of ``cut_in`` and the outgoing edges of ``cut_out`` are
    removed."""
    parents = g._parents
    out = set(seeds)
    frontier = [v for v in out if v not in cut_in]
    while frontier:
        for p in parents[frontier.pop()]:
            if p not in out and p not in cut_out:
                out.add(p)
                if p not in cut_in:
                    frontier.append(p)
    return out


def _separated(g: CausalGraph, xs: frozenset[int], ys: frozenset[int],
               zs: frozenset[int], cut_in: frozenset[int] = frozenset(),
               cut_out: frozenset[int] = frozenset()) -> bool:
    """True iff ``xs`` is d-separated from ``ys`` given ``zs`` (node indices)
    in ``g`` with every edge ``p -> c`` removed where ``c`` is in ``cut_in``
    or ``p`` is in ``cut_out``.

    The cut edges are left out of the walk, so no mutilated graph is built.
    Colliders are open iff they or one of their descendants is conditioned
    on; chain and fork nodes are blocked iff conditioned on.
    """
    parents, children = g._parents, g._children
    # Nodes that are in z or have a descendant in z: these open colliders.
    opens = _ancestors(g, zs, cut_in, cut_out) if zs else ()
    # The walk's states: a node entered from a child (``up``) or from a
    # parent (``down``).
    seen_up: set[int] = set()
    seen_down: set[int] = set()
    up, down = list(xs), []
    while up or down:
        if up:
            v = up.pop()
            if v in seen_up or v in zs:
                continue  # visited, or a conditioned chain or fork
            seen_up.add(v)
            to_parents = True
        else:
            v = down.pop()
            if v in seen_down:
                continue
            seen_down.add(v)
            to_parents = v in opens  # an open collider turns back up
        if v not in zs:
            if v in ys:
                return False
            if v not in cut_out:
                for c in children[v]:
                    if c not in cut_in:
                        down.append(c)
        if to_parents and v not in cut_in:
            for p in parents[v]:
                if p not in cut_out:
                    up.append(p)
    return True


def _indices(g: CausalGraph, names: frozenset[str]) -> frozenset[int]:
    return frozenset(map(g._index.__getitem__, names))


def d_separated(q: SeparationQuery) -> bool:
    """True iff every trail between ``q.x`` and ``q.y`` is blocked by ``q.z``.

    Colliders are open iff they or one of their descendants is conditioned
    on; chain and fork nodes are blocked iff conditioned on.
    """
    g = q.graph
    return _separated(g, _indices(g, q.x), _indices(g, q.y), _indices(g, q.z))


def z_w(
    g: CausalGraph,
    x: Iterable[str],
    z: Iterable[str],
    w: Iterable[str],
) -> frozenset[str]:
    """The members of ``z`` that are not ancestors of any ``w`` node once
    the incoming edges of ``x`` are cut."""
    xs, zs, ws = frozenset(x), frozenset(z), frozenset(w)
    if not _disjoint(xs, zs, ws):
        raise GraphError("z_w sets must be pairwise disjoint")
    zidx = g._resolve(zs)
    return g._to_names(zidx - _ancestors(g, g._resolve(ws), g._resolve(xs), frozenset()))


def rule_applicable(r: RuleInstance) -> RuleEvidence:
    """Decide whether a do-calculus rule applies, with full evidence.

    Rule 1 (insertion/deletion of observations) tests ``(y _|_ z | x, w)``
    with the incoming edges of ``x`` cut.  Rule 2 (action/observation
    exchange) runs the same test with the outgoing edges of ``z`` cut as
    well.  Rule 3 (insertion/deletion of actions) cuts the incoming edges of
    ``x`` together with those members of ``z`` that have no descendant in
    ``w`` after the ``x`` cut.  The test runs on ``r.graph`` with the edge
    cuts left out of the walk.
    """
    g = r.graph
    x, y, z, w = (_indices(g, s) for s in (r.x, r.y, r.z, r.w))
    cut_out: frozenset[int] = frozenset()
    if r.rule == 1:
        cut_in = x
    elif r.rule == 2:
        cut_in, cut_out = x, z
    else:
        cut_in = x | (z - _ancestors(g, w, x, frozenset()))
    return RuleEvidence(
        instance=r,
        cut_incoming=g._to_names(cut_in),
        cut_outgoing=g._to_names(cut_out),
        holds=_separated(g, y, z, x | w, cut_in, cut_out),
    )
