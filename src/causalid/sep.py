"""d-separation and the applicability conditions of the do-calculus rules.

Separation is decided by reachability over active trails: the search visits
``(node, direction)`` states, where the direction records whether the trail
entered the node from a child or from a parent, giving linear-time behaviour
in the size of the graph.  Latent nodes take part in separation like any
other node; the engine simply never puts them into conditioning sets.

Each rule check returns an evidence object naming the edge cuts and the
decision, so derivation steps can carry a claim that a verifier re-checks
independently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from .graph import CausalGraph, GraphError, json_field, json_names

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
    """The mutilated-graph separation test behind a rule decision.

    ``cut_incoming``/``cut_outgoing`` are the node sets whose incoming and
    outgoing edges were removed before testing whether ``instance.y`` is
    d-separated from ``instance.z`` given ``instance.x | instance.w``.
    Truthiness is the decision itself.
    """

    instance: RuleInstance
    cut_incoming: frozenset[str]
    cut_outgoing: frozenset[str]
    holds: bool

    def __bool__(self) -> bool:
        return self.holds

    def to_json(self) -> dict:
        r = self.instance
        g = r.graph
        return {
            "rule": r.rule,
            "x": list(g.sorted_nodes(r.x)),
            "y": list(g.sorted_nodes(r.y)),
            "z": list(g.sorted_nodes(r.z)),
            "w": list(g.sorted_nodes(r.w)),
            "cut_incoming": list(g.sorted_nodes(self.cut_incoming)),
            "cut_outgoing": list(g.sorted_nodes(self.cut_outgoing)),
            "holds": self.holds,
        }


def evidence_from_json(data: Mapping, graph: CausalGraph) -> RuleEvidence:
    """The evidence as claimed in ``data`` (see :meth:`RuleEvidence.to_json`).

    Nothing is re-tested here: a verifier recomputes the claim with
    :func:`rule_applicable`.  Malformed input raises ValueError."""
    instance = RuleInstance(
        rule=json_field(data, "rule", int),
        x=json_names(data, "x"),
        y=json_names(data, "y"),
        z=json_names(data, "z"),
        w=json_names(data, "w"),
        graph=graph,
    )
    return RuleEvidence(
        instance=instance,
        cut_incoming=json_names(data, "cut_incoming"),
        cut_outgoing=json_names(data, "cut_outgoing"),
        holds=json_field(data, "holds", bool),
    )


def d_separated(q: SeparationQuery) -> bool:
    """True iff every trail between ``q.x`` and ``q.y`` is blocked by ``q.z``.

    Colliders are open iff they or one of their descendants is conditioned
    on; chain and fork nodes are blocked iff conditioned on.
    """
    g = q.graph
    cond = {g.index(n) for n in q.z}
    targets = {g.index(n) for n in q.y}
    # Nodes that are in z or have a descendant in z: these open colliders.
    opens = {g.index(n) for n in g.ancestors(q.z)} if q.z else set()

    parents = [tuple(g.index(p) for p in g.parents_of(n)) for n in g.names]
    children = [tuple(g.index(c) for c in g.children_of(n)) for n in g.names]

    UP, DOWN = 0, 1  # direction the trail came from: child side / parent side
    queue = deque((g.index(n), UP) for n in q.x)
    visited: set[tuple[int, int]] = set()
    while queue:
        v, d = queue.popleft()
        if (v, d) in visited:
            continue
        visited.add((v, d))
        if v not in cond and v in targets:
            return False
        if d == UP and v not in cond:
            for p in parents[v]:
                queue.append((p, UP))
            for c in children[v]:
                queue.append((c, DOWN))
        elif d == DOWN:
            if v not in cond:
                for c in children[v]:
                    queue.append((c, DOWN))
            if v in opens:
                for p in parents[v]:
                    queue.append((p, UP))
    return True


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
    cut = g.cut_incoming(xs)
    return frozenset(v for v in zs if not (cut.descendants([v]) & ws))


def rule_applicable(r: RuleInstance) -> RuleEvidence:
    """Decide whether a do-calculus rule applies, with full evidence.

    Rule 1 (insertion/deletion of observations) tests ``(y _|_ z | x, w)``
    with the incoming edges of ``x`` cut.  Rule 2 (action/observation
    exchange) runs the same test with the outgoing edges of ``z`` cut as
    well.  Rule 3 (insertion/deletion of actions) cuts the incoming edges of
    ``x`` together with those members of ``z`` that have no descendant in
    ``w`` after the ``x`` cut.
    """
    g = r.graph
    if r.rule == 1:
        cut_in, cut_out = r.x, frozenset()
        mutilated = g.cut_incoming(r.x)
    elif r.rule == 2:
        cut_in, cut_out = r.x, r.z
        mutilated = g.cut_incoming(r.x).cut_outgoing(r.z)
    else:
        cut_in = r.x | z_w(g, r.x, r.z, r.w)
        cut_out = frozenset()
        mutilated = g.cut_incoming(cut_in)
    query = SeparationQuery(x=r.y, y=r.z, z=r.x | r.w, graph=mutilated)
    return RuleEvidence(
        instance=r,
        cut_incoming=cut_in,
        cut_outgoing=cut_out,
        holds=d_separated(query),
    )
