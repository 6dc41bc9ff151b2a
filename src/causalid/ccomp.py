"""Confounded-component (c-component) partitioning.

Two latent nodes are related when they share an edge, share an observable
child, or are linked transitively through other latents.  Each observable
node with a latent parent joins that parent's class; observables without
latent parents form singleton blocks.  The blocks partition all nodes of
the graph and are ordered by their smallest node index.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import CausalGraph

__all__ = ["CComponentPartition", "c_components", "observable_blocks"]


class _UnionFind:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, a):
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass(frozen=True)
class CComponentPartition:
    """Disjoint node blocks covering a graph, with a node -> block index."""

    blocks: tuple[frozenset[str], ...]
    block_of: dict[str, int]


def c_components(g: CausalGraph) -> CComponentPartition:
    """Partition the nodes of ``g`` into c-components.

    Computed as a disjoint-set closure over the latent nodes, followed by a
    single pass assigning each observable to the class of any latent parent.
    Graphs without latents come out as all singletons.
    """
    latents = list(g.latent_names)
    uf = _UnionFind(latents)
    latent_set = set(latents)

    for p, c in g.edges:
        if p in latent_set and c in latent_set:
            uf.union(p, c)
    for n in g.observable_names:
        lat_parents = [p for p in g.parents_of(n) if p in latent_set]
        for a, b in zip(lat_parents, lat_parents[1:]):
            uf.union(a, b)

    groups: dict[str, set[str]] = {}
    for u in latents:
        groups.setdefault(uf.find(u), set()).add(u)
    for n in g.observable_names:
        lat_parents = [p for p in g.parents_of(n) if p in latent_set]
        if lat_parents:
            groups[uf.find(lat_parents[0])].add(n)

    blocks = [frozenset(members) for members in groups.values()]
    for n in g.observable_names:
        if not any(p in latent_set for p in g.parents_of(n)):
            blocks.append(frozenset([n]))

    blocks.sort(key=lambda b: min(g.index(n) for n in b))
    block_of = {n: i for i, b in enumerate(blocks) for n in b}
    return CComponentPartition(blocks=tuple(blocks), block_of=block_of)


def observable_blocks(p: CComponentPartition, g: CausalGraph) -> list[frozenset[str]]:
    """Each block intersected with the observable nodes, empty intersections
    dropped, block order preserved."""
    obs = set(g.observable_names)
    out = []
    for b in p.blocks:
        ob = b & obs
        if ob:
            out.append(frozenset(ob))
    return out
