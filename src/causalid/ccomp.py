"""Confounded-component (c-component) partitioning.

The c-components of a graph are its connected components under the edges
that leave a latent node, taken as undirected: latents joined by an edge or
by a shared child fall into one block together with their observable
children, and an observable without a latent parent is a singleton.  A
scoped partition covers the latent subgraph over the scope, found by a walk
on the graph's index adjacency without building that subgraph.  The blocks
are ordered by their smallest node index.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import CausalGraph, Names

__all__ = ["CComponentPartition", "c_components", "observable_blocks"]


@dataclass(frozen=True)
class CComponentPartition:
    """Disjoint node blocks covering a graph, with a node -> block index."""

    blocks: tuple[frozenset[str], ...]
    block_of: dict[str, int]


def c_components(g: CausalGraph, scope: Names | None = None) -> CComponentPartition:
    """Partition the nodes of ``g`` into c-components.

    With ``scope`` (observable nodes only), partition the latent subgraph
    over it: ``scope`` plus its all-latent-path parents (:meth:`~CausalGraph.dup`),
    with every edge between them.  Graphs without latents come out as all
    singletons.
    """
    keep = range(len(g)) if scope is None else g._up(g._observables(scope, "c_components"))
    parents, children, obs = g._parents, g._children, g._obs
    blocks: list[frozenset[str]] = []
    seen: set[int] = set()
    # Visiting the nodes in index order starts each block at its smallest
    # index, so the blocks come out in order.  Every latent parent of a kept
    # node is kept, so only children need the ``keep`` test.
    for v in sorted(keep):
        if v in seen:
            continue
        seen.add(v)
        block, frontier = [v], [v]
        while frontier:
            u = frontier.pop()
            near = [p for p in parents[u] if not obs[p]]
            if not obs[u]:
                near += [c for c in children[u] if c in keep]
            for w in near:
                if w not in seen:
                    seen.add(w)
                    block.append(w)
                    frontier.append(w)
        blocks.append(g._to_names(block))
    block_of = {n: i for i, b in enumerate(blocks) for n in b}
    return CComponentPartition(blocks=tuple(blocks), block_of=block_of)


def observable_blocks(p: CComponentPartition, g: CausalGraph) -> list[frozenset[str]]:
    """Each block intersected with the observable nodes, empty intersections
    dropped, block order preserved."""
    obs = set(g.observable_names)
    return [ob for b in p.blocks if (ob := b & obs)]
