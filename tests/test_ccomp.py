"""c-component partitioning."""

import numpy as np
import pytest

from causalid.ccomp import c_components, observable_blocks
from causalid.graph import CausalGraph, GraphError

from conftest import random_dag, scoped_sweep


def brute_force_blocks(g):
    """The transitive closure of "joined by an edge that leaves a latent",
    by merging blocks edge by edge, ordered by smallest node index."""
    block = {n: frozenset([n]) for n in g.names}
    latent = set(g.latent_names)
    for p, c in g.edges:
        if p in latent and block[p] != block[c]:
            merged = block[p] | block[c]
            block.update(dict.fromkeys(merged, merged))
    return tuple(sorted(set(block.values()), key=lambda b: min(map(g.index, b))))


class TestCComponents:
    def test_frontdoor_blocks(self, g_frontdoor):
        p = c_components(g_frontdoor)
        assert p.blocks == (frozenset({"U", "X", "Y"}), frozenset({"Z"}))

    def test_no_latents_all_singletons(self, g_backdoor):
        p = c_components(g_backdoor)
        assert p.blocks == (frozenset({"Z"}), frozenset({"X"}), frozenset({"Y"}))

    def test_latent_subgraph_of_frontdoor(self, g_frontdoor):
        sub = g_frontdoor.latent_subgraph(["Z", "Y"])
        p = c_components(sub)
        assert set(p.blocks) == {frozenset({"U", "Y"}), frozenset({"Z"})}

    def test_shared_observable_child_merges_latents(self):
        g = CausalGraph.build(
            observed=["A"], latent=["U1", "U2"], edges=[("U1", "A"), ("U2", "A")]
        )
        p = c_components(g)
        assert p.blocks == (frozenset({"U1", "U2", "A"}),)

    def test_latent_edge_merges(self):
        g = CausalGraph.build(
            observed=["A", "B"],
            latent=["U1", "U2"],
            edges=[("U1", "U2"), ("U1", "A"), ("U2", "B")],
        )
        p = c_components(g)
        assert p.blocks == (frozenset({"A", "B", "U1", "U2"}),)

    def test_partition_covers_and_is_disjoint(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            g = random_dag(rng, n_obs=5, n_lat=3)
            p = c_components(g)
            seen = set()
            for b in p.blocks:
                assert not (seen & b)
                seen |= b
            assert seen == set(g.names)
            for n in g.names:
                assert n in p.blocks[p.block_of[n]]

    def test_merge_order_independent(self):
        # Relabelling nodes (reversing declaration order) must give the same
        # partition up to names.
        rng = np.random.default_rng(29)
        for _ in range(30):
            g = random_dag(rng, n_obs=4, n_lat=3)
            rev = CausalGraph(
                [(n, g.is_observable(n)) for n in reversed(g.names)], g.edges
            )
            assert set(c_components(g).blocks) == set(c_components(rev).blocks)

    def test_matches_brute_force_closure(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            g = random_dag(rng, n_obs=5, n_lat=4, p_edge=0.35)
            assert c_components(g).blocks == brute_force_blocks(g)


class TestScopedCComponents:
    def test_frontdoor_scope(self, g_frontdoor):
        p = c_components(g_frontdoor, ["Z", "Y"])
        assert p.blocks == (frozenset({"Z"}), frozenset({"Y", "U"}))

    def test_latent_scope_rejected(self, g_bow):
        with pytest.raises(GraphError, match="requires observable nodes"):
            c_components(g_bow, ["U"])

    def test_matches_latent_subgraph(self):
        chains = 0
        for g, scope in scoped_sweep(41):
            sub = g.latent_subgraph(scope)
            assert c_components(g, scope).blocks == c_components(sub).blocks, scope
            latent = set(sub.latent_names)
            chains += any(p in latent and c in latent for p, c in sub.edges)
        assert chains  # the sweep reaches latent chains inside a scope


class TestObservableBlocks:
    def test_frontdoor(self, g_frontdoor):
        p = c_components(g_frontdoor)
        assert observable_blocks(p, g_frontdoor) == [
            frozenset({"X", "Y"}),
            frozenset({"Z"}),
        ]

    def test_no_latents(self, g_backdoor):
        p = c_components(g_backdoor)
        assert observable_blocks(p, g_backdoor) == [
            frozenset({"Z"}),
            frozenset({"X"}),
            frozenset({"Y"}),
        ]

    def test_bow_outcome_subgraph(self, g_bow):
        sub = g_bow.latent_subgraph(["Y"])
        p = c_components(sub)
        assert observable_blocks(p, sub) == [frozenset({"Y"})]

    def test_pure_latent_block_dropped(self):
        g = CausalGraph.build(
            observed=["A"], latent=["U1", "U2"], edges=[("U1", "U2")]
        )
        p = c_components(g)
        got = observable_blocks(p, g)
        assert got == [frozenset({"A"})]
