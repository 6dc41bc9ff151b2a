"""Structural graph operations, text parsing, and their invariants."""

import numpy as np
import pytest

from causalid.graph import (
    CausalGraph,
    CycleError,
    GraphError,
    GraphParseError,
    parse_graph_text,
)

from conftest import random_dag, scoped_sweep


class TestAncestorsDescendants:
    def test_ancestors_frontdoor_outcome(self, g_frontdoor):
        assert g_frontdoor.ancestors(["Y"]) == {"Y", "Z", "X", "U"}

    def test_ancestors_root_is_self(self, g_chain):
        assert g_chain.ancestors(["X"]) == {"X"}

    def test_ancestors_bow_outcome(self, g_bow):
        assert g_bow.ancestors(["Y"]) == {"X", "Y", "U"}

    def test_descendants_chain_root(self, g_chain):
        assert g_chain.descendants(["X"]) == {"X", "Z", "Y"}

    def test_descendants_leaf_is_self(self, g_chain):
        assert g_chain.descendants(["Y"]) == {"Y"}

    def test_descendants_latent_root(self, g_frontdoor):
        assert g_frontdoor.descendants(["U"]) == {"U", "X", "Z", "Y"}

    def test_unknown_node_rejected(self, g_chain):
        with pytest.raises(GraphError):
            g_chain.ancestors(["Q"])

    def test_duality_and_extensivity(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            g = random_dag(rng, n_obs=4, n_lat=2)
            for v in g.names:
                for w in g.names:
                    assert (v in g.ancestors([w])) == (w in g.descendants([v]))
            for c in ({g.names[0]}, set(g.names[:3])):
                an = g.ancestors(c)
                assert c <= an
                assert g.ancestors(an) == an  # idempotent


class TestDup:
    def test_direct_latent_parent(self, g_frontdoor):
        assert g_frontdoor.dup(["X", "Y"]) == {"U"}

    def test_observable_internal_node_breaks_path(self, g_frontdoor):
        # U -> X -> Z passes through observable X
        assert g_frontdoor.dup(["Z"]) == set()

    def test_no_latents(self, g_backdoor):
        assert g_backdoor.dup(["X", "Z", "Y"]) == set()

    def test_latent_chain_counts(self):
        g = CausalGraph.build(
            observed=["A"], latent=["U1", "U2"], edges=[("U1", "U2"), ("U2", "A")]
        )
        assert g.dup(["A"]) == {"U1", "U2"}

    def test_latent_argument_rejected(self, g_bow):
        with pytest.raises(GraphError):
            g_bow.dup(["U"])

    def test_dup_is_latent_subset_of_ancestors(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            g = random_dag(rng, n_obs=4, n_lat=3)
            c = set(g.observable_names[:2])
            assert g.dup(c) <= g.ancestors(c) & set(g.latent_names)


class TestLatentSubgraph:
    def test_frontdoor_zy(self, g_frontdoor):
        sub = g_frontdoor.latent_subgraph(["Z", "Y"])
        assert set(sub.names) == {"Z", "Y", "U"}
        assert set(sub.edges) == {("Z", "Y"), ("U", "Y")}
        assert sub.latent_names == ("U",)

    def test_full_observable_set_recovers_graph(self, g_frontdoor):
        sub = g_frontdoor.latent_subgraph(["X", "Z", "Y"])
        assert sub == g_frontdoor

    def test_bow_outcome_only(self, g_bow):
        sub = g_bow.latent_subgraph(["Y"])
        assert set(sub.names) == {"Y", "U"}
        assert set(sub.edges) == {("U", "Y")}


class TestAncestorsWithin:
    def test_frontdoor(self, g_frontdoor):
        # Z -> Y survives in the subgraph over {Z, Y}; X lies outside it
        assert g_frontdoor._ancestors_within(["Y"], ["Z", "Y"]) == {"Z", "Y"}
        assert g_frontdoor._ancestors_within(["Z"], ["Z", "Y"]) == {"Z"}

    def test_matches_latent_subgraph(self):
        for g, scope in scoped_sweep(43):
            sub = g.latent_subgraph(scope)
            for c in [scope[:1], scope[-2:], scope]:
                want = sub.ancestors(c) & set(scope)
                assert g._ancestors_within(c, scope) == want, (scope, c)
                assert g.is_ancestral(c, scope) == (want == set(c))


class TestCuts:
    def test_cut_incoming_backdoor(self, g_backdoor):
        assert set(g_backdoor.cut_incoming(["X"]).edges) == {("Z", "Y"), ("X", "Y")}

    def test_cut_incoming_empty_is_identity(self, g_backdoor):
        assert g_backdoor.cut_incoming([]) == g_backdoor

    def test_cut_incoming_bow(self, g_bow):
        assert set(g_bow.cut_incoming(["X"]).edges) == {("X", "Y"), ("U", "Y")}

    def test_cut_outgoing_backdoor(self, g_backdoor):
        assert set(g_backdoor.cut_outgoing(["X"]).edges) == {("Z", "X"), ("Z", "Y")}

    def test_cut_outgoing_empty_is_identity(self, g_chain):
        assert g_chain.cut_outgoing([]) == g_chain

    def test_cut_outgoing_chain_mid(self, g_chain):
        assert set(g_chain.cut_outgoing(["Z"]).edges) == {("X", "Z")}

    def test_cuts_compose(self, g_backdoor):
        both = g_backdoor.cut_incoming(["X"]).cut_outgoing(["Z"])
        assert set(both.edges) == {("X", "Y")}


class TestBarrenLatents:
    def test_isolated_latent_removed(self):
        g = CausalGraph.build(
            observed=["X", "Y"],
            latent=["U", "W"],
            edges=[("X", "Y"), ("U", "X"), ("U", "Y")],
        )
        got = g.remove_barren_latents()
        assert set(got.names) == {"X", "Y", "U"}

    def test_frontdoor_unchanged(self, g_frontdoor):
        assert g_frontdoor.remove_barren_latents() == g_frontdoor

    def test_latent_chain_fully_removed(self):
        g = CausalGraph.build(observed=["A"], latent=["U1", "U2"], edges=[("U1", "U2")])
        got = g.remove_barren_latents()
        assert got.names == ("A",)

    def test_idempotent_and_preserves_observables(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            g = random_dag(rng, n_obs=4, n_lat=3, p_edge=0.25)
            r = g.remove_barren_latents()
            assert r.remove_barren_latents() == r
            assert r.observable_names == g.observable_names

    def test_matches_descendant_definition(self):
        rng = np.random.default_rng(19)
        dropped = 0
        for _ in range(60):
            g = random_dag(rng, n_obs=4, n_lat=4, p_edge=0.25)
            obs = set(g.observable_names)
            keep = {n for n in g.names if n in obs or g.descendants([n]) & obs}
            want = CausalGraph(
                [(n, g.is_observable(n)) for n in g.names if n in keep],
                [(p, c) for p, c in g.edges if p in keep and c in keep],
            )
            assert g.remove_barren_latents() == want
            dropped += len(keep) < len(g)
        assert dropped


class TestTopoOrder:
    def test_frontdoor_observables(self, g_frontdoor):
        assert g_frontdoor.topo_order(["X", "Z", "Y"]) == ("X", "Z", "Y")

    def test_empty_scope(self, g_chain):
        assert g_chain.topo_order([]) == ()

    def test_tie_broken_by_index(self, g_collider):
        # X and Y are unordered; X has the smaller index
        assert g_collider.topo_order(["X", "Y", "Z"]) == ("X", "Y", "Z")

    def test_latent_mediated_precedence_is_kept(self):
        # A -> U -> B with U latent: the scope {B, A} has no direct edge,
        # but A must still come first.
        g = CausalGraph(
            [("B", True), ("A", True), ("U", False)], [("A", "U"), ("U", "B")]
        )
        assert g.topo_order(["A", "B"]) == ("A", "B")

    def test_permutation_and_edge_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            g = random_dag(rng, n_obs=5, n_lat=2)
            scope = [n for n in g.names if rng.random() < 0.6]
            order = g.topo_order(scope)
            assert sorted(order) == sorted(scope)
            pos = {n: i for i, n in enumerate(order)}
            for p, c in g.edges:
                if p in pos and c in pos:
                    assert pos[p] < pos[c]


class TestIsAncestral:
    def test_frontdoor_zy(self, g_frontdoor):
        assert g_frontdoor.is_ancestral(["Z", "Y"], ["Z", "Y"])

    def test_bow_outcome_not_ancestral(self, g_bow):
        # X -> Y survives in the subgraph over {X, Y}
        assert not g_bow.is_ancestral(["Y"], ["X", "Y"])

    def test_full_set_always_ancestral(self, g_backdoor):
        assert g_backdoor.is_ancestral(["Z", "X", "Y"], ["Z", "X", "Y"])

    def test_subset_precondition(self, g_chain):
        with pytest.raises(GraphError):
            g_chain.is_ancestral(["X"], ["Z"])


class TestAcyclicityPreservation:
    def test_derived_graphs_stay_acyclic(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            g = random_dag(rng, n_obs=4, n_lat=2)
            obs = list(g.observable_names)
            # Constructors raise CycleError on violation, so building is the check.
            g.latent_subgraph(obs[:2])
            g.cut_incoming(obs[:1])
            g.cut_outgoing(obs[:1])
            g.remove_barren_latents()


class TestConstruction:
    def test_cycle_reported(self):
        with pytest.raises(CycleError) as exc:
            CausalGraph.build(observed=["A", "B"], edges=[("A", "B"), ("B", "A")])
        assert set(exc.value.cycle) == {"A", "B"}

    def test_duplicate_name(self):
        with pytest.raises(GraphError):
            CausalGraph([("A", True), ("A", False)], [])

    def test_duplicate_edge(self):
        with pytest.raises(GraphError):
            CausalGraph.build(observed=["A", "B"], edges=[("A", "B"), ("A", "B")])

    def test_self_loop(self):
        with pytest.raises(GraphError):
            CausalGraph.build(observed=["A"], edges=[("A", "A")])


class TestTextFormat:
    BOW = "\n".join(
        [
            "# bow graph",
            "node X obs",
            "node Y obs",
            "node U lat",
            "edge X Y",
            "edge U X",
            "edge U Y",
        ]
    )

    def test_parse_bow(self, g_bow):
        assert parse_graph_text(self.BOW) == g_bow

    def test_edge_before_declaration_names_line(self):
        text = "edge X Y\nnode X obs\nnode Y obs\n"
        with pytest.raises(GraphParseError) as exc:
            parse_graph_text(text)
        assert exc.value.line_no == 1

    def test_self_loop_rejected(self):
        text = "node X obs\nedge X X\n"
        with pytest.raises(GraphParseError) as exc:
            parse_graph_text(text)
        assert exc.value.line_no == 2

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphParseError):
            parse_graph_text("# nothing here\n")

    def test_cycle_reported_from_text(self):
        text = "node A obs\nnode B obs\nedge A B\nedge B A\n"
        with pytest.raises(CycleError):
            parse_graph_text(text)

    def test_json_round_trip(self, g_frontdoor):
        assert CausalGraph.from_json(g_frontdoor.to_json()) == g_frontdoor

    def test_dot_marks_latents_dashed(self, g_bow):
        dot = g_bow.to_dot()
        assert '"U" [style=dashed];' in dot
        assert '"X" -> "Y";' in dot
        # A quote or backslash inside a name is escaped, so each name stays
        # one DOT id.
        for name, escaped in [('a"b', 'a\\"b'), ('a\\', 'a\\\\')]:
            dot = parse_graph_text(f"node {name} obs\nnode Y lat\nedge {name} Y\n").to_dot()
            assert dot.splitlines()[1:4] == [
                f'  "{escaped}";', '  "Y" [style=dashed];', f'  "{escaped}" -> "Y";']
