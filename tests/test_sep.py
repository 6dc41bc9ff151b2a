"""d-separation, Z(W), and the rule applicability checks."""

import numpy as np
import pytest

from causalid.graph import CausalGraph, GraphError
from causalid.sep import RuleInstance, SeparationQuery, d_separated, rule_applicable, z_w

from conftest import random_dag


def sep(g, x, y, z=()):
    return d_separated(SeparationQuery(frozenset(x), frozenset(y), frozenset(z), g))


class TestDSeparated:
    def test_chain_blocked_by_middle(self, g_chain):
        assert sep(g_chain, {"X"}, {"Y"}, {"Z"})

    def test_chain_open_without_conditioning(self, g_chain):
        assert not sep(g_chain, {"X"}, {"Y"})

    def test_conditioned_collider_opens(self, g_collider):
        assert sep(g_collider, {"X"}, {"Y"})
        assert not sep(g_collider, {"X"}, {"Y"}, {"Z"})

    def test_collider_descendant_opens(self):
        g = CausalGraph.build(
            observed=["X", "Y", "Z", "D"],
            edges=[("X", "Z"), ("Y", "Z"), ("Z", "D")],
        )
        assert not sep(g, {"X"}, {"Y"}, {"D"})

    def test_backdoor_condition_after_outgoing_cut(self, g_backdoor):
        cut = g_backdoor.cut_outgoing(["X"])
        assert sep(cut, {"Y"}, {"X"}, {"Z"})

    def test_latent_fork_connects(self, g_bow):
        cut = g_bow.cut_outgoing(["X"])
        # Y <- U -> X stays active: U is latent but blocks nothing here
        assert not sep(cut, {"Y"}, {"X"})

    def test_symmetry(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            g = random_dag(rng, n_obs=5, n_lat=2)
            names = list(g.names)
            rng.shuffle(names)
            x, y, z = {names[0]}, {names[1]}, set(names[2:4])
            q1 = SeparationQuery(frozenset(x), frozenset(y), frozenset(z), g)
            q2 = SeparationQuery(frozenset(y), frozenset(x), frozenset(z), g)
            assert d_separated(q1) == d_separated(q2)

    def test_overlap_rejected(self, g_chain):
        with pytest.raises(GraphError):
            SeparationQuery(frozenset({"X"}), frozenset({"X"}), frozenset(), g_chain)

    def test_monotone_under_edge_removal(self):
        # Deleting edges can only separate more.
        rng = np.random.default_rng(33)
        for _ in range(80):
            g = random_dag(rng, n_obs=5, n_lat=2, p_edge=0.5)
            names = list(g.names)
            rng.shuffle(names)
            x, y, z = {names[0]}, {names[1]}, set(names[2:4])
            if not sep(g, x, y, z):
                continue
            edges = [e for e in g.edges if rng.random() < 0.7]
            sub = CausalGraph(
                [(n, g.is_observable(n)) for n in g.names], edges
            )
            assert sep(sub, x, y, z)

    def test_brute_force_agreement(self):
        # Compare against path enumeration on small graphs.
        rng = np.random.default_rng(55)

        def active_path_exists(g, x, y, z):
            cond = set(z)
            anc_z = set(g.ancestors(z)) if z else set()
            # enumerate all simple undirected paths from x to y
            adj = {}
            for p, c in g.edges:
                adj.setdefault(p, []).append(("child", c))
                adj.setdefault(c, []).append(("parent", p))

            def extend(path, dirs):
                last = path[-1]
                for kind, nxt in adj.get(last, ()):
                    if nxt in path:
                        continue
                    yield path + [nxt], dirs + [kind]

            def path_active(path, dirs):
                # dirs[i] describes the step path[i] -> path[i+1]
                for i in range(1, len(path) - 1):
                    into = dirs[i - 1] == "child"  # edge points at path[i]
                    outof = dirs[i] == "parent"  # edge points at path[i]
                    collider = into and outof
                    if collider:
                        if path[i] not in anc_z:
                            return False
                    else:
                        if path[i] in cond:
                            return False
                return True

            stack = [([a], []) for a in x]
            while stack:
                path, dirs = stack.pop()
                if path[-1] in y and len(path) > 1:
                    if path_active(path, dirs):
                        return True
                    # keep extending: a longer path through y later is distinct
                for nxt in extend(path, dirs):
                    if path[-1] in y:
                        continue
                    stack.append(nxt)
            return False

        for _ in range(120):
            g = random_dag(rng, n_obs=4, n_lat=1, p_edge=0.45)
            names = list(g.names)
            rng.shuffle(names)
            x, y = {names[0]}, {names[1]}
            z = set(names[2 : 2 + rng.integers(0, 3)])
            assert sep(g, x, y, z) == (not active_path_exists(g, x, y, z))


class TestZW:
    def test_empty_w_keeps_all(self, g_backdoor):
        assert z_w(g_backdoor, set(), {"X"}, set()) == {"X"}

    def test_ancestor_of_w_dropped(self, g_backdoor):
        assert z_w(g_backdoor, set(), {"Z"}, {"Y"}) == set()

    def test_frontdoor_treatment_is_ancestor(self, g_frontdoor):
        assert z_w(g_frontdoor, set(), {"X"}, {"Y"}) == set()

    def test_cut_changes_ancestry(self, g_chain):
        # X reaches Y only through Z; cutting the incoming edges of Z
        # breaks that path, so X stops being an ancestor of Y.
        assert z_w(g_chain, set(), {"X"}, {"Y"}) == set()
        assert z_w(g_chain, {"Z"}, {"X"}, {"Y"}) == {"X"}


class TestRules:
    def test_rule2_backdoor_adjustment(self, g_backdoor):
        r = RuleInstance(2, frozenset(), frozenset({"Y"}), frozenset({"X"}),
                        frozenset({"Z"}), g_backdoor)
        ev = rule_applicable(r)
        assert ev.holds
        assert ev.cut_outgoing == {"X"}

    def test_rule3_bow_blocked(self, g_bow):
        r = RuleInstance(3, frozenset(), frozenset({"Y"}), frozenset({"X"}),
                        frozenset(), g_bow)
        assert not rule_applicable(r)

    def test_rule1_empty_z_vacuous(self, g_chain):
        r = RuleInstance(1, frozenset(), frozenset({"Y"}), frozenset(),
                        frozenset({"Z"}), g_chain)
        assert rule_applicable(r)

    def test_rule3_zw_restricts_cut(self, g_backdoor):
        # With w = {Y}, Z is an ancestor of Y, so Z(W) is empty and the
        # incoming edges of Z stay.
        r = RuleInstance(3, frozenset(), frozenset({"X"}), frozenset({"Z"}),
                        frozenset({"Y"}), g_backdoor)
        ev = rule_applicable(r)
        assert ev.cut_incoming == set()

    def test_non_disjoint_rejected(self, g_chain):
        with pytest.raises(GraphError):
            RuleInstance(2, frozenset({"X"}), frozenset({"X"}), frozenset(),
                        frozenset(), g_chain)



def reference_evidence(r):
    """The rule test built the long way: mutilated graphs and name-level
    descendant sets."""
    g = r.graph
    if r.rule == 1:
        cut_in, cut_out = r.x, frozenset()
    elif r.rule == 2:
        cut_in, cut_out = r.x, r.z
    else:
        cut = g.cut_incoming(r.x)
        cut_in = r.x | {v for v in r.z if not (cut.descendants([v]) & r.w)}
        cut_out = frozenset()
    mutilated = g.cut_incoming(cut_in).cut_outgoing(cut_out)
    holds = d_separated(SeparationQuery(r.y, r.z, r.x | r.w, mutilated))
    return cut_in, cut_out, holds


class TestEdgeCutWalk:
    def test_matches_mutilated_graph_construction(self):
        rng = np.random.default_rng(2024)
        outcomes = set()
        for _ in range(300):
            g = random_dag(rng, n_obs=int(rng.integers(3, 8)),
                           n_lat=int(rng.integers(0, 3)),
                           p_edge=float(rng.uniform(0.2, 0.6)))
            # Roles 0..3 are y, z, x, w and 4 is none; y and z are nonempty.
            roles = rng.integers(0, 5, size=len(g))
            roles[rng.choice(len(g), size=2, replace=False)] = (0, 1)
            y, z, x, w = ({n for n, k in zip(g.names, roles) if k == role}
                          for role in range(4))
            for rule in (1, 2, 3):
                r = RuleInstance(rule, frozenset(x), frozenset(y), frozenset(z),
                                 frozenset(w), g)
                ev = rule_applicable(r)
                want = reference_evidence(r)
                assert (ev.cut_incoming, ev.cut_outgoing, ev.holds) == want
                outcomes.add((rule, ev.holds))
            assert z_w(g, x, z, w) == {
                v for v in z if not (g.cut_incoming(x).descendants([v]) & w)
            }
        # Both verdicts of every rule were exercised.
        assert len(outcomes) == 6
