"""Cross-module invariants checked on seeded random corpora."""

import itertools

import numpy as np
import pytest

from causalid.docalc import Derivation, DoSentence, derive_effect, verify_derivation
from causalid.expr import JointMarginal, One, free_vars, iter_leaves
from causalid.graph import CausalGraph, parse_graph_text
from causalid.ident import causal_effect
from causalid.oracle import (
    DoEvaluator,
    full_joint_array,
    interventional_truth,
    observational_joint,
    random_model,
)

import workloads as wl
from conftest import grid_value, random_dag


def brute_force_interventional(m, t, s_vars):
    """Independent nested-loop evaluation of the truncated factorization:
    no array broadcasting, just dictionaries and explicit products."""
    g = m.graph
    names = list(g.names)
    s_sorted = [n for n in g.observable_names if n in set(s_vars)]
    out = {}
    for values in itertools.product(*(range(m.cards[i]) for i in range(len(names)))):
        assign = dict(zip(names, values))
        if any(assign[v] != t[v] for v in t):
            continue
        p = 1.0
        for i, name in enumerate(names):
            if name in t:
                continue
            idx = tuple(assign[q] for q in g.parents_of(name)) + (assign[name],)
            p *= m.cpts[i][idx]
        key = tuple(assign[v] for v in s_sorted)
        out[key] = out.get(key, 0.0) + p
    return s_sorted, out


class TestEnumerationExactness:
    def test_interventional_truth_matches_nested_loops(self):
        rng = np.random.default_rng(60)
        for trial in range(15):
            g = random_dag(rng, n_obs=4, n_lat=2, p_edge=0.4)
            m = random_model(g, seed=trial)
            obs = list(g.observable_names)
            t = {obs[0]: int(rng.integers(0, 2))}
            s = obs[1:3]
            table = interventional_truth(m, t, s)
            s_sorted, brute = brute_force_interventional(m, t, s)
            assert tuple(table.names) == tuple(s_sorted)
            for key, value in brute.items():
                assert table.array[key] == pytest.approx(value, abs=1e-12)

    def test_full_joint_matches_nested_loops(self):
        rng = np.random.default_rng(61)
        g = random_dag(rng, n_obs=3, n_lat=2, p_edge=0.5)
        m = random_model(g, seed=9)
        arr = full_joint_array(m)
        names = list(g.names)
        for values in itertools.product(*(range(2) for _ in names)):
            assign = dict(zip(names, values))
            p = 1.0
            for i, name in enumerate(names):
                idx = tuple(assign[q] for q in g.parents_of(name)) + (assign[name],)
                p *= m.cpts[i][idx]
            assert arr[values] == pytest.approx(p, abs=1e-15)


class TestDoEvaluatorConsistency:
    def test_sentence_equals_truth_ratio(self):
        # P(y | do(t), w) from the grid evaluator must equal the ratio of
        # truncated-factorization marginals computed independently.
        rng = np.random.default_rng(62)
        for trial in range(10):
            g = random_dag(rng, n_obs=4, n_lat=1, p_edge=0.4)
            m = random_model(g, seed=trial)
            obs = list(g.observable_names)
            y, t_var, w_var = obs[0], obs[1], obs[2]
            sent = DoSentence(frozenset({y}), frozenset({t_var}), frozenset({w_var}))
            grid = DoEvaluator(m).grid(sent, [y, t_var, w_var])
            for yv, tv, wv in itertools.product(range(2), repeat=3):
                num = interventional_truth(m, {t_var: tv}, [y, w_var])
                den = interventional_truth(m, {t_var: tv}, [w_var])
                pair = (yv, wv) if num.names.index(y) == 0 else (wv, yv)
                want = num.array[pair] / den.array[wv]
                assert grid[yv, tv, wv] == pytest.approx(want, abs=1e-12)


class TestEstimandPurity:
    def test_identified_estimands_are_purely_observational(self):
        rng = np.random.default_rng(63)
        checked = 0
        for trial in range(80):
            g = random_dag(rng, n_obs=int(rng.integers(2, 6)),
                          n_lat=int(rng.integers(0, 4)))
            obs = list(g.observable_names)
            rng.shuffle(obs)
            n_t = int(rng.integers(1, len(obs)))
            t, s = frozenset(obs[:n_t]), frozenset(obs[n_t:])
            res = causal_effect(t, s, g)
            if not res.identifiable:
                continue
            checked += 1
            assert free_vars(res.estimand) <= (t | s)
            for leaf in iter_leaves(res.estimand):
                assert isinstance(leaf, JointMarginal)
        assert checked >= 40

    def test_normalization_over_outcomes(self):
        rng = np.random.default_rng(64)
        checked = 0
        for trial in range(30):
            g = random_dag(rng, n_obs=4, n_lat=2)
            obs = list(g.observable_names)
            t, s = frozenset(obs[:1]), frozenset(obs[1:3])
            res = causal_effect(t, s, g)
            if not res.identifiable:
                continue
            checked += 1
            m = random_model(g, seed=trial)
            joint = observational_joint(m)
            for tv in range(2):
                total = 0.0
                for sv in itertools.product(range(2), repeat=len(s)):
                    a = {list(t)[0]: tv}
                    a.update(dict(zip(sorted(s), sv)))
                    total += grid_value(res.estimand, joint, a)
                assert total == pytest.approx(1.0, abs=1e-9)
        assert checked >= 10


class TestDerivationKindCoverage:
    def test_corpus_exercises_every_step_kind(self):
        rng = np.random.default_rng(65)
        kinds = set()

        def collect(d, seen):
            if id(d) in seen:
                return
            seen.add(id(d))
            for st in d.steps:
                kinds.add(st.kind)
                if hasattr(st.justification, "derivation"):
                    collect(st.justification.derivation, seen)

        for trial in range(120):
            g = random_dag(rng, n_obs=int(rng.integers(3, 6)),
                          n_lat=int(rng.integers(1, 4)),
                          p_edge=float(rng.uniform(0.3, 0.7)))
            obs = list(g.observable_names)
            rng.shuffle(obs)
            # leave some variables out of the query so the spreading step
            # (sum introduction) has something to do
            n_t = int(rng.integers(1, len(obs) - 1)) if len(obs) > 2 else 1
            n_s = int(rng.integers(1, len(obs) - n_t + 1))
            d = derive_effect(frozenset(obs[:n_t]),
                             frozenset(obs[n_t:n_t + n_s]), g)
            if isinstance(d, Derivation):
                collect(d, set())
        # Every kind that the verifier knows, and no other: it rejects the
        # NormalizeToOne steps of files written by earlier versions as an
        # unknown kind.
        assert kinds == {"Rule2", "Rule3", "ChainRule", "Marginalize",
                         "FactorSubstitute"}

    def test_arity_three_models_also_pass(self, g_frontdoor):
        from causalid.oracle import check_estimand

        res = causal_effect({"X"}, {"Y"}, g_frontdoor)
        rep = check_estimand(res.estimand, g_frontdoor, ["X"], ["Y"],
                             trials=10, seed=0, arity=3)
        assert rep.all_passed


def sparse_latent_graph(rng, n_obs=20, window=3, latent_children=2):
    """A sparse latent DAG: observables ``V0..`` in topological order, each
    with one observed parent among the ``window`` before it; ``n_obs // 4``
    latent roots with ``latent_children`` observable children each; and one
    barren latent ``B`` below ``V0``."""
    obs = [f"V{i}" for i in range(n_obs)]
    lat = [f"L{i}" for i in range(n_obs // 4)]
    edges = {(obs[int(rng.integers(max(0, j - window), j))], obs[j]) for j in range(1, n_obs)}
    for u in lat:
        edges.update((u, obs[int(c)]) for c in rng.choice(n_obs, latent_children, replace=False))
    edges.add(("V0", "B"))
    return CausalGraph.build(obs, lat + ["B"], sorted(edges))


def sparse_queries():
    """A seeded sparse latent DAG and six single-variable queries on it."""
    rng = np.random.default_rng(2)
    g = sparse_latent_graph(rng)
    return g, [({f"V{int(rng.integers(0, 10))}"}, {f"V{int(rng.integers(10, 20))}"})
               for _ in range(6)]


class TestNoGraphBuilds:
    """Scoped structure questions are walks on the parsed graph: identifying
    and deriving an effect builds no graph beyond barren-latent removal."""

    @staticmethod
    def builds(monkeypatch, run) -> int:
        """``CausalGraph`` constructions during ``run()`` outside
        ``remove_barren_latents``."""
        count, inside = [0], [0]
        init, remove = CausalGraph.__init__, CausalGraph.remove_barren_latents

        def counted_init(self, *args, **kwargs):
            count[0] += not inside[0]
            init(self, *args, **kwargs)

        def exempt_remove(self):
            inside[0] += 1
            try:
                return remove(self)
            finally:
                inside[0] -= 1

        with monkeypatch.context() as m:
            m.setattr(CausalGraph, "__init__", counted_init)
            m.setattr(CausalGraph, "remove_barren_latents", exempt_remove)
            run()
        return count[0]

    def test_frontdoor(self, g_frontdoor, monkeypatch):
        def run():
            assert isinstance(derive_effect({"X"}, {"Y"}, g_frontdoor), Derivation)
            assert causal_effect({"X"}, {"Y"}, g_frontdoor).identifiable

        assert self.builds(monkeypatch, run) == 0

    def test_sparse_latent_dag(self, monkeypatch):
        g, queries = sparse_queries()
        assert len(g.remove_barren_latents()) < len(g)
        results = []

        def run():
            for t, s in queries:
                results.append(isinstance(derive_effect(t, s, g), Derivation))
                assert causal_effect(t, s, g).identifiable == results[-1]

        assert self.builds(monkeypatch, run) == 0
        assert any(results)


class TestDeriveBuildsNoExpression:
    """A derivation replays the set trace of the identification recursion:
    deriving an effect, or finding it not identifiable, builds no estimand."""

    @staticmethod
    def forbid_building(m):
        def refuse(*args, **kwargs):
            raise AssertionError("an estimand was built")

        for name in ("canonicalize", "simplify", "factorize_components", "sum_to_ancestral",
                     "_component_factor"):
            m.setattr(f"causalid.ident.{name}", refuse)

    @staticmethod
    def cases(g_frontdoor, g_bow):
        g, queries = sparse_queries()
        return [(g_frontdoor, {"X"}, {"Y"}), (g_bow, {"X"}, {"Y"})] + [
            (g, t, s) for t, s in queries]

    def test_derive_reads_only_the_trace(self, g_frontdoor, g_bow, monkeypatch):
        cases = self.cases(g_frontdoor, g_bow)
        want = [derive_effect(t, s, g) for g, t, s in cases]
        assert any(isinstance(d, Derivation) for d in want)
        assert any(not isinstance(d, Derivation) for d in want)
        with monkeypatch.context() as m:
            self.forbid_building(m)
            assert [derive_effect(t, s, g) for g, t, s in cases] == want

    def test_derive_runs_no_separation_test(self, g_frontdoor, g_bow, monkeypatch):
        # A rule step's side condition is decided by the checker alone.
        cases = self.cases(g_frontdoor, g_bow)
        want = [derive_effect(t, s, g) for g, t, s in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("a separation test ran")

        with monkeypatch.context() as m:
            m.setattr("causalid.sep._separated", refuse)
            m.setattr("causalid.docalc.rule_applicable", refuse)
            assert [derive_effect(t, s, g) for g, t, s in cases] == want

    def test_bow_witness_builds_nothing(self, g_bow, monkeypatch):
        want = causal_effect({"X"}, {"Y"}, g_bow)
        with monkeypatch.context() as m:
            self.forbid_building(m)
            got = causal_effect({"X"}, {"Y"}, g_bow)
        assert got == want and got.witness is not None


class TestPoolDerivationsAccepted:
    """The compiler tests no rule step, so each generated step's separation
    test runs here: every identifiable query of the seed-0 ``scale`` and
    ``corpus`` pools gets a derivation that the checker accepts."""

    @pytest.mark.parametrize("workload", ["scale", "corpus"])
    def test_every_derivation_accepted(self, workload):
        derived = 0
        for q in wl.make_pool(workload, wl.SPEC["default_seed"]):
            d = derive_effect(q.do, q.on, parse_graph_text(q.graph.text()))
            if isinstance(d, Derivation):
                verdict = verify_derivation(d, models=0)
                assert verdict.accepted, (q.qid, verdict)
                derived += 1
        assert derived == {"scale": 199, "corpus": 945}[workload]
