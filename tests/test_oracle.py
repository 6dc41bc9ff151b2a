"""Model generation, exact enumeration, and estimand checking."""

import itertools

import numpy as np
import pytest

import causalid.oracle
from causalid.expr import JointMarginal, Product, Quotient, Sum, evaluate_grid
from causalid.graph import CausalGraph, GraphError
from causalid.ident import causal_effect
from causalid.oracle import (
    DiscreteModel,
    check_estimand,
    ci_check,
    full_joint,
    full_joint_array,
    intervened_array,
    interventional_truth,
    observational_joint,
    random_model,
    witness_search,
)
from causalid.sep import SeparationQuery, d_separated
from causalid.tables import MAX_STATES, EnumerationLimitError, JointTable

from conftest import random_dag


class TestRandomModel:
    def test_same_seed_identical(self, g_bow):
        m1 = random_model(g_bow, seed=7)
        m2 = random_model(g_bow, seed=7)
        for a, b in zip(m1.cpts, m2.cpts):
            assert np.array_equal(a, b)

    def test_min_entry_floor(self, g_frontdoor):
        for seed in range(20):
            m = random_model(g_frontdoor, seed=seed)
            assert min(cpt.min() for cpt in m.cpts) >= 0.01 - 1e-15

    def test_rows_normalized(self, g_backdoor):
        m = random_model(g_backdoor, arity=3, seed=1)
        for cpt in m.cpts:
            assert np.allclose(cpt.sum(axis=-1), 1.0, atol=1e-12)

    def test_bow_joint_strictly_positive(self, g_bow):
        m = random_model(g_bow, seed=7)
        assert observational_joint(m).array.min() > 0

    @pytest.mark.parametrize("seeds", [range(5000), [2**32, 2**64 + 5, 2**128 - 1, 2**130 + 7]])
    def test_draws_the_stream_of_default_rng(self, g_frontdoor, seeds):
        # Seed s reads np.random.default_rng(s): the tables built from that
        # stream by hand equal the stack's, seed by seed, bit for bit.
        g, arity = g_frontdoor, 3
        stack = random_model(g, arity=arity, seed=seeds)
        shapes = [(arity,) * (len(g._parents[i]) + 1) for i in range(len(g))]
        sizes = [int(np.prod(shape)) for shape in shapes]
        for j, seed in enumerate(seeds):
            flat = np.random.default_rng(seed).random(sum(sizes))
            for i, (cpt, shape, start) in enumerate(zip(stack.cpts, shapes, np.cumsum([0] + sizes))):
                raw = flat[start:start + sizes[i]].reshape(shape) + 1e-12
                want = (1.0 - arity * 0.01) * (raw / raw.sum(axis=-1, keepdims=True)) + 0.01
                assert np.array_equal(cpt[j], want), (seed, g.names[i])

    def test_integer_seed_types(self, g_chain):
        want = random_model(g_chain, seed=1).cpts
        for seed in (np.int64(1), True, [np.uint8(1)]):
            got = random_model(g_chain, seed=seed).cpts
            assert all(np.array_equal(a.reshape(b.shape), b) for a, b in zip(got, want))

    @pytest.mark.parametrize("seed, error, message", [
        ([[1, 2], [3, 4]], ValueError, "flat sequence of seeds, got the nested seed"),
        ([0, range(2)], ValueError, "flat sequence of seeds, got the nested seed"),
        (-1, ValueError, "expected non-negative integer"),
        ([0, -3], ValueError, "expected non-negative integer"),
        (1.5, TypeError, "SeedSequence expects int"),
        ([0, 2.0], TypeError, "SeedSequence expects int"),
        ([], ValueError, "at least one seed required"),
    ])
    def test_bad_seeds_rejected(self, g_chain, seed, error, message):
        with pytest.raises(error, match=message):
            random_model(g_chain, seed=seed)


class TestModelStack:
    def test_stack_holds_each_seeds_model(self, g_frontdoor):
        stack = random_model(g_frontdoor, arity=3, seed=range(5, 9))
        assert stack.batch == (4,)
        for j, seed in enumerate(range(5, 9)):
            m = random_model(g_frontdoor, arity=3, seed=seed)
            assert m.batch == ()
            for a, b in zip(stack.cpts, m.cpts):
                assert np.array_equal(a[j], b)

    def test_bad_row_in_one_model_names_its_node(self, g_frontdoor):
        stack = random_model(g_frontdoor, seed=range(3))
        cpts = list(stack.cpts)
        z = g_frontdoor.index("Z")
        cpts[z] = cpts[z].copy()
        cpts[z][1, 0] = [0.5, 0.6]  # model 1, X = 0
        with pytest.raises(ValueError, match="node 'Z' does not sum to 1"):
            DiscreteModel(graph=g_frontdoor, cards=stack.cards, cpts=tuple(cpts))

    def test_tables_of_differing_stacks_rejected(self, g_chain):
        a, b = random_model(g_chain, seed=range(2)), random_model(g_chain, seed=range(3))
        with pytest.raises(ValueError, match="has shape"):
            DiscreteModel(graph=g_chain, cards=a.cards, cpts=(a.cpts[0], b.cpts[1], a.cpts[2]))

    def test_per_model_cap_kept(self):
        # 21 binary nodes: 2^21 joint states per model.
        names = [f"V{i}" for i in range(21)]
        g = CausalGraph.build(observed=names)
        with pytest.raises(EnumerationLimitError):
            random_model(g, seed=range(2))
        with pytest.raises(EnumerationLimitError):
            random_model(g, seed=0)
        with pytest.raises(EnumerationLimitError):
            JointTable(names, np.zeros((2,) * 21))

    def test_stack_not_refused_for_its_size(self):
        # Eight models of 2^18 states: a 2^21-cell stack of legal tables.
        names = [f"V{i}" for i in range(18)]
        stack = JointTable(names, np.zeros((8,) + (2,) * 18))
        assert stack.batch == (8,) and np.size(stack.array) > MAX_STATES


class TestValidation:
    """Row sums are checked like ``np.allclose(rows, 1.0, atol=1e-12)``:
    within 1e-12 + 1e-5 of one."""

    @staticmethod
    def model(row):
        g = CausalGraph.build(observed=["A"])
        return DiscreteModel(graph=g, cards=(2,), cpts=(np.array(row),))

    def test_row_off_by_2e_5_rejected(self):
        with pytest.raises(ValueError, match="does not sum to 1"):
            self.model([0.5, 0.5 + 2e-5])

    def test_row_off_by_5e_6_accepted(self):
        self.model([0.5, 0.5 + 5e-6])

    def test_nan_row_rejected(self):
        with pytest.raises(ValueError, match="does not sum to 1"):
            self.model([0.5, np.nan])


class TestObservationalJoint:
    def test_no_latents_is_cpt_product(self, g_chain):
        m = random_model(g_chain, seed=2)
        joint = observational_joint(m)
        for x, z, y in itertools.product(range(2), repeat=3):
            expected = m.cpts[0][x] * m.cpts[1][x, z] * m.cpts[2][z, y]
            assert joint.array[x, z, y] == pytest.approx(expected, abs=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            g = random_dag(rng, n_obs=4, n_lat=2)
            m = random_model(g, seed=trial)
            assert observational_joint(m).total() == pytest.approx(1.0, abs=1e-12)

    def test_noisy_copy_bow(self, g_bow):
        # U uniform; X and Y each copy U with probability 0.9.
        # P(X = Y) = 2 * 0.5 * (0.81 + 0.01) = 0.82.
        u = np.array([0.5, 0.5])
        x_given_u = np.array([[0.9, 0.1], [0.1, 0.9]])
        # Y's parents are X and U (index order X < U); Y copies U only.
        y_given_xu = np.array([[[0.9, 0.1], [0.1, 0.9]], [[0.9, 0.1], [0.1, 0.9]]])
        m = DiscreteModel(
            graph=g_bow, cards=(2, 2, 2), cpts=(x_given_u, y_given_xu, u)
        )
        joint = observational_joint(m)
        p_equal = joint.array[0, 0] + joint.array[1, 1]
        assert p_equal == pytest.approx(0.82, abs=1e-12)


def reference_joint(m):
    """The full joint by name lookups: each table's axes (parents, then the
    node) are argsorted into index order and broadcast over the grid."""
    g = m.graph
    n = len(g)
    out = np.ones(m.cards)
    for i, name in enumerate(g.names):
        axes = [g.index(p) for p in g.parents_of(name)] + [i]
        cpt = m.cpts[i].transpose(np.argsort(axes))
        shape = [1] * n
        for ax in axes:
            shape[ax] = m.cards[ax]
        out = out * cpt.reshape(shape)
    return out


class TestFullJoint:
    def test_equals_reference_product(self):
        rng = np.random.default_rng(50)
        for trial in range(40):
            g = random_dag(rng, n_obs=int(rng.integers(2, 5)), n_lat=int(rng.integers(0, 3)))
            arity = {n: int(rng.integers(2, 4)) for n in g.names} if trial % 2 else 3
            m = random_model(g, arity=arity, seed=trial)
            assert np.array_equal(full_joint_array(m), reference_joint(m))


class TestInterventionalTruth:
    def test_empty_intervention_is_marginal(self, g_frontdoor):
        m = random_model(g_frontdoor, seed=3)
        truth = interventional_truth(m, {}, ["Y"])
        joint = observational_joint(m)
        assert np.allclose(truth.array, joint.marginal({"Y"}), atol=1e-12)

    def test_chain_intervention_is_conditional(self, g_chain):
        m = random_model(g_chain, seed=5)
        joint = observational_joint(m)
        for x in range(2):
            truth = interventional_truth(m, {"X": x}, ["Z"])
            for z in range(2):
                expected = joint.marginal({"X", "Z"})[x, z] / joint.marginal({"X"})[x]
                assert truth.array[z] == pytest.approx(expected, abs=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(20)
        for trial in range(20):
            g = random_dag(rng, n_obs=4, n_lat=2)
            m = random_model(g, seed=trial)
            obs = list(g.observable_names)
            t, s = {obs[0]: 1}, obs[1:3]
            total = interventional_truth(m, t, s).total()
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_overlap_consistency_zeros(self, g_chain):
        m = random_model(g_chain, seed=1)
        truth = interventional_truth(m, {"X": 1}, ["X", "Z"])
        assert np.all(truth.array[0, :] == 0.0)
        assert truth.total() == pytest.approx(1.0, abs=1e-12)


def corpus_query(rng):
    """A random graph with 2-5 observables and 0-3 latents, and a query."""
    g = random_dag(rng, n_obs=int(rng.integers(2, 6)), n_lat=int(rng.integers(0, 4)),
                   p_edge=float(rng.uniform(0.15, 0.7)))
    obs = list(g.observable_names)
    rng.shuffle(obs)
    n_t = int(rng.integers(1, len(obs)))
    n_s = int(rng.integers(1, len(obs) - n_t + 1))
    return g, frozenset(obs[:n_t]), frozenset(obs[n_t:n_t + n_s])


def per_model_reference(e, g, t, s, trials, seed, tolerance=1e-9):
    """What check_estimand reports, one model at a time."""
    order = list(g.sorted_nodes(t)) + list(g.sorted_nodes(s))
    drop = tuple(ax for ax, n in enumerate(g.observable_names) if n not in t | s)
    current = [n for n in g.observable_names if n in t | s]
    perm = [current.index(n) for n in order]
    out = []
    for i in range(trials):
        m = random_model(g, seed=seed + i)
        est = evaluate_grid(e, observational_joint(m), order)
        arr = intervened_array(m, t)
        truth = (arr.sum(axis=drop) if drop else arr).transpose(perm)
        err = float(np.max(np.abs(est - truth)))
        out.append((seed + i, err, err <= tolerance))
    return tuple(out)


class TestCheckEstimand:
    def test_backdoor_estimand_passes(self, g_backdoor):
        # Sum_z P(z) * P(x,z,y)/P(x,z)
        e = Sum(
            {"Z"},
            Product(
                [
                    JointMarginal({"Z"}),
                    Quotient(JointMarginal({"X", "Z", "Y"}), JointMarginal({"X", "Z"})),
                ]
            ),
        )
        report = check_estimand(e, g_backdoor, ["X"], ["Y"], trials=50, seed=0)
        assert report.all_passed
        assert report.max_abs_error <= 1e-9

    def test_frontdoor_estimand_passes(self, g_frontdoor):
        inner = Sum(
            {"X"},
            Product(
                [
                    JointMarginal({"X"}),
                    Quotient(JointMarginal({"X", "Z", "Y"}), JointMarginal({"X", "Z"})),
                ]
            ),
        )
        e = Sum(
            {"Z"},
            Product([Quotient(JointMarginal({"X", "Z"}), JointMarginal({"X"})), inner]),
        )
        report = check_estimand(e, g_frontdoor, ["X"], ["Y"], trials=50, seed=0)
        assert report.all_passed

    def test_confounded_conditional_fails(self, g_frontdoor):
        # P(y|x) is wrong under confounding
        e = Quotient(JointMarginal({"X", "Y"}), JointMarginal({"X"}))
        report = check_estimand(e, g_frontdoor, ["X"], ["Y"], trials=20, seed=0)
        assert not report.all_passed


    def test_stack_equals_model_by_model(self):
        # Exact equality with a loop over single models, on corpus-like
        # queries (<= 5 observables, <= 3 latents).
        rng = np.random.default_rng(20240601)
        queries = 0
        while queries < 60:
            g, t, s = corpus_query(rng)
            res = causal_effect(t, s, g)
            if not res.identifiable:
                continue
            trials = int(rng.integers(1, 40))
            report = check_estimand(res.estimand, g, t, s, trials=trials, seed=queries)
            assert report.per_model == per_model_reference(
                res.estimand, g, t, s, trials, queries)
            queries += 1

    def test_chunks_equal_model_by_model(self, monkeypatch):
        # 16 binary nodes: 2^16 states, so chunks of 2^20 // 2^16 = 16
        # models, and 20 trials span a chunk boundary.
        rng = np.random.default_rng(4)
        while True:
            g = random_dag(rng, n_obs=13, n_lat=3, p_edge=0.2)
            obs = list(g.observable_names)
            t, s = frozenset(obs[:2]), frozenset(obs[-2:])
            res = causal_effect(t, s, g)
            if res.identifiable:
                break
        batches = []
        draw = causalid.oracle.random_model

        def counted(g, arity=2, seed=0):
            batches.append(len(seed))
            return draw(g, arity=arity, seed=seed)

        monkeypatch.setattr(causalid.oracle, "random_model", counted)
        report = check_estimand(res.estimand, g, t, s, trials=20, seed=3)
        monkeypatch.undo()
        assert batches == [16, 4]
        assert report.per_model == per_model_reference(res.estimand, g, t, s, 20, 3)
        assert report.all_passed

    def test_zero_trials_rejected(self, g_chain):
        with pytest.raises(ValueError, match="trials must be at least 1, got 0"):
            check_estimand(JointMarginal({"Y"}), g_chain, ["X"], ["Y"], trials=0)

    @pytest.mark.parametrize("t, s", [({"X"}, {"U"}), ({"U"}, {"Y"})])
    def test_latent_query_variable_rejected(self, t, s):
        # X -> Y <- U: the truth has no axis for a latent, so the query is
        # rejected before any model is drawn.
        g = CausalGraph([("X", True), ("Y", True), ("U", False)], [("X", "Y"), ("U", "Y")])
        with pytest.raises(GraphError, match="query variable 'U' is latent"):
            check_estimand(JointMarginal(s), g, t, s)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
    def test_tolerance_must_be_finite_and_nonnegative(self, g_chain, tolerance):
        # err > nan and err > inf are never true, so either would pass
        # every estimand; a negative tolerance fails every one.
        with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
            check_estimand(JointMarginal({"Y"}), g_chain, ["X"], ["Y"], tolerance=tolerance)


class TestWitnessSearch:
    def test_bow_witness_found(self, g_bow):
        rep = witness_search(g_bow, {"X"}, {"Y"})
        assert rep is not None
        assert rep.observational_gap <= 1e-6
        assert rep.causal_gap >= 1e-2

    def test_smaller_c_certifies_when_no_pair_with_c_builds(self):
        # The failing pair is c = {V3, V6, V7, V9, V10}, t = c + {V1}; no
        # parity pair with that c can be built, but the bow ({V3}, {V1, V3})
        # inside it, with V3 an ancestor of V10, certifies the query.
        obs = [f"V{i}" for i in range(12)]
        chain = [(0, 1), (0, 2), (1, 3), (3, 4), (4, 5), (4, 6), (6, 7), (7, 8),
                 (8, 9), (9, 10), (9, 11)]
        confounded = {"L0": (2, 9, 10), "L1": (1, 3, 7), "L2": (3, 6, 9)}
        edges = [(f"V{a}", f"V{b}") for a, b in chain]
        edges += [(u, f"V{v}") for u, vs in confounded.items() for v in vs]
        g = CausalGraph.build(observed=obs, latent=list(confounded), edges=edges)
        res = causal_effect({"V1"}, {"V10"}, g)
        assert res.witness == (frozenset({"V3", "V6", "V7", "V9", "V10"}),
                               frozenset({"V1", "V3", "V6", "V7", "V9", "V10"}))
        rep = witness_search(g, {"V1"}, {"V10"})
        assert rep is not None
        assert rep.pair == (frozenset({"V3"}), frozenset({"V1", "V3"}))
        assert rep.observational_gap <= 1e-9 and rep.causal_gap >= 1e-2

    def test_identifiable_graph_yields_none(self, g_backdoor):
        assert witness_search(g_backdoor, {"X"}, {"Y"}) is None

    def test_identifiable_query_builds_no_estimand(self, g_frontdoor, monkeypatch):
        # The search needs only the decision, not the estimand.
        def refuse(*args, **kwargs):
            raise AssertionError("an estimand was built")

        for name in ("canonicalize", "simplify"):
            monkeypatch.setattr(f"causalid.ident.{name}", refuse)
        assert witness_search(g_frontdoor, {"X"}, {"Y"}) is None

    def test_deterministic(self, g_bow):
        a = witness_search(g_bow, {"X"}, {"Y"})
        b = witness_search(g_bow, {"X"}, {"Y"})
        assert (a is None) == (b is None)
        if a is not None:
            assert a.observational_gap == b.observational_gap
            assert a.causal_gap == b.causal_gap

    def test_random_dag_sweep(self):
        # Every non-identifiable query gets a checked certificate, every
        # identifiable one none; the sweep covers latents with observable
        # parents and latent-to-latent edges.
        rng = np.random.default_rng(77)
        certified = identifiable = observable_parent = latent_chain = 0
        for _ in range(600):
            g = random_dag(rng, n_obs=int(rng.integers(2, 7)), n_lat=int(rng.integers(1, 5)),
                           p_edge=float(rng.uniform(0.15, 0.6)))
            obs = list(g.observable_names)
            rng.shuffle(obs)
            n_t = int(rng.integers(1, len(obs)))
            t = frozenset(obs[:n_t])
            s = frozenset(obs[n_t:n_t + int(rng.integers(1, len(obs) - n_t + 1))])
            rep = witness_search(g, t, s)
            if causal_effect(t, s, g).identifiable:
                assert rep is None
                identifiable += 1
                continue
            assert rep is not None, (g, sorted(t), sorted(s))
            assert rep.observational_gap <= 1e-9
            assert rep.causal_gap >= 1e-2
            for m in (rep.model_a, rep.model_b):
                assert observational_joint(m).array.min() > 0.0
            certified += 1
            kinds = {(g.is_observable(p), g.is_observable(c)) for p, c in g.edges}
            observable_parent += (True, False) in kinds
            latent_chain += (False, False) in kinds
        assert certified >= 35 and identifiable >= 500
        assert observable_parent >= 20 and latent_chain >= 20


class TestWitnessGaps:
    def test_found_report_gaps_match_its_models(self, g_bow):
        rep = witness_search(g_bow, {"X"}, {"Y"})
        assert rep is not None
        pa = observational_joint(rep.model_a).array
        pb = observational_joint(rep.model_b).array
        ca = intervened_array(rep.model_a, frozenset({"X"}))
        cb = intervened_array(rep.model_b, frozenset({"X"}))
        assert rep.observational_gap == float(np.max(np.abs(pa - pb)))
        assert rep.causal_gap == float(np.max(np.abs(ca - cb)))


class TestCiCheck:
    def test_chain_blocked(self, g_chain):
        m = random_model(g_chain, seed=9)
        q = SeparationQuery(frozenset({"X"}), frozenset({"Y"}), frozenset({"Z"}), g_chain)
        assert ci_check(m, q)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
    def test_tolerance_must_be_finite_and_nonnegative(self, g_chain, tolerance):
        # A NaN tolerance reported every independence as a dependence.
        m = random_model(g_chain, seed=9)
        q = SeparationQuery(frozenset({"X"}), frozenset({"Y"}), frozenset({"Z"}), g_chain)
        with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
            ci_check(m, q, tolerance=tolerance)

    def test_collider_dependence(self, g_collider):
        m = random_model(g_collider, seed=9)
        q = SeparationQuery(
            frozenset({"X"}), frozenset({"Y"}), frozenset({"Z"}), g_collider
        )
        assert not ci_check(m, q)

    def test_disconnected_graph_independent(self):
        g = CausalGraph.build(observed=["A", "B", "C"])
        m = random_model(g, seed=4)
        q = SeparationQuery(frozenset({"A"}), frozenset({"B"}), frozenset({"C"}), g)
        assert ci_check(m, q)

    def test_d_separation_implies_ci(self):
        rng = np.random.default_rng(31)
        for trial in range(40):
            g = random_dag(rng, n_obs=4, n_lat=2)
            m = random_model(g, seed=trial)
            names = list(g.names)
            rng.shuffle(names)
            x, y = {names[0]}, {names[1]}
            z = set(names[2 : 2 + rng.integers(0, 3)])
            q = SeparationQuery(frozenset(x), frozenset(y), frozenset(z), g)
            if d_separated(q):
                assert ci_check(m, q)
