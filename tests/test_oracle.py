"""Model generation, exact enumeration, and estimand checking."""

import itertools

import numpy as np
import pytest

from causalid.expr import JointMarginal, Product, Quotient, Sum
from causalid.graph import CausalGraph
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


    def test_zero_trials_rejected(self, g_chain):
        with pytest.raises(ValueError, match="trials must be at least 1, got 0"):
            check_estimand(JointMarginal({"Y"}), g_chain, ["X"], ["Y"], trials=0)

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
