"""Estimand tree structure, evaluation, and normal form."""

import itertools

import numpy as np
import pytest

from causalid.expr import (
    JointMarginal,
    One,
    PositivityError,
    Product,
    Quotient,
    Sum,
    canonicalize,
    evaluate_grid,
    expr_from_json,
    expr_to_json,
    free_vars,
    pretty,
    simplify,
)
from causalid.oracle import DoEvaluator, observational_joint, random_model
from causalid.tables import JointTable

from conftest import grid_value, random_dag


def uniform_joint(names, card=2):
    shape = tuple(card for _ in names)
    return JointTable(names, np.full(shape, 1.0 / card ** len(names)))


def brute_force_eval(e, joint, a):
    """Independent reference evaluator: plain dict/loop recursion without
    any of the library's broadcasting machinery."""
    if isinstance(e, One):
        return 1.0
    if isinstance(e, JointMarginal):
        total = 0.0
        free = sorted(set(joint.names) - set(e.vars))
        for values in itertools.product(*(range(joint.card(v)) for v in free)):
            full = dict(zip(free, values))
            full.update({v: a[v] for v in e.vars})
            idx = tuple(full[n] for n in joint.names)
            total += joint.array[idx]
        return total
    if isinstance(e, Sum):
        bound = sorted(e.bound)
        return sum(
            brute_force_eval(e.body, joint, {**a, **dict(zip(bound, vals))})
            for vals in itertools.product(*(range(joint.card(v)) for v in bound))
        )
    if isinstance(e, Product):
        out = 1.0
        for f in e.factors:
            out *= brute_force_eval(f, joint, a)
        return out
    if isinstance(e, Quotient):
        return brute_force_eval(e.num, joint, a) / brute_force_eval(e.den, joint, a)
    raise TypeError(e)


def random_expr(rng, names, depth=3):
    if depth == 0 or rng.random() < 0.3:
        k = rng.integers(1, len(names) + 1)
        return JointMarginal(rng.choice(names, size=k, replace=False).tolist())
    kind = rng.integers(0, 4)
    if kind == 0:
        return Sum(
            rng.choice(names, size=rng.integers(1, 3), replace=False).tolist(),
            random_expr(rng, names, depth - 1),
        )
    if kind == 1:
        return Product(
            [random_expr(rng, names, depth - 1) for _ in range(rng.integers(1, 4))]
        )
    if kind == 2:
        return Quotient(
            random_expr(rng, names, depth - 1),
            JointMarginal(rng.choice(names, size=1).tolist()),
        )
    return One()


class TestFreeVars:
    def test_marginal(self):
        assert free_vars(JointMarginal({"X", "Z"})) == {"X", "Z"}

    def test_sum_removes_bound(self):
        e = Sum({"Z"}, Product([JointMarginal({"X", "Z"}), JointMarginal({"Z", "Y"})]))
        assert free_vars(e) == {"X", "Y"}

    def test_one(self):
        assert free_vars(One()) == set()

    def test_shadowing_inner_binding_wins(self):
        inner = Sum({"X"}, JointMarginal({"X", "Z"}))
        e = Product([JointMarginal({"X"}), inner])
        assert free_vars(e) == {"X", "Z"}


class TestEvaluate:
    def test_one(self):
        joint = uniform_joint(["X", "Y"])
        assert grid_value(One(), joint, {}) == 1.0

    def test_uniform_marginal(self):
        joint = uniform_joint(["X", "Y"])
        assert grid_value(JointMarginal({"X"}), joint, {"X": 0}) == pytest.approx(0.5)

    def test_conditional_normalizes(self, g_chain):
        # Sum_y P(x,z,y)/P(x,z) == 1 for positive joints
        m = random_model(g_chain, seed=4)
        joint = observational_joint(m)
        e = Sum({"Y"}, Quotient(JointMarginal({"X", "Z", "Y"}), JointMarginal({"X", "Z"})))
        for x in range(2):
            for z in range(2):
                assert grid_value(e, joint, {"X": x, "Z": z}) == pytest.approx(1.0, abs=1e-12)

    def test_missing_assignment_rejected(self):
        joint = uniform_joint(["X"])
        with pytest.raises(ValueError):
            grid_value(JointMarginal({"X"}), joint, {})

    def test_zero_denominator_raises(self):
        arr = np.array([[0.5, 0.5], [0.0, 0.0]])  # P(X=1) = 0
        joint = JointTable(["X", "Y"], arr)
        e = Quotient(JointMarginal({"X", "Y"}), JointMarginal({"X"}))
        with pytest.raises(PositivityError):
            grid_value(e, joint, {"X": 1, "Y": 0})

    def test_zero_denominator_names_its_assignment(self):
        arr = np.array([[0.5, 0.5], [0.0, 0.0]])  # P(X=1) = 0
        joint = JointTable(["X", "Y"], arr)
        e = Quotient(JointMarginal({"X", "Y"}), JointMarginal({"X"}))
        with pytest.raises(PositivityError) as err:
            evaluate_grid(e, joint, ["X", "Y"])
        assert err.value.assignment == {"X": 1}

    def test_zero_denominator_in_a_stack_names_only_variables(self):
        # The zero lies in the second model of the stack; the assignment
        # names the variables at the first zero, never the model axis.
        ok = np.full((2, 2), 0.25)
        bad = np.array([[0.5, 0.5], [0.0, 0.0]])  # P(X=1) = 0
        joint = JointTable(["X", "Y"], np.stack([ok, bad, ok]))
        e = Quotient(JointMarginal({"X", "Y"}), JointMarginal({"X"}))
        with pytest.raises(PositivityError) as err:
            evaluate_grid(e, joint, ["Y", "X"])
        assert err.value.assignment == {"X": 1}

    def test_stack_evaluates_each_model(self):
        # A stack of models gives, model by model, exactly what each model
        # gives alone, on both evaluators.
        rng = np.random.default_rng(12)
        for trial in range(25):
            g = random_dag(rng, n_obs=3, n_lat=1)
            e = random_expr(rng, list(g.observable_names))
            free = sorted(free_vars(e))
            seeds = range(10 * trial, 10 * trial + 4)
            stack = random_model(g, seed=seeds)
            got = evaluate_grid(e, observational_joint(stack), free)
            got_do = DoEvaluator(stack).grid(e, free)
            for j, seed in enumerate(seeds):
                m = random_model(g, seed=seed)
                want = evaluate_grid(e, observational_joint(m), free)
                assert got.shape == (len(seeds),) + want.shape
                assert np.array_equal(got[j], want)
                assert np.array_equal(got_do[j], DoEvaluator(m).grid(e, free))

    def test_matches_brute_force_reference(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            g = random_dag(rng, n_obs=3, n_lat=1)
            joint = observational_joint(random_model(g, seed=trial))
            names = list(joint.names)
            e = random_expr(rng, names)
            free = sorted(free_vars(e))
            for values in itertools.product(*(range(joint.card(v)) for v in free)):
                a = dict(zip(free, values))
                assert grid_value(e, joint, a) == pytest.approx(
                    brute_force_eval(e, joint, a), abs=1e-12
                )

    def test_do_evaluator_matches_observational_grid(self):
        # Marginal-only expressions reach DoEvaluator's JointMarginal leaf,
        # which must place them exactly as evaluate_grid does.
        rng = np.random.default_rng(11)
        for trial in range(25):
            g = random_dag(rng, n_obs=3, n_lat=1)
            m = random_model(g, seed=trial)
            e = random_expr(rng, list(g.observable_names))
            free = sorted(free_vars(e))
            got = DoEvaluator(m).grid(e, free)
            assert np.array_equal(got, evaluate_grid(e, observational_joint(m), free))

    def test_shadowed_sum_uses_inner_binding(self):
        # P(X) * Sum_x P(x) evaluates to P(X) * 1
        joint = uniform_joint(["X"])
        e = Product([JointMarginal({"X"}), Sum({"X"}, JointMarginal({"X"}))])
        assert grid_value(e, joint, {"X": 1}) == pytest.approx(0.5)


class TestCanonicalize:
    def test_unit_product(self):
        e = Product([One(), JointMarginal({"X"})])
        assert canonicalize(e) == JointMarginal({"X"})

    def test_flatten_and_sort(self):
        a, b, c = JointMarginal({"A"}), JointMarginal({"B"}), JointMarginal({"C"})
        e = Product([c, Product([b, a])])
        got = canonicalize(e)
        assert isinstance(got, Product)
        assert set(got.factors) == {a, b, c}
        assert got == canonicalize(Product([a, Product([c, b])]))

    def test_unit_quotient(self):
        assert canonicalize(Quotient(JointMarginal({"X"}), One())) == JointMarginal({"X"})

    def test_empty_sum_unwraps(self):
        assert canonicalize(Sum(set(), JointMarginal({"X"}))) == JointMarginal({"X"})

    def test_nested_disjoint_sums_merge(self):
        e = Sum({"A"}, Sum({"B"}, JointMarginal({"A", "B", "C"})))
        assert canonicalize(e) == Sum({"A", "B"}, JointMarginal({"A", "B", "C"}))

    def test_shadowing_sums_not_merged(self):
        e = Sum({"A"}, Sum({"A"}, JointMarginal({"A"})))
        got = canonicalize(e)
        assert isinstance(got.body, Sum)

    def test_evaluation_preserved(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            g = random_dag(rng, n_obs=3, n_lat=1)
            joint = observational_joint(random_model(g, seed=trial))
            e = random_expr(rng, list(joint.names))
            ce = canonicalize(e)
            se = simplify(e)
            free = sorted(free_vars(e))
            assert free_vars(ce) <= free_vars(e)
            for values in itertools.product(*(range(joint.card(v)) for v in free)):
                a = dict(zip(free, values))
                v = grid_value(e, joint, a)
                assert grid_value(ce, joint, a) == pytest.approx(v, abs=1e-12)
                assert grid_value(se, joint, a) == pytest.approx(v, abs=1e-12)


class TestSimplify:
    def test_sum_collapses_into_marginal(self):
        e = Sum({"Y"}, JointMarginal({"X", "Y"}))
        assert simplify(e) == JointMarginal({"X"})

    def test_identical_quotient_cancels(self):
        e = Quotient(JointMarginal({"X"}), JointMarginal({"X"}))
        assert simplify(e) == One()

    def test_common_factor_cancels(self):
        px, py = JointMarginal({"X"}), JointMarginal({"Y"})
        e = Quotient(Product([px, py]), Product([px]))
        assert simplify(e) == py


class TestSerialization:
    def test_round_trip(self):
        e = Sum(
            {"Z"},
            Product(
                [
                    JointMarginal({"Z"}),
                    Quotient(JointMarginal({"X", "Z", "Y"}), JointMarginal({"X", "Z"})),
                ]
            ),
        )
        assert expr_from_json(expr_to_json(e)) == e

    def test_deterministic_output(self):
        e = JointMarginal({"B", "A"})
        assert expr_to_json(e) == {"kind": "marginal", "vars": ["A", "B"]}


class TestPretty:
    def test_marginal(self):
        assert pretty(JointMarginal({"X", "Z"})) == "P(x, z)"

    def test_shadowed_variable_primed(self):
        inner = Sum({"X"}, Product([JointMarginal({"X"}), JointMarginal({"X", "Y"})]))
        e = Product([JointMarginal({"X"}), inner])
        text = pretty(e)
        assert "x'" in text
