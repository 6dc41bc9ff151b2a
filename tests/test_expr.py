"""Estimand tree structure, evaluation, and normal form."""

import itertools
import json
from collections import Counter

import gen
import numpy as np
import pytest

from causalid import expr, ident
from causalid.expr import (
    DoSentence,
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
from causalid.graph import parse_graph_text
from causalid.ident import causal_effect
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


def compact_json(e) -> str:
    return json.dumps(expr_to_json(e), sort_keys=True, separators=(",", ":"))


class TestHashConsing:
    """Decoding keeps one node per distinct subexpression."""

    def test_repeats_decode_to_one_node(self):
        leaf = {"kind": "sentence", "outcome": ["A"], "do": ["B"], "given": []}
        data = {"kind": "product", "factors": [
            {"kind": "sum", "bound": ["C"], "body": leaf},
            {"kind": "sum", "bound": ["C"], "body": dict(leaf)},
            {"kind": "one"}, {"kind": "one"},
        ]}
        e = expr_from_json(data)
        first, second, one, other_one = e.factors
        assert first is second and first.body is second.body and one is other_one
        assert e == Product([Sum({"C"}, DoSentence({"A"}, {"B"}, ())),
                             Sum({"C"}, DoSentence({"A"}, {"B"}, ())), One(), One()])

    def test_memo_shares_nodes_across_calls(self):
        memo = {}
        data = {"kind": "marginal", "vars": ["A", "B"]}
        assert expr_from_json(data, memo) is expr_from_json(dict(data), memo)
        assert expr_from_json(data) is not expr_from_json(data)

    @pytest.mark.parametrize("names, message", [
        ("AB", "'vars' must be a list"),  # its tuple equals that of ["A", "B"]
        ([{"A": 1}], "'vars' must be a list of strings"),  # unhashable
        ([["A"]], "'vars' must be a list of strings"),
        ([1], "'vars' must be a list of strings"),
    ])
    def test_invalid_names_after_a_valid_list(self, names, message):
        data = {"kind": "product", "factors": [
            {"kind": "marginal", "vars": ["A", "B"]},
            {"kind": "marginal", "vars": names},
        ]}
        with pytest.raises(ValueError) as err:
            expr_from_json(data, {})
        assert str(err.value) == message


class TestPretty:
    def test_marginal(self):
        assert pretty(JointMarginal({"X", "Z"})) == "P(x, z)"

    def test_shadowed_variable_primed(self):
        inner = Sum({"X"}, Product([JointMarginal({"X"}), JointMarginal({"X", "Y"})]))
        e = Product([JointMarginal({"X"}), inner])
        text = pretty(e)
        assert "x'" in text

    def test_names_differing_in_case_get_distinct_symbols(self):
        e = Quotient(JointMarginal({"X", "x", "Y"}), JointMarginal({"X", "x"}))
        assert pretty(e) == "P(x, y, x')/P(x, x')"
        g = parse_graph_text("node X obs\nnode x obs\nnode Y obs\n"
                             "edge X x\nedge x Y\nedge X Y\n")
        est = causal_effect({"X"}, {"x", "Y"}, g).estimand
        assert pretty(est) == "(P(x, y, x')/P(x, x'))·(P(x, x')/P(x))"


# -- the normal form against its reference -------------------------------------
#
# The reference normal form recomputes the structural key, the whole
# subtree's sorted-key JSON, at every comparison, and simplify
# re-canonicalizes every subtree.  The library keeps each key and canonical
# form on its node; it must give the same trees with the same factor order.


def ref_key(e) -> str:
    return json.dumps(expr_to_json(e), sort_keys=True)


def ref_canonicalize(e):
    if isinstance(e, One) or not isinstance(e, (Sum, Product, Quotient)):
        return e
    if isinstance(e, Sum):
        body = ref_canonicalize(e.body)
        bound = e.bound
        if not bound:
            return body
        if isinstance(body, Sum) and not (body.bound & bound):
            bound = bound | body.bound
            body = body.body
        return Sum(bound, body)
    if isinstance(e, Product):
        factors = []
        for f in e.factors:
            cf = ref_canonicalize(f)
            if isinstance(cf, Product):
                factors.extend(cf.factors)
            elif not isinstance(cf, One):
                factors.append(cf)
        if not factors:
            return One()
        if len(factors) == 1:
            return factors[0]
        factors.sort(key=ref_key)
        return Product(factors)
    num, den = ref_canonicalize(e.num), ref_canonicalize(e.den)
    if isinstance(den, One):
        return num
    return Quotient(num, den)


def ref_simplify(e):
    e = ref_canonicalize(e)
    if isinstance(e, Sum):
        body = ref_simplify(e.body)
        if isinstance(body, JointMarginal) and e.bound <= body.vars:
            reduced = body.vars - e.bound
            return JointMarginal(reduced) if reduced else One()
        return ref_canonicalize(Sum(e.bound, body))
    if isinstance(e, Product):
        return ref_canonicalize(Product(ref_simplify(f) for f in e.factors))
    if isinstance(e, Quotient):
        num, den = ref_simplify(e.num), ref_simplify(e.den)
        if num == den:
            return One()
        nf = list(num.factors) if isinstance(num, Product) else [num]
        df = list(den.factors) if isinstance(den, Product) else [den]
        for f in list(nf):
            if f in df:
                nf.remove(f)
                df.remove(f)
        num = ref_canonicalize(Product(nf))
        den = ref_canonicalize(Product(df))
        return num if isinstance(den, One) else Quotient(num, den)
    return e


# Names the json module escapes: a quote, a backslash, non-ASCII letters;
# and one that holds the separators "," and ":" and a space.
AWKWARD_NAMES = ["A", "B", "C", 'q"t', "b\\s", "é", "Ω", "k, v:w"]


def shared_tree(rng, depth=4):
    """A random expression over :data:`AWKWARD_NAMES` that reuses earlier
    subtrees, so that one node object occurs in several places."""
    made = []

    def names(lo, hi):
        k = int(rng.integers(lo, hi + 1))
        return rng.choice(AWKWARD_NAMES, size=k, replace=False).tolist()

    def node(d):
        if made and rng.random() < 0.2:
            return made[int(rng.integers(len(made)))]
        kind = int(rng.integers(0, 3)) if d == 0 or rng.random() < 0.25 else int(rng.integers(3, 6))
        if kind == 0:
            out = JointMarginal(names(1, 3))
        elif kind == 1:
            out = One()
        elif kind == 2:
            vs = names(1, 4)
            i, j = sorted(rng.integers(0, len(vs) + 1, size=2))
            out = DoSentence(vs[:i], vs[i:j], vs[j:])
        elif kind == 3:
            out = Sum(names(0, 2), node(d - 1))
        elif kind == 4:
            out = Product([node(d - 1) for _ in range(int(rng.integers(0, 4)))])
        else:
            out = Quotient(node(d - 1), node(d - 1))
        made.append(out)
        return out

    return node(depth)


def subtrees(e):
    yield e
    if isinstance(e, Sum):
        yield from subtrees(e.body)
    elif isinstance(e, Product):
        for f in e.factors:
            yield from subtrees(f)
    elif isinstance(e, Quotient):
        yield from subtrees(e.num)
        yield from subtrees(e.den)


def assert_same_tree(got, want):
    assert got == want
    assert ref_key(got) == ref_key(want)  # the same factor order, also nested


class TestNormalFormReference:
    def test_structural_key_is_the_sorted_json(self):
        # The key is the compact text.  ref_key, with a space after each
        # structural "," and ":", stays the ordering reference: the tests
        # below find the same factor order with either key.
        rng = np.random.default_rng(17)
        for _ in range(200):
            for sub in subtrees(shared_tree(rng)):
                assert expr.expr_to_text(sub) == compact_json(sub)

    def test_random_trees_match_reference(self):
        for seed in range(300):
            want_c = ref_canonicalize(shared_tree(np.random.default_rng(seed)))
            want_s = ref_simplify(shared_tree(np.random.default_rng(seed)))
            # Two equal trees, each asked in the other order, so that a
            # canonical form kept by one pass is read by the other.
            first = shared_tree(np.random.default_rng(seed))
            c = canonicalize(first)
            assert_same_tree(c, want_c)
            assert_same_tree(simplify(first), want_s)
            assert canonicalize(c) is c
            second = shared_tree(np.random.default_rng(seed))
            assert_same_tree(simplify(second), want_s)
            assert_same_tree(canonicalize(second), want_c)

    def test_nested_sum_merges_before_collapsing(self):
        e = Sum({"A"}, Sum({"B"}, JointMarginal({"B"})))
        assert_same_tree(simplify(e), ref_simplify(e))
        assert simplify(e) == Sum({"A", "B"}, JointMarginal({"B"}))

    @staticmethod
    def queries():
        """Identification queries on benchmark-style draws: acceptance-corpus
        graphs, and sparse 20-observable latent DAGs with one or two
        outcomes."""
        rng = np.random.default_rng(23)
        for i in range(240):
            size = gen.CORPUS_SIZES[i % len(gen.CORPUS_SIZES)]
            q = gen.corpus_query(rng, f"c{i}", size)
            yield parse_graph_text(q.graph.text()), q.do, q.on
        for i in range(40):
            g = parse_graph_text(gen.sparse_latent_dag(rng, 20, 20, 2).text())
            do = [f"V{int(rng.integers(0, 10))}"]
            on = {f"V{int(v)}" for v in rng.integers(10, 20, size=1 + i % 2)}
            yield g, do, on

    def test_estimands_match_reference(self, monkeypatch):
        cases = list(self.queries())
        got = [causal_effect(t, s, g) for g, t, s in cases]
        monkeypatch.setattr(ident, "canonicalize", ref_canonicalize)
        monkeypatch.setattr(ident, "simplify", ref_simplify)
        want = [causal_effect(t, s, g) for g, t, s in cases]
        compared = 0
        for r, w in zip(got, want):
            assert r.witness == w.witness
            if r.identifiable:
                assert_same_tree(r.estimand, w.estimand)
                compared += 1
        assert compared >= 200

    def test_each_key_and_canonical_form_built_once(self, monkeypatch):
        g = parse_graph_text(gen.sparse_latent_dag(np.random.default_rng(1), 20, 20, 2).text())
        builds = {"_build_key": Counter(), "_canonical_form": Counter()}
        seen = []  # keeps every counted node alive, so that ids are not reused
        for name, counts in builds.items():
            def counted(e, build=getattr(expr, name), counts=counts):
                seen.append(e)
                counts[id(e)] += 1
                return build(e)

            monkeypatch.setattr(expr, name, counted)
        assert causal_effect({"V5"}, {"V15", "V18"}, g).identifiable
        for name, counts in builds.items():
            assert counts, name
            assert max(counts.values()) == 1, name
