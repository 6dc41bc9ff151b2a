"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them).  The
random-graph corpus is shared between the soundness sweep, the
factorization-law checks, and the derivation-completeness sweep.
"""

import time

import numpy as np
import pytest

from causalid.docalc import Derivation, derive_effect, verify_derivation
from causalid.expr import (
    JointMarginal,
    Product,
    Quotient,
    Sum,
    evaluate_grid,
    free_vars,
)
from causalid.graph import CausalGraph
from causalid.ident import QFactor, causal_effect, compute_q, factorize_components
from causalid.oracle import (
    DoEvaluator,
    check_estimand,
    ci_check,
    intervened_array,
    observational_joint,
    random_model,
    witness_search,
)
from causalid.sep import RuleInstance, SeparationQuery, d_separated, rule_applicable

from conftest import random_dag

TOL = 1e-9


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def fixtures():
    fd = CausalGraph.build(
        observed=["X", "Z", "Y"],
        latent=["U"],
        edges=[("X", "Z"), ("Z", "Y"), ("U", "X"), ("U", "Y")],
    )
    bd = CausalGraph.build(
        observed=["Z", "X", "Y"], edges=[("Z", "X"), ("Z", "Y"), ("X", "Y")]
    )
    bow = CausalGraph.build(
        observed=["X", "Y"], latent=["U"], edges=[("X", "Y"), ("U", "X"), ("U", "Y")]
    )
    return fd, bd, bow


@pytest.fixture(scope="module")
def graph_corpus():
    """>= 500 seeded random DAGs with <= 5 observable and <= 3 latent nodes,
    binary domains, plus one identification query each."""
    rng = np.random.default_rng(20240601)
    corpus = []
    while len(corpus) < 500:
        g = random_dag(
            rng,
            n_obs=int(rng.integers(2, 6)),
            n_lat=int(rng.integers(0, 4)),
            p_edge=float(rng.uniform(0.15, 0.7)),
        )
        obs = list(g.observable_names)
        rng.shuffle(obs)
        n_t = int(rng.integers(1, len(obs)))
        # roughly half the queries leave some observables unmentioned
        n_s = len(obs) - n_t
        if n_s > 1 and rng.random() < 0.5:
            n_s = int(rng.integers(1, n_s + 1))
        t, s = frozenset(obs[:n_t]), frozenset(obs[n_t:n_t + n_s])
        corpus.append((g, t, s))
    return corpus


@pytest.fixture(scope="module")
def identified_corpus(graph_corpus):
    out = []
    for g, t, s in graph_corpus:
        res = causal_effect(t, s, g)
        if res.identifiable:
            out.append((g, t, s, res))
    return out


def truth_table(m, g, t, keep, order):
    arr = intervened_array(m, frozenset(t))
    drop = tuple(ax for ax, n in enumerate(g.observable_names) if n not in keep)
    arr = arr.sum(axis=drop) if drop else arr
    current = [n for n in g.observable_names if n in keep]
    return arr.transpose([current.index(n) for n in order])


class TestCriterion1FrontDoor:
    def test_front_door_reproduction(self, fixtures):
        fd, _, _ = fixtures
        start = time.time()
        res = causal_effect({"X"}, {"Y"}, fd)
        ok = res.identifiable
        rep = check_estimand(res.estimand, fd, ["X"], ["Y"], trials=100, seed=0,
                             tolerance=TOL)
        ok = ok and rep.all_passed
        # hand-derived adjustment: Sum_z P(z|x) Sum_x' P(x') P(y|x',z)
        hand = Sum(
            {"Z"},
            Product([
                Quotient(JointMarginal({"X", "Z"}), JointMarginal({"X"})),
                Sum(
                    {"X"},
                    Product([
                        JointMarginal({"X"}),
                        Quotient(JointMarginal({"X", "Z", "Y"}),
                                 JointMarginal({"X", "Z"})),
                    ]),
                ),
            ]),
        )
        max_dev = 0.0
        for seed in range(100):
            joint = observational_joint(random_model(fd, seed=seed))
            a = evaluate_grid(res.estimand, joint, ["X", "Y"])
            b = evaluate_grid(hand, joint, ["X", "Y"])
            max_dev = max(max_dev, float(np.max(np.abs(a - b))))
        ok = ok and max_dev <= TOL
        elapsed = time.time() - start
        ok = ok and elapsed < 5.0
        report(
            "criterion 1: front-door reproduction",
            ok,
            f"oracle max err {rep.max_abs_error:.2e}, hand-form dev {max_dev:.2e}, "
            f"{elapsed:.2f}s",
        )


class TestCriterion2BackDoor:
    def test_back_door_reproduction(self, fixtures):
        _, bd, _ = fixtures
        res = causal_effect({"X"}, {"Y"}, bd)
        ok = res.identifiable
        rep = check_estimand(res.estimand, bd, ["X"], ["Y"], trials=100, seed=0,
                             tolerance=TOL)
        ok = ok and rep.all_passed
        # hand-derived adjustment: Sum_z P(z) P(y|x,z)
        hand = Sum(
            {"Z"},
            Product([
                JointMarginal({"Z"}),
                Quotient(JointMarginal({"X", "Z", "Y"}), JointMarginal({"X", "Z"})),
            ]),
        )
        max_dev = 0.0
        for seed in range(100):
            joint = observational_joint(random_model(bd, seed=seed))
            a = evaluate_grid(res.estimand, joint, ["X", "Y"])
            b = evaluate_grid(hand, joint, ["X", "Y"])
            max_dev = max(max_dev, float(np.max(np.abs(a - b))))
        ok = ok and max_dev <= TOL
        report(
            "criterion 2: back-door reproduction",
            ok,
            f"oracle max err {rep.max_abs_error:.2e}, hand-form dev {max_dev:.2e}",
        )


class TestCriterion3BowGraph:
    def test_bow_unidentifiable_with_witness(self, fixtures):
        _, _, bow = fixtures
        start = time.time()
        res = causal_effect({"X"}, {"Y"}, bow)
        ok = not res.identifiable
        rep = witness_search(bow, {"X"}, {"Y"})
        ok = ok and rep is not None
        if rep is not None:
            ok = ok and rep.observational_gap <= 1e-6
            ok = ok and rep.causal_gap >= 1e-2
        elapsed = time.time() - start
        ok = ok and elapsed < 60.0
        detail = "no witness" if rep is None else (
            f"obs gap {rep.observational_gap:.2e}, causal gap {rep.causal_gap:.2e}, "
            f"{elapsed:.1f}s"
        )
        report("criterion 3: bow-graph non-identifiability", ok, detail)


class TestCriterion4SoundnessSweep:
    def test_soundness_sweep(self, graph_corpus, identified_corpus):
        failures = 0
        worst = 0.0
        for idx, (g, t, s, res) in enumerate(identified_corpus):
            order = sorted(t) + sorted(s)
            for k in range(10):
                m = random_model(g, seed=20000 + 13 * idx + k)
                joint = observational_joint(m)
                got = evaluate_grid(res.estimand, joint, order)
                want = truth_table(m, g, t, t | s, order)
                err = float(np.max(np.abs(got - want)))
                worst = max(worst, err)
                if err > TOL:
                    failures += 1
        ok = failures == 0 and len(graph_corpus) >= 500
        report(
            "criterion 4: soundness sweep",
            ok,
            f"{len(graph_corpus)} graphs, {len(identified_corpus)} identifiable, "
            f"10 models each, worst err {worst:.2e}, {failures} failures",
        )


class TestCriterion5FactorLaws:
    def test_ancestral_sum_and_component_factorization_laws(self, graph_corpus):
        rng = np.random.default_rng(7)
        count_l1 = count_l2 = 0
        worst = 0.0

        def q_table(m, g, scope):
            n = frozenset(g.observable_names)
            return intervened_array(m, n - frozenset(scope))

        for round_ in range(3):
            for g, _, _ in graph_corpus:
                g = g.remove_barren_latents()
                obs = list(g.observable_names)
                if len(obs) < 2:
                    continue
                m = random_model(g, seed=int(rng.integers(2**31)))

                # ancestral-restriction law: pick a random subset C and an
                # ancestral W inside it, then compare the summed-out oracle
                # table against the restricted one.
                k = int(rng.integers(1, len(obs) + 1))
                c = frozenset(rng.choice(obs, size=k, replace=False).tolist())
                sub = g.latent_subgraph(c)
                w_seed = [v for v in c if rng.random() < 0.5]
                w = frozenset(sub.ancestors(w_seed)) & c if w_seed else frozenset()
                if w and w != c:
                    a_c = q_table(m, g, c)
                    a_w = q_table(m, g, w)
                    sum_axes = tuple(
                        ax for ax, n in enumerate(g.observable_names) if n in (c - w)
                    )
                    lhs = a_c.sum(axis=sum_axes)
                    # the restricted table must be constant over the summed
                    # variables' intervention levels and equal to the sum
                    rhs = a_w
                    for ax in sorted(sum_axes, reverse=True):
                        first = np.take(rhs, 0, axis=ax)
                        spread = np.max(np.abs(rhs - np.expand_dims(first, ax)))
                        worst = max(worst, float(spread))
                        rhs = first
                    err = float(np.max(np.abs(lhs - rhs)))
                    worst = max(worst, err)
                    count_l1 += 1

                # component-factorization law: Q[H] equals the product of its
                # component factors, with the reconstruction matching each
                # factor's own oracle table.
                k = int(rng.integers(1, len(obs) + 1))
                h = frozenset(rng.choice(obs, size=k, replace=False).tolist())
                res_h = compute_q(h, g)
                if not res_h.identifiable:
                    continue
                a_h = q_table(m, g, h)
                factors = factorize_components(h, QFactor(h, res_h.estimand), g)
                prod = np.ones(1)
                joint = observational_joint(m)
                for f in factors:
                    prod = prod * q_table(m, g, f.scope)
                    est = evaluate_grid(f.estimand, joint, list(g.observable_names))
                    err = float(np.max(np.abs(est - q_table(m, g, f.scope))))
                    worst = max(worst, err)
                err = float(np.max(np.abs(prod - a_h)))
                worst = max(worst, err)
                count_l2 += 1

        total = count_l1 + count_l2
        ok = total >= 1000 and worst <= TOL
        report(
            "criterion 5: factorization laws",
            ok,
            f"{count_l1} ancestral-sum + {count_l2} component instances, "
            f"worst err {worst:.2e}",
        )


class TestCriterion6DerivationCompleteness:
    def test_derivations_for_all_identifiable_queries(
        self, fixtures, identified_corpus
    ):
        fd, bd, _ = fixtures
        queries = [(fd, frozenset({"X"}), frozenset({"Y"})),
                   (bd, frozenset({"X"}), frozenset({"Y"}))]
        queries += [(g, t, s) for g, t, s, _ in identified_corpus]

        checked = rule1_steps = rejected = disagreements = 0
        for idx, (g, t, s) in enumerate(queries):
            d = derive_effect(t, s, g)
            assert isinstance(d, Derivation)
            verdict = verify_derivation(d, models=5, seed=idx)
            if not verdict.accepted:
                rejected += 1
                continue

            def walk(dd, seen):
                nonlocal rule1_steps
                if id(dd) in seen:
                    return
                seen.add(id(dd))
                for st in dd.steps:
                    if st.kind == "Rule1":
                        rule1_steps += 1
                    if hasattr(st.justification, "derivation"):
                        walk(st.justification.derivation, seen)

            walk(d, set())
            res = causal_effect(t, s, g)
            frees = sorted(free_vars(d.final) | t | s)
            for k in range(5):
                m = random_model(g, seed=100000 + 37 * idx + k)
                a = DoEvaluator(m).grid(d.final, frees)
                b = evaluate_grid(res.estimand, observational_joint(m), frees)
                if float(np.max(np.abs(a - b))) > TOL:
                    disagreements += 1
            checked += 1

        ok = rejected == 0 and rule1_steps == 0 and disagreements == 0
        report(
            "criterion 6: derivation completeness",
            ok,
            f"{checked} derivations verified with 5 models each, "
            f"{rejected} rejected, {rule1_steps} rule-1 steps, "
            f"{disagreements} estimand disagreements",
        )


class TestCriterion7Rule1Elimination:
    def test_rule1_expansion_always_applies(self):
        from causalid.docalc import expand_rule1

        rng = np.random.default_rng(4242)
        found = 0
        failures = 0
        while found < 1000:
            g = random_dag(
                rng,
                n_obs=int(rng.integers(3, 7)),
                n_lat=int(rng.integers(0, 3)),
                p_edge=float(rng.uniform(0.2, 0.6)),
            )
            names = list(g.names)
            rng.shuffle(names)
            y = {names[0]}
            z = set(names[1 : 1 + int(rng.integers(1, 3))])
            rest = names[1 + len(z):]
            x = set(rest[: int(rng.integers(0, 2))])
            w = set(rest[len(x): len(x) + int(rng.integers(0, 3))])
            r = RuleInstance(1, frozenset(x), frozenset(y), frozenset(z),
                            frozenset(w), g)
            if not rule_applicable(r).holds:
                continue
            found += 1
            two, three = expand_rule1(r)
            if not (rule_applicable(two).holds and rule_applicable(three).holds):
                failures += 1
        ok = failures == 0
        report(
            "criterion 7: rule-1 elimination",
            ok,
            f"{found} applicable rule-1 instances, {failures} expansion failures",
        )


class TestCriterion8MarkovProperty:
    def test_d_separation_matches_conditional_independence(self):
        rng = np.random.default_rng(31337)
        models = 0
        sep_violations = 0
        ci_fail_but_connected = 0
        triples = 0
        while models < 200:
            g = random_dag(
                rng,
                n_obs=int(rng.integers(2, 6)),
                n_lat=int(rng.integers(0, 3)),
                p_edge=float(rng.uniform(0.2, 0.6)),
            )
            if len(g) > 7:
                continue
            m = random_model(g, seed=models)
            models += 1
            names = list(g.names)
            for _ in range(6):
                rng.shuffle(names)
                x, y = {names[0]}, {names[1]}
                z = set(names[2 : 2 + int(rng.integers(0, len(names) - 1))])
                q = SeparationQuery(frozenset(x), frozenset(y), frozenset(z), g)
                triples += 1
                separated = d_separated(q)
                independent = ci_check(m, q, tolerance=TOL)
                if separated and not independent:
                    sep_violations += 1
                if not separated and independent:
                    ci_fail_but_connected += 1
        ok = sep_violations == 0 and ci_fail_but_connected == 0
        report(
            "criterion 8: d-separation vs Markov property",
            ok,
            f"{models} models, {triples} triples, {sep_violations} violations, "
            f"{ci_fail_but_connected} d-connected but independent",
        )


class TestCriterion9NonIdentifiabilityCertificates:
    def test_every_nonidentifiable_query_certified(self, graph_corpus):
        queries = [(g, t, s) for g, t, s in graph_corpus
                   if not causal_effect(t, s, g).identifiable]
        certified = 0
        worst_obs, least_causal = 0.0, 1.0
        for g, t, s in queries:
            rep = witness_search(g, t, s)
            if rep is None:
                continue
            positive = all(observational_joint(m).array.min() > 0.0
                           for m in (rep.model_a, rep.model_b))
            if positive and rep.observational_gap <= TOL and rep.causal_gap >= 1e-2:
                certified += 1
            worst_obs = max(worst_obs, rep.observational_gap)
            least_causal = min(least_causal, rep.causal_gap)
        ok = len(queries) == 35 and certified == len(queries)
        report(
            "criterion 9: non-identifiability certificates",
            ok,
            f"{certified}/{len(queries)} certified, worst obs gap {worst_obs:.2e}, "
            f"least causal gap {least_causal:.3f}",
        )
