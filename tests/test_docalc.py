"""Derivation generation, verification, tampering rejection, and the
rule-1 elimination property."""

import gc
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest

from causalid import docalc
from causalid.docalc import (
    Derivation,
    DerivationStep,
    DoSentence,
    Substitution,
    _get,
    _replace,
    derivation_from_json,
    derivation_to_json,
    derivation_to_text,
    derive_effect,
    expand_rule1,
    verify_derivation,
)
from causalid.cli import main
from causalid.expr import (
    One,
    Product,
    Quotient,
    Sum,
    evaluate_grid,
    expr_to_json,
    expr_to_text,
    free_vars,
)
from causalid.graph import CausalGraph, GraphError
from causalid.ident import causal_effect
from causalid.oracle import DoEvaluator, observational_joint, random_model
from causalid.sep import RuleInstance, rule_applicable

from conftest import random_dag


def all_steps(d):
    for step in d.steps:
        yield step
        if hasattr(step.justification, "derivation"):
            yield from all_steps(step.justification.derivation)


def final_agrees_with_estimand(d, res, g, seeds=(0, 1, 2)):
    t, s = d.query
    frees = sorted(free_vars(d.final) | t | s)
    for seed in seeds:
        m = random_model(g, seed=seed)
        got = DoEvaluator(m).grid(d.final, frees)
        want = evaluate_grid(res.estimand, observational_joint(m), frees)
        if float(np.max(np.abs(got - want))) > 1e-9:
            return False
    return True


class TestDeriveFixtures:
    def test_backdoor_derivation(self, g_backdoor):
        d = derive_effect({"X"}, {"Y"}, g_backdoor)
        assert isinstance(d, Derivation)
        assert d.initial == DoSentence(frozenset({"Y"}), frozenset({"X"}), frozenset())
        verdict = verify_derivation(d)
        assert verdict.accepted
        # the observation/action exchange on X given Z is the core move
        assert any(s.kind == "Rule2" for s in all_steps(d))
        res = causal_effect({"X"}, {"Y"}, g_backdoor)
        assert final_agrees_with_estimand(d, res, g_backdoor)

    def test_frontdoor_derivation(self, g_frontdoor):
        d = derive_effect({"X"}, {"Y"}, g_frontdoor)
        assert isinstance(d, Derivation)
        kinds = {s.kind for s in all_steps(d)}
        assert "Rule2" in kinds and "Rule3" in kinds
        assert verify_derivation(d).accepted
        res = causal_effect({"X"}, {"Y"}, g_frontdoor)
        assert final_agrees_with_estimand(d, res, g_frontdoor)

    def test_bow_mirrors_identification_failure(self, g_bow):
        # The bow graph, then seeded random queries that are not identifiable.
        cases = [(g_bow, {"X"}, {"Y"})]
        rng = np.random.default_rng(5)
        while len(cases) < 9:
            g = random_dag(rng, n_obs=5, n_lat=3)
            t, s = map(str, rng.choice(g.observable_names, 2, replace=False))
            if not causal_effect({t}, {s}, g).identifiable:
                cases.append((g, {t}, {s}))
        for g, t, s in cases:
            d = derive_effect(t, s, g)
            res = causal_effect(t, s, g)
            assert not isinstance(d, Derivation)
            assert not d.identifiable
            assert d.witness == res.witness

    def test_no_rule1_steps(self, g_backdoor, g_frontdoor):
        for g in (g_backdoor, g_frontdoor):
            d = derive_effect({"X"}, {"Y"}, g)
            assert all(s.kind != "Rule1" for s in all_steps(d))

    def test_final_is_observational(self, g_frontdoor):
        from causalid.docalc import observational

        d = derive_effect({"X"}, {"Y"}, g_frontdoor)
        assert observational(d.final)
        assert not observational(d.initial)

    def test_empty_do_rejected(self, g_chain):
        with pytest.raises(GraphError):
            derive_effect(set(), {"Y"}, g_chain)

    def test_step_locality(self, g_frontdoor):
        # every step rewrites exactly one changed site
        from causalid.docalc import _local_diff

        d = derive_effect({"X"}, {"Y"}, g_frontdoor)
        for step in all_steps(d):
            assert _local_diff(step.before, step.after) is not None


class TestVerifyRejections:
    def test_fabricated_rule3_rejected(self, g_bow):
        # insert do(X) into P(y) on the bow graph: the confounding trail
        # Y <- U -> X is active, so the claimed separation is false.
        before = DoSentence(frozenset({"Y"}), frozenset(), frozenset())
        after = DoSentence(frozenset({"Y"}), frozenset({"X"}), frozenset())
        d = Derivation(
            graph=g_bow,
            query=None,
            initial=before,
            steps=(DerivationStep("Rule3", (), before, after, None),),
        )
        verdict = verify_derivation(d)
        assert not verdict.accepted
        assert verdict.step == 0
        assert "separation" in verdict.reason

    def test_tampered_final_expression_rejected(self, g_backdoor):
        d = derive_effect({"X"}, {"Y"}, g_backdoor)
        # swap the last step's after-expression for a wrong marginal
        bad_last = DerivationStep(
            d.steps[-1].kind,
            d.steps[-1].path,
            d.steps[-1].before,
            DoSentence(frozenset({"Y"}), frozenset(), frozenset()),
            d.steps[-1].justification,
        )
        tampered = Derivation(d.graph, d.query, d.initial, d.steps[:-1] + (bad_last,))
        verdict = verify_derivation(tampered)
        assert not verdict.accepted
        assert verdict.step == len(d.steps) - 1

    def test_broken_chain_rejected(self, g_backdoor):
        d = derive_effect({"X"}, {"Y"}, g_backdoor)
        steps = list(d.steps)
        del steps[1]
        verdict = verify_derivation(Derivation(d.graph, d.query, d.initial, tuple(steps)))
        assert not verdict.accepted

    def test_rule_step_with_justification_rejected(self, g_backdoor, g_frontdoor):
        # A rule step is justified by its rewrite; it carries no evidence,
        # not even the true evidence of its own instance.
        d = derive_effect({"X"}, {"Y"}, g_backdoor)
        idx, step = next(
            (i, s) for i, s in enumerate(d.steps) if s.kind in ("Rule2", "Rule3")
        )
        b, a = step.before, step.after
        evidence = rule_applicable(RuleInstance(
            int(step.kind[-1]), b.do & a.do, b.outcome, b.do ^ a.do, b.given & a.given,
            g_backdoor))
        assert evidence.holds
        verdict = verify_derivation(
            with_step(d, idx, replace(step, justification=evidence)), models=0)
        assert (verdict.accepted, verdict.step) == (False, idx)
        assert verdict.reason == f"{step.kind} step carries a justification"
        # So is every other step but a substitution.
        d = derive_effect({"X"}, {"Y"}, g_frontdoor)
        kinds = set()
        for dd in unique_derivations(d):
            for i, step in enumerate(dd.steps):
                if step.kind != "FactorSubstitute":
                    bad = replace(step, justification=Substitution(dd))
                    verdict = verify_derivation(with_step(dd, i, bad), models=0)
                    assert (verdict.accepted, verdict.step) == (False, i)
                    assert verdict.reason == f"{step.kind} step carries a justification"
                    kinds.add(step.kind)
        assert kinds == {"Rule2", "Rule3", "ChainRule", "Marginalize"}

    def test_backward_substitution_rejected(self, g_frontdoor):
        # A fragment that substitutes a nested derivation from its final
        # back to its initial states an equality that the nested steps do
        # prove, but a substitution runs forward only.
        d = derive_effect({"X"}, {"Y"}, g_frontdoor)
        nested = next(nested_fragments(d))
        final = nested.final
        backward = Derivation(d.graph, None, final, (DerivationStep(
            "FactorSubstitute", (), final, nested.initial, Substitution(nested)),))
        verdict = verify_derivation(backward, models=0)
        assert (verdict.accepted, verdict.step) == (False, 0)
        assert verdict.reason == "nested derivation endpoints do not match the site"
        forward = Derivation(d.graph, None, nested.initial, (DerivationStep(
            "FactorSubstitute", (), nested.initial, final, Substitution(nested)),))
        assert verify_derivation(forward, models=0).accepted

    def test_substitution_endpoint_mismatch_rejected(self, g_frontdoor):
        d = derive_effect({"X"}, {"Y"}, g_frontdoor)

        def find_subst(dd):
            for i, st in enumerate(dd.steps):
                if st.kind == "FactorSubstitute":
                    return dd, i
                if hasattr(st.justification, "derivation"):
                    found = find_subst(st.justification.derivation)
                    if found:
                        return found
            return None

        found = find_subst(d)
        assert found is not None, "fixture should exercise substitution"
        dd, i = found
        # graft a nested derivation proving a different equality
        other = derive_effect({"X"}, {"Y"}, g_frontdoor)
        from causalid.docalc import Substitution

        steps = list(dd.steps)
        steps[i] = DerivationStep(
            "FactorSubstitute", steps[i].path, steps[i].before, steps[i].after,
            Substitution(other),
        )
        tampered = Derivation(dd.graph, dd.query, dd.initial, tuple(steps))
        assert not verify_derivation(tampered, models=0).accepted

    def test_normalize_to_one_is_an_unknown_kind(self, g_chain):
        # Files written by earlier versions may hold a NormalizeToOne step
        # with its claimed set and direction; the claim decodes to nothing,
        # and the kind is not one the verifier knows.
        before = Sum({"Y"}, DoSentence(frozenset({"Y"}), frozenset(), frozenset()))
        step = DerivationStep("NormalizeToOne", (), before, One(), None)
        data = derivation_to_json(Derivation(g_chain, None, before, (step,)))
        data["steps"][0]["justification"] = {
            "type": "params", "vars": ["Y"], "direction": "collapse"}
        verdict = verify_derivation(derivation_from_json(data))
        assert (verdict.accepted, verdict.step) == (False, 0)
        assert verdict.reason == "unknown step kind 'NormalizeToOne'"

    def test_marginalize_schema_rejects_quotient_rewrite(self, g_chain):
        # A Marginalize step whose rewrite is a quotient of two marginalized
        # sentences, not the marginalized sentence itself: the structural
        # schema rejects it before any numeric check runs.
        before = DoSentence(frozenset({"Z"}), frozenset({"X"}), frozenset())
        after = Sum(
            {"Y"}, DoSentence(frozenset({"Z", "Y"}), frozenset({"X"}), frozenset())
        )
        step = DerivationStep("Marginalize", (), before, Quotient(after, after), None)
        d = Derivation(g_chain, None, before, (step,))
        verdict = verify_derivation(d)
        assert (verdict.accepted, verdict.step) == (False, 0)
        assert verdict.reason == "not a Marginalize rewrite"

    def test_numeric_rejection_reports_first_failing_model(self, g_chain, monkeypatch):
        # The step above with its structural schema switched off, so that
        # only the numeric check rejects it.  The models are checked as one
        # stack, but the rejection reads as a model-by-model loop's: the
        # error of the first model in seed order that exceeds the
        # tolerance, which here is not the largest error.
        monkeypatch.setattr(docalc, "_marginal", lambda *sides: True)
        before = DoSentence(frozenset({"Z"}), frozenset({"X"}), frozenset())
        after = Sum({"Y"}, DoSentence(frozenset({"Z", "Y"}), frozenset({"X"}), frozenset()))
        after = Quotient(after, after)
        step = DerivationStep("Marginalize", (), before, after, None)
        d = Derivation(g_chain, None, before, (step,))
        frees = sorted(free_vars(before) | free_vars(after))
        errs = []
        for seed in range(5):
            ev = DoEvaluator(random_model(g_chain, seed=seed))
            errs.append(float(np.max(np.abs(ev.grid(before, frees) - ev.grid(after, frees)))))
        tolerance = errs[0]
        first = next(e for e in errs if e > tolerance)
        assert first != max(errs)
        verdict = verify_derivation(d, models=5, seed=0, tolerance=tolerance)
        assert (verdict.accepted, verdict.step) == (False, 0)
        assert verdict.reason == f"numeric check failed: sides differ by {first:.3e}"


    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
    def test_tolerance_must_be_finite_and_nonnegative(self, g_frontdoor, tolerance):
        d = derive_effect({"X"}, {"Y"}, g_frontdoor)
        with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
            verify_derivation(d, tolerance=tolerance)


class TestExpandRule1:
    def test_chain_instance(self, g_chain):
        r = RuleInstance(1, frozenset(), frozenset({"Y"}), frozenset({"X"}),
                        frozenset({"Z"}), g_chain)
        assert rule_applicable(r).holds
        two, three = expand_rule1(r)
        assert two.rule == 2 and three.rule == 3
        assert rule_applicable(two).holds
        assert rule_applicable(three).holds

    def test_empty_z_vacuous(self, g_chain):
        r = RuleInstance(1, frozenset(), frozenset({"Y"}), frozenset(),
                        frozenset({"Z"}), g_chain)
        two, three = expand_rule1(r)
        assert rule_applicable(two).holds
        assert rule_applicable(three).holds

    def test_collider_instance(self, g_collider):
        r = RuleInstance(1, frozenset(), frozenset({"X"}), frozenset({"Y"}),
                        frozenset(), g_collider)
        assert rule_applicable(r).holds
        two, three = expand_rule1(r)
        assert rule_applicable(two).holds
        assert rule_applicable(three).holds

    def test_inapplicable_rejected(self, g_chain):
        r = RuleInstance(1, frozenset(), frozenset({"Y"}), frozenset({"Z"}),
                        frozenset(), g_chain)
        assert not rule_applicable(r).holds
        with pytest.raises(GraphError):
            expand_rule1(r)

    def test_random_instances(self):
        # whenever rule 1 applies, the rule-2/rule-3 replacement applies too
        rng = np.random.default_rng(8)
        found = 0
        for trial in range(300):
            g = random_dag(rng, n_obs=5, n_lat=2)
            names = list(g.observable_names)
            rng.shuffle(names)
            sizes = rng.integers(0, 2, size=3)
            y = {names[0]}
            z = set(names[1 : 1 + sizes[0] + 1])
            x = set(names[2 + sizes[0] : 2 + sizes[0] + sizes[1]])
            w_ = set(names[4 + sizes[0] + sizes[1] :][: sizes[2]])
            r = RuleInstance(1, frozenset(x), frozenset(y), frozenset(z),
                            frozenset(w_), g)
            if not rule_applicable(r).holds:
                continue
            found += 1
            two, three = expand_rule1(r)
            assert rule_applicable(two).holds
            assert rule_applicable(three).holds
        assert found >= 50


class TestRoundTrips:
    def test_random_graph_derivations_verify(self):
        rng = np.random.default_rng(123)
        checked = 0
        for trial in range(60):
            g = random_dag(rng, n_obs=int(rng.integers(2, 6)),
                          n_lat=int(rng.integers(0, 4)))
            obs = list(g.observable_names)
            rng.shuffle(obs)
            n_t = int(rng.integers(1, len(obs)))
            t, s = frozenset(obs[:n_t]), frozenset(obs[n_t:])
            d = derive_effect(t, s, g)
            if not isinstance(d, Derivation):
                continue
            checked += 1
            assert verify_derivation(d, models=2, seed=trial).accepted
            assert all(step.kind != "Rule1" for step in all_steps(d))
            res = causal_effect(t, s, g)
            assert final_agrees_with_estimand(d, res, g, seeds=(trial,))
        assert checked >= 30

    def test_every_single_step_deletion_rejected(self):
        # Deleting any one step leaves a chain that no longer reaches the
        # observational final state through valid rewrites.
        deleted = 0
        for d in sweep_derivations():
            for i in range(len(d.steps)):
                steps = d.steps[:i] + d.steps[i + 1:]
                broken = Derivation(d.graph, d.query, d.initial, steps)
                assert not verify_derivation(broken, models=0).accepted, (d.query, i)
                deleted += 1
        assert deleted >= 100

    def test_json_round_trip(self, g_frontdoor):
        d = derive_effect({"X"}, {"Y"}, g_frontdoor)
        data = derivation_to_json(d)
        back = derivation_from_json(data)
        assert back == d
        assert verify_derivation(back).accepted

    def test_json_round_trip_preserves_rejection(self, g_backdoor):
        d = derive_effect({"X"}, {"Y"}, g_backdoor)
        data = derivation_to_json(d)
        data["steps"][0]["after"] = data["steps"][0]["before"]
        bad = derivation_from_json(data)
        assert not verify_derivation(bad).accepted


def nested_fragments(d):
    """Every nested derivation reachable from ``d``, once per reference."""
    for step in all_steps(d):
        if isinstance(step.justification, Substitution):
            yield step.justification.derivation


# A draw whose identification chain has two levels: the chains of N0 and N3
# both start at the component {N0, N1, N3}, so they share its fragment.
DEPTH_TWO = CausalGraph(
    [("N0", True), ("N1", True), ("N2", True), ("N3", True), ("U0", False), ("U1", False)],
    [("N0", "N1"), ("N2", "N3"), ("N2", "U0"), ("N3", "N0"), ("N3", "N1"), ("U0", "N1"),
     ("U0", "N3"), ("U1", "N0"), ("U1", "N1")],
)


def sweep_derivations():
    """The derivations of the 60-graph random sweep above, then of 40 draws
    whose outcome sets leave out some of the unfixed observables, so that
    the query is marginalized and actions are inserted on the observables
    outside the outcome's ancestral closure, then of the two-level draw."""
    rng = np.random.default_rng(123)
    for _ in range(60):
        g = random_dag(rng, n_obs=int(rng.integers(2, 6)),
                       n_lat=int(rng.integers(0, 4)))
        obs = list(g.observable_names)
        rng.shuffle(obs)
        n_t = int(rng.integers(1, len(obs)))
        d = derive_effect(frozenset(obs[:n_t]), frozenset(obs[n_t:]), g)
        if isinstance(d, Derivation):
            yield d
    rng = np.random.default_rng(124)
    for _ in range(40):
        g = random_dag(rng, n_obs=int(rng.integers(3, 7)),
                       n_lat=int(rng.integers(0, 4)))
        obs = list(g.observable_names)
        rng.shuffle(obs)
        n_t = int(rng.integers(1, len(obs) - 1))
        n_s = int(rng.integers(1, len(obs) - n_t))
        d = derive_effect(frozenset(obs[:n_t]), frozenset(obs[n_t:n_t + n_s]), g)
        if isinstance(d, Derivation):
            yield d
    yield derive_effect({"N1"}, {"N0", "N2", "N3"}, DEPTH_TWO)


def unique_derivations(d):
    """``d`` and each nested fragment under it, once each."""
    seen = {id(d): d}
    for nested in nested_fragments(d):
        seen.setdefault(id(nested), nested)
    return list(seen.values())


def with_step(d, i, step):
    """``d`` with step ``i`` replaced by ``step``."""
    return Derivation(d.graph, d.query, d.initial, d.steps[:i] + (step,) + d.steps[i + 1:])


def dropped_member_mutant(step):
    """The name of the mutation and ``step`` with one member dropped from a
    set that its rewrite moves; None for a rule step, a substitution, a
    chain merge, or a marginalization over one variable.  A chain split moves its second
    factor's outcome into its first factor's given; a quotient moves its
    denominator's outcome into its numerator's outcome."""
    b, a = step.before, step.after
    if step.kind == "Marginalize" and len(a.bound) >= 2:
        return "marginalize", replace(step, after=Sum(a.bound - {min(a.bound)}, a.body))
    if step.kind == "ChainRule" and isinstance(b, DoSentence) and isinstance(a, Product):
        first, second = a.factors
        moved = first.given - b.given
        dropped = replace(first, given=first.given - {min(moved)})
        return "split", replace(step, after=Product([dropped, second]))
    if step.kind == "ChainRule" and isinstance(a, Quotient):
        num = replace(a.num, outcome=a.num.outcome - {min(a.den.outcome)})
        return "quotient", replace(step, after=Quotient(num, a.den))
    return None


class TestSetMutations:
    """Dropping one member of a set that a step moves is caught."""

    def test_dropped_member_rejected(self):
        rule3 = 0
        mutated = set()
        for d in sweep_derivations():
            for dd in unique_derivations(d):
                for i, step in enumerate(dd.steps):
                    moved = step.before.do ^ step.after.do if step.kind == "Rule3" else ()
                    if len(moved) >= 2:
                        # The rewrite leaves one member of the moved set
                        # where it was.
                        v = min(moved)
                        after = replace(step.after, do=step.after.do ^ {v})
                        bad = replace(step, after=after)
                        assert not verify_derivation(with_step(dd, i, bad), models=0).accepted
                        rule3 += 1
                    mutant = dropped_member_mutant(step)
                    if mutant is not None:
                        # The later steps would not chain from the mutated
                        # state, so the mutant ends at the mutated step.
                        name, bad = mutant
                        cut = Derivation(dd.graph, None, dd.initial, dd.steps[:i] + (bad,))
                        verdict = verify_derivation(cut, models=0)
                        assert (verdict.accepted, verdict.step) == (False, i), (name, bad)
                        assert verdict.reason == f"not a {step.kind} rewrite"
                        mutated.add(name)
        assert rule3 and mutated == {"marginalize", "split", "quotient"}


def open_directed_path(g, u, targets, blocked) -> bool:
    """Whether a directed path leads from ``u`` to a member of ``targets``
    through no node of ``blocked``."""
    todo, seen = [u], {u}
    while todo:
        node = todo.pop()
        for p, c in g.edges:
            if p == node and c not in seen:
                if c in targets:
                    return True
                if c not in blocked:
                    seen.add(c)
                    todo.append(c)
    return False


def swapped_member_mutants(g, step):
    """``step``, if it deletes actions by rule 3, with one deleted action v
    swapped for a kept one u: the mutant keeps v and deletes u.  Only those
    u are taken from which a directed path leads into the outcome through
    no action, observation or moved variable of the mutant.  Cutting edges
    into the actions and into the deleted ones leaves that path whole, and
    it is open given the actions and observations, so the rule-3 condition
    fails.  (Each rule-3 sentence the compiler writes names every
    observable, so an insertion has no variable outside it to swap in.)"""
    b, a = step.before, step.after
    if step.kind != "Rule3" or not a.do < b.do:
        return
    blocked = b.do | b.given
    for v in sorted(b.do - a.do):
        for u in sorted(a.do):
            if open_directed_path(g, u, b.outcome, blocked - {u}):
                yield replace(step, after=replace(a, do=a.do ^ {u, v}))


class TestSwappedRule3Members:
    """A rule-3 step that deletes an action which is not d-separated from
    the outcome is rejected by the separation test itself, not by a later
    step that fails to chain."""

    def test_swapped_member_fails_separation(self):
        mutants = 0
        for d in sweep_derivations():
            for dd in unique_derivations(d):
                for i, step in enumerate(dd.steps):
                    for bad in swapped_member_mutants(dd.graph, step):
                        cut = Derivation(dd.graph, None, dd.initial, dd.steps[:i] + (bad,))
                        verdict = verify_derivation(cut, models=0)
                        assert (verdict.accepted, verdict.step) == (False, i), bad
                        assert verdict.reason == \
                            "separation condition fails on the mutilated graph"
                        mutants += 1
        assert mutants >= 20


def set_sites(e, observables):
    """Each set of ``e``, a sentence's outcome, actions or observations or
    a sum's bound, as (members, the observables that can join it, a
    function that rebuilds ``e`` around a new value of it)."""
    if isinstance(e, DoSentence):
        for f in ("outcome", "do", "given"):
            yield getattr(e, f), observables - e.leaf_vars, \
                (lambda new, f=f: replace(e, **{f: new}))
    elif isinstance(e, Sum):
        yield e.bound, observables - e.bound, lambda new: Sum(new, e.body)
        for m, room, r in set_sites(e.body, observables):
            yield m, room, (lambda new, r=r: Sum(e.bound, r(new)))
    elif isinstance(e, Product):
        for k, f in enumerate(e.factors):
            for m, room, r in set_sites(f, observables):
                yield m, room, (lambda new, r=r, k=k: Product(
                    e.factors[:k] + (r(new),) + e.factors[k + 1:]))
    elif isinstance(e, Quotient):
        for m, room, r in set_sites(e.num, observables):
            yield m, room, (lambda new, r=r: Quotient(r(new), e.den))
        for m, room, r in set_sites(e.den, observables):
            yield m, room, (lambda new, r=r: Quotient(e.num, r(new)))


def corrupted_afters(d, i):
    """Step ``i`` of ``d`` with its ``after`` replaced by another step's, or
    with one member dropped from or one observable added to one of its
    sets, as (name of the mutation, mutated step)."""
    step = d.steps[i]
    seen = {step.after}
    for other in d.steps:
        if other.after not in seen:
            seen.add(other.after)
            yield "sibling", replace(step, after=other.after)
    observables = frozenset(d.graph.observable_names)
    for members, room, rebuild in set_sites(step.after, observables):
        for v in sorted(members):
            yield "drop", replace(step, after=rebuild(members - {v}))
        for v in sorted(room):
            yield "add", replace(step, after=rebuild(members | {v}))


def step_mutants():
    """Every mutant of the sweep's derivations and fragments, as (name,
    index of the changed step, mutant): two adjacent steps swapped, or one
    step's ``after`` corrupted and the derivation cut after that step, so
    that a later step failing to chain cannot be what rejects it."""
    for d in sweep_derivations():
        for dd in unique_derivations(d):
            steps = dd.steps
            for i in range(len(steps) - 1):
                if steps[i] != steps[i + 1]:
                    swapped = steps[:i] + (steps[i + 1], steps[i]) + steps[i + 2:]
                    yield "reorder", i, Derivation(dd.graph, dd.query, dd.initial, swapped)
            for i in range(len(steps)):
                for name, bad in corrupted_afters(dd, i):
                    yield name, i, Derivation(dd.graph, None, dd.initial, steps[:i] + (bad,))


def holds_on_models(d, models=5):
    """Whether the initial and final expressions of ``d`` agree on
    ``models`` random positive models, by the oracle alone."""
    frees = sorted(free_vars(d.initial) | free_vars(d.final))
    ev = DoEvaluator(random_model(d.graph, seed=range(models)))
    return float(np.max(np.abs(ev.grid(d.initial, frees) - ev.grid(d.final, frees)))) <= 1e-9


class TestReorderedAndCorruptedSteps:
    """Reordered and corrupted steps: each mutant is rejected, a corrupted
    one at the step it changed, or the equation it claims holds on five
    models (two steps at independent sites commute, and deleting fewer
    actions is also a rule-3 step).  Every set corruption of a rule step is
    tried, as only the checker's rule test can catch some of them; the
    other mutants are a fixed-seed sample drawn alike from each mutation
    and kind of changed step."""

    PER_STRATUM = 40

    def test_sample_rejected_or_equal(self):
        strata = {}
        for name, i, mutant in step_mutants():
            strata.setdefault((name, mutant.steps[i].kind), []).append((i, mutant))
        rng = np.random.default_rng(21)
        rejected = set()
        for (name, kind), mutants in sorted(strata.items()):
            if name in ("drop", "add") and kind in ("Rule2", "Rule3"):
                picks = range(len(mutants))
            else:
                picks = rng.choice(len(mutants), min(len(mutants), self.PER_STRATUM),
                                   replace=False)
            for k in picks:
                i, mutant = mutants[k]
                verdict = verify_derivation(mutant, models=0)
                if verdict.accepted:
                    assert holds_on_models(mutant), (name, mutant.steps[i])
                else:
                    # A swap is caught at the first step that no longer
                    # chains, which may come after the swapped pair.
                    assert verdict.step >= i if name == "reorder" else verdict.step == i
                    rejected.add(name)
        assert rejected == {"reorder", "sibling", "drop", "add"}


class TestReversedRewrites:
    """A chain-rule or marginalization step is an equality, so the verifier
    accepts it read in either direction."""

    @staticmethod
    def reversed_step(g, kind, fits):
        """A one-step derivation that rewrites the ``after`` of the first
        front-door step of ``kind`` that ``fits`` back into its ``before``."""
        d = derive_effect({"X"}, {"Y"}, g)
        step = next(s for s in all_steps(d) if s.kind == kind and fits(s))
        return Derivation(g, None, step.after, (
            DerivationStep(kind, (), step.after, step.before, None),))

    def test_merge_written_as_reversed_split_accepted(self, g_frontdoor):
        merge = self.reversed_step(g_frontdoor, "ChainRule",
                                   lambda s: isinstance(s.after, Product))
        assert verify_derivation(merge).accepted

    def test_collapsing_marginalization_accepted(self, g_frontdoor):
        collapse = self.reversed_step(g_frontdoor, "Marginalize", lambda s: True)
        assert isinstance(collapse.initial, Sum)
        assert verify_derivation(collapse).accepted


class TestRetargetedFragments:
    """A substitution that refers to a fragment proving another equality is
    caught, although that fragment is itself accepted."""

    def test_retargeted_reference_rejected(self):
        retargeted = 0
        for d in sweep_derivations():
            fragments = unique_derivations(d)[1:]
            for dd in unique_derivations(d):
                for i, step in enumerate(dd.steps):
                    if not isinstance(step.justification, Substitution):
                        continue
                    nested = step.justification.derivation
                    for other in fragments:
                        if (other.initial, other.final) == (nested.initial, nested.final):
                            continue
                        bad = replace(step, justification=Substitution(other))
                        verdict = verify_derivation(with_step(dd, i, bad), models=0)
                        assert (verdict.accepted, verdict.step) == (False, i)
                        assert verdict.reason == "nested derivation endpoints do not match the site"
                        retargeted += 1
        assert retargeted >= 500


class TestLifetime:
    def test_fragments_freed_without_full_collection(self, g_frontdoor):
        # Reference counting alone must free the fragments once the
        # derivation is dropped: nothing in derive_effect may leave a
        # reference cycle that holds them.
        enabled = gc.isenabled()
        gc.disable()
        try:
            d = derive_effect({"X"}, {"Y"}, g_frontdoor)
            refs = [weakref.ref(f) for f in nested_fragments(d)]
            assert refs
            del d
            assert [r for r in refs if r() is not None] == []
        finally:
            if enabled:
                gc.enable()


class RefEncoder:
    """The format-2 file as a dict tree, for ``json.dumps`` to write: the
    encoder that wrote each file before the text encoder, kept as the
    reference for its bytes."""

    def __init__(self):
        self.fragments = []
        self.index = {}

    def fragment(self, nested):
        k = self.index.get(id(nested))
        if k is None:
            body = self.body(nested)
            k = self.index[id(nested)] = len(self.fragments)
            self.fragments.append(body)
        return k

    def body(self, x):
        return {
            "initial": None if x.initial is None else expr_to_json(x.initial),
            "steps": [
                {
                    "kind": step.kind,
                    "path": list(step.path),
                    "before": expr_to_json(step.before),
                    "after": expr_to_json(step.after),
                    "justification": {"type": "rule"} if step.justification is None else
                    {"type": "substitution",
                     "fragment": self.fragment(step.justification.derivation)},
                }
                for step in x.steps
            ],
        }

    @classmethod
    def text(cls, d) -> str:
        encoder = cls()
        root = encoder.body(d)
        g = d.graph
        data = {
            "format": 2,
            "graph": g.to_json(),
            "query": None if d.query is None else {
                "do": list(g.sorted_nodes(d.query[0])), "on": list(g.sorted_nodes(d.query[1]))},
            "fragments": encoder.fragments,
            **root,
        }
        return json.dumps(data, sort_keys=True, separators=(",", ":"))


def renamed(g, names):
    """``g`` with each node renamed by ``names``."""
    return CausalGraph([(names.get(n, n), g.is_observable(n)) for n in g.names],
                       [(names.get(p, p), names.get(c, c)) for p, c in g.edges])


# Names the json module escapes (a quote, a backslash, a non-ASCII letter),
# and names that hold the separators "," and ":" and a space.
AWKWARD = {"X": 'x"1', "Z": "z\\2", "Y": "é, y:3", "U": "u 4",
           "N0": "a:b", "N1": "Ω", "N2": "c, d", "N3": 'e\\"f'}


def codec_derivations(g_frontdoor):
    """The sweep's derivations, the front-door one, a fragment on its own,
    and the front-door and two-level draws with awkward names."""
    yield from sweep_derivations()
    d = derive_effect({"X"}, {"Y"}, g_frontdoor)
    yield d
    yield next(nested_fragments(d))
    g = renamed(g_frontdoor, AWKWARD)
    yield derive_effect({AWKWARD["X"]}, {AWKWARD["Y"]}, g)
    g = renamed(DEPTH_TWO, AWKWARD)
    yield derive_effect({AWKWARD["N1"]}, {AWKWARD[n] for n in ("N0", "N2", "N3")}, g)


class TestFormat2:
    def test_text_matches_reference_encoder(self, g_frontdoor):
        checked = 0
        for d in codec_derivations(g_frontdoor):
            assert isinstance(d, Derivation)
            text = derivation_to_text(d)
            assert text == RefEncoder.text(d)
            assert derivation_to_json(d) == json.loads(text)
            checked += 1
        assert checked >= 30

    def test_repeated_subexpressions_decode_to_one_object(self, g_frontdoor):
        met = distinct = 0
        for d in codec_derivations(g_frontdoor):
            back = derivation_from_json(derivation_to_json(d))
            assert back == d
            by_text = {}  # the text of each node met, to the first node with it
            for dd in unique_derivations(back):
                todo = [dd.initial] + [e for s in dd.steps for e in (s.before, s.after)]
                while todo:
                    e = todo.pop()
                    assert by_text.setdefault(expr_to_text(e), e) is e
                    met += 1
                    if isinstance(e, Sum):
                        todo.append(e.body)
                    elif isinstance(e, Product):
                        todo.extend(e.factors)
                    elif isinstance(e, Quotient):
                        todo += (e.num, e.den)
            distinct += len(by_text)
        assert met > 2 * distinct

    def test_sweep_round_trips(self):
        checked = 0
        for d in sweep_derivations():
            data = derivation_to_json(d)
            assert data["format"] == 2
            assert derivation_from_json(data) == d
            checked += 1
        assert checked >= 30

    def test_each_fragment_written_once(self):
        shared = 0
        for d in sweep_derivations():
            fragments = list(nested_fragments(d))
            unique = {id(f) for f in fragments}
            shared += len(fragments) > len(unique)
            data = derivation_to_json(d)
            assert len(data["fragments"]) == len(unique)
            # post-order: a fragment refers only to earlier fragments
            for k, body in enumerate(data["fragments"] + [data]):
                for step in body["steps"]:
                    just = step["justification"]
                    if just["type"] == "substitution":
                        assert 0 <= just["fragment"] < k
        assert shared, "the sweep should exercise shared fragments"

    def test_shared_fragment_decodes_to_one_object(self):
        for d in sweep_derivations():
            back = derivation_from_json(derivation_to_json(d))
            pairs = zip(nested_fragments(d), nested_fragments(back))
            by_id = {}
            for orig, decoded in pairs:
                assert by_id.setdefault(id(orig), decoded) is decoded
            assert len(set(map(id, by_id.values()))) == len(by_id)

    def test_fragment_used_twice_in_one_derivation(self, g_frontdoor):
        d = derive_effect({"X"}, {"Y"}, g_frontdoor)
        step = next(s for s in d.steps if isinstance(s.justification, Substitution))
        twice = Derivation(d.graph, None, d.initial, (step, step))
        data = derivation_to_json(twice)
        assert len(data["fragments"]) == len(
            {id(f) for f in nested_fragments(twice)}
        )
        back = derivation_from_json(data)
        assert back == twice
        assert back.steps[0].justification.derivation is \
            back.steps[1].justification.derivation

    def test_non_chaining_derivation_round_trips(self, g_backdoor):
        d = derive_effect({"X"}, {"Y"}, g_backdoor)
        steps = list(d.steps)
        del steps[1]
        broken = Derivation(d.graph, d.query, d.initial, tuple(steps))
        data = derivation_to_json(broken)
        back = derivation_from_json(data)
        assert back == broken
        want = verify_derivation(broken, models=0)
        assert not want.accepted
        assert verify_derivation(back, models=0) == want

    def test_steps_store_only_the_site(self, g_frontdoor):
        d = derive_effect({"X"}, {"Y"}, g_frontdoor)
        data = derivation_to_json(d)
        assert any(step["path"] for step in data["steps"])
        state = d.initial
        for step, sd in zip(d.steps, data["steps"]):
            after = _replace(state, tuple(sd["path"]), step.after)
            assert sd["before"] == expr_to_json(_get(state, tuple(sd["path"])))
            assert sd["after"] == expr_to_json(_get(after, tuple(sd["path"])))
            state = after

    def test_derive_out_is_byte_identical(self, tmp_path):
        graph = tmp_path / "fd.cg"
        graph.write_text(
            "node X obs\nnode Z obs\nnode Y obs\nnode U lat\n"
            "edge X Z\nedge Z Y\nedge U X\nedge U Y\n"
        )
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert main(["derive", "--graph", str(graph), "--do", "X", "--on", "Y",
                         "--out", str(out)]) == 0
        first = outs[0].read_bytes()
        assert first == outs[1].read_bytes()
        assert b"\n" not in first[:-1] and b": " not in first
