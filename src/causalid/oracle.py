"""Brute-force numerical ground truth on small discrete models.

Everything here is exact enumeration: the observational joint is the
mixture-of-products over the latent domains, interventional distributions
come from the truncated factorization, and interventional sentences
P(y | do(t), w) are evaluated as ratios of truncated-factorization
marginals.  Estimand checking and the non-identifiability witness search
are built on top of these primitives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .expr import JointMarginal, PositivityError, _grid, evaluate_grid, free_vars
from .graph import CausalGraph, GraphError
from .sep import SeparationQuery
from .tables import MAX_STATES, EnumerationLimitError, JointTable

__all__ = [
    "DiscreteModel",
    "random_model",
    "observational_joint",
    "interventional_truth",
    "DoEvaluator",
    "CheckReport",
    "check_estimand",
    "ci_check",
    "WitnessReport",
    "witness_search",
]

DEFAULT_EPSILON = 0.01


@dataclass(frozen=True)
class DiscreteModel:
    """A concrete parametrization of a causal graph.

    ``cards[i]`` is the domain size of node ``i`` (graph index order) and
    ``cpts[i]`` holds P(node | parents) with one leading axis per parent (in
    index order) and the node's own domain last; every row sums to one.
    ``epsilon`` records the positivity floor the tables were built with
    (zero for unconstrained tables).
    """

    graph: CausalGraph
    cards: tuple[int, ...]
    cpts: tuple[np.ndarray, ...]
    epsilon: float = 0.0
    _plan: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.cards) != len(self.graph) or len(self.cpts) != len(self.graph):
            raise ValueError("one card and one table per node required")
        if math.prod(self.cards) > MAX_STATES:
            raise EnumerationLimitError(
                f"{math.prod(self.cards)} joint states exceed the "
                f"{MAX_STATES}-state enumeration budget"
            )
        for i, cpt in enumerate(self.cpts):
            rows = cpt.sum(axis=-1)
            # np.allclose(rows, 1.0, atol=1e-12) without its overhead: the
            # default rtol 1e-5 against 1.0; NaN rows fail the comparison.
            if not (np.abs(rows - 1.0) <= 1e-12 + 1e-5).all():
                raise ValueError(f"conditional table of node {self.graph.names[i]!r} "
                                 "does not sum to 1")
        object.__setattr__(self, "_plan", _factor_plan(self.graph, self.cards))

    def card(self, name: str) -> int:
        return self.cards[self.graph.index(name)]


def _factor_plan(g: CausalGraph, cards: Sequence[int]) -> tuple:
    """Per node, the transpose that puts its table's axes (parents, then the
    node itself) in index order, and the shape that broadcasts the result
    over the full node grid."""
    n = len(g)
    plan = []
    for i in range(n):
        axes = g._parents[i] + (i,)
        perm = tuple(sorted(range(len(axes)), key=axes.__getitem__))
        shape = [1] * n
        for ax in axes:
            shape[ax] = cards[ax]
        plan.append((perm, tuple(shape)))
    return tuple(plan)


def random_model(
    g: CausalGraph,
    arity: int | Mapping[str, int] = 2,
    seed: int = 0,
    epsilon: float = DEFAULT_EPSILON,
) -> DiscreteModel:
    """Reproducible positive model: conditional rows are drawn uniformly,
    then mixed with the uniform distribution so every entry is >= epsilon."""
    if isinstance(arity, int):
        cards = tuple(arity for _ in g.names)
    else:
        cards = tuple(int(arity[n]) for n in g.names)
    if any(c < 2 for c in cards):
        raise ValueError("every domain needs at least two values")
    if any(c * epsilon >= 1.0 for c in cards):
        raise ValueError("epsilon too large for the requested arity")

    rng = np.random.default_rng(seed)
    cpts = []
    for i in range(len(g)):
        shape = tuple(cards[j] for j in g._parents[i]) + (cards[i],)
        raw = rng.random(shape) + 1e-12
        probs = raw / raw.sum(axis=-1, keepdims=True)
        probs = (1.0 - cards[i] * epsilon) * probs + epsilon
        cpts.append(probs)
    return DiscreteModel(graph=g, cards=cards, cpts=tuple(cpts), epsilon=epsilon)


def _factor_product(
    cards: tuple[int, ...], plan: tuple, cpts: Sequence[np.ndarray],
    skip: frozenset[int] = frozenset(), sum_axes: tuple[int, ...] = (),
) -> np.ndarray:
    """Product of the conditional tables ``cpts`` except those of ``skip``
    nodes over the full node grid, with the ``sum_axes`` summed out;
    ``plan`` is the model's factor plan."""
    out = np.ones(cards)
    for i, (perm, shape) in enumerate(plan):
        if i in skip:
            continue
        out = out * cpts[i].transpose(perm).reshape(shape)
    return out.sum(axis=sum_axes) if sum_axes else out


def full_joint_array(m: DiscreteModel) -> np.ndarray:
    """Exact joint over every node (latents included), graph index order."""
    return _factor_product(m.cards, m._plan, m.cpts)


def full_joint(m: DiscreteModel) -> JointTable:
    return JointTable(m.graph.names, full_joint_array(m))


def observational_joint(m: DiscreteModel) -> JointTable:
    """The observed distribution: the full joint with latents summed out."""
    g = m.graph
    latent_axes = tuple(g.index(n) for n in g.latent_names)
    arr = _factor_product(m.cards, m._plan, m.cpts, sum_axes=latent_axes)
    return JointTable(g.observable_names, arr)


def intervened_array(m: DiscreteModel, t_vars: frozenset[str]) -> np.ndarray:
    """Truncated factorization with the factors of ``t_vars`` deleted,
    latents summed out: an array over the observable grid whose ``t`` axes
    index the intervention level."""
    g = m.graph
    for v in t_vars:
        if not g.is_observable(v):
            raise GraphError(f"cannot intervene on latent node {v!r}")
    skip = frozenset(g.index(v) for v in t_vars)
    latent_axes = tuple(g.index(n) for n in g.latent_names)
    return _factor_product(m.cards, m._plan, m.cpts, skip, latent_axes)


def interventional_truth(
    m: DiscreteModel, t: Mapping[str, int], s: Iterable[str]
) -> JointTable:
    """P_t(s) by truncated factorization.

    Assignments of ``s`` that disagree with ``t`` on shared variables get
    probability zero; with disjoint sets the result sums to one.
    """
    g = m.graph
    t_vars = frozenset(t)
    s_vars = frozenset(s)
    obs = g.observable_names
    arr = intervened_array(m, t_vars)

    index = []
    remaining = []
    for n in obs:
        if n in t_vars:
            index.append(int(t[n]))
        else:
            index.append(slice(None))
            remaining.append(n)
    arr = arr[tuple(index)]  # axes: observables minus t, canonical order

    drop = tuple(i for i, n in enumerate(remaining) if n not in s_vars)
    arr = arr.sum(axis=drop) if drop else arr
    kept = [n for n in remaining if n in s_vars]

    s_sorted = list(g.sorted_nodes(s_vars))
    if set(kept) == set(s_sorted):
        return JointTable(s_sorted, arr)

    # s overlaps t: spread over the full s grid, zero where inconsistent.
    out_shape = tuple(m.card(n) for n in s_sorted)
    out = np.zeros(out_shape)
    idx = tuple(int(t[n]) if n in t_vars else slice(None) for n in s_sorted)
    out[idx] = arr
    return JointTable(s_sorted, out)


class DoEvaluator:
    """Grid evaluation of interventional-sentence expressions on one model.

    A sentence P(y | do(t), w) denotes P_t(y, w) / P_t(w); this class
    computes such leaves (and whole Sum/Product/Quotient trees over them)
    as arrays over assignment grids, caching the truncated-factorization
    tables per distinct ``do`` set.
    """

    def __init__(self, m: DiscreteModel):
        self.m = m
        self._tables: dict[frozenset[str], JointTable] = {}

    def _do_table(self, do: frozenset[str]) -> JointTable:
        tab = self._tables.get(do)
        if tab is None:
            tab = JointTable(self.m.graph.observable_names, intervened_array(self.m, do))
            self._tables[do] = tab
        return tab

    def _leaf(self, e, env, ndim):
        from .docalc import DoSentence

        if isinstance(e, JointMarginal):
            return self._do_table(frozenset()).placed(e.vars, env, ndim)
        if not isinstance(e, DoSentence):
            raise TypeError(f"cannot evaluate leaf {e!r} on a discrete model")
        tab = self._do_table(e.do)
        num = tab.placed(e.outcome | e.given | e.do, env, ndim)
        if not (e.given | e.do):
            return num
        den = tab.placed(e.given | e.do, env, ndim)
        if np.any(den == 0.0):
            raise PositivityError()
        return num / den

    def grid(self, e, free: Sequence[str]) -> np.ndarray:
        """Array of the expression's value over the grid of ``free``."""
        return _grid(e, self._do_table(frozenset()), self._leaf, free)


# -- estimand checking ---------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    """Per-model comparison of an estimand against the truncated
    factorization."""

    trials: int
    tolerance: float
    max_abs_error: float
    per_model: tuple[tuple[int, float, bool], ...]  # (seed, max error, passed)

    @property
    def all_passed(self) -> bool:
        return all(ok for _, _, ok in self.per_model)

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "tolerance": self.tolerance,
            "max_abs_error": self.max_abs_error,
            "all_passed": self.all_passed,
            "per_model": [
                {"seed": s, "max_error": e, "passed": ok} for s, e, ok in self.per_model
            ],
        }


def check_estimand(
    e,
    g: CausalGraph,
    t: Iterable[str],
    s: Iterable[str],
    trials: int = 100,
    seed: int = 0,
    tolerance: float = 1e-9,
    arity: int | Mapping[str, int] = 2,
) -> CheckReport:
    """Compare an estimand against P_t(s) on random positive models.

    For each trial a fresh positive model on ``g`` is drawn, the estimand is
    evaluated on its observational joint over every (t, s) assignment, and
    the result is compared entrywise against the truncated factorization.
    """
    t_vars, s_vars = frozenset(t), frozenset(s)
    if t_vars & s_vars:
        raise GraphError("t and s must be disjoint")
    if not free_vars(e) <= (t_vars | s_vars):
        raise ValueError("estimand has free variables outside s and t")
    order = list(g.sorted_nodes(t_vars)) + list(g.sorted_nodes(s_vars))
    keep = t_vars | s_vars
    drop = tuple(ax for ax, n in enumerate(g.observable_names) if n not in keep)
    # axes of the summed truth follow observable index order; permute to `order`
    current = [n for n in g.observable_names if n in keep]
    perm = [current.index(n) for n in order]

    def one_trial(i: int) -> tuple[int, float, bool]:
        model_seed = seed + i
        m = random_model(g, arity=arity, seed=model_seed)
        est = evaluate_grid(e, observational_joint(m), order)
        arr = intervened_array(m, t_vars)
        truth = (arr.sum(axis=drop) if drop else arr).transpose(perm)
        err = float(np.max(np.abs(est - truth)))
        return (model_seed, err, err <= tolerance)

    per_model = tuple(one_trial(i) for i in range(trials))
    max_err = max((e_ for _, e_, _ in per_model), default=0.0)
    return CheckReport(
        trials=trials, tolerance=tolerance, max_abs_error=max_err, per_model=per_model
    )


def ci_check(m: DiscreteModel, q: SeparationQuery, tolerance: float = 1e-9) -> bool:
    """Does P(x, y | z) = P(x|z) P(y|z) hold on all assignments with
    P(z) > 0?  Latent nodes may appear in the query; the full joint is used."""
    tab = full_joint(m)
    all_vars = q.x | q.y | q.z
    order = [n for n in m.graph.names if n in all_vars]
    env = {v: i for i, v in enumerate(order)}
    ndim = len(order)

    def placed(vars_: frozenset[str]) -> np.ndarray:
        return tab.placed(vars_, env, ndim) if vars_ else np.ones((1,) * ndim)

    p_xyz = placed(all_vars)
    p_xz = placed(q.x | q.z)
    p_yz = placed(q.y | q.z)
    p_z = placed(q.z)
    mask = np.broadcast_to(p_z > 0, p_xyz.shape)
    lhs = np.where(mask, p_xyz / np.where(p_z > 0, p_z, 1.0), 0.0)
    rhs = np.where(
        mask,
        (p_xz / np.where(p_z > 0, p_z, 1.0)) * (p_yz / np.where(p_z > 0, p_z, 1.0)),
        0.0,
    )
    return bool(np.max(np.abs(lhs - rhs)) <= tolerance)


# -- witness search ------------------------------------------------------------


@dataclass(frozen=True)
class WitnessReport:
    """Two positive models agreeing observationally but not causally."""

    model_a: DiscreteModel
    model_b: DiscreteModel
    observational_gap: float
    causal_gap: float
    evaluations: int

    def to_json(self) -> dict:
        return {
            "found": True,
            "observational_gap": self.observational_gap,
            "causal_gap": self.causal_gap,
            "evaluations": self.evaluations,
        }


def _theta_shapes(m: DiscreteModel) -> list[tuple[int, ...]]:
    return [cpt.shape for cpt in m.cpts]


def _blocks(shapes) -> list[tuple[int, int, tuple[int, ...]]]:
    """``(start, stop, shape)`` of each node's block of the parameter vector."""
    out = []
    pos = 0
    for shape in shapes:
        size = int(np.prod(shape))
        out.append((pos, pos + size, shape))
        pos += size
    return out


def _cpts_from_theta(
    cards: tuple[int, ...], blocks, theta: np.ndarray, epsilon: float
) -> list[np.ndarray]:
    """Conditional tables of a parameter vector: a softmax over each row of
    each block, mixed with the uniform distribution to the ``epsilon``
    floor."""
    cpts = []
    for i, (start, stop, shape) in enumerate(blocks):
        block = theta[start:stop].reshape(shape)
        block = block - block.max(axis=-1, keepdims=True)
        p = np.exp(block)
        p /= p.sum(axis=-1, keepdims=True)
        p = (1.0 - cards[i] * epsilon) * p + epsilon
        cpts.append(p)
    return cpts


def _model_from_theta(
    g: CausalGraph, cards: tuple[int, ...], shapes, theta: np.ndarray,
    epsilon: float,
) -> DiscreteModel:
    cpts = _cpts_from_theta(cards, _blocks(shapes), theta, epsilon)
    return DiscreteModel(graph=g, cards=cards, cpts=tuple(cpts), epsilon=epsilon)


def _theta_of(m: DiscreteModel) -> np.ndarray:
    return np.concatenate([np.log(cpt).ravel() for cpt in m.cpts])


class _WitnessGaps:
    """Observational and causal gaps between a fixed base model and
    candidates on its graph.

    The causal gap compares P_t over s ∪ t.  The base model's tables are
    computed once.  A candidate given as a parameter vector is scored on its
    raw conditional tables through the same factor products that
    :func:`observational_joint` and :func:`intervened_array` run on the
    model :func:`_model_from_theta` would build, so both routes give the
    same floats.
    """

    def __init__(self, base: DiscreteModel, t_vars: frozenset[str], s_vars: frozenset[str]):
        g = base.graph
        keep = t_vars | s_vars
        self._t_vars = t_vars
        self._drop = tuple(ax for ax, n in enumerate(g.observable_names) if n not in keep)
        self._base = self._tables(base)
        self._latent = tuple(g.index(n) for n in g.latent_names)
        self._skip = frozenset(g.index(v) for v in t_vars)
        self._cards, self._plan, self._epsilon = base.cards, base._plan, base.epsilon
        self._blocks = _blocks(_theta_shapes(base))

    def _tables(self, m: DiscreteModel) -> tuple[np.ndarray, np.ndarray]:
        ia = intervened_array(m, self._t_vars)
        return observational_joint(m).array, ia.sum(axis=self._drop) if self._drop else ia

    def _gaps(self, obs: np.ndarray, causal: np.ndarray) -> tuple[float, float]:
        return (float(np.max(np.abs(self._base[0] - obs))),
                float(np.max(np.abs(self._base[1] - causal))))

    def of_model(self, m: DiscreteModel) -> tuple[float, float]:
        return self._gaps(*self._tables(m))

    def of_theta(self, theta: np.ndarray) -> tuple[float, float]:
        cpts = _cpts_from_theta(self._cards, self._blocks, theta, self._epsilon)
        obs = _factor_product(self._cards, self._plan, cpts, sum_axes=self._latent)
        ia = _factor_product(self._cards, self._plan, cpts, self._skip, self._latent)
        return self._gaps(obs, ia.sum(axis=self._drop) if self._drop else ia)


def witness_search(
    g: CausalGraph,
    t: Iterable[str],
    s: Iterable[str],
    budget: int = 40000,
    seed: int = 0,
    arity: int = 2,
    obs_tol: float = 1e-6,
    causal_gap_min: float = 1e-2,
    epsilon: float = DEFAULT_EPSILON,
) -> WitnessReport | None:
    """Best-effort search for a non-identifiability witness pair.

    Strategy: seeded random restarts pick a base model; a second model
    starts at the same parameters (observational gap zero) and Nelder-Mead
    walks its parameters to maximize the causal gap under a heavy penalty on
    the observational gap.  ``budget`` caps total objective evaluations;
    ``None`` means the budget ran out without a qualifying pair, which for
    identifiable effects is the expected outcome.

    Each restart computes the base model's tables once and scores
    candidates on raw conditional tables (:class:`_WitnessGaps`); the
    reported model and gaps come from a validated :class:`DiscreteModel`.
    """
    from scipy.optimize import minimize

    t_vars, s_vars = frozenset(t), frozenset(s)
    if budget <= 0:
        return None

    evaluations = 0
    restarts = max(1, budget // 4000)
    per_restart = max(100, budget // restarts)

    for r in range(restarts):
        if evaluations >= budget:
            break
        m1 = random_model(g, arity=arity, seed=seed + 1000 * r, epsilon=epsilon)
        gaps = _WitnessGaps(m1, t_vars, s_vars)
        shapes = _theta_shapes(m1)
        theta0 = _theta_of(m1)
        rng = np.random.default_rng(seed + 1000 * r + 17)
        theta0 = theta0 + rng.normal(scale=0.05, size=theta0.shape)

        counter = {"n": 0}

        def objective(theta: np.ndarray) -> float:
            counter["n"] += 1
            obs_gap, causal_gap = gaps.of_theta(theta)
            return 1e4 * max(obs_gap - 0.25 * obs_tol, 0.0) - causal_gap

        maxfev = min(per_restart, budget - evaluations)
        result = minimize(
            objective,
            theta0,
            method="Nelder-Mead",
            options={"maxfev": maxfev, "xatol": 1e-8, "fatol": 1e-12},
        )
        evaluations += counter["n"]
        m2 = _model_from_theta(g, m1.cards, shapes, result.x, epsilon)
        obs_gap, causal_gap = gaps.of_model(m2)
        if obs_gap <= obs_tol and causal_gap >= causal_gap_min:
            return WitnessReport(
                model_a=m1,
                model_b=m2,
                observational_gap=obs_gap,
                causal_gap=causal_gap,
                evaluations=evaluations,
            )
    return None
