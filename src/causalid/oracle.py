"""Brute-force numerical ground truth on small discrete models.

Everything here is exact enumeration: the observational joint is the
mixture-of-products over the latent domains, interventional distributions
come from the truncated factorization, and interventional sentences
P(y | do(t), w) are evaluated as ratios of truncated-factorization
marginals.  Estimand checking and the non-identifiability certificates
are built on top of these primitives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .expr import DoSentence, JointMarginal, PositivityError, _grid, evaluate_grid, free_vars
from .graph import CausalGraph, GraphError
from .ident import _causal_effect_traced, _observable_components
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


def _check_tolerance(tolerance, name: str = "tolerance") -> None:
    """Raise ValueError unless ``tolerance`` is a finite number >= 0: a NaN
    or infinite tolerance would accept any difference, a negative one none."""
    if not (isinstance(tolerance, (int, float)) and math.isfinite(tolerance)
            and tolerance >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {tolerance}")


# The least entry of a random_model table: every context then has mass at
# least MIN_PROB ** len(graph) > 0.
MIN_PROB = 0.01


@dataclass(frozen=True)
class DiscreteModel:
    """A concrete parametrization of a causal graph, or a stack of them.

    ``cards[i]`` is the domain size of node ``i`` (graph index order) and
    ``cpts[i]`` holds P(node | parents) with one leading axis per parent (in
    index order) and the node's own domain last; every row sums to one.
    A stack of models puts the same ``batch`` axes in front of every table
    (``batch`` is ``()`` for a single model); every function of this module
    then computes one result per model, with those axes in front.
    """

    graph: CausalGraph
    cards: tuple[int, ...]
    cpts: tuple[np.ndarray, ...]
    batch: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _plan: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.cards) != len(self.graph) or len(self.cpts) != len(self.graph):
            raise ValueError("one card and one table per node required")
        if math.prod(self.cards) > MAX_STATES:
            raise EnumerationLimitError(
                f"{math.prod(self.cards)} joint states exceed the "
                f"{MAX_STATES}-state enumeration budget"
            )
        cards, parents = self.cards, self.graph._parents
        batch = ()
        if self.cpts:  # the first table's axes in front of its own are the model axes
            batch = self.cpts[0].shape[:self.cpts[0].ndim - len(parents[0]) - 1]
        for i, cpt in enumerate(self.cpts):
            want = (*batch, *map(cards.__getitem__, parents[i]), cards[i])
            if cpt.shape != want:
                raise ValueError(f"conditional table of node {self.graph.names[i]!r} "
                                 f"has shape {cpt.shape}, expected {want}")
        # Every row of every node and model in one test, like
        # np.allclose(rows, 1.0, atol=1e-12) without its overhead: the
        # default rtol 1e-5 against 1.0; NaN rows fail the comparison.
        rows = [cpt.sum(axis=-1).ravel() for cpt in self.cpts]
        ok = np.abs(np.concatenate([np.ones(0), *rows]) - 1.0) <= 1e-12 + 1e-5
        if not ok.all():
            i = np.searchsorted(np.cumsum([r.size for r in rows]), np.argmin(ok), "right")
            raise ValueError(f"conditional table of node {self.graph.names[i]!r} "
                             "does not sum to 1")
        object.__setattr__(self, "batch", batch)
        object.__setattr__(self, "_plan", _factor_plan(self.graph, self.cards, batch))

    def card(self, name: str) -> int:
        return self.cards[self.graph.index(name)]


def _factor_plan(g: CausalGraph, cards: Sequence[int], batch: tuple[int, ...]) -> tuple:
    """Per node, the transpose that keeps its table's model axes first and
    puts the rest (parents, then the node itself) in index order, and the
    shape that broadcasts the result over the full node grid behind the
    model axes ``batch``."""
    n = len(g)
    plan = []
    for i in range(n):
        axes = g._parents[i] + (i,)
        key = (*range(-len(batch), 0), *axes)  # model axes sort first
        perm = tuple(sorted(range(len(key)), key=key.__getitem__))
        shape = [1] * n
        for ax in axes:
            shape[ax] = cards[ax]
        plan.append((perm, (*batch, *shape)))
    return tuple(plan)


def _cards(g: CausalGraph, arity: int | Mapping[str, int]) -> tuple[int, ...]:
    if isinstance(arity, int):
        cards = tuple(arity for _ in g.names)
    else:
        cards = tuple(int(arity[n]) for n in g.names)
    if any(c < 2 for c in cards):
        raise ValueError("every domain needs at least two values")
    if any(c * MIN_PROB >= 1.0 for c in cards):
        raise ValueError(f"domains must have fewer than {round(1 / MIN_PROB)} values")
    return cards


def _seed_ints(seed: int | Sequence[int]) -> tuple[list[int], tuple[int, ...]]:
    """The seeds of ``seed`` as Python ints, and the model axes they give:
    ``()`` for one seed, ``(len(seeds),)`` for a sequence.  A negative or
    non-integer seed raises the error that ``np.random.default_rng`` raises;
    a seed that is itself a sequence raises ValueError."""
    try:
        seeds = list(seed)
        batch = (len(seeds),)
    except TypeError:
        seeds, batch = [seed], ()
    if not seeds:
        raise ValueError("at least one seed required")
    for s in seeds:
        if not isinstance(s, (int, np.integer)):
            if isinstance(s, Iterable) and not isinstance(s, str) and getattr(s, "ndim", 1):
                raise ValueError("random_model takes one seed or a flat sequence of "
                                 f"seeds, got the nested seed {s!r}")
            raise TypeError(f"SeedSequence expects int or sequence of ints for entropy not {s}")
        if s < 0:
            raise ValueError("expected non-negative integer")
    return [int(s) for s in seeds], batch


# NumPy's SeedSequence (pool size 4) and PCG64 seeding constants.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The ``count + 1`` hash constants ``init * mult**k mod 2^32``, one
    row each, to broadcast over the seed axis."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)[:, None]


def _seed_states(seeds: list[int]) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` that ``np.random.default_rng(s)`` starts
    from, for every non-negative int ``s`` of ``seeds``.

    One pass over ``uint32`` arrays (seeds along the last axis, wrapping
    arithmetic) runs ``SeedSequence``'s ``mix_entropy`` and
    ``generate_state(4, uint64)``; ``pcg64_set_seed`` then runs in Python
    ints.  A seed is its little-endian 32-bit words; one below 2^128 is
    padded with zero words to the pool size, as ``mix_entropy`` pads it."""
    lengths = [(s.bit_length() + 31) // 32 for s in seeds]
    width = max(_POOL, *lengths)
    words = np.frombuffer(b"".join(s.to_bytes(4 * width, "little") for s in seeds),
                          dtype="<u4").reshape(len(seeds), width).T
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * width)
    used = 0

    def hashmix(value: np.ndarray, count: int) -> np.ndarray:
        # ``count`` consecutive hashes of ``value``, one per row
        nonlocal used
        value = (value ^ consts[used:used + count]) * consts[used + 1:used + count + 1]
        used += count
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = x * _MIX_L - y * _MIX_R
        return r ^ (r >> 16)

    pool = hashmix(words[:_POOL], _POOL)
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], _POOL - 1))
    for w in range(_POOL, width):  # the words of seeds of 2^128 and above
        has = np.array(lengths) > w
        pool = np.where(has, mix(pool, hashmix(words[w], _POOL)), pool)
    consts = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
    state = (pool[[*range(_POOL)] * 2] ^ consts[:-1]) * consts[1:]
    state = (state ^ (state >> 16)).T.copy().view("<u8")
    out = []
    for seed_hi, seed_lo, seq_hi, seq_lo in state.tolist():
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        out.append((((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return out


def random_model(
    g: CausalGraph,
    arity: int | Mapping[str, int] = 2,
    seed: int | Sequence[int] = 0,
) -> DiscreteModel:
    """Reproducible positive model: conditional rows are drawn uniformly,
    then mixed with the uniform distribution so every entry is >= MIN_PROB.

    A sequence of seeds gives a stack with one model per seed, in order;
    each is the model that its seed alone gives.  Seed ``s`` reads the
    stream of ``np.random.default_rng(s)``: its PCG64 state is expanded as
    ``SeedSequence`` and ``pcg64_set_seed`` expand it, for all seeds at
    once (:func:`_seed_states`), and NumPy converts the stream to doubles.
    A negative, non-integer or nested seed raises."""
    cards = _cards(g, arity)
    shapes = [tuple(cards[j] for j in g._parents[i]) + (cards[i],) for i in range(len(g))]
    sizes = [math.prod(shape) for shape in shapes]
    seeds, batch = _seed_ints(seed)
    # One draw per model: a generator's stream read in one call is the same
    # as the nodes' tables read one after another in index order.
    flat = np.empty((len(seeds), sum(sizes)))
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    for row, (state, inc) in zip(flat, _seed_states(seeds)):
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        gen.random(out=row)
    flat = flat.reshape(batch + (sum(sizes),))
    cpts = []
    offset = 0
    for i, (shape, size) in enumerate(zip(shapes, sizes)):
        raw = flat[..., offset:offset + size].reshape(batch + shape) + 1e-12
        offset += size
        probs = raw / raw.sum(axis=-1, keepdims=True)
        probs = (1.0 - cards[i] * MIN_PROB) * probs + MIN_PROB
        cpts.append(probs)
    return DiscreteModel(graph=g, cards=cards, cpts=tuple(cpts))


def _factor_product(
    m: DiscreteModel, skip: frozenset[int] = frozenset(), sum_axes: tuple[int, ...] = (),
) -> np.ndarray:
    """Product of the conditional tables of ``m`` except those of ``skip``
    nodes over the full node grid, with the ``sum_axes`` summed out; model
    axes lead, so ``sum_axes`` count from the end (node i is axis
    ``i - len(graph)``)."""
    out = np.ones(m.batch + m.cards)
    for i, (perm, shape) in enumerate(m._plan):
        if i in skip:
            continue
        out = out * m.cpts[i].transpose(perm).reshape(shape)
    return out.sum(axis=sum_axes) if sum_axes else out


def _latent_axes(g: CausalGraph) -> tuple[int, ...]:
    return tuple(g.index(v) - len(g) for v in g.latent_names)


def full_joint_array(m: DiscreteModel) -> np.ndarray:
    """Exact joint over every node (latents included), graph index order."""
    return _factor_product(m)


def full_joint(m: DiscreteModel) -> JointTable:
    return JointTable(m.graph.names, full_joint_array(m))


def observational_joint(m: DiscreteModel) -> JointTable:
    """The observed distribution: the full joint with latents summed out."""
    g = m.graph
    return JointTable(g.observable_names, _factor_product(m, sum_axes=_latent_axes(g)))


def intervened_array(m: DiscreteModel, t_vars: frozenset[str]) -> np.ndarray:
    """Truncated factorization with the factors of ``t_vars`` deleted,
    latents summed out: an array over the observable grid whose ``t`` axes
    index the intervention level."""
    g = m.graph
    for v in t_vars:
        if not g.is_observable(v):
            raise GraphError(f"cannot intervene on latent node {v!r}")
    skip = frozenset(g.index(v) for v in t_vars)
    return _factor_product(m, skip, _latent_axes(g))


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
    arr = arr[(..., *index)]  # axes: observables minus t, canonical order

    k = len(remaining)
    drop = tuple(i - k for i, n in enumerate(remaining) if n not in s_vars)
    arr = arr.sum(axis=drop) if drop else arr
    kept = [n for n in remaining if n in s_vars]

    s_sorted = list(g.sorted_nodes(s_vars))
    if set(kept) == set(s_sorted):
        return JointTable(s_sorted, arr)

    # s overlaps t: spread over the full s grid, zero where inconsistent.
    out_shape = tuple(m.card(n) for n in s_sorted)
    out = np.zeros(m.batch + out_shape)
    idx = tuple(int(t[n]) if n in t_vars else slice(None) for n in s_sorted)
    out[(..., *idx)] = arr
    return JointTable(s_sorted, out)


class DoEvaluator:
    """Grid evaluation of interventional-sentence expressions on a model or
    a stack of models (one result per model, model axes first).

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


def _seed_batches(g: CausalGraph, seed: int, count: int,
                  arity: int | Mapping[str, int] = 2) -> Iterable[range]:
    """The seeds ``seed .. seed + count - 1`` in chunks of at most
    ``MAX_STATES`` full-joint cells."""
    chunk = max(1, MAX_STATES // math.prod(_cards(g, arity)))
    for start in range(seed, seed + count, chunk):
        yield range(start, min(start + chunk, seed + count))


def _per_model_max(arr: np.ndarray, batch: tuple[int, ...]) -> np.ndarray:
    """The largest entry of each model's part of ``arr``, whose leading
    axes are the model axes ``batch``."""
    return arr.reshape(batch + (-1,)).max(axis=-1)


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

    Trial ``i`` draws a positive model on ``g`` from seed ``seed + i``; the
    estimand is evaluated on its observational joint over every (t, s)
    assignment and compared entrywise against the truncated factorization.
    The models are stacked and evaluated together, in chunks of at most
    ``MAX_STATES`` full-joint cells.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    _check_tolerance(tolerance)
    t_vars, s_vars = frozenset(t), frozenset(s)
    if t_vars & s_vars:
        raise GraphError("t and s must be disjoint")
    if not free_vars(e) <= (t_vars | s_vars):
        raise ValueError("estimand has free variables outside s and t")
    for v in g.sorted_nodes(t_vars | s_vars):
        if not g.is_observable(v):
            raise GraphError(f"query variable {v!r} is latent")
    order = list(g.sorted_nodes(t_vars)) + list(g.sorted_nodes(s_vars))
    env = {v: i for i, v in enumerate(order)}

    per_model = []
    for seeds in _seed_batches(g, seed, trials, arity):
        m = random_model(g, arity=arity, seed=seeds)
        est = evaluate_grid(e, observational_joint(m), order)
        truth = JointTable(g.observable_names, intervened_array(m, t_vars)).placed(
            t_vars | s_vars, env, len(order))
        errs = _per_model_max(np.abs(est - truth), m.batch)
        per_model.extend((model_seed, float(err), bool(err <= tolerance))
                         for model_seed, err in zip(seeds, errs))
    max_err = max(e_ for _, e_, _ in per_model)
    return CheckReport(
        trials=trials, tolerance=tolerance, max_abs_error=max_err, per_model=tuple(per_model)
    )


def ci_check(m: DiscreteModel, q: SeparationQuery, tolerance: float = 1e-9) -> bool:
    """Does P(x, y | z) = P(x|z) P(y|z) hold on all assignments with
    P(z) > 0?  Latent nodes may appear in the query; the full joint is used."""
    _check_tolerance(tolerance)
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
    positive = p_z > 0
    p_z_safe = np.where(positive, p_z, 1.0)
    lhs = np.where(positive, p_xyz / p_z_safe, 0.0)
    rhs = np.where(positive, (p_xz / p_z_safe) * (p_yz / p_z_safe), 0.0)
    return bool(np.max(np.abs(lhs - rhs)) <= tolerance)


# -- non-identifiability certificates -----------------------------------------

WITNESS_NOISE = 0.02  # bit-flip probability of the observables of a parity model


@dataclass(frozen=True)
class WitnessReport:
    """Two positive models agreeing on P(v) but not on P_t(s), built on the
    hedge ``pair``: the failing (c, t) pair of :func:`causal_effect` or a
    smaller hedge (c', t') inside it."""

    model_a: DiscreteModel
    model_b: DiscreteModel
    observational_gap: float
    causal_gap: float
    evaluations: int
    pair: tuple[frozenset[str], frozenset[str]]

    def to_json(self) -> dict:
        g = self.model_a.graph
        c, t = self.pair
        return {
            "found": True,
            "pair": {"c": list(g.sorted_nodes(c)), "t": list(g.sorted_nodes(t))},
            "observational_gap": self.observational_gap,
            "causal_gap": self.causal_gap,
            "evaluations": self.evaluations,
        }


def _latent_paths(g: CausalGraph, i: int) -> dict[int, list[int]]:
    """Shortest directed paths from node ``i`` whose internal nodes are
    latent, by end node."""
    paths: dict[int, list[int]] = {}
    queue = [i]
    for v in queue:
        if v == i or not g._obs[v]:
            for child in g._children[v]:
                if child not in paths:
                    paths[child] = paths.get(v, [i]) + [child]
                    queue.append(child)
    return paths


def _spanning_tree(g: CausalGraph, paths, c: frozenset[int], t: frozenset[int]):
    """Bidirected spanning tree over ``t`` that spans ``c`` first: an edge
    ``(a, b, u)`` joins ``a`` and ``b`` through the latent ``u`` with the
    shortest latent-only paths to both.  None if ``c`` or ``t`` is not
    connected so."""
    latents = [u for u in range(len(g)) if not g._obs[u]]
    tree, seen = [], {min(c)}
    for members in (c, t):
        queue = sorted(seen)
        for a in queue:
            for b in sorted(members - seen):
                shared = [u for u in latents if a in paths[u] and b in paths[u]]
                if shared:
                    u = min(shared, key=lambda u: (len(paths[u][a]) + len(paths[u][b]), u))
                    seen.add(b)
                    tree.append((a, b, u))
                    queue.append(b)
        if seen != members:
            return None
    return tree


def _forest(paths, c: frozenset[int], t: frozenset[int]) -> dict[int, int] | None:
    """Each node's pick of a child reached along latent-only paths: a ``c``
    node picks one in ``c`` if it has one, every other node of ``t`` one in
    ``t`` a breadth-first step closer to ``c`` (None if there is none)."""
    pick = {v: min(paths[v].keys() & c) for v in c if paths[v].keys() & c}
    done, layer = set(c), set(c)
    while layer:
        closer = {v: min(paths[v].keys() & layer)
                  for v in t - done if paths[v].keys() & layer}
        pick.update(closer)
        done |= closer.keys()
        layer = closer.keys()
    return pick if done == t else None


def _parity_model(g: CausalGraph, carries: list[dict], ins: list[dict],
                  flip: list[float]) -> DiscreteModel:
    """Latent ``i`` packs the bits ``carries[i]`` (key -> the parent it
    copies, None for a fresh uniform bit) into a value of card 2^k;
    observable ``i`` is the parity of its in-bits ``ins[i]`` (key ->
    parent), flipped with probability ``flip[i]``.  Bit j of a value has
    weight 2^j."""
    cards = tuple(2 if g._obs[i] else 2 ** len(carries[i]) for i in range(len(g)))
    cpts = []
    for i, parents in enumerate(g._parents):
        grid = np.indices(tuple(cards[p] for p in parents), dtype=int)
        if g._obs[i]:
            bits = [(ins[i].items(), flip[i])]
        else:
            bits = [(() if p is None else [(key, p)], 0.5 if p is None else 0.0)
                    for key, p in carries[i].items()]
        table = np.ones(grid.shape[1:] + (1,))
        for sources, f in bits:
            parity = np.zeros(grid.shape[1:], dtype=int)
            for key, p in sources:
                pos = 0 if g._obs[p] else list(carries[p]).index(key)
                parity ^= (grid[parents.index(p)] >> pos) & 1
            one = np.where(parity == 1, 1.0 - f, f)
            table = np.stack([1.0 - one, one], axis=-1)[..., None] * table[..., None, :]
            table = table.reshape(grid.shape[1:] + (-1,))
        cpts.append(table)
    return DiscreteModel(graph=g, cards=cards, cpts=tuple(cpts))


def _parity_pair(g: CausalGraph, c_names: frozenset[str], t_names: frozenset[str],
                 t_vars: frozenset[str], s_vars: frozenset[str]):
    """The hedge parity models of the failing pair (c, t), lifted to s.

    In model A each tree edge's latent draws a fresh uniform bit for both
    ends, each node of t XORs its tree bits with the values of the nodes
    that pick it, and each forest root (a ``c`` node without a pick) sends
    its value along a shortest directed path into s that avoids the do-set
    and t; a path may end at a ``c`` node of s.  Every observable XORs its
    in-bits and flips with probability ``WITNESS_NOISE``.  Model B differs
    at the ``c`` nodes: they drop the bits from outside ``c`` and flip with
    the noise of the t nodes whose forest path enters ``c`` there.  Both
    give the same P(v), but under do(t_vars) the parity of the roots is
    uniform in model A only.  None if a piece cannot be built.
    """
    n = len(g)
    c = frozenset(g.index(v) for v in c_names)
    t = frozenset(g.index(v) for v in t_names)
    paths = [_latent_paths(g, i) for i in range(n)]
    tree = _spanning_tree(g, paths, c, t)
    pick = _forest(paths, c, t)
    if tree is None or pick is None:
        return None
    roots = c - pick.keys()
    targets = frozenset(g.index(v) for v in s_vars) - (t - c)
    blocked = t | {g.index(v) for v in t_vars}
    hop, queue = {}, sorted(targets)
    for v in queue:
        for p in g._parents[v]:
            if p not in hop and p not in targets and (p in roots or p not in blocked):
                hop[p] = v
                if p not in roots:
                    queue.append(p)
    if not roots - targets <= hop.keys():
        return None

    carries: list[dict] = [{} for _ in range(n)]
    ins: list[dict] = [{} for _ in range(n)]

    def route(path: list[int], key) -> None:
        # Latents copy the bit; an observable XORs it in and sends its value on.
        for p, q in zip(path, path[1:]):
            if g._obs[q]:
                ins[q].setdefault(key, p)
                key = ("value", q)
            else:
                carries[q].setdefault(key, p)

    for k, (a, b, u) in enumerate(tree):
        carries[u][("tree", k)] = None
        route(paths[u][a], ("tree", k))
        route(paths[u][b], ("tree", k))
    for v, child in pick.items():
        route(paths[v][child], ("value", v))
    for r in sorted(roots - targets):
        path = [r]
        while path[-1] not in targets:
            path.append(hop[path[-1]])
        route(path, ("value", r))

    outer = {("tree", k) for k in range(len(c) - 1, len(tree))} | {("value", w) for w in t - c}
    entering = dict.fromkeys(c, 0)
    for w in t - c:
        while w not in c:
            w = pick[w]
        entering[w] += 1
    ins_b, flip_b = list(ins), [WITNESS_NOISE] * n
    for v in c:
        ins_b[v] = {key: p for key, p in ins[v].items() if key not in outer}
        flip_b[v] = (1.0 - (1.0 - 2.0 * WITNESS_NOISE) ** (entering[v] + 1)) / 2.0
    return (_parity_model(g, carries, ins, [WITNESS_NOISE] * n),
            _parity_model(g, carries, ins_b, flip_b))


def _hedges(g: CausalGraph, c: frozenset[str], t: frozenset[str],
            t_vars: frozenset[str]):
    """The failing pair (c, t), then the smaller hedges (c', t') inside it:
    first those with c' = c and c ⊊ t' ⊊ t, smallest t' first, then those
    with c' ⊊ c and c' ⊊ t' ⊆ t, by the size of c' and then of t'.  Each
    t' meets the do-set, is the ancestral closure of c' in its own latent
    subgraph, and is one confounded component, as is c'."""
    yield c, t

    def grown(c2: frozenset[str], largest: int):
        extra = g.sorted_nodes(g._ancestors_within(c2, t) - c2)
        for k in range(1, min(largest, len(extra)) + 1):
            for more in itertools.combinations(extra, k):
                t2 = c2 | frozenset(more)
                if (t2 & t_vars and g._ancestors_within(c2, t2) == t2
                        and len(_observable_components(g, t2)) == 1):
                    yield c2, t2

    yield from grown(c, len(t - c) - 1)
    members = g.sorted_nodes(c)
    for k in range(1, len(members)):
        for sub in itertools.combinations(members, k):
            if len(_observable_components(g, frozenset(sub))) == 1:
                yield from grown(frozenset(sub), len(t) - k)


def witness_search(g: CausalGraph, t: Iterable[str], s: Iterable[str]) -> WitnessReport | None:
    """Certificate that P_t(s) is not identifiable: the pair of
    :func:`_parity_pair` on the failing (c, t) pair of :func:`causal_effect`
    or, where that pair cannot be built or fails the check, on the first of
    the smaller hedges inside it (:func:`_hedges`) that passes.  A pair passes if
    :func:`observational_joint` and :func:`intervened_array` show an
    observational gap <= 1e-9, a causal gap >= 1e-2 over s ∪ t, and
    positive observational joints.  None for an identifiable effect or when
    no hedge passes."""
    t_vars, s_vars = frozenset(t), frozenset(s)
    res, _ = _causal_effect_traced(t_vars, s_vars, g)
    if res.identifiable:
        return None
    c, t_fail = res.witness
    drop = tuple(ax for ax, n in enumerate(g.observable_names) if n not in t_vars | s_vars)
    evaluations = 0
    for c2, t2 in _hedges(g, c, t_fail, t_vars):
        pair = _parity_pair(g, c2, t2, t_vars, s_vars)
        if pair is None:
            continue
        evaluations += 1
        obs = [observational_joint(m).array for m in pair]
        causal = [intervened_array(m, t_vars).sum(axis=drop) for m in pair]
        obs_gap = float(np.max(np.abs(obs[0] - obs[1])))
        causal_gap = float(np.max(np.abs(causal[0] - causal[1])))
        if obs_gap <= 1e-9 and causal_gap >= 1e-2 and min(obs[0].min(), obs[1].min()) > 0.0:
            return WitnessReport(*pair, obs_gap, causal_gap, evaluations, pair=(c2, t2))
    return None
