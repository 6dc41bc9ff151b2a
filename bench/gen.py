"""Seeded input generators for the benchmark.

Every generator takes a ``numpy.random.Generator`` and returns plain data,
so that inputs do not depend on the code under test: the same seed always
gives the same graphs, do-sets and outcome sets.  Graphs reach the program
only as ``.cg`` text files, written by :func:`write_cg`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Graph:
    nodes: tuple[tuple[str, bool], ...]  # (name, observable), declaration order
    edges: tuple[tuple[str, str], ...]

    @property
    def observables(self) -> list[str]:
        return [n for n, obs in self.nodes if obs]

    def text(self) -> str:
        lines = [f"node {n} {'obs' if obs else 'lat'}" for n, obs in self.nodes]
        lines += [f"edge {p} {c}" for p, c in self.edges]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Query:
    """One P_t(s) query over a graph file."""

    qid: str
    graph: Graph
    do: tuple[str, ...]
    on: tuple[str, ...]


CORPUS_SIZES = [(n_obs, n_lat) for n_lat in range(4) for n_obs in range(2, 6)]


def corpus_dag(rng: np.random.Generator, n_obs: int, n_lat: int) -> Graph:
    """A graph of the acceptance-corpus distribution with ``n_obs``
    observables and ``n_lat`` latents: random edge density, edges from
    lower to higher position of a random permutation."""
    p_edge = float(rng.uniform(0.15, 0.7))
    names = [f"N{i}" for i in range(n_obs)] + [f"U{i}" for i in range(n_lat)]
    observable = [True] * n_obs + [False] * n_lat
    order = rng.permutation(len(names))
    edges = []
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            if rng.random() < p_edge:
                edges.append((names[order[a]], names[order[b]]))
    return Graph(tuple(zip(names, observable)), tuple(edges))


def corpus_query(rng: np.random.Generator, qid: str, size: tuple[int, int]) -> Query:
    """A corpus graph of the given (observables, latents) size with the
    acceptance suite's query draw: a random do-set, and an outcome set that
    half the time leaves some observables unmentioned.

    The acceptance suite draws both sizes uniformly (2-5 observables, 0-3
    latents); the pools cycle through :data:`CORPUS_SIZES` instead, which
    gives the same distribution with the same mix of sizes in every seed.
    """
    g = corpus_dag(rng, *size)
    obs = g.observables
    rng.shuffle(obs)
    n_t = int(rng.integers(1, len(obs)))
    n_s = len(obs) - n_t
    if n_s > 1 and rng.random() < 0.5:
        n_s = int(rng.integers(1, n_s + 1))
    return Query(qid, g, tuple(sorted(obs[:n_t])), tuple(sorted(obs[n_t:n_t + n_s])))


def bow_query(qid: str) -> Query:
    g = Graph((("X", True), ("Y", True), ("U", False)),
              (("X", "Y"), ("U", "X"), ("U", "Y")))
    return Query(qid, g, ("X",), ("Y",))


def sparse_latent_dag(rng: np.random.Generator, n_obs: int, window: int,
                      latent_children: int) -> Graph:
    """A sparse latent DAG: observables ``V0..`` in topological order, each
    with one observed parent among the ``window`` nodes before it, plus
    ``n_obs // 4`` latent roots with ``latent_children`` observable
    children each."""
    obs = [f"V{i}" for i in range(n_obs)]
    lat = [f"L{i}" for i in range(max(1, n_obs // 4))]
    edges = set()
    for j in range(1, n_obs):
        edges.add((obs[int(rng.integers(max(0, j - window), j))], obs[j]))
    for u in lat:
        for c in rng.choice(n_obs, size=latent_children, replace=False):
            edges.add((u, obs[int(c)]))
    nodes = [(o, True) for o in obs] + [(u, False) for u in lat]
    return Graph(tuple(nodes), tuple(sorted(edges)))


def outcome_ancestry(g: Graph, do: tuple[str, ...], on: tuple[str, ...]) -> tuple[int, int]:
    """(observables, latents): the observable ancestors of ``on`` (itself
    included) reached without passing through ``do``, and the latents with
    a child among them."""
    parents: dict[str, list[str]] = {n: [] for n, _ in g.nodes}
    for p, c in g.edges:
        parents[c].append(p)
    observable = dict(g.nodes)
    seen: set[str] = set()
    todo = list(on)
    while todo:
        v = todo.pop()
        if v in seen or v in do:
            continue
        seen.add(v)
        todo.extend(parents[v])
    obs = {v for v in seen if observable[v]}
    lat = {p for v in obs for p in parents[v] if not observable[p]}
    return len(obs), len(lat)


def scale_query(rng: np.random.Generator, qid: str, n_obs: int, window: int,
                latent_children: int, stratum: tuple[int, int]) -> Query:
    """A sparse latent DAG with one treatment in the first half of the
    topological order and one outcome in the second half, redrawn until
    the outcome's ancestry (see :func:`outcome_ancestry`) equals
    ``stratum``.

    Query cost grows steeply with that ancestry, so fixing the mix of
    strata gives every seed the same mix of query difficulty.
    """
    while True:
        g = sparse_latent_dag(rng, n_obs, window, latent_children)
        do = (f"V{int(rng.integers(0, n_obs // 2))}",)
        on = (f"V{int(rng.integers(n_obs // 2, n_obs))}",)
        if outcome_ancestry(g, do, on) == tuple(stratum):
            return Query(qid, g, do, on)


def write_cg(q: Query, directory: Path) -> Path:
    path = directory / f"{q.qid}.cg"
    path.write_text(q.graph.text())
    return path
