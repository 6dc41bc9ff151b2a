"""Shared fixture graphs and random-structure helpers."""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from causalid.expr import evaluate_grid
from causalid.graph import CausalGraph

# The benchmark's seeded generators (bench/gen.py) and query pools
# (bench/workloads.py) serve as test inputs too.
BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.append(str(BENCH))


@pytest.fixture
def g_chain():
    # X -> Z -> Y, fully observed
    return CausalGraph.build(observed=["X", "Z", "Y"], edges=[("X", "Z"), ("Z", "Y")])


@pytest.fixture
def g_collider():
    # X -> Z <- Y
    return CausalGraph.build(observed=["X", "Y", "Z"], edges=[("X", "Z"), ("Y", "Z")])


@pytest.fixture
def g_backdoor():
    # Z -> X, Z -> Y, X -> Y
    return CausalGraph.build(
        observed=["Z", "X", "Y"], edges=[("Z", "X"), ("Z", "Y"), ("X", "Y")]
    )


@pytest.fixture
def g_frontdoor():
    # X -> Z -> Y with latent U -> X, U -> Y
    return CausalGraph.build(
        observed=["X", "Z", "Y"],
        latent=["U"],
        edges=[("X", "Z"), ("Z", "Y"), ("U", "X"), ("U", "Y")],
    )


@pytest.fixture
def g_bow():
    # X -> Y with latent U -> X, U -> Y
    return CausalGraph.build(
        observed=["X", "Y"], latent=["U"], edges=[("X", "Y"), ("U", "X"), ("U", "Y")]
    )


def random_dag(rng: np.random.Generator, n_obs: int, n_lat: int, p_edge: float = 0.4) -> CausalGraph:
    """Random DAG: edges only from lower to higher node index, so the
    declaration order is already topological."""
    names = [f"N{i}" for i in range(n_obs)] + [f"U{i}" for i in range(n_lat)]
    observable = [True] * n_obs + [False] * n_lat
    order = rng.permutation(len(names))
    edges = []
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            if rng.random() < p_edge:
                edges.append((names[order[a]], names[order[b]]))
    return CausalGraph(list(zip(names, observable)), edges)


def scoped_sweep(seed: int, graphs: int = 40):
    """``(g, scope)`` for every nonempty observable scope of seeded random
    DAGs with four latents, so that latent chains occur."""
    rng = np.random.default_rng(seed)
    for _ in range(graphs):
        g = random_dag(rng, n_obs=5, n_lat=4, p_edge=0.35)
        obs = g.observable_names
        for r in range(1, len(obs) + 1):
            yield from ((g, scope) for scope in itertools.combinations(obs, r))


def grid_value(e, joint, a):
    """The entry of :func:`evaluate_grid` at assignment ``a``, on the grid of
    the variables ``a`` assigns."""
    free = sorted(a)
    return float(evaluate_grid(e, joint, free)[tuple(a[v] for v in free)])
