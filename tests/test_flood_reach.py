"""Flooding against the set-union reference on random graphs.

* estimates equal ``oracles.flood_by_set_union`` bit for bit;
* the rounds used equal the largest BFS distance;
* disconnected graphs raise ``DisconnectedGraph`` from ``run_distributed``;
* ``CommGraph.edges`` is the read-only array of a set of sorted pairs, and
  ``is_connected`` and ``mixing_weights`` agree with the BFS on
  connectivity; graphs compare by value, are unhashable and pickle.

Graphs hold 1..12 nodes, tied degrees included; runs are derandomized.
Fixed larger graphs add rows longer than NumPy's 128-element pairwise
block (a ring) and rounds whose agents hold many different counts (a path,
a star and a random tree), with productions spanning six decades.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teshape import CommGraph, DisconnectedGraph, MarketInstance, PreferenceColumns, Quadratic, run_distributed

from oracles import bfs_diameter, flood_by_set_union

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def graphs(draw):
    """(production, edges): n = 1..12, edges drawn from all pairs, so the
    graph may be disconnected; duplicates and both orientations occur."""
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=3 * n)) if n > 1 else []
    production = draw(st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n))
    if not sum(production) > 0:
        production[0] = 1.0
    return production, edges


def _instance(production) -> MarketInstance:
    n = len(production)
    return MarketInstance(production, PreferenceColumns(Quadratic, np.ones(n), np.full(n, 5.0)))


@SETTINGS
@given(graphs())
@example(([3.0], []))  # one agent
@example(([1.0, 2.0], [(0, 1)]))  # one edge
@example(([1.0, 2.0], []))  # two isolated agents
@example(([0.1, 0.2, 0.3, 0.4, 0.5], [(0, k) for k in range(1, 5)]))  # star: tied leaf degrees
@example(([1.0, 0.0, 2.0, 7.0], [(0, 1), (2, 3)]))  # two components
@example(([-0.0, 2.0, 1.0], [(0, 1), (1, 2)]))  # a signed zero stays signed in round 0
def test_flood_matches_set_union_reference(case):
    production, edges = case
    graph = CommGraph.from_edges(len(production), edges)
    diameter = bfs_diameter(graph.n, graph.edges)
    if diameter is None:
        with pytest.raises(DisconnectedGraph, match="graph is not connected"):
            run_distributed(_instance(production), graph, mode="flood")
        return
    run = run_distributed(_instance(production), graph, mode="flood")
    assert run.rounds_used == diameter
    reference = flood_by_set_union(np.asarray(production, dtype=float), graph.edges)
    assert run.trace.estimates.shape == reference.shape
    assert run.trace.estimates.tobytes() == reference.tobytes()


@SETTINGS
@given(graphs())
@example(([1.0, 2.0, 3.0], [(2, 0), (0, 2), (1, 0), (0, 1), (2, 0)]))  # duplicates in both orientations
def test_graph_arrays_match_set_of_pairs(case):
    production, edges = case
    n = len(production)
    graph = CommGraph.from_edges(n, edges)
    expected = sorted({(min(i, j), max(i, j)) for i, j in edges})
    assert graph.edges.dtype == np.intp and graph.edges.shape == (len(expected), 2)
    assert graph.edges.tolist() == [list(pair) for pair in expected]
    with pytest.raises(ValueError):
        graph.edges[:1] = 0
    connected = bfs_diameter(n, edges) is not None
    assert graph.is_connected() is connected
    if connected:
        graph.mixing_weights()
    else:
        with pytest.raises(DisconnectedGraph, match="graph is not connected"):
            graph.mixing_weights()
    assert graph == CommGraph.from_edges(n, expected[::-1]) and graph != CommGraph.from_edges(n + 1, edges)
    with pytest.raises(TypeError):
        hash(graph)
    copy = pickle.loads(pickle.dumps(graph))
    assert copy == graph


def _tree(n: int, seed: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    return [(int(rng.integers(i)), i) for i in range(1, n)]  # node i hangs off an earlier node


LARGE_GRAPHS = {  # name: (n, edges)
    "ring-260": (260, [(i, (i + 1) % 260) for i in range(260)]),
    "path-150": (150, [(i, i + 1) for i in range(149)]),
    "star-140": (140, [(0, k) for k in range(1, 140)]),
    "tree-150": (150, _tree(150, 7)),
}


@pytest.mark.parametrize("name", LARGE_GRAPHS)
def test_flood_matches_set_union_reference_on_large_graphs(name):
    n, edges = LARGE_GRAPHS[name]
    graph = CommGraph.from_edges(n, edges)
    production = 10.0 ** np.random.default_rng(n).uniform(-3.0, 3.0, n)
    run = run_distributed(_instance(production), graph, mode="flood")
    assert run.rounds_used == bfs_diameter(n, graph.edges)
    reference = flood_by_set_union(production, graph.edges)
    assert run.trace.estimates.shape == reference.shape
    assert run.trace.estimates.tobytes() == reference.tobytes()
