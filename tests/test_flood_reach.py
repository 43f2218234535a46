"""Flooding against the set-union reference on random graphs.

* estimates equal ``oracles.flood_by_set_union`` bit for bit;
* the rounds used equal the largest BFS distance;
* disconnected graphs raise ``DisconnectedGraph`` from ``run_distributed``,
  and ``teshape consensus`` exits 3 with one stderr line;
* round 0's reach table, each agent's own bit written into zeroed words,
  equals ``oracles.packed_identity``, the packed identity rows;
* a run's ``rounds_used`` and ``final_error`` are known before its trace's
  estimates are built, equal the built trace's bit for bit, and a flood run
  that reads only them builds no per-round estimates;
* ``CommGraph.edges`` is the read-only array of a set of sorted pairs, and
  ``is_connected`` and ``mixing_weights`` agree with the BFS on
  connectivity; graphs compare by value, are unhashable and pickle.

Graphs hold 1..12 nodes, tied degrees included; runs are derandomized.
Fixed larger graphs add rows longer than NumPy's 128-element pairwise
block (a ring) and rounds whose agents hold many different counts (a path,
a star and a random tree), with productions spanning six decades.
"""

from __future__ import annotations

import json
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teshape import CommGraph, DisconnectedGraph, MarketInstance, PreferenceColumns, Quadratic, consensus, run_distributed
from teshape.cli import main

from oracles import bfs_diameter, flood_by_set_union, packed_identity

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


def _connected_random(n: int, seed: int) -> list[tuple[int, int]]:
    """A seeded random tree plus n random extra edges, self-loops skipped."""
    rng = np.random.default_rng(seed)
    extra = [(int(i), int(j)) for i, j in rng.integers(0, n, (n, 2)) if i != j]
    return _tree(n, seed) + extra


SHAPES = {  # name: n -> edges, each connected
    "ring": lambda n: [(i, (i + 1) % n) for i in range(n if n > 1 else 0)],
    "path": lambda n: [(i, i + 1) for i in range(n - 1)],
    "star": lambda n: [(0, k) for k in range(1, n)],
    "complete": lambda n: [(i, j) for i in range(n) for j in range(i + 1, n)],
    "random": lambda n: _connected_random(n, n),
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 63, 64, 65, 129])
def test_final_error_known_before_estimates(n, shape):
    # rows of 63..65 and 129 agents straddle a 64-bit reach word and NumPy's 128-element pairwise block
    graph = CommGraph.from_edges(n, SHAPES[shape](n))
    production = 10.0 ** np.random.default_rng(n).uniform(-3.0, 3.0, n)
    run = run_distributed(_instance(production), graph, mode="flood")
    rounds, final_error = run.rounds_used, run.trace.final_error
    assert "estimates" not in vars(run.trace)  # nothing above built the per-round estimates
    estimates = run.trace.estimates
    assert rounds == run.trace.rounds == len(estimates) - 1 == bfs_diameter(n, graph.edges)
    assert final_error.hex() == float(np.max(np.abs(estimates[-1] - run.trace.target))).hex()
    assert estimates.tobytes() == flood_by_set_union(production, graph.edges).tobytes()


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 129])
def test_round_zero_reach_is_packed_identity(n):
    # n = 7..9 straddle a byte of the packed row, 63..65 and 129 a 64-bit word
    reach = next(consensus._reach_rounds(n, *CommGraph.ring(n)._adjacency()[:2]))
    expected = packed_identity(n)
    assert (reach.dtype, reach.shape) == (expected.dtype, expected.shape) == (np.uint64, (-(-n // 64), n))
    assert np.array_equal(reach, expected)


def test_flood_run_builds_no_trace():
    n = 1000
    instance, graph = _instance(np.linspace(1.0, 9.0, n)), CommGraph.ring(n)
    tracemalloc.start()
    try:
        run = run_distributed(instance, graph, mode="flood")
        assert run.rounds_used == n // 2 and run.trace.final_error < 1e-12
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # the 500 rounds' per-agent means alone would take 4 MB


DISCONNECTED = {  # name: (n, edges)
    "isolated agent": (4, [(0, 1), (1, 2)]),
    "two components": (4, [(0, 1), (2, 3)]),
}


@pytest.mark.parametrize("name", DISCONNECTED)
def test_disconnected_flood_raises_before_any_trace(name, tmp_path, capsys):
    n, edges = DISCONNECTED[name]
    with pytest.raises(DisconnectedGraph, match="graph is not connected"):
        run_distributed(_instance([1.0, 2.0, 3.0, 4.0]), CommGraph.from_edges(n, edges), mode="flood")
    market, graph = tmp_path / "market.json", tmp_path / "graph.json"
    market.write_text(json.dumps({"agents": [{"a": a, "utility": {"kind": "quadratic", "b": 1, "m": 5}}
                                             for a in (1, 2, 3, 4)]}))
    graph.write_text(json.dumps({"n": n, "edges": edges}))
    code = main(["consensus", str(market), "--graph", str(graph), "--mode", "flood"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (3, "", "consensus failure: graph is not connected\n")
