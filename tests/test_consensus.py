from __future__ import annotations

import numpy as np
import pytest

from teshape import (
    CollectionError,
    CommGraph,
    DisconnectedGraph,
    MarketInstance,
    ModelKind,
    NotConverged,
    PiecewiseLinear,
    Quadratic,
    ValidationError,
    run_aggregator,
    run_distributed,
    solve,
)

from conftest import quartet_instance


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def test_mixing_weights_doubly_stochastic():
    star = CommGraph.from_edges(6, [(0, k) for k in range(1, 6)])
    for graph in (CommGraph.complete(5), CommGraph.ring(6), CommGraph.path(7), star):
        starts, cols, w = graph.mixing_weights()
        agents = np.repeat(np.arange(graph.n), np.diff(starts, append=len(cols)))
        assert np.array_equal(cols[starts], np.arange(graph.n))  # each segment opens with the agent itself
        real = np.ones(len(cols), dtype=bool)
        real[starts] = False
        weight = dict(zip(zip(agents[real].tolist(), cols[real].tolist()), w[real].tolist()))
        pairs = graph.edges.tolist()
        assert sorted(weight) == sorted({(i, j) for i, j in pairs} | {(j, i) for i, j in pairs})
        assert all(weight[v, u] == x for (u, v), x in weight.items())  # symmetric per edge
        assert np.all(w >= 0.0)
        assert np.all(np.abs(np.bincount(agents, w) - 1.0) <= 1e-15)


def test_disconnected_graph_rejected():
    graph = CommGraph.from_edges(4, [(0, 1), (2, 3)])
    assert not graph.is_connected()
    with pytest.raises(DisconnectedGraph):
        graph.mixing_weights()
    with pytest.raises(DisconnectedGraph):
        run_distributed(quartet_instance(), graph)


def test_adjacency_built_once_per_run(monkeypatch):
    calls = []
    original = CommGraph._adjacency
    monkeypatch.setattr(CommGraph, "_adjacency", lambda self: calls.append(1) or original(self))
    disconnected = CommGraph.from_edges(4, [(0, 1), (2, 3)])
    for mode in ("flood", "average"):
        run_distributed(quartet_instance(), CommGraph.path(4), rounds=3, mode=mode)
        assert len(calls) == 1
        with pytest.raises(DisconnectedGraph):
            run_distributed(quartet_instance(), disconnected, rounds=3, mode=mode)
        assert len(calls) == 2
        calls.clear()


def test_graph_validation():
    with pytest.raises(ValidationError, match="self-loop"):
        CommGraph.from_edges(3, [(0, 0)])
    with pytest.raises(ValidationError, match="out of range"):
        CommGraph.from_edges(3, [(0, 5)])
    with pytest.raises(ValidationError, match=r"^graph requires n >= 1$"):
        CommGraph.from_edges(0, [])
    with pytest.raises(ValidationError, match="unknown mode 'gossip'"):
        run_distributed(quartet_instance(), CommGraph.complete(4), mode="gossip")


@pytest.mark.parametrize("mode", ["flood", "average"])
def test_one_agent_ring_has_no_edges(mode):
    ring = CommGraph.ring(1)
    assert ring == CommGraph.path(1) and ring.edges.shape == (0, 2)
    inst = MarketInstance((3.0,), (Quadratic(1.0, 2.0),))
    run = run_distributed(inst, ring, rounds=5, mode=mode)
    assert run.rounds_used == (0 if mode == "flood" else 5)
    assert run.results == (solve(inst),) and run.trace.final_error == 0.0


def test_graph_file_round_trip(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text('{"n": 4, "edges": [[0,1],[1,2],[2,3],[3,0]]}')
    graph = CommGraph.load(str(path))
    assert graph.n == 4
    assert graph.edges.tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]


# ---------------------------------------------------------------------------
# Centralized aggregator
# ---------------------------------------------------------------------------


def test_aggregator_collects_and_broadcasts(quartet):
    result = run_aggregator(quartet)
    assert result.lambda_star == pytest.approx(1.765, abs=1e-3)


def test_aggregator_single_agent():
    inst = MarketInstance((3.0,), (Quadratic(1.0, 2.0),))
    assert run_aggregator(inst).x_star == (3.0,)  # the one agent consumes all production


def test_aggregator_names_bad_agent():
    inst = MarketInstance(
        production=(1.0, 1.0, 1.0),
        preferences=(Quadratic(1, 1), Quadratic(-2.0, 1), Quadratic(1, 1)),
    )
    with pytest.raises(CollectionError) as exc_info:
        run_aggregator(inst)
    assert exc_info.value.agent == 1


# ---------------------------------------------------------------------------
# Distributed modes
# ---------------------------------------------------------------------------


def test_flooding_agrees_bitwise_with_aggregator(quartet):
    central = run_aggregator(quartet)
    run = run_distributed(quartet, CommGraph.complete(4), mode="flood")
    assert run.rounds_used == 1  # complete graph floods in one round
    for result in run.results:
        assert result.lambda_star == central.lambda_star  # bit-identical
        assert result.x_star == central.x_star
    assert run.trace.final_error == 0.0


def test_flooding_on_sparse_graph(quartet):
    run = run_distributed(quartet, CommGraph.path(4), mode="flood")
    assert run.rounds_used == 3  # path diameter
    prices = {r.lambda_star for r in run.results}
    assert len(prices) == 1


def test_uniform_production_converges_immediately():
    inst = MarketInstance(
        production=tuple([5.0] * 10),
        preferences=tuple([Quadratic(1.0, 7.0)] * 10),
    )
    run = run_distributed(inst, CommGraph.ring(10), rounds=1, mode="average")
    assert run.trace.final_error == 0.0


def test_average_mode_tracks_centralized_price():
    rng = np.random.default_rng(61)
    n = 10
    a = rng.uniform(0.0, 10.0, size=n)
    b = rng.uniform(0.5, 10.0, size=n)
    m = rng.uniform(0.5, 10.0, size=n)
    inst = MarketInstance(
        production=tuple(float(v) for v in a),
        preferences=tuple(Quadratic(float(bi), float(mi)) for bi, mi in zip(b, m)),
    )
    central = solve(inst)
    # run past the stated error level: the price gap scales with the
    # capacity-estimate error times the demand slope, so leave headroom
    run = run_distributed(
        inst, CommGraph.path(n), rounds=20_000, mode="average", tol=1e-9 * inst.capacity
    )
    assert run.trace.final_error <= 1e-8 * inst.capacity
    for result in run.results:
        assert abs(result.lambda_star - central.lambda_star) <= 1e-6


def test_average_mode_error_contracts_per_round():
    inst = quartet_instance()
    run = run_distributed(inst, CommGraph.ring(4), rounds=60, mode="average")
    errors = run.trace.errors.max(axis=1)
    for prev, cur in zip(errors, errors[1:]):
        assert cur <= prev + 1e-15


def test_not_converged_raised():
    inst = quartet_instance()
    with pytest.raises(NotConverged):
        run_distributed(inst, CommGraph.path(4), rounds=1, mode="average", tol=1e-12)


def test_graph_size_must_match(quartet):
    with pytest.raises(ValidationError, match="graph has"):
        run_distributed(quartet, CommGraph.complete(5))


def test_homogenized_mode_for_quadratic():
    rng = np.random.default_rng(67)
    n = 6
    inst = MarketInstance(
        production=tuple(float(v) for v in rng.uniform(1, 10, n)),
        preferences=tuple(
            Quadratic(float(bv), float(mv))
            for bv, mv in zip(rng.uniform(1, 5, n), rng.uniform(1, 5, n))
        ),
    )
    run = run_distributed(
        inst, CommGraph.complete(n), rounds=400, mode="average", tol=1e-10, homogenize=True
    )
    b_mean, m_mean = (float(np.mean(column)) for column in inst.preferences.columns)
    share = inst.capacity / n
    expect = b_mean * (m_mean - share)
    for result in run.results:
        assert result.lambda_star == pytest.approx(expect, abs=1e-6)


def test_homogenized_mode_rejects_pwl():
    inst = MarketInstance(
        production=(1.0, 1.0),
        preferences=(PiecewiseLinear(1, 1), PiecewiseLinear(2, 1)),
    )
    with pytest.raises(ValidationError, match="quadratic"):
        run_distributed(inst, CommGraph.complete(2), rounds=5, mode="average", homogenize=True)


def test_trace_csv_export(tmp_path, quartet):
    run = run_distributed(quartet, CommGraph.complete(4), mode="flood")
    out = tmp_path / "trace.csv"
    run.trace.to_csv(str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "round,agent,estimate,error"
    assert len(lines) == 1 + (run.rounds_used + 1) * 4
    assert lines[1] == "0,0,5.0,0.0"  # plain decimal cells, round-trippable
    final_rows = lines[-4:]
    assert all(row.endswith(",5.0,0.0") for row in final_rows)  # all at C/n = 5


def test_error_contracts_geometrically_on_path():
    rng = np.random.default_rng(71)
    inst = MarketInstance(
        production=tuple(float(v) for v in rng.uniform(0, 10, 8)),
        preferences=tuple([Quadratic(1.0, 5.0)] * 8),
    )
    run = run_distributed(inst, CommGraph.path(8), rounds=200, mode="average")
    errors = run.trace.errors.max(axis=1)
    ratios = [b / a for a, b in zip(errors, errors[1:]) if a > 1e-12]
    assert ratios and max(ratios) < 1.0


def test_trading_instance_flood(quartet):
    st = MarketInstance(quartet.production, quartet.preferences, ModelKind.MTES_ST)
    central = solve(st)
    run = run_distributed(st, CommGraph.complete(4), mode="flood")
    for result in run.results:
        assert result.lambda_star == central.lambda_star
        assert result.e_star == central.e_star
