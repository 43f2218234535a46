"""Average consensus's local solves against the per-agent loop.

With shared quadratic preferences, ``run_distributed(mode="average")``
prices every agent's local market with one water-filling sort. Its results
must equal ``oracles.local_solves``, one ``solve`` per agent, bit for bit:
price, allocation, residual, KKT violation and route, or the same
``ValidationError`` text when a local market is invalid. Graphs are random
connected graphs of 1..60 agents, plus a complete graph and a star whose
neighbour lists pass NumPy's 128-term pairwise block; many agents share a drop-out price m*b
with different m and b, and productions follow the satiation loads so
local capacities fall on both sides of their sum. Capacities are compared
with the kink demands five at a time here, so the blocks split. Runs are
derandomized. The averaging trace itself must equal
``oracles.metropolis_rounds``, the per-agent loop, bit for bit, signed
zeros included, with a ``tol`` early stop and with more rounds than the
estimates array first holds. Against exact ``Fraction`` iteration of the
same float weights, round r of the trace is within
r * (d_max + 2) * eps/2 * max|z0|.
"""

from __future__ import annotations

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teshape import (
    CommGraph,
    Custom,
    MarketInstance,
    PiecewiseLinear,
    PreferenceColumns,
    Quadratic,
    ValidationError,
    run_distributed,
    solve,
    solver,
)
from teshape.solver import solve_many

from oracles import local_solves, metropolis_rounds

DROP_OUTS = (3.0, 6.0, 12.0)  # shared drop-out prices of the tied agents


@st.composite
def markets(draw):
    """(production, b, m, edges, rounds) of a connected graph: a random
    spanning tree plus up to n extra edges. Values come from a generator
    seeded by the draw. An agent is tied with probability 1 - ``spread``:
    m is a decimal k/10 and b = P/m for a drop-out price P in ``DROP_OUTS``,
    so tied agents differ in m and 1/b and their sums depend on the order
    they are added in (m*b is P exactly for most m, an ulp off for the
    rest). The others draw b and m from a continuous range. About one agent
    in eight produces nothing."""
    n, spread = draw(st.integers(1, 60)), draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = [(int(rng.integers(i)), i) for i in range(1, n)]
    edges += [(i, j) for i, j in rng.integers(n, size=(int(rng.integers(n + 1)), 2)).tolist() if i != j]
    free = rng.random(n) < spread
    m = np.where(free, rng.uniform(0.1, 10.0, n), rng.integers(1, 100, n) / 10)
    b = np.where(free, rng.uniform(0.1, 10.0, n), rng.choice(DROP_OUTS, n) / m)
    production = m * rng.uniform(0.0, 2.0, n) * (rng.random(n) > 0.125)
    if not production.sum() > 0:
        production[0] = 1.0
    return production.tolist(), b.tolist(), m.tolist(), edges, draw(st.integers(0, 30))


def _bits(results) -> list:
    return [
        (r.lambda_star.hex(), [x.hex() for x in r.x_star], r.balance_residual.hex(), r.kkt_max_violation.hex(),
         r.method, r.e_star, r.degenerate)
        for r in results
    ]


def _outcome(solve_all) -> tuple:
    try:
        return ("results", _bits(solve_all()))
    except ValidationError as exc:
        return ("error", str(exc))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(markets())
@example(([3.0], [1.0], [2.0], [], 0))  # one agent
@example(([0.0, 2.0, 1.0], [1.0, 2.0, 4.0], [8.0, 4.0, 2.0], [(0, 1), (1, 2)], 0))  # a zero production, all drop-outs tied
@example(([9.0, 0.0, 0.0, 0.0], [1.0] * 4, [1.0] * 4, [(0, 1), (1, 2), (2, 3)], 1))  # capacity 0 after a round
@example(([4.0, -0.0, -0.0, 0.0, -0.0], [1.0] * 5, [2.0] * 5, [(1, 2), (1, 3), (1, 4), (0, 4)], 3))  # signed zeros
@example(([k % 7 + 0.5 for k in range(150)], [1.0] * 150, [2.0] * 150,  # neighbour lists past NumPy's 128-term
          [(i, j) for i in range(150) for j in range(i + 1, 150)], 3))  # pairwise block: a complete graph
@example(([k % 5 + 0.5 for k in range(140)], [1.0] * 140, [2.0] * 140, [(0, k) for k in range(1, 140)], 3))  # and a star
def test_batched_average_matches_per_agent_loop(case):
    production, b, m, edges, rounds = case
    n = len(production)
    preferences = PreferenceColumns(Quadratic, b, m)
    graph = CommGraph.from_edges(n, edges)
    expected = metropolis_rounds(production, edges, rounds)  # the averaging rounds of run_distributed
    z = expected[-1]
    runs = []

    def batched():
        runs.append(run_distributed(MarketInstance(production, preferences), graph, rounds, "average"))
        return runs[0].results

    with mock.patch.object(solver, "_LEVEL_BLOCK", 5):
        got = _outcome(batched)
    assert got == _outcome(lambda: local_solves(z, preferences))
    if runs:
        assert runs[0].trace.estimates.tobytes() == expected.tobytes()
        assert runs[0].trace.final_error == float(np.max(runs[0].trace.errors[-1]))


def test_zero_production_without_rounds_raises_as_the_loop_does():
    preferences = PreferenceColumns(Quadratic, [1.0, 2.0], [3.0, 4.0])
    production = np.array([0.0, 5.0])
    with pytest.raises(ValidationError) as loop:
        local_solves(production, preferences)
    assert "C > 0 required" in str(loop.value)
    with pytest.raises(ValidationError) as batched:
        run_distributed(MarketInstance(production, preferences), CommGraph.path(2), rounds=0, mode="average")
    assert str(batched.value) == str(loop.value)


def test_other_families_match_per_agent_loop():
    # PWL and mixed quadratic/Custom local markets stay on one solve per agent
    log = Custom(lambda x: 3.0 * np.log1p(x), lambda x: 3.0 / (1.0 + x))
    for preferences in (
        [PiecewiseLinear(1.0 + k % 3, 2.0 + k % 4) for k in range(9)],
        [Quadratic(1.0 + k % 3, 2.0 + k % 4) for k in range(8)] + [log],
    ):
        production = [float(k % 5) for k in range(9)]
        run = run_distributed(MarketInstance(production, preferences), CommGraph.ring(9), rounds=4, mode="average")
        expected = local_solves(run.trace.estimates[-1], MarketInstance(production, preferences).preferences)
        assert _bits(run.results) == _bits(expected)


@pytest.mark.parametrize("b, productions", [
    ([1.0, -2.0, 3.0], [[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]]),  # an invalid shared preference
    ([1.0, np.inf, 3.0], [[-1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]),  # and an invalid first production
    ([1.0, 2.0, 3.0], [[1.0, 2.0, 3.0], [1.0, np.nan, 0.0], [0.0, 0.0, 0.0]]),  # a later invalid production
])
def test_batched_validation_raises_as_the_loop_does(b, productions):
    # the shared preferences are checked with the first market only, production with every market
    preferences = PreferenceColumns(Quadratic, b, [2.0, 2.0, 2.0])
    instances = [MarketInstance(p, preferences) for p in productions]
    with pytest.raises(ValidationError) as loop:
        [solve(i) for i in instances]
    with pytest.raises(ValidationError) as batched:
        solve_many(instances)
    assert str(batched.value) == str(loop.value)


@pytest.mark.parametrize("rounds, tol", [(5000, 1e-3), (150, None)], ids=["tol-early-stop", "past-first-growth"])
def test_average_trace_matches_listed_rounds(rounds, tol):
    graph = CommGraph.ring(24)
    production = np.random.default_rng(1).uniform(0.0, 10.0, graph.n)
    preferences = PreferenceColumns(Quadratic, np.ones(graph.n), np.full(graph.n, 5.0))
    run = run_distributed(MarketInstance(production, preferences), graph, rounds, "average", tol=tol)
    expected = metropolis_rounds(production, graph.edges, rounds, tol)
    assert 100 < run.rounds_used == len(expected) - 1 < 2000
    assert run.trace.estimates.shape == expected.shape
    assert run.trace.estimates.tobytes() == expected.tobytes()


@st.composite
def connected_graphs(draw):
    """(production, edges, rounds): a random spanning tree of 1..12 agents
    plus up to 2n extra edges, productions spanning six decades, 0..20 rounds."""
    n = draw(st.integers(1, 12))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
        edges += draw(st.lists(pairs, max_size=2 * n))
    production = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    return production, edges, draw(st.integers(0, 20))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(connected_graphs())
@example(([1e3] + [1e-3] * 11, [(0, k) for k in range(1, 12)], 20))  # a star: one long neighbour list, pairwise-summed
def test_average_rounds_within_rounding_bound_of_exact_iteration(case):
    production, edges, rounds = case
    n = len(production)
    graph = CommGraph.from_edges(n, edges)
    starts, cols, w = graph.mixing_weights()
    preferences = PreferenceColumns(Quadratic, np.ones(n), np.full(n, 5.0))
    trace = run_distributed(MarketInstance(production, preferences), graph, rounds, "average").trace
    ends = [*starts[1:].tolist(), len(cols)]
    segments = [list(zip(cols[a:b].tolist(), map(Fraction, w[a:b].tolist()))) for a, b in zip(starts.tolist(), ends)]
    d_max = max(map(len, segments)) - 1
    z = [Fraction(x) for x in production]
    unit = Fraction(np.finfo(float).eps) / 2 * max(z)
    for r, row in enumerate(trace.estimates[1:].tolist(), start=1):
        z = [sum(x * z[v] for v, x in segment) for segment in segments]
        bound = r * (d_max + 2) * unit
        assert all(abs(Fraction(x) - exact) <= bound for x, exact in zip(row, z))
