"""Average consensus's local markets against the per-market loop.

The local markets differ only in capacity. ``solve_many(preferences,
shares)`` clears those of shared quadratic preferences with one
water-filling sort; it must equal ``oracles.local_solves``, one ``solve``
per market, bit for bit: price, allocation, residual, KKT violation and
route, or the same exception text from the first market that fails (a
ValidationError, also for a capacity that overflows to inf or lies within
n*eps of the float limit, with warnings raised as errors or ignored). PWL and mixed preferences take the loop
itself. ``run_distributed(mode="average")`` must equal the loop at the
shares ``n * z / n`` of the last averaging round z, except that an agent
whose estimate is not positive ends the run with EstimateNotPositive.
Graphs are random connected graphs of 1..60 agents, plus a complete graph
and a star whose neighbour lists pass NumPy's 128-term pairwise block; many
agents share a drop-out price m*b with different m and b, and productions
follow the satiation loads so local capacities fall on both sides of their
sum. Capacities are compared with the kink demands five at a time here, so
the blocks split. Runs are derandomized. The averaging trace itself must
equal ``oracles.metropolis_rounds``, the per-agent loop, bit for bit,
signed zeros included, with a ``tol`` early stop and with more rounds than
the estimates array first holds. Against exact ``Fraction`` iteration of
the same float weights, round r of the trace is within
r * (d_max + 2) * eps/2 * max|z0|.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teshape import (
    CommGraph,
    Custom,
    EstimateNotPositive,
    MarketInstance,
    PiecewiseLinear,
    PreferenceColumns,
    Quadratic,
    SolverError,
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
    except (ValidationError, SolverError, EstimateNotPositive, RuntimeWarning) as exc:  # warnings raised as errors
        return (type(exc).__name__, str(exc))


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
    shares = z * n / n
    runs = []

    def batched():
        runs.append(run_distributed(MarketInstance(production, preferences), graph, rounds, "average"))
        return runs[0].results

    with mock.patch.object(solver, "_LEVEL_BLOCK", 5):
        got = _outcome(batched)
    if (shares > 0).all():
        assert got == _outcome(lambda: local_solves(preferences, shares))
    else:  # a zero estimate, which the loop would refuse as "C > 0 required", is a consensus failure
        i = int(np.argmin(shares > 0))
        assert got == ("EstimateNotPositive",
                       f"agent {i}: capacity estimate {z[i] * n:.3e} not positive after {rounds} rounds")
    if runs:
        assert runs[0].trace.estimates.tobytes() == expected.tobytes()
        assert runs[0].trace.final_error == float(np.max(runs[0].trace.errors[-1]))


def test_zero_production_without_rounds_raises_as_the_loop_does():
    # solve_many refuses the zero share as the loop does; run_distributed names the agent as a consensus failure
    preferences = PreferenceColumns(Quadratic, [1.0, 2.0], [3.0, 4.0])
    production = np.array([0.0, 5.0])
    with pytest.raises(ValidationError) as loop:
        local_solves(preferences, production)
    assert "C > 0 required" in str(loop.value)
    with pytest.raises(ValidationError) as batched:
        solve_many(preferences, production)
    assert str(batched.value) == str(loop.value)
    with pytest.raises(EstimateNotPositive, match=r"^agent 0: capacity estimate 0\.000e\+00 not positive after 0 rounds$"):
        run_distributed(MarketInstance(production, preferences), CommGraph.path(2), rounds=0, mode="average")


def test_other_families_match_per_agent_loop():
    # PWL and mixed quadratic/Custom local markets stay on one solve per agent
    log = Custom(lambda x: 3.0 * np.log1p(x), lambda x: 3.0 / (1.0 + x))
    for preferences in (
        [PiecewiseLinear(1.0 + k % 3, 2.0 + k % 4) for k in range(9)],
        [Quadratic(1.0 + k % 3, 2.0 + k % 4) for k in range(8)] + [log],
    ):
        production = [float(k % 5) for k in range(9)]
        run = run_distributed(MarketInstance(production, preferences), CommGraph.ring(9), rounds=4, mode="average")
        z = run.trace.estimates[-1]
        expected = local_solves(MarketInstance(production, preferences).preferences, z * len(z) / len(z))
        assert _bits(run.results) == _bits(expected)


@pytest.mark.parametrize("b, shares", [
    ([1.0, -2.0, 3.0], [2.0, 0.5]),  # an invalid shared preference
    ([1.0, np.inf, 3.0], [-1.0, 0.0]),  # and an invalid first share
    ([1.0, 2.0, 3.0], [2.0, np.nan, 0.0]),  # a later invalid share
], ids=["invalid-preference", "invalid-first-share", "later-invalid-share"])
def test_batched_validation_raises_as_the_loop_does(b, shares):
    # the first market the loop refuses is the one solve_many reports
    preferences = PreferenceColumns(Quadratic, b, [2.0, 2.0, 2.0])
    with pytest.raises(ValidationError) as loop:
        local_solves(preferences, shares)
    with pytest.raises(ValidationError) as batched:
        solve_many(preferences, shares)
    assert str(batched.value) == str(loop.value)


@st.composite
def share_calls(draw):
    """(b, m, shares): the tied and free agents of ``markets``, with up to 90
    shares that fall on both sides of the satiation total per agent."""
    _, b, m, _, _ = draw(markets())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shares = rng.uniform(0.0, 2.0, draw(st.integers(0, 90))) * float(np.mean(m))
    return b, m, shares[shares > 0]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(share_calls())
@example(([1.0, 2.0, 4.0], [8.0, 4.0, 2.0], np.array([1.0, 14.0 / 3.0, 5.0])))  # all drop-outs tied at 8
def test_solve_many_matches_per_market_loop(call):
    b, m, shares = call
    preferences = PreferenceColumns(Quadratic, b, m)
    with mock.patch.object(solver, "_LEVEL_BLOCK", 5):
        got = _outcome(lambda: solve_many(preferences, shares))
    assert got == _outcome(lambda: local_solves(preferences, shares))


LOG = Custom(lambda x: 3.0 * np.log1p(x), lambda x: 3.0 / (1.0 + x))


@pytest.mark.parametrize("preferences, shares", [
    ([Quadratic(1.0 + k % 3, 2.0 + k % 4) for k in range(6)], [0.5, 2.0, 0.0, 4.0]),  # a zero share after two
    ([Quadratic(1.0 + k % 3, 2.0 + k % 4) for k in range(6)], [0.5, 1e308, 2.0]),  # a capacity that overflows
    ([Quadratic(1.0 + k % 3, 2.0 + k % 4) for k in range(6)], [0.5, np.finfo(float).max / 6, 2.0]),  # within n*eps
    ([PiecewiseLinear(1.0 + k % 3, 2.0 + k % 4) for k in range(7)], [0.25, 1.5, 3.0, 6.0]),  # the loop path
    ([Quadratic(1.0 + k % 3, 2.0 + k % 4) for k in range(5)] + [LOG], [0.25, 1.5, 3.0, 6.0]),
    ([PiecewiseLinear(1.0, 2.0)] * 3, [1.0, 0.0, 2.0]),
    ([Quadratic(2.0, 3.0) for _ in range(4)], []),
], ids=["zero-share", "overflow", "near-limit", "pwl", "mixed", "pwl-zero-share", "no-markets"])
def test_solve_many_raises_and_routes_as_the_loop_does(preferences, shares):
    assert _outcome(lambda: solve_many(preferences, shares)) == _outcome(lambda: local_solves(preferences, shares))
    with warnings.catch_warnings():  # no warning decides the outcome
        warnings.simplefilter("ignore", RuntimeWarning)
        assert _outcome(lambda: solve_many(preferences, shares)) == _outcome(lambda: local_solves(preferences, shares))


def test_equal_preference_objects_clear_as_one_stack():
    # equal but distinct objects are one column layout: one market built, no solve per market
    objects = [Quadratic(1.0 + k % 3, 2.0 + k % 4) for k in range(8)]
    shares = np.linspace(0.5, 4.0, 12)
    expected = _bits(local_solves(PreferenceColumns.of(objects), shares))
    built = mock.Mock(wraps=MarketInstance)
    with mock.patch.object(solver, "MarketInstance", built), mock.patch.object(solver, "solve") as loop:
        got = _bits(solve_many([Quadratic(o.b, o.m) for o in objects], shares))
    assert got == expected
    assert built.call_count == 1 and loop.call_count == 0


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
