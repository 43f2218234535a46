"""Average consensus's local markets against the per-market loop.

The local markets differ only in capacity. ``solve_many(preferences,
shares, capacity)`` clears those of shared quadratic preferences, at the
capacities ``local_capacities`` sums and finds in range, with one
water-filling sort; it must equal ``oracles.local_solves``, one ``solve``
per market, bit for bit: price, allocation, residual, KKT violation and
route, or the same exception text from the first market that fails (a
ValidationError of the shared preferences). PWL and mixed preferences take
the loop itself, errors included. ``run_distributed(mode="average")`` must
equal the loop at the shares ``n * z / n`` of the last averaging round z,
except that the first agent, in index order, whose capacity is not positive
or passes ``max_capacity(n)`` (overflowing to inf or not, with warnings
raised as errors) ends the run with EstimateOutOfRange.
Graphs are random connected graphs of 1..60 agents, plus a complete graph
and a star whose neighbour lists pass NumPy's 128-term pairwise block; many
agents share a drop-out price m*b with different m and b, and productions
follow the satiation loads so local capacities fall on both sides of their
sum. Runs are derandomized. The averaging trace itself must equal
``oracles.metropolis_rounds``, the per-agent loop, bit for bit, signed zeros
included, with and without a ``tol`` early stop. Against exact ``Fraction``
iteration of the same float weights, round r of the trace is within
r * (d_max + 2) * eps/2 * max|z0|.

Float kink demands need not fall as the drop-out prices rise, and drop-out
prices or sums of m past the float limit make NaN ones. The water-filling takes each
capacity's crossing kink from their running minimum; its prices must equal
``oracles.full_sort_quadratic``'s, whose kink is the old rule
``oracles.first_kink_at_or_below`` (every kink compared, np.argmax), bit for
bit: at every kink demand and its 1-ulp neighbours of the tied markets
above, and on hand-made kinks that rise, tie, hold a NaN first or between
two finite ones, or lie above the capacity but for a NaN.
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
    EstimateOutOfRange,
    MarketInstance,
    PiecewiseLinear,
    PreferenceColumns,
    Quadratic,
    SolverError,
    ValidationError,
    run_distributed,
    solve,
    solver,
    validate_instance,
)
from teshape.solver import local_capacities, solve_many

from oracles import full_sort_kinks, full_sort_quadratic, local_solves, metropolis_rounds

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
    except (ValidationError, SolverError, EstimateOutOfRange, RuntimeWarning) as exc:  # warnings raised as errors
        return (type(exc).__name__, str(exc))


def _solve_many(preferences, shares) -> list:
    """``solve_many`` at the capacities average consensus passes it."""
    shares = np.asarray(shares, dtype=float)
    return solve_many(preferences, shares, local_capacities(len(PreferenceColumns.of(preferences)), shares)[0])


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

    got = _outcome(batched)
    if (shares > 0).all():
        assert got == _outcome(lambda: local_solves(preferences, shares))
    else:  # a zero estimate, which the loop would refuse as "C > 0 required", is a consensus failure
        i = int(np.argmin(shares > 0))
        assert got == ("EstimateOutOfRange",
                       f"agent {i}: capacity estimate {z[i] * n:.3e} not positive after {rounds} rounds")
    if runs:
        assert runs[0].trace.estimates.tobytes() == expected.tobytes()
        assert runs[0].trace.final_error == float(np.max(runs[0].trace.errors[-1]))


def test_zero_production_without_rounds_raises_as_the_loop_does():
    # the loop refuses the zero share; run_distributed names the agent as a consensus failure
    preferences = PreferenceColumns(Quadratic, [1.0, 2.0], [3.0, 4.0])
    production = np.array([0.0, 5.0])
    with pytest.raises(ValidationError) as loop:
        local_solves(preferences, production)
    assert "C > 0 required" in str(loop.value)
    with pytest.raises(EstimateOutOfRange, match=r"^agent 0: capacity estimate 0\.000e\+00 not positive after 0 rounds$"):
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


@pytest.mark.parametrize("b, shares", [([1.0, -2.0, 3.0], [2.0, 0.5])], ids=["invalid-preference"])
def test_batched_validation_raises_as_the_loop_does(b, shares):
    # an invalid shared preference: the first market the loop refuses is the one solve_many reports
    preferences = PreferenceColumns(Quadratic, b, [2.0, 2.0, 2.0])
    with pytest.raises(ValidationError) as loop:
        local_solves(preferences, shares)
    with pytest.raises(ValidationError) as batched:
        _solve_many(preferences, shares)
    assert str(batched.value) == str(loop.value)


BIG = 1e308  # within max_capacity(3); three copies of it overflow


@pytest.mark.parametrize("family", [Quadratic, PiecewiseLinear], ids=["quadratic", "pwl"])
@pytest.mark.parametrize("production, reported", [
    ([0.0, 5.0, 0.0], "agent 0: capacity estimate 0.000e+00 not positive"),
    ([2.0, 0.0, 3.0], "agent 1: capacity estimate 0.000e+00 not positive"),
    ([0.5, 2.0, 0.0, 4.0], "agent 2: capacity estimate 0.000e+00 not positive"),
    ([0.5, BIG, 2.0], "agent 1: capacity estimate inf past the float limit for 3 agents"),
    ([0.5, 5.992310449541052e+307, BIG],  # three copies sum to a float past max_capacity(3); agent 2's come later
     "agent 1: capacity estimate 1.7976931348623155e+308 past the float limit for 3 agents"),
    ([BIG, 0.0, 0.0], "agent 0: capacity estimate inf past the float limit for 3 agents"),  # first in index order
], ids=["invalid-first-share", "later-invalid-share", "zero-share", "overflow", "near-limit", "precedence"])
def test_out_of_range_estimate_is_a_consensus_failure(production, reported, family):
    # without rounds each estimate is the agent's own production: the first agent whose capacity
    # lies outside (0, max_capacity(n)] is reported, with warnings raised as errors
    n = len(production)
    instance = MarketInstance(production, PreferenceColumns(family, np.ones(n), np.full(n, 2.0)))
    assert _outcome(lambda: run_distributed(instance, CommGraph.path(n), rounds=0, mode="average")) == (
        "EstimateOutOfRange", f"{reported} after 0 rounds")


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
    assert _outcome(lambda: _solve_many(preferences, shares)) == _outcome(lambda: local_solves(preferences, shares))


@st.composite
def kink_calls(draw):
    """(b, m, capacities): the tied and free agents of ``markets``, at most 60,
    so the selection keeps every agent and the water-filling meets the full
    sort's kink demands; each positive one below sum(m) and its 1-ulp
    neighbours, and a random share of sum(m), are capacities."""
    _, b, m, _, _ = draw(markets())
    b, m = np.array(b), np.array(m)
    kinks = full_sort_kinks(b, m)[3]
    capacity = np.concatenate([kinks, np.nextafter(kinks, -np.inf), np.nextafter(kinks, np.inf),
                               [draw(st.floats(0.01, 0.99)) * float(np.sum(m))]])
    return b, m, capacity[(capacity > 0) & (capacity < float(np.sum(m)))]


def _price_bits(b, m, capacity) -> tuple[list, list]:
    """The water-filling's prices at ``capacity`` and the full sort's, as hex."""
    b, m, capacity = (np.array(v, dtype=float) for v in (b, m, capacity))
    with np.errstate(over="ignore", invalid="ignore"):  # drop-out prices and kink demands past the float limit
        got = solver._clear_quadratic(MarketInstance(np.ones(len(b)), PreferenceColumns(Quadratic, b, m)), capacity)
        expected = [lam for lam, _ in full_sort_quadratic(b, m, capacity)]
    return [lam.hex() for lam in got.lam.tolist()], [lam.hex() for lam in expected]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(kink_calls())
def test_crossing_kink_matches_first_at_or_below(call):
    got, expected = _price_bits(*call)
    assert got == expected


KINKS = {  # name: (b, m, capacities, the full sort's float kink demands)
    "rising": ([0.6122448979591836, 0.6122448979591836, 0.3125], [4.9, 9.8, 9.6],
               [4.9, 4.899999999999999, 4.899999999999998, 1.0], [4.899999999999999, 4.9, 0.0]),
    "tied": ([1.0, 1.0, 2.0, 4.0], [3.0, 8.0, 4.0, 2.0], [8.75, 8.749999999999998, 9.0, 5.0, 16.0], [8.75, 0.0]),
    "nan-between": ([1.0, 1.4e308, 1.5, 1.5, 1.6e308], [1.0, 1.0, 1e308, 1e308, 1.0],
                    [0.01, 0.0625, 0.06250000000000022, 0.1, 1.0], [np.inf, np.nan, 0.06250000000000022, 0.0]),
    "nan-first": ([1.4e308, 1.5, 1.5, 1.6e308], [1.0, 1e308, 1e308, 1.0],
                  [0.01, 0.0625, 0.06250000000000022, 0.1, 1.0], [np.nan, 0.06250000000000022, 0.0]),
    # the last kink is NaN only behind an infinite drop-out price m*b, which validation refuses
    "nan-last": ([1e200, 1.0], [1e200, 5e199], [5e199, 1e200, 1.2e200], [1e200, np.nan]),
}


@pytest.mark.parametrize("name", KINKS)
def test_crossing_kink_matches_first_at_or_below_on_hand_made_kinks(name):
    b, m, capacity, kinks = KINKS[name]
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(full_sort_kinks(np.array(b), np.array(m))[3], kinks, equal_nan=True)
        finite = np.isfinite(np.multiply(b, m)).all()
    instance = MarketInstance(np.ones(len(b)), PreferenceColumns(Quadratic, b, m))
    assert validate_instance(instance).ok is bool(finite)
    with mock.patch.object(solver, "_require"):  # the kink search itself, on every hand-made kink
        got, expected = _price_bits(b, m, capacity)
    assert got == expected


LOG = Custom(lambda x: 3.0 * np.log1p(x), lambda x: 3.0 / (1.0 + x))


@pytest.mark.parametrize("preferences, shares", [
    ([PiecewiseLinear(1.0 + k % 3, 2.0 + k % 4) for k in range(7)], [0.25, 1.5, 3.0, 6.0]),  # the loop path
    ([Quadratic(1.0 + k % 3, 2.0 + k % 4) for k in range(5)] + [LOG], [0.25, 1.5, 3.0, 6.0]),
    ([PiecewiseLinear(1.0, 2.0)] * 3, [1.0, 0.0, 2.0]),
    ([Quadratic(2.0, 3.0) for _ in range(4)], []),
], ids=["pwl", "mixed", "pwl-zero-share", "no-markets"])
def test_solve_many_raises_and_routes_as_the_loop_does(preferences, shares):
    assert _outcome(lambda: _solve_many(preferences, shares)) == _outcome(lambda: local_solves(preferences, shares))


def test_equal_preference_objects_clear_as_one_stack():
    # equal but distinct objects are one column layout: one market built, no solve per market
    objects = [Quadratic(1.0 + k % 3, 2.0 + k % 4) for k in range(8)]
    shares = np.linspace(0.5, 4.0, 12)
    expected = _bits(local_solves(PreferenceColumns.of(objects), shares))
    built = mock.Mock(wraps=MarketInstance)
    with mock.patch.object(solver, "MarketInstance", built), mock.patch.object(solver, "solve") as loop:
        got = _bits(_solve_many([Quadratic(o.b, o.m) for o in objects], shares))
    assert got == expected
    assert built.call_count == 1 and loop.call_count == 0


@pytest.mark.parametrize("rounds, tol", [(5000, 1e-3), (150, None)], ids=["tol-early-stop", "no-tol"])
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
