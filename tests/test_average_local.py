"""Average consensus's local markets against the per-market loop.

The local markets differ only in capacity. ``solve_many(preferences,
shares, capacity)`` clears those of shared quadratic or PWL preferences, at
the capacities ``local_capacities`` sums and finds in range, with one
water-filling or breakpoint sort; it must equal ``oracles.local_solves``,
one ``solve`` per market, bit for bit: price, allocation, residual, KKT
violation, route and degenerate flag, or the same exception text from the
first market that fails (a ValidationError of the shared preferences). Mixed
preferences take the loop itself, errors included. PWL stacks hold tied
rates and the share sum(phi)/n with its 1-ulp neighbours, so degenerate,
knife-edge and priced rows meet in one stack. ``run_distributed(mode="average")`` must
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
r * (d_max + 2) * eps/2 * max|z0|. A round takes one ``np.bincount`` when
every agent has at most 7 neighbours and the column has no sign bit set,
else one ``np.add.reduceat``: on circulants C_n(1..k), with or without the
antipodal chord (largest degree 6, 7, 8 or 9), and on a ring with one
degree-8 hub, with productions of +0.0 and -0.0 and a closed neighbourhood
all -0.0, both kernels must give the oracle's bits and each column must
take the kernel the rule names.

Float kink demands need not fall as the drop-out prices rise, and drop-out
prices or sums of m past the float limit make NaN ones. The water-filling takes each
capacity's crossing kink from their running minimum; its prices must equal
``oracles.full_sort_quadratic``'s, whose kink is the old rule
``oracles.first_kink_at_or_below`` (every kink compared, np.argmax), bit for
bit: at every kink demand and its 1-ulp neighbours of the tied markets
above, and on hand-made kinks that rise, tie, hold a NaN first or between
two finite ones, or lie above the capacity but for a NaN. The breakpoint
search takes each capacity's tier from the same binary search, on the
saturated demand above each tier; its prices, allocations and degenerate
flags must equal ``oracles.full_sort_pwl``'s on hand-made tiers: tied
rates, capacities at a tier's saturated demand and 1 ulp either side, and
a capacity between the float sum of every phi down the rates and their
pairwise sum, where the last tier takes the remainder.
"""

from __future__ import annotations

import sys
from collections import Counter
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
    consensus,
    run_distributed,
    solve,
    solver,
    validate_instance,
)
from teshape.solver import local_capacities, solve_many

from oracles import full_sort_kinks, full_sort_pwl, full_sort_quadratic, local_solves, metropolis_rounds

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
    # PWL local markets clear as one stack, mixed quadratic/Custom ones one solve per agent
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
    shares that fall on both sides of the satiation total per agent, and
    that share sum(m)/n with its 1-ulp neighbours. As PWL columns (beta,
    phi) = (m*b, m), the rates tie as the drop-out prices do."""
    _, b, m, _, _ = draw(markets())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = float(np.sum(m)) / len(m)
    shares = np.append(rng.uniform(0.0, 2.0, draw(st.integers(0, 90))) * share,
                       [share, np.nextafter(share, 0.0), np.nextafter(share, np.inf)])
    return b, m, rng.permutation(shares[shares > 0])


@pytest.mark.parametrize("family", [Quadratic, PiecewiseLinear], ids=["quadratic", "pwl"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(call=share_calls())
@example(call=([1.0, 2.0, 4.0], [8.0, 4.0, 2.0], np.array([1.0, 14.0 / 3.0, 5.0])))  # all keys tied at 8
@example(call=([2.0] * 4, [0.5, 1.0, 1.5, 1.0], np.array([1.0, 0.5, 1.25, 0.75])))  # sum(phi) = C = 4: degenerate
def test_solve_many_matches_per_market_loop(family, call):
    b, m, shares = call
    preferences = PreferenceColumns(family, *((b, m) if family is Quadratic else (np.multiply(b, m), m)))
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
        got = solver._clear_kinks(MarketInstance(np.ones(len(b)), PreferenceColumns(Quadratic, b, m)), capacity)
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


TIERS = {  # name: (beta, phi, capacities, the full sort's saturated demand through each tier, descending)
    # the tier at rate 3 sums 0.1 + 0.2 + 0.3 in agent order, 0.6000000000000001; in reverse it would be 0.6
    "tied": ([2.0, 3.0, 2.0, 3.0, 3.0, 1.0], [0.5, 0.1, 0.25, 0.2, 0.3, 1.0],
             [0.6, 0.6000000000000001, 0.6000000000000002, 1.3499999999999999, 1.35, 1.3500000000000003,
              2.3499999999999996, 2.35, 3.0, 0.3], [0.6000000000000001, 1.35, 2.35]),
    # 4 lies above the sum down the rates, 3.9999999999999996, and below the pairwise one, 4.000000000000001
    "past-the-sum": ([2.0, 4.0, 1.0, 3.0, 4.0, 1.0, 3.0, 1.0, 4.0, 4.0, 3.0],
                     [0.3, 0.8, 0.4, 0.7, 0.4, 0.3, 0.3, 0.2, 0.2, 0.2, 0.2],
                     [4.0, 3.999999999999999, 3.9999999999999996, 4.000000000000001, 2.7999999999999994, 2.8,
                      2.8000000000000003, 1.6], [1.6, 2.8, 3.0999999999999996, 3.9999999999999996]),
}


@pytest.mark.parametrize("name", TIERS)
def test_crossing_tier_matches_full_sort_on_hand_made_tiers(name):
    beta, phi, capacity, tiers = TIERS[name]
    beta, phi, capacity = np.array(beta), np.array(phi), np.array(capacity)
    order = np.argsort(-beta, kind="stable")
    assert np.cumsum(phi[order])[np.append(beta[order][1:] != beta[order][:-1], True)].tolist() == tiers
    got = solver._clear_kinks(MarketInstance(np.ones(len(beta)), PreferenceColumns(PiecewiseLinear, beta, phi)), capacity)
    assert [(lam.hex(), x.tobytes(), flag) for lam, x, flag in zip(got.lam.tolist(), got.x, got.degenerate.tolist())] == [
        (lam.hex(), x.tobytes(), flag) for lam, x, flag in (full_sort_pwl(beta, phi, c) for c in capacity.tolist())]


@pytest.mark.parametrize("name", KINKS)
def test_crossing_kink_matches_first_at_or_below_on_hand_made_kinks(name):
    b, m, capacity, kinks = KINKS[name]
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(full_sort_kinks(np.array(b), np.array(m))[3], kinks, equal_nan=True)
        finite = np.isfinite(np.multiply(b, m)).all()
    instance = MarketInstance(np.ones(len(b)), PreferenceColumns(Quadratic, b, m))
    assert validate_instance(instance).ok is bool(finite)
    with mock.patch.object(solver, "validate_instance"):  # the kink search itself, on every hand-made kink
        got, expected = _price_bits(b, m, capacity)
    assert got == expected


LOG = Custom(lambda x: 3.0 * np.log1p(x), lambda x: 3.0 / (1.0 + x))


@pytest.mark.parametrize("preferences, shares", [
    ([PiecewiseLinear(1.0 + k % 3, 2.0 + k % 4) for k in range(7)], [0.25, 1.5, 3.0, 6.0]),
    ([Quadratic(1.0 + k % 3, 2.0 + k % 4) for k in range(5)] + [LOG], [0.25, 1.5, 3.0, 6.0]),  # the loop path
    # 11 copies of the first share sum to 4.0, above the float sum of phi down the rates, 3.9999999999999996, and
    # below their pairwise sum, 4.000000000000001, which 11 copies of 4/11 reach: the lowest rate, then degenerate
    ([PiecewiseLinear(r, p) for r, p in zip([2, 4, 1, 3, 4, 1, 3, 1, 4, 4, 3], [0.3, 0.8, 0.4, 0.7, 0.4, 0.3, 0.3,
                                                                                0.2, 0.2, 0.2, 0.2])],
     [0.3636363636363636, 4 / 11]),
    ([Quadratic(2.0, 3.0) for _ in range(4)], []),
], ids=["pwl", "mixed", "pwl-knife-edge", "no-markets"])
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


class _Proxy:
    """``target`` with some attributes replaced."""

    def __init__(self, target, **replaced):
        self._target = target
        vars(self).update(replaced)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _counted_kernels(calls: Counter) -> mock._patch:
    """Patch numpy as ``teshape.consensus`` sees it: ``calls`` counts the averaging rounds' calls of
    ``np.bincount`` and ``np.add.reduceat`` (not the weights' or the degrees' own)."""
    def counted(name, kernel):
        def call(*args, **kwargs):
            if sys._getframe(1).f_code.co_name == "_metropolis_rounds":
                calls[name] += 1
            return kernel(*args, **kwargs)
        return call
    add = _Proxy(np.add, reduceat=counted("reduceat", np.add.reduceat))
    return mock.patch.object(consensus, "np", _Proxy(np, bincount=counted("bincount", np.bincount), add=add))


@st.composite
def bounded_degree_markets(draw):
    """(production, b, m, edges, rounds, tol round, homogenize): a circulant C_n(1..k), k in {3, 4}, on
    2k+3..40 agents, with the antipodal chord for even n or without, or a ring with agent 0 joined to six
    more agents. Productions are positive, +0.0 or -0.0, and the closed neighbourhood of an agent may be
    all -0.0, unless it holds agent 0, whose production stays positive."""
    shape = draw(st.sampled_from(["circulant", "antipodal", "hub"]))
    k = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(2 * k + 3, 40).filter(lambda n: shape != "antipodal" or n % 2 == 0))
    offsets = [*range(1, k + 1), *([n // 2] if shape == "antipodal" else [])]
    if shape == "hub":
        edges = [(i, (i + 1) % n) for i in range(n)] + [(0, j) for j in range(2, 8)]
    else:
        edges = [(i, (i + d) % n) for i in range(n) for d in offsets]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    production = rng.choice([0.0, -0.0, 1.0], n, p=[0.2, 0.3, 0.5]) * rng.uniform(0.5, 10.0, n)
    if draw(st.booleans()):  # one closed neighbourhood all -0.0
        u = int(rng.integers(1, n))
        production[[u, *(j for i, j in edges if i == u), *(i for i, j in edges if j == u)]] = -0.0
    production[0] = rng.uniform(0.5, 10.0)
    b, m = rng.uniform(1.0, 5.0, n), rng.uniform(5.0, 9.0, n)
    rounds = draw(st.integers(1, 30))
    return production, b, m, edges, rounds, draw(st.none() | st.integers(1, rounds)), draw(st.booleans())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(bounded_degree_markets())
# C_11(1..3), agent 5's closed neighbourhood all -0.0: np.add.reduceat sums it to -0.0, np.bincount to +0.0
@example(([5.0, 2.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0, 0.0, 3.0], [1.0] * 11, [6.0] * 11,
          [(i, (i + d) % 11) for i in range(11) for d in (1, 2, 3)], 3, None, False))
def test_bincount_rounds_match_oracle_and_fall_back_to_reduceat(case):
    production, b, m, edges, rounds, tol_round, homogenize = case
    n = len(production)
    graph = CommGraph.from_edges(n, edges)
    instance = MarketInstance(production, PreferenceColumns(Quadratic, b, m))
    tol = None
    if tol_round is not None:  # a tolerance the rounds meet by round tol_round
        oracle = metropolis_rounds(production, edges, rounds)
        tol = float(np.max(np.abs(oracle[tol_round] - instance.capacity / n)))
    calls = Counter()
    with _counted_kernels(calls):
        trace, state = consensus._average(instance, graph, rounds, tol, homogenize)
        estimates = trace.estimates
    expected = metropolis_rounds(production, edges, rounds, tol)
    assert estimates.tobytes() == expected.tobytes()
    r = trace.rounds
    if homogenize:  # the averaged (b, m) as well
        assert [z.tobytes() for z in state[1:]] == [metropolis_rounds(v, edges, r)[-1].tobytes() for v in (b, m)]
    small = int(np.bincount(graph.edges.ravel()).max()) <= 7
    expected_calls = Counter()  # production: r rounds in the run and r in the replay; b and m: r each
    for column, runs in [(production, 2), *([(b, 1), (m, 1)] if homogenize else [])]:
        expected_calls["bincount" if small and not np.signbit(column).any() else "reduceat"] += runs * r
    assert calls == expected_calls


def test_ring_rounds_take_bincount_only():
    # a 400-ring: every round of the run and of the replayed trace is one np.bincount
    graph = CommGraph.ring(400)
    production = np.random.default_rng(3).uniform(0.0, 10.0, graph.n)
    preferences = PreferenceColumns(Quadratic, np.ones(graph.n), np.full(graph.n, 5.0))
    calls = Counter()
    with _counted_kernels(calls):
        run = run_distributed(MarketInstance(production, preferences), graph, 40, "average")
        estimates = run.trace.estimates
    assert calls == Counter(bincount=80)
    assert estimates.tobytes() == metropolis_rounds(production, graph.edges, 40).tobytes()


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
