"""The selection step of the water-filling and breakpoint routes against
the full-sort clearing cores kept in ``oracles.py``, bit for bit.

``solver._active_order`` halves the candidate keys at their median and
stable-sorts only the agents that can be active at the price. Prices,
allocations and the ``degenerate`` flag must equal the full sort's exactly.
The candidate floor is patched low so that the halving runs at every n from
1 to 3000. Keys come at cent resolution with many ties; quadratic calls
price 1..300 capacities at once; capacities include the float kink demands
and cumulative tier demands with their 1- and 2-ulp neighbours, many of
them at the tie groups next to the median key where the first halving step
decides, and the exact totals sum(m) and sum(phi). Runs are derandomized.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teshape import MarketInstance, PiecewiseLinear, PreferenceColumns, Quadratic, solver
from teshape.experiments import sample_pwl_params, sample_quadratic_params

from oracles import full_sort_kinks, full_sort_pwl, full_sort_quadratic

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)
sizes = st.one_of(st.integers(1, 40), st.integers(41, 3000))


def _keys(rng: np.random.Generator, n: int, spread: float) -> np.ndarray:
    """Keys at cent resolution on 1.00..4.00 (many ties), a ``spread``
    share of them continuous instead."""
    return np.where(rng.random(n) < spread, rng.uniform(0.5, 5.0, n), rng.integers(100, 401, n) / 100)


def quadratic_market(seed: int, n: int, spread: float) -> tuple[np.ndarray, np.ndarray]:
    """(b, m) with m = k/10 and b = key/m, so m*b is the key or an ulp off it."""
    rng = np.random.default_rng(seed)
    m = rng.integers(1, 100, n) / 10
    return _keys(rng, n, spread) / m, m


def pwl_market(seed: int, n: int, spread: float) -> tuple[np.ndarray, np.ndarray]:
    """(beta, phi): keys from ``_keys``, loads at cent resolution."""
    rng = np.random.default_rng(seed)
    return _keys(rng, n, spread), rng.integers(1, 1000, n) / 100


def _median_group(key: np.ndarray) -> int:
    """Ascending rank of the tie group that holds the median key, where the
    first halving step compares its demand estimate with the capacity."""
    return int(np.searchsorted(np.unique(key), np.partition(key, len(key) // 2)[len(key) // 2]))


def _quadratic_edge(b: np.ndarray, m: np.ndarray, pick: int, ulps: int, near_median: bool) -> float | None:
    """A positive float kink demand, of the groups at and just below the
    median key or of any group, moved by ``ulps`` ulps; None if there is none."""
    kinks = full_sort_kinks(b, m)[3]  # ascending groups, as np.unique orders them
    if near_median:
        at = _median_group(m * b)
        kinks = kinks[max(at - 1, 0): at + 1]
    kinks = kinks[kinks > 0]
    if not len(kinks):
        return None
    value = float(kinks[pick % len(kinks)])
    return value + ulps * math.ulp(value)


def _pwl_edge(beta: np.ndarray, phi: np.ndarray, pick: int, ulps: int, near_median: bool) -> float:
    """A float cumulative tier demand, of the median tier or of any tier,
    moved by ``ulps`` ulps."""
    order = np.argsort(-beta, kind="stable")
    beta_s = beta[order]
    incl = np.cumsum(phi[order])[np.append(beta_s[1:] != beta_s[:-1], True)][::-1]  # ascending tiers
    value = float(incl[_median_group(beta) if near_median else pick % len(incl)])
    return value + ulps * math.ulp(value)


def _capacity_instance(capacity: float, preferences: PreferenceColumns) -> MarketInstance:
    production = np.zeros(len(preferences))
    production[0] = capacity  # the sequential sum is the capacity exactly
    return MarketInstance(production, preferences)


@st.composite
def quadratic_calls(draw):
    """(b, m, capacities): up to 300 capacities whose largest short one is a
    knife edge (``_quadratic_edge``), the rest random shares below it, and
    sometimes sum(m) and a capacity above it."""
    b, m = quadratic_market(draw(st.integers(0, 2**32 - 1)), draw(sizes), draw(st.sampled_from([0.0, 0.2, 1.0])))
    total = float(np.sum(m))
    edge = _quadratic_edge(b, m, draw(st.integers(0, 10**6)), draw(st.integers(-2, 2)), draw(st.booleans()))
    edge = edge if edge is not None else 0.5 * total
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    capacity = [edge, *rng.uniform(0.0, edge, draw(st.integers(0, 297)))]
    capacity += [total, 1.1 * total] if draw(st.booleans()) else []
    return b, m, rng.permutation(np.array([c for c in capacity if c > 0]))


def _median_case(seed: int, n: int) -> tuple:
    b, m = quadratic_market(seed, n, 0.0)
    return b, m, np.array([_quadratic_edge(b, m, 0, 0, True)])


@SETTINGS
@given(quadratic_calls())
@example(_median_case(56, 1783))  # the median's estimate is 28 ulps above the kink just below it
@example(_median_case(82, 560))
def test_selected_water_filling_matches_full_sort(call):
    b, m, capacity = call
    preferences = PreferenceColumns(Quadratic, b, m)
    short = capacity[capacity < float(np.sum(m))]
    with mock.patch.object(solver, "_SELECT_FLOOR", 2):
        got = solver._clear_quadratic(_capacity_instance(1.0, preferences), capacity)  # cleared at each capacity
        active = solver._active_order(m * b, m, 1.0 / b, float(np.max(short))) if len(short) else None
    expected = full_sort_quadratic(b, m, capacity)
    assert [(lam.hex(), x.tobytes(), got.degenerate) for lam, x in zip(got.lam.tolist(), got.x)] == [
        (lam.hex(), x.tobytes(), False) for lam, x in expected
    ]
    if active is not None:  # every tie group left out has a float kink demand above every short capacity
        below = np.count_nonzero(np.unique(m * b) < (m * b)[active].min())
        assert np.all(full_sort_kinks(b, m)[3][:below] > np.max(short))


@st.composite
def pwl_markets(draw):
    """(beta, phi, capacity): a cumulative tier demand or its neighbour
    (``_pwl_edge``), sum(phi), or a random share of it."""
    beta, phi = pwl_market(draw(st.integers(0, 2**32 - 1)), draw(sizes), draw(st.sampled_from([0.0, 0.2, 1.0])))
    kind = draw(st.sampled_from(["median", "tier", "total", "share"]))
    if kind == "total":
        return beta, phi, float(np.sum(phi))
    if kind == "share":
        return beta, phi, draw(st.floats(0.01, 1.2)) * float(np.sum(phi))
    return beta, phi, _pwl_edge(beta, phi, draw(st.integers(0, 10**6)), draw(st.integers(-2, 2)), kind == "median")


def _median_tier_case(seed: int, n: int, ulps: int) -> tuple:
    beta, phi = pwl_market(seed, n, 0.0)
    return beta, phi, _pwl_edge(beta, phi, 0, ulps, True)


@SETTINGS
@given(pwl_markets())
@example(_median_tier_case(3, 437, 1))  # the median's estimate is above the tier's cumulative demand
def test_selected_breakpoint_search_matches_full_sort(market):
    beta, phi, capacity = market
    instance = _capacity_instance(capacity, PreferenceColumns(PiecewiseLinear, beta, phi))
    with mock.patch.object(solver, "_SELECT_FLOOR", 2):
        got = solver._clear_pwl(instance)
    lam, x, degenerate = full_sort_pwl(beta, phi, capacity)
    assert (got.lam.hex(), got.x.tobytes(), got.degenerate) == (lam.hex(), x.tobytes(), degenerate)


def test_sampled_trials_sort_only_the_active_side():
    # the experiment samplers at n=20000: the sorted side is a key suffix of at most half the agents
    rng = np.random.default_rng(2)
    for sample, kind in ((sample_quadratic_params, Quadratic), (sample_pwl_params, PiecewiseLinear)):
        first, second = sample(20000, 1000.0, 20.0, rng)
        key, slope = (first * second, 1.0 / first) if kind is Quadratic else (first, None)
        order = solver._active_order(key, second, slope, 1000.0, descending=kind is PiecewiseLinear)
        assert 0 < len(order) <= 20000 // 2
        assert np.array_equal(np.sort(order), np.flatnonzero(key >= key[order].min()))
        full = np.argsort(-key if kind is PiecewiseLinear else key, kind="stable")
        assert np.array_equal(order, full[:len(order)] if kind is PiecewiseLinear else full[-len(order):])
