"""The selection step of the water-filling and breakpoint routes against
the full-sort clearing cores kept in ``oracles.py``, bit for bit.

``solver._active_order`` estimates the crossing from a strided sample of
the keys, checks the sampled key a few ranks below it with one full pass,
backs off further down the sample while the check fails, and sorts every
agent past the sample's end; it stable-sorts only the agents at or above
the key it keeps. Prices, allocations and the ``degenerate`` flag must
equal the full sort's exactly. The sample size and the back-off are
patched low (8 to 15 sampled keys, back-offs of 0 to 3 ranks), so that all
three ends (the first guess kept, a failed check followed by a back-off,
every agent sorted) run at sizes from 1 to 3000;
``test_every_selection_path_runs`` sees each. Keys come at cent resolution
with many ties, or repeat with the sample stride's period, so that every
sampled key is the same one: a PWL first guess then fails whenever that
key is high, and a quadratic sample, each agent at its own kink, estimates
no demand, so every agent is sorted. Quadratic calls price 1..300
capacities at once; capacities include the float kink demands and
cumulative tier demands with their 1- and 2-ulp neighbours, many of them
at the tie groups next to the median key, and the exact totals sum(m) and
sum(phi). Runs are derandomized.
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
SAMPLE = 8  # the patched sample: every (n // 8)-th key, 8 to 15 of them
sizes = st.one_of(st.integers(1, 40), st.integers(41, 3000))
backoffs = st.sampled_from([0, 1, 3])  # patched: the sample ranks of the first back-off


def _low(backoff: int):
    """The selection's sample patched to ``SAMPLE`` and its back-off to ``backoff``."""
    return mock.patch.multiple(solver, _SAMPLE=SAMPLE, _BACKOFF=backoff)


def _keys(rng: np.random.Generator, n: int, spread: float, periodic: bool = False) -> np.ndarray:
    """Keys at cent resolution on 1.00..4.00 (many ties), a ``spread``
    share of them continuous instead; if ``periodic``, the first stride
    of them repeated, so the patched sample holds one key n // stride times."""
    keys = np.where(rng.random(n) < spread, rng.uniform(0.5, 5.0, n), rng.integers(100, 401, n) / 100)
    return keys[np.arange(n) % max(1, n // SAMPLE)] if periodic else keys


def quadratic_market(seed: int, n: int, spread: float, periodic: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(b, m) with m = k/10 and b = key/m, so m*b is the key or an ulp off it."""
    rng = np.random.default_rng(seed)
    m = rng.integers(1, 100, n) / 10
    return _keys(rng, n, spread, periodic) / m, m


def pwl_market(seed: int, n: int, spread: float, periodic: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(beta, phi): keys from ``_keys``, loads at cent resolution."""
    rng = np.random.default_rng(seed)
    return _keys(rng, n, spread, periodic), rng.integers(1, 1000, n) / 100


def _median_group(key: np.ndarray) -> int:
    """Ascending rank of the tie group that holds the median key."""
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
    b, m = quadratic_market(draw(st.integers(0, 2**32 - 1)), draw(sizes), draw(st.sampled_from([0.0, 0.2, 1.0])), draw(st.booleans()))
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


def _kink_case(seed: int, n: int, pick: int, ulps: int) -> tuple:
    b, m = quadratic_market(seed, n, 0.0)
    return b, m, np.array([_quadratic_edge(b, m, pick, ulps, False)])


@SETTINGS
@given(quadratic_calls(), backoffs)
@example(_median_case(56, 1783), 0)  # knife edges at the median key's group and the one below it
@example(_median_case(82, 560), 1)
@example(_kink_case(4, 18, 3, 0), 0)  # a kink demand that the first checked key passes only by rounding
@example(_kink_case(2, 1783, 296, 0), 1)
def test_selected_water_filling_matches_full_sort(call, backoff):
    b, m, capacity = call
    preferences = PreferenceColumns(Quadratic, b, m)
    short = capacity[capacity < float(np.sum(m))]
    with _low(backoff):
        got = solver._clear_kinks(_capacity_instance(1.0, preferences), capacity)  # cleared at each capacity
        active = solver._active_order(m * b, m, 1.0 / b, float(np.max(short)), float(np.sum(m))) if len(short) else None
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
    beta, phi = pwl_market(draw(st.integers(0, 2**32 - 1)), draw(sizes), draw(st.sampled_from([0.0, 0.2, 1.0])), draw(st.booleans()))
    kind = draw(st.sampled_from(["median", "tier", "total", "share"]))
    if kind == "total":
        return beta, phi, float(np.sum(phi))
    if kind == "share":
        return beta, phi, draw(st.floats(0.01, 1.2)) * float(np.sum(phi))
    return beta, phi, _pwl_edge(beta, phi, draw(st.integers(0, 10**6)), draw(st.integers(-2, 2)), kind == "median")


def _median_tier_case(seed: int, n: int, ulps: int) -> tuple:
    beta, phi = pwl_market(seed, n, 0.0)
    return beta, phi, _pwl_edge(beta, phi, 0, ulps, True)


def _tier_case(seed: int, n: int, pick: int, ulps: int) -> tuple:
    beta, phi = pwl_market(seed, n, 0.0)
    return beta, phi, _pwl_edge(beta, phi, pick, ulps, False)


@SETTINGS
@given(pwl_markets(), backoffs)
@example(_median_tier_case(3, 437, 1), 0)  # one ulp above the median tier's cumulative demand
@example(_tier_case(6, 16, 6, 1), 0)  # a tier demand that the first checked rate passes only by rounding
@example(_tier_case(12, 16, 1, 1), 1)
def test_selected_breakpoint_search_matches_full_sort(market, backoff):
    beta, phi, capacity = market
    instance = _capacity_instance(capacity, PreferenceColumns(PiecewiseLinear, beta, phi))
    with _low(backoff):
        got = solver._clear_kinks(instance)
    lam, x, degenerate = full_sort_pwl(beta, phi, capacity)
    assert (got.lam.item().hex(), got.x.tobytes(), got.degenerate.item()) == (lam.hex(), x.tobytes(), degenerate)


def _end(key, level, slope, capacity: float, descending: bool) -> tuple[str, np.ndarray]:
    """The end ``_active_order`` reached with the patched sample and no back-off, and its order: "guess" if its
    first check kept a key, "back-off" if a later one did, "all" if it sorted every agent (it kept none: it
    listed no agents at or above a key). A check is one ``einsum`` per column summed."""
    with _low(0), mock.patch.object(np, "einsum", wraps=np.einsum) as einsum, \
            mock.patch.object(np, "flatnonzero", wraps=np.flatnonzero) as kept:
        order = solver._active_order(key, level, slope, capacity, float(np.sum(level)), descending)
    checks = einsum.call_count // (1 if slope is None else 2)
    return "all" if not kept.called else "guess" if checks == 1 else "back-off", order


def test_every_selection_path_runs():
    # each end, in both families, at sizes up to 40 and above, on the suites' knife-edge capacities, cent and
    # periodic keys; each order is the full stable sort's suffix (ascending) or prefix (descending)
    ends = set()
    for n in [*range(1, 41), *range(41, 3001, 29)]:
        for periodic in (False, True):
            b, m = quadratic_market(n, n, 0.2, periodic)
            beta, phi = pwl_market(n, n, 0.2, periodic)
            calls = [(m * b, m, 1.0 / b, _quadratic_edge(b, m, n, ulps, False), False) for ulps in (0, 1)]
            calls += [(beta, phi, None, _pwl_edge(beta, phi, n, ulps, False), True) for ulps in (0, 1)]
            for key, level, slope, capacity, descending in calls:
                if capacity is None or not capacity < np.sum(level):  # no short market: no selection
                    continue
                end, order = _end(key, level, slope, capacity, descending)
                full = np.argsort(-key if descending else key, kind="stable")
                assert np.array_equal(order, full[:len(order)] if descending else full[len(full) - len(order):])
                ends.add((slope is None, n > 40, end))
    assert ends == {(pwl, large, end) for pwl in (False, True) for large in (False, True)
                    for end in ("guess", "back-off", "all")}


def test_sampled_trials_sort_only_the_active_side():
    # the experiment samplers at n=20000: the sorted side is a key suffix of at most half the agents
    rng = np.random.default_rng(2)
    for sample, kind in ((sample_quadratic_params, Quadratic), (sample_pwl_params, PiecewiseLinear)):
        first, second = sample(20000, 1000.0, 20.0, rng)
        key, slope = (first * second, 1.0 / first) if kind is Quadratic else (first, None)
        order = solver._active_order(key, second, slope, 1000.0, float(np.sum(second)),
                                     descending=kind is PiecewiseLinear)
        assert 0 < len(order) <= 20000 // 2
        assert np.array_equal(np.sort(order), np.flatnonzero(key >= key[order].min()))
        full = np.argsort(-key if kind is PiecewiseLinear else key, kind="stable")
        assert np.array_equal(order, full[:len(order)] if kind is PiecewiseLinear else full[-len(order):])
