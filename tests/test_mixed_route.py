"""The generic (mixed-instance) route against closed forms and oracles.

* prices and allocations of quadratic + log-utility markets against
  ``oracles.mixed_price_by_bisection`` and the closed-form best responses,
  at parameter scales 1e-3..1e3, with n=1 and with all-Custom markets;
* Custom agents that are quadratics in disguise against the closed-form
  quadratic solver, negative prices included;
* a guard on the number of ``deriv_fn`` calls one solve makes, and on the
  calls at the zero price, where log demand is unbounded; one seeded market's
  exact call count and result bits, pinned;
* unbounded demand reported as ``inf``, including below the positive
  infimum of a derivative, and a non-finite clearing allocation refused;
* one ``AggregateDemand`` split per mixed solve, self-check included.

Runs are derandomized so the suite is reproducible.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teshape import Custom, MarketInstance, ModelKind, Quadratic, solve, solve_mtes_generic, solve_mtes_quadratic
from teshape import solver

from oracles import mixed_price_by_bisection

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

scale = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)  # log-uniform over 1e-3..1e3


def log_agent(w: float) -> Custom:
    return Custom(lambda x: w * math.log1p(x), lambda x: w / (1.0 + x))


def disguised_quadratic(b: float, m: float) -> Custom:
    return Custom(lambda x: b * (m * x - 0.5 * x * x), lambda x: b * (m - x))


def price_tolerance(lam: float, b, m, w, capacity: float) -> float:
    """How far from the root a price may sit whose demand gap is within the
    solver's balance tolerance: that tolerance over the demand slope at the
    root, plus the bracket width."""
    slope = sum(1.0 / bi for bi, mi in zip(b, m) if mi * bi > lam)
    slope += sum(wi / lam**2 for wi in w if wi > lam)
    return 1e-10 + 2e-9 * max(1.0, capacity) / slope + 1e-12 * abs(lam)


@st.composite
def mixed_markets(draw):
    """(production, b, m, w, kinds): each agent quadratic or log, n = 1..6;
    half the examples hold log agents only."""
    n = draw(st.integers(1, 6))
    all_log = draw(st.booleans())
    kinds = ["log"] * n if all_log else draw(st.lists(st.sampled_from(["quad", "log"]), min_size=n, max_size=n))
    production = [draw(scale) for _ in range(n)]
    b = [draw(scale) for k in kinds if k == "quad"]
    m = [draw(scale) for k in kinds if k == "quad"]
    w = [draw(scale) for k in kinds if k == "log"]
    return production, b, m, w, kinds


def build(production, b, m, w, kinds) -> MarketInstance:
    quad, log = iter(zip(b, m)), iter(w)
    preferences = [Quadratic(*next(quad)) if k == "quad" else log_agent(next(log)) for k in kinds]
    return MarketInstance(production=production, preferences=preferences)


@SETTINGS
@given(mixed_markets())
@example(([2.0], [], [], [3.0], ["log"]))  # n=1, all Custom
@example(([0.5], [4.0], [0.25], [], ["quad"]))  # n=1, quadratic
@example(([1e-3, 1e-3], [1e3], [1e3], [1.0], ["quad", "log"]))  # price ~1e6: spacing > lambda_tol
def test_mixed_price_and_allocation_match_oracle(market):
    production, b, m, w, kinds = market
    instance = build(*market)
    capacity = instance.capacity
    result = solve_mtes_generic(instance)
    lam = result.lambda_star
    oracle = mixed_price_by_bisection(b, m, w, capacity)
    assert abs(lam - oracle) <= price_tolerance(oracle, b, m, w, capacity)
    x = np.asarray(result.x_star)
    is_quad = np.array([k == "quad" for k in kinds])
    best_quad = np.maximum(np.array(m) - lam / np.array(b), 0.0)
    assert np.array_equal(x[is_quad], best_quad.reshape(-1))
    best_log = np.maximum(np.array(w) / lam - 1.0, 0.0)
    assert np.all(np.abs(x[~is_quad] - best_log) <= 1e-12 * np.maximum(1.0, best_log))
    assert result.balance_residual <= 1e-9 * max(1.0, capacity)


@SETTINGS
@given(st.lists(st.tuples(scale, scale, scale), min_size=1, max_size=6), st.floats(0.05, 20.0))
def test_disguised_quadratics_match_closed_form(agents, surplus):
    """Production ``surplus`` times total satiation: above 1 the price is negative."""
    b = [bi for _, bi, _ in agents]
    m = [mi for _, _, mi in agents]
    weights = np.array([a for a, _, _ in agents])
    production = weights / weights.sum() * surplus * sum(m)
    twin = MarketInstance(production=production, preferences=[Quadratic(bi, mi) for bi, mi in zip(b, m)])
    closed = solve_mtes_quadratic(twin)
    for preferences in (
        [disguised_quadratic(bi, mi) for bi, mi in zip(b, m)],
        [disguised_quadratic(bi, mi) if i % 2 else Quadratic(bi, mi) for i, (bi, mi) in enumerate(zip(b, m))],
    ):
        generic = solve_mtes_generic(MarketInstance(production=production, preferences=preferences))
        lam = closed.lambda_star
        assert abs(generic.lambda_star - lam) <= price_tolerance(lam, b, m, [], twin.capacity)
        expected = np.maximum(np.array(m) - generic.lambda_star / np.array(b), 0.0)
        assert np.all(np.abs(np.asarray(generic.x_star) - expected) <= 1e-12 * np.maximum(1.0, expected))


# deriv_fn calls one solve of the instance below made with the plain-bisection
# route (41 demand evaluations, each inverting every log agent from a cold
# start); counted at the commit that replaced it
BISECTION_ROUTE_CALLS = 480_479


def test_deriv_calls_stay_below_a_quarter_of_plain_bisection(monkeypatch):
    """At the zero price each log agent costs at most three calls: its
    derivative at 0, at the first cap point and at the last one."""
    rng = np.random.default_rng(400)
    n = 400
    b, m, w = rng.uniform(0.5, 2.0, n), rng.uniform(5.0, 15.0, n), rng.uniform(2.0, 20.0, n)
    production = rng.uniform(2.0, 8.0, n)
    calls = [0]

    def counting(wi: float) -> Custom:
        def deriv(x: float) -> float:
            calls[0] += 1
            return wi / (1.0 + x)

        return Custom(lambda x: wi * math.log1p(x), deriv)

    at_zero = []
    original = solver.AggregateDemand.allocation

    def allocation(self, lam):
        before = calls[0]
        x = original(self, lam)
        if lam == 0.0:
            at_zero.append(calls[0] - before)
        return x

    monkeypatch.setattr(solver.AggregateDemand, "allocation", allocation)
    preferences = [counting(w[i]) if i % 2 else Quadratic(b[i], m[i]) for i in range(n)]
    result = solve(MarketInstance(production=production, preferences=preferences))
    assert result.kkt_max_violation <= 1e-9 * max(1.0, float(production.sum()))
    assert calls[0] <= 0.25 * BISECTION_ROUTE_CALLS
    assert len(at_zero) == 1 and at_zero[0] <= 3 * (n // 2)


# the generic route's work and bits on the market below, so a change to its
# arithmetic or to the order of its calls shows: deriv_fn calls (validation's
# spot check, the solve and the self-check), the hex of the price, balance
# residual and largest KKT violation, and sha256 of x_star
PINNED_CALLS = 15_861
PINNED_HEX = ("0x1.7f0b0e305bcfbp+1", "0x1.1800000000000p-38", "0x1.1800000000000p-38")
PINNED_X_SHA256 = "b0661df8a7e65860f01122057ef9efba5998ad390356a61803d9b1c245d97969"


def test_generic_route_work_and_bits_are_pinned():
    rng = np.random.default_rng(2025)
    n = 200
    b, m, w = rng.uniform(0.5, 2.0, n), rng.uniform(5.0, 15.0, n), rng.uniform(2.0, 20.0, n)
    production = rng.uniform(2.0, 8.0, n)
    calls = [0]

    def counting(wi: float) -> Custom:
        def deriv(x: float) -> float:
            calls[0] += 1
            return wi / (1.0 + x)

        return Custom(lambda x: wi * math.log1p(x), deriv)

    preferences = [counting(w[i]) if i % 2 else Quadratic(b[i], m[i]) for i in range(n)]
    result = solve(MarketInstance(production=production, preferences=preferences))
    assert calls[0] == PINNED_CALLS
    assert (result.lambda_star.hex(), result.balance_residual.hex(), result.kkt_max_violation.hex()) == PINNED_HEX
    assert hashlib.sha256(np.asarray(result.x_star, dtype=np.float64).tobytes()).hexdigest() == PINNED_X_SHA256


# the price the scalar inversion, which returned 2**80 * max(1, C) for an
# unbounded demand, gave the market below
INFIMUM_MARKET_PRICE = 1.0504793115119164


def test_unbounded_demand_below_a_positive_infimum_clears():
    """1 + 5/(1+x) stays above 1, so the agent's demand is unbounded at every
    price up to 1; bisection probes 0.75 on the way to the price."""
    floor = Custom(lambda x: x + 5.0 * math.log1p(x), lambda x: 1.0 + 5.0 / (1.0 + x))
    instance = MarketInstance((60.0, 40.0), (floor, Quadratic(1.0, 3.0)))
    assert solve(instance).lambda_star.hex() == INFIMUM_MARKET_PRICE.hex()
    demand = solver.AggregateDemand(instance.preferences, instance.capacity)
    assert demand.allocation(0.75).tolist() == [math.inf, 2.25]


def test_log_demand_at_zero_price_is_inf():
    demand = solver.AggregateDemand((log_agent(2.0), Quadratic(1.0, 2.0)), scale=10.0)
    assert demand.total(0.0) == math.inf
    assert demand.allocation(0.0).tolist() == [math.inf, 2.0]


def test_non_finite_allocation_at_the_price_raises(monkeypatch):
    """The allocation at the price found is checked: an agent whose demand
    there is not finite fails the solve, named with the price."""
    original = solver.AggregateDemand.allocation

    def allocation(self, lam):
        again = lam in self._prices  # the clearing price is read from memory
        x = original(self, lam)
        if again:
            x[1] = math.inf
        return x

    monkeypatch.setattr(solver.AggregateDemand, "allocation", allocation)
    with pytest.raises(solver.SolverError, match="agent 1: demand not finite at the clearing price"):
        solve(MarketInstance((3.0, 1.0), (Quadratic(1.0, 4.0), log_agent(5.0))))


@pytest.mark.parametrize("model", [ModelKind.MTES, ModelKind.MTES_ST])
def test_one_preference_split_per_mixed_solve(model, monkeypatch):
    """The self-check and the trading zero-price branch reuse the solve's
    AggregateDemand; the markets below clear at a positive plain price
    (log agents) and at a negative one (a disguised quadratic, so the
    trading instance takes its zero-price branch)."""
    builds = [0]
    original = solver.AggregateDemand.__init__

    def counting(self, *args, **kwargs):
        builds[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(solver.AggregateDemand, "__init__", counting)
    markets = [
        ((3.0, 1.0, 2.0), (Quadratic(1.0, 4.0), log_agent(5.0), Quadratic(2.0, 1.0))),
        ((9.0, 8.0), (Quadratic(1.0, 2.0), disguised_quadratic(1.5, 3.0))),
    ]
    for production, preferences in markets:
        builds[0] = 0
        result = solve(MarketInstance(production, preferences, model))
        assert result.kkt_max_violation <= 1e-9
        assert builds[0] == 1
