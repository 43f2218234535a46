from __future__ import annotations

import math

import numpy as np
import pytest

from teshape import (
    AggregateDemand,
    BracketFailure,
    Custom,
    MarketInstance,
    PiecewiseLinear,
    Quadratic,
    SolveMethod,
    ValidationError,
    solve,
    solve_mtes_generic,
)

from conftest import quartet_instance, random_quadratic_instance


def log_utility() -> Custom:
    return Custom(lambda x: math.log(1 + x), lambda x: 1 / (1 + x))


def test_matches_closed_form_on_quartet():
    from teshape import solve_mtes_quadratic

    inst = quartet_instance()
    closed = solve_mtes_quadratic(inst)
    bisected = solve_mtes_generic(inst)
    assert bisected.method is SolveMethod.BISECTION
    assert abs(closed.lambda_star - bisected.lambda_star) <= 1e-8


def test_single_log_agent():
    capacity = 7.0
    inst = MarketInstance(production=(capacity,), preferences=(log_utility(),))
    result = solve_mtes_generic(inst)
    assert result.lambda_star == pytest.approx(1.0 / (1.0 + capacity), abs=1e-9)
    assert result.x_star[0] == pytest.approx(capacity, abs=1e-6)


def test_mixed_quadratic_and_custom():
    # custom agent is a quadratic in disguise; compare with the closed form
    from teshape import solve_mtes_quadratic

    shadow = Custom(lambda x: -0.5 * 3.0 * x * x + 5.0 * 3.0 * x, lambda x: 3.0 * (5.0 - x))
    inst = MarketInstance(
        production=(4.0, 4.0),
        preferences=(Quadratic(2.0, 6.0), shadow),
    )
    twin = MarketInstance(
        production=(4.0, 4.0),
        preferences=(Quadratic(2.0, 6.0), Quadratic(3.0, 5.0)),
    )
    generic = solve_mtes_generic(inst)
    closed = solve_mtes_quadratic(twin)
    assert generic.lambda_star == pytest.approx(closed.lambda_star, abs=1e-8)
    assert generic.x_star == pytest.approx(closed.x_star, abs=1e-6)


def test_negative_price_bracket_expansion():
    inst = MarketInstance(
        production=(10.0, 10.0),
        preferences=(Quadratic(1.0, 4.0), Quadratic(2.0, 4.0)),
    )
    result = solve_mtes_generic(inst)
    assert result.lambda_star == pytest.approx(-8.0, abs=1e-8)


def test_pwl_agents_rejected():
    inst = MarketInstance(production=(1.0,), preferences=(PiecewiseLinear(1, 2),))
    with pytest.raises(ValidationError, match="differentiable"):
        solve_mtes_generic(inst)


def test_balance_tolerance_met():
    rng = np.random.default_rng(3)
    for _ in range(100):
        inst = random_quadratic_instance(rng, n_max=20)
        result = solve_mtes_generic(inst)
        assert result.balance_residual <= 1e-9 * max(1.0, inst.capacity)


def test_non_concave_custom_raises_bracket_failure():
    # increasing derivative sneaks past validation only if the grid misses it;
    # feed it straight to the solver with validation-friendly start
    rising = Custom(lambda x: x, lambda x: 1.0 / (1.0 + x) if x < 1e-9 else 2.0 + x)
    inst = MarketInstance(production=(5.0,), preferences=(rising,))
    with pytest.raises((BracketFailure, ValidationError)):
        solve_mtes_generic(inst)


def test_aggregate_demand_monotone():
    inst = quartet_instance()
    demand = AggregateDemand(preferences=inst.preferences, scale=inst.capacity)
    grid = np.linspace(0.0, max(demand.breakpoints), 40)
    totals = [demand.total(lam) for lam in grid]
    for prev, cur in zip(totals, totals[1:]):
        assert cur <= prev + 1e-12
    positive = [(t, lam) for t, lam in zip(totals, grid) if t > 0]
    for (t1, _), (t2, _) in zip(positive, positive[1:]):
        assert t2 < t1  # strictly decreasing wherever demand is positive


def test_aggregate_demand_rejects_pwl():
    with pytest.raises(ValidationError):
        AggregateDemand(preferences=(PiecewiseLinear(1, 1),), scale=1.0)


def test_dispatch_uses_bisection_for_mixed(quartet):
    inst = MarketInstance(
        production=(4.0, 4.0),
        preferences=(Quadratic(2.0, 6.0), log_utility()),
    )
    result = solve(inst)
    assert result.method is SolveMethod.BISECTION


def test_closed_routes_reject_mixed():
    from teshape import solve_mtes_pwl, solve_mtes_quadratic

    inst = MarketInstance(
        production=(4.0, 4.0),
        preferences=(Quadratic(2.0, 6.0), log_utility()),
    )
    with pytest.raises(ValidationError, match="homogeneous quadratic instance, got mixed"):
        solve_mtes_quadratic(inst)
    with pytest.raises(ValidationError, match="homogeneous pwl instance, got mixed"):
        solve_mtes_pwl(inst)


def test_pwl_next_to_custom_is_refused_and_next_to_quadratic_clears():
    # a Custom agent sends the market to bisection, which refuses a PWL member;
    # without one the kink search clears it: at 2, the PWL agent saturated
    refused = MarketInstance(production=(1.0, 1.0), preferences=(log_utility(), PiecewiseLinear(1.0, 2.0)))
    with pytest.raises(ValidationError, match="PWL agents clear only in markets without Custom agents"):
        solve(refused)
    result = solve(MarketInstance(production=(5.0, 3.0), preferences=(Quadratic(2.0, 6.0), PiecewiseLinear(4.0, 3.0))))
    assert (result.lambda_star, result.x_star, result.method) == (2.0, (5.0, 3.0), SolveMethod.BREAKPOINT_PWL)


def test_tight_lambda_tolerance_honored():
    inst = quartet_instance()
    result = solve_mtes_generic(inst)
    assert abs(result.lambda_star - 30.0 / 17.0) <= 1e-10
