from __future__ import annotations

import numpy as np
import pytest

from teshape import (
    MarketInstance,
    PiecewiseLinear,
    SolveMethod,
    solve_mtes_pwl,
)

from conftest import random_pwl_instance
from oracles import pwl_feasible_prices


def test_two_tier_market():
    # oracle enumeration over the correspondence admits exactly one price
    betas, phis, capacity = [4.0, 2.0], [3.0, 3.0], 4.0
    assert pwl_feasible_prices(betas, phis, capacity) == [2.0]
    inst = MarketInstance(
        production=(2.0, 2.0),
        preferences=(PiecewiseLinear(4, 3), PiecewiseLinear(2, 3)),
    )
    result = solve_mtes_pwl(inst)
    assert result.lambda_star == 2.0
    assert result.x_star == (3.0, 1.0)
    assert result.method is SolveMethod.BREAKPOINT_PWL
    assert not result.degenerate


def test_surplus_split_at_zero_price():
    inst = MarketInstance(
        production=(2.0, 2.0),
        preferences=(PiecewiseLinear(4, 1), PiecewiseLinear(2, 1)),
    )
    result = solve_mtes_pwl(inst)
    assert result.lambda_star == 0.0
    assert result.x_star == (2.0, 2.0)  # phi + equal surplus share


def test_exact_saturation_boundary_is_degenerate():
    # equilibrium price is set-valued on [0, beta]; the smallest is reported
    inst = MarketInstance(production=(2.0,), preferences=(PiecewiseLinear(5, 2),))
    assert 0.0 in pwl_feasible_prices([5.0], [2.0], 2.0)
    result = solve_mtes_pwl(inst)
    assert result.lambda_star == 0.0
    assert result.x_star == (2.0,)
    assert result.degenerate


def test_marginal_tier_shares_proportionally():
    inst = MarketInstance(
        production=(1.0, 1.0, 1.0),
        preferences=(
            PiecewiseLinear(5, 1.0),
            PiecewiseLinear(2, 2.0),
            PiecewiseLinear(2, 6.0),
        ),
    )
    result = solve_mtes_pwl(inst)
    assert result.lambda_star == 2.0
    # remainder 2.0 split 2:6 across the marginal tier
    assert result.x_star[0] == 1.0
    assert result.x_star[1] == pytest.approx(2.0 * (2.0 / 8.0), abs=1e-12)
    assert result.x_star[2] == pytest.approx(6.0 * (2.0 / 8.0), abs=1e-12)
    assert sum(result.x_star) == pytest.approx(3.0, abs=1e-12)


def test_price_is_drawn_from_the_feasible_set():
    rng = np.random.default_rng(23)
    for _ in range(200):
        inst = random_pwl_instance(rng, n_max=8)
        result = solve_mtes_pwl(inst)
        betas, phis = (column.tolist() for column in inst.preferences.columns)
        feasible = pwl_feasible_prices(betas, phis, inst.capacity)
        assert any(abs(result.lambda_star - lam) <= 1e-12 for lam in feasible)


def test_zero_price_iff_saturation_below_capacity():
    rng = np.random.default_rng(31)
    for _ in range(300):
        inst = random_pwl_instance(rng)
        result = solve_mtes_pwl(inst)
        total_phi = sum(inst.preferences.columns[1].tolist())
        if total_phi < inst.capacity:
            assert result.lambda_star == 0.0
        elif total_phi > inst.capacity:
            assert result.lambda_star > 0.0


def test_balance_holds_in_both_regimes():
    rng = np.random.default_rng(37)
    for _ in range(200):
        inst = random_pwl_instance(rng)
        result = solve_mtes_pwl(inst)
        assert abs(sum(result.x_star) - inst.capacity) <= 1e-9 * max(1.0, inst.capacity)


def test_equal_rates_grouped_not_perturbed():
    inst = MarketInstance(
        production=(1.0, 1.0),
        preferences=(PiecewiseLinear(3.0, 4.0), PiecewiseLinear(3.0, 4.0)),
    )
    result = solve_mtes_pwl(inst)
    assert result.lambda_star == 3.0
    assert result.x_star == (1.0, 1.0)  # both marginal, equal phis share equally
