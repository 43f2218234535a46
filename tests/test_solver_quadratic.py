from __future__ import annotations

import numpy as np
import pytest

from teshape import (
    MarketInstance,
    Quadratic,
    SolveMethod,
    ValidationError,
    solve_mtes_generic,
    solve_mtes_quadratic,
)

from conftest import QUARTET_B, QUARTET_M, quartet_instance, random_quadratic_instance
from oracles import quadratic_allocation, quadratic_price_by_bisection


def test_quartet_golden_values(quartet):
    result = solve_mtes_quadratic(quartet)
    assert result.lambda_star == pytest.approx(1.765, abs=1e-3)
    expected_x = (5.12, 4.65, 5.41, 4.82)
    for got, want in zip(result.x_star, expected_x):
        assert got == pytest.approx(want, abs=1e-2)
    assert result.method is SolveMethod.CLOSED_FORM_QUADRATIC
    assert result.balance_residual <= 1e-9 * 20


def test_single_dominant_agent():
    # oracle: bisection on the demand balance gives exactly 100 here
    b, m = list(QUARTET_B), [6.0, 5.0, 6.0, 30.0]
    inst = MarketInstance(
        production=(5.0, 8.0, 7.0, 0.0),
        preferences=tuple(Quadratic(bi, mi) for bi, mi in zip(b, m)),
    )
    oracle_lam = quadratic_price_by_bisection(b, m, 20.0)
    assert oracle_lam == pytest.approx(100.0, abs=1e-6)
    result = solve_mtes_quadratic(inst)
    assert result.lambda_star == pytest.approx(100.0, abs=1e-9)
    assert result.x_star == pytest.approx((0.0, 0.0, 0.0, 20.0), abs=1e-9)


def test_zero_price_at_exact_satiation_boundary():
    n, m_bar = 5, 4.0
    inst = MarketInstance(
        production=tuple([m_bar] * n),
        preferences=tuple([Quadratic(2.0, m_bar)] * n),
    )
    result = solve_mtes_quadratic(inst)
    assert result.lambda_star == 0.0
    assert result.x_star == tuple([m_bar] * n)


def test_negative_price_when_satiation_below_capacity():
    inst = MarketInstance(
        production=(10.0, 10.0),
        preferences=(Quadratic(1.0, 4.0), Quadratic(2.0, 4.0)),
    )
    result = solve_mtes_quadratic(inst)
    # all active: lam = (sum m - C) / sum(1/b) = (8 - 20) / 1.5 = -8
    assert result.lambda_star == pytest.approx(-8.0, abs=1e-12)
    assert sum(result.x_star) == pytest.approx(20.0, abs=1e-9)


def test_duplicate_dropout_prices_grouped_exactly():
    # two agents share m*b exactly; price must fall on their common segment
    inst = MarketInstance(
        production=(1.0, 1.0, 1.0),
        preferences=(Quadratic(2.0, 3.0), Quadratic(3.0, 2.0), Quadratic(1.0, 1.0)),
    )
    result = solve_mtes_quadratic(inst)
    oracle = quadratic_price_by_bisection([2, 3, 1], [3, 2, 1], 3.0)
    assert result.lambda_star == pytest.approx(oracle, abs=1e-9)


def test_mixed_family_rejected():
    from teshape import PiecewiseLinear

    inst = MarketInstance(
        production=(1.0, 1.0),
        preferences=(Quadratic(1, 1), PiecewiseLinear(1, 1)),
    )
    with pytest.raises(ValidationError, match="homogeneous quadratic"):
        solve_mtes_quadratic(inst)


def test_oracle_equivalence_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(300):
        inst = random_quadratic_instance(rng)
        closed = solve_mtes_quadratic(inst)
        bisect = solve_mtes_generic(inst)
        assert abs(closed.lambda_star - bisect.lambda_star) <= 1e-8
        gap = max(abs(c - g) for c, g in zip(closed.x_star, bisect.x_star))
        assert gap <= 1e-6


def test_sign_of_price_tracks_total_satiation():
    rng = np.random.default_rng(7)
    for _ in range(300):
        inst = random_quadratic_instance(rng)
        result = solve_mtes_quadratic(inst)
        total_m = sum(p.m for p in inst.preferences)
        if total_m <= inst.capacity:
            assert result.lambda_star <= 0
        else:
            assert result.lambda_star > 0


def test_price_monotone_componentwise():
    # raising any single m_i or b_i never lowers a positive price
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 60:
        inst = random_quadratic_instance(rng, n_max=10)
        base = solve_mtes_quadratic(inst)
        if base.lambda_star <= 0:
            continue
        i = int(rng.integers(0, inst.n))
        bump = float(rng.uniform(0.0, 5.0))
        for field in ("b", "m"):
            prefs = list(inst.preferences)
            kwargs = {"b": prefs[i].b, "m": prefs[i].m}
            kwargs[field] += bump
            prefs[i] = Quadratic(**kwargs)
            raised = solve_mtes_quadratic(
                MarketInstance(inst.production, tuple(prefs), inst.model)
            )
            assert raised.lambda_star >= base.lambda_star - 1e-12
        checked += 1


def test_homogeneous_agents_split_capacity_equally():
    n = 7
    inst = MarketInstance(
        production=tuple([2.0] * n),
        preferences=tuple([Quadratic(3.0, 9.0)] * n),
    )
    result = solve_mtes_quadratic(inst)
    share = inst.capacity / n
    for x in result.x_star:
        assert x == pytest.approx(share, abs=1e-12)
    # price equals the common marginal value at the equal share
    assert result.lambda_star == pytest.approx(3.0 * (9.0 - share), abs=1e-9)


def test_closed_form_matches_oracle_allocation(quartet):
    result = solve_mtes_quadratic(quartet)
    x_oracle = quadratic_allocation(list(QUARTET_B), list(QUARTET_M), result.lambda_star)
    assert result.x_star == pytest.approx(x_oracle, abs=1e-12)
