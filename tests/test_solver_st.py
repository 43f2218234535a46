from __future__ import annotations

import numpy as np
import pytest

from teshape import (
    MarketInstance,
    ModelKind,
    PiecewiseLinear,
    Quadratic,
    ValidationError,
    solve,
    solve_mtes_generic,
    solve_mtes_pwl,
    solve_mtes_quadratic,
    solve_mtes_st,
)

from conftest import quartet_instance, random_pwl_instance, random_quadratic_instance


def as_st(inst: MarketInstance) -> MarketInstance:
    return MarketInstance(inst.production, inst.preferences, ModelKind.MTES_ST)


def test_requires_trading_model(quartet):
    with pytest.raises(ValidationError, match="MTES-ST"):
        solve_mtes_st(quartet)


def test_quartet_reduction(quartet):
    st = solve_mtes_st(as_st(quartet))
    plain = solve_mtes_quadratic(quartet)
    assert st.lambda_star == plain.lambda_star  # exact copy when positive
    assert st.x_star == plain.x_star
    expected_e = tuple(a - x for a, x in zip(quartet.production, plain.x_star))
    assert st.e_star == expected_e
    assert st.e_star == pytest.approx((-0.12, 3.35, 1.59, -4.82), abs=5e-3)
    assert abs(sum(st.e_star)) <= 1e-9


def test_price_floors_at_zero_with_satiation_loads():
    inst = MarketInstance(
        production=(10.0, 10.0),
        preferences=(Quadratic(1.0, 4.0), Quadratic(2.0, 4.0)),
        model=ModelKind.MTES_ST,
    )
    result = solve_mtes_st(inst)
    assert result.lambda_star == 0.0
    assert result.x_star == (4.0, 4.0)  # each consumes its satiation load
    # surplus (C - sum m)/n returned equally through the trades
    assert result.e_star == pytest.approx((10 - 4 - 6, 10 - 4 - 6), abs=1e-12)
    assert abs(sum(result.e_star)) <= 1e-12
    for a, x, e in zip(inst.production, result.x_star, result.e_star):
        assert x + e <= a + 1e-12


def test_pwl_positive_price_matches_plain_market():
    rng = np.random.default_rng(5)
    seen_positive = 0
    while seen_positive < 50:
        inst = random_pwl_instance(rng, n_max=10)
        plain = solve_mtes_pwl(inst)
        if plain.lambda_star <= 0:
            continue
        st = solve_mtes_st(as_st(inst))
        assert st.lambda_star == plain.lambda_star
        assert st.x_star == plain.x_star
        seen_positive += 1


def test_pwl_zero_price_trades_balance():
    inst = MarketInstance(
        production=(3.0, 3.0),
        preferences=(PiecewiseLinear(4, 1), PiecewiseLinear(2, 1)),
        model=ModelKind.MTES_ST,
    )
    result = solve_mtes_st(inst)
    assert result.lambda_star == 0.0
    for x, phi in zip(result.x_star, (1.0, 1.0)):
        assert x >= phi
    assert abs(sum(result.e_star)) <= 1e-12
    for a, x, e in zip(inst.production, result.x_star, result.e_star):
        assert x + e <= a + 1e-12


def test_reduction_identity_on_random_instances():
    rng = np.random.default_rng(13)
    positive_seen = 0
    for _ in range(400):
        inst = random_quadratic_instance(rng, n_max=20)
        plain = solve_mtes_quadratic(inst)
        st = solve_mtes_st(as_st(inst))
        tol = 1e-9 * max(1.0, inst.capacity)
        assert abs(sum(st.e_star)) <= tol
        for a, x, e in zip(inst.production, st.x_star, st.e_star):
            assert x + e <= a + tol
        assert st.lambda_star >= 0.0
        if plain.lambda_star > 0:
            assert st.lambda_star == plain.lambda_star
            assert st.x_star == plain.x_star
            positive_seen += 1
        else:
            assert st.lambda_star == 0.0
    assert positive_seen >= 50


def test_zero_price_iff_satiation_fits():
    rng = np.random.default_rng(17)
    for _ in range(300):
        inst = random_quadratic_instance(rng, model=ModelKind.MTES_ST)
        result = solve_mtes_st(inst)
        total_m = sum(inst.preferences.columns[1].tolist())
        if total_m <= inst.capacity:
            assert result.lambda_star == 0.0
        else:
            assert result.lambda_star > 0.0


def test_pwl_zero_price_iff_saturation_below_capacity():
    rng = np.random.default_rng(19)
    for _ in range(300):
        inst = random_pwl_instance(rng, model=ModelKind.MTES_ST)
        result = solve_mtes_st(inst)
        total_phi = sum(inst.preferences.columns[1].tolist())
        if total_phi < inst.capacity:
            assert result.lambda_star == 0.0
        elif total_phi > inst.capacity:
            assert result.lambda_star > 0.0


def test_dispatcher_routes_trading_model(quartet):
    result = solve(as_st(quartet))
    assert result.e_star is not None


def test_bisection_route_for_trading_model(quartet):
    from teshape import verify_kkt

    st = as_st(quartet)
    result = solve_mtes_generic(st)
    closed = solve_mtes_st(st)
    assert abs(result.lambda_star - closed.lambda_star) <= 1e-8
    assert abs(sum(result.e_star)) <= 1e-9 * max(1.0, quartet.capacity)
    assert verify_kkt(st, result).max_violation <= 1e-6


def test_mixed_custom_trading_instance():
    import math

    from teshape import Custom, verify_kkt

    log_pref = Custom(lambda x: math.log(1 + x), lambda x: 1 / (1 + x))
    inst = MarketInstance(
        production=(4.0, 4.0),
        preferences=(Quadratic(2.0, 6.0), log_pref),
        model=ModelKind.MTES_ST,
    )
    result = solve(inst)
    assert result.lambda_star > 0
    assert abs(sum(result.e_star)) <= 1e-9
    assert verify_kkt(inst, result).max_violation <= 1e-6


def test_route_functions_clear_trading_instances():
    # every route clears both models: on a trading instance each forced route
    # takes the trading reduction too
    from teshape import verify_kkt

    rng = np.random.default_rng(23)
    zero_prices = positive_prices = 0
    for _ in range(60):
        quad = random_quadratic_instance(rng, n_max=30, model=ModelKind.MTES_ST)
        pwl = random_pwl_instance(rng, n_max=30, model=ModelKind.MTES_ST)
        for inst, route in ((quad, solve_mtes_quadratic), (pwl, solve_mtes_pwl)):
            expected = solve(inst)
            assert repr(route(inst)) == repr(expected)  # float reprs are exact: bit for bit
            zero_prices += expected.lambda_star == 0.0
            positive_prices += expected.lambda_star > 0.0
        bisected = solve_mtes_generic(quad)
        tol = 1e-8 * max(1.0, quad.capacity)
        assert bisected.e_star is not None and bisected.kkt_max_violation <= tol
        assert verify_kkt(quad, bisected).max_violation <= tol
    assert zero_prices >= 20 and positive_prices >= 20


@pytest.mark.parametrize("model", list(ModelKind))
def test_solve_takes_the_route_its_preferences_pick(model):
    import math

    from teshape import Custom, SolveMethod

    rng = np.random.default_rng(29)
    log_pref = Custom(lambda x: math.log(1 + x), lambda x: 1 / (1 + x))
    for _ in range(20):
        quad = random_quadratic_instance(rng, n_max=30, model=model)
        pwl = random_pwl_instance(rng, n_max=30, model=model)
        b, m = (column[1:].tolist() for column in quad.preferences.columns)
        mixed = MarketInstance(quad.production, [log_pref, *map(Quadratic, b, m)], model)
        for inst, route, method in ((quad, solve_mtes_quadratic, SolveMethod.CLOSED_FORM_QUADRATIC),
                                    (pwl, solve_mtes_pwl, SolveMethod.BREAKPOINT_PWL),
                                    (mixed, solve_mtes_generic, SolveMethod.BISECTION)):
            result = solve(inst)
            assert result.method is method
            assert repr(result) == repr(route(inst))
