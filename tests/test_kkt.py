from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from teshape import (
    Custom,
    EquilibriumResult,
    MarketInstance,
    ModelKind,
    PiecewiseLinear,
    PreferenceColumns,
    Quadratic,
    SolveMethod,
    SolverError,
    sample_production,
    sample_quadratic_params,
    solve,
    solve_mtes_pwl,
    solve_mtes_quadratic,
    verify_kkt,
)
from teshape import solver

from conftest import random_pwl_instance, random_quadratic_instance


def test_quartet_result_passes(quartet):
    result = solve_mtes_quadratic(quartet)
    report = verify_kkt(quartet, result)
    assert report.max_violation <= 1e-6
    assert report.ok
    assert result.kkt_max_violation <= 1e-6


def test_perturbed_allocation_reports_balance_gap(quartet):
    result = solve_mtes_quadratic(quartet)
    x = list(result.x_star)
    x[0] += 0.1
    tampered = replace(result, x_star=tuple(x))
    report = verify_kkt(quartet, tampered)
    assert report.balance_violation == pytest.approx(0.1, abs=1e-9)
    assert report.stationarity[0] == pytest.approx(0.1, abs=1e-9)
    assert not report.ok


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e9])
def test_report_ok_is_the_solver_gate(scale):
    """``ok`` reads max_violation <= 1e-8 * max(1, C), the rule that lets a
    result out of ``solve``: a sampled market with a and m scaled up carries
    an absolute violation past 1e-6, and both accept it."""
    rng = np.random.default_rng(1)
    a = sample_production(1000, rng)
    b, m = sample_quadratic_params(1000, float(np.sum(a)), 15.0, rng)
    inst = MarketInstance(a * scale, PreferenceColumns(Quadratic, b, m * scale))
    result = solve(inst)
    report = verify_kkt(inst, result)
    assert report.ok is True
    assert report.max_violation == result.kkt_max_violation <= 1e-8 * inst.capacity
    if scale == 1e9:
        assert report.max_violation > 1e-6
    tampered = replace(result, x_star=(result.x_star[0] + 1e-7 * inst.capacity, *result.x_star[1:]))
    assert verify_kkt(inst, tampered).ok is False


def test_marginal_pwl_agents_accepted_anywhere_in_range():
    inst = MarketInstance(
        production=(2.0, 2.0),
        preferences=(PiecewiseLinear(4, 3), PiecewiseLinear(2, 3)),
    )
    result = solve_mtes_pwl(inst)  # price lands on agent 2's rate
    assert result.lambda_star == 2.0
    for x2 in (0.0, 1.5, 3.0):
        x = (3.0, x2)
        shifted = replace(result, x_star=x)
        report = verify_kkt(inst, shifted)
        assert report.stationarity[1] == 0.0
    outside = replace(result, x_star=(3.0, 3.5))
    assert verify_kkt(inst, outside).stationarity[1] == pytest.approx(0.5)


def test_trading_results_check_trade_balance(quartet):
    st = solve(MarketInstance(quartet.production, quartet.preferences, ModelKind.MTES_ST))
    report = verify_kkt(
        MarketInstance(quartet.production, quartet.preferences, ModelKind.MTES_ST), st
    )
    assert report.max_violation <= 1e-6
    # breaking one trade breaks the balance
    e = list(st.e_star)
    e[1] += 0.25
    tampered = replace(st, e_star=tuple(e))
    report = verify_kkt(
        MarketInstance(quartet.production, quartet.preferences, ModelKind.MTES_ST), tampered
    )
    assert report.balance_violation == pytest.approx(0.25, abs=1e-9)
    assert report.feasibility[1] == pytest.approx(0.25, abs=1e-9)


def test_solver_results_verify_across_random_suites():
    rng = np.random.default_rng(29)
    for _ in range(150):
        inst = random_quadratic_instance(rng, n_max=30)
        assert solve(inst).kkt_max_violation <= 1e-6
        st = MarketInstance(inst.production, inst.preferences, ModelKind.MTES_ST)
        assert solve(st).kkt_max_violation <= 1e-6
    for _ in range(150):
        inst = random_pwl_instance(rng, n_max=30)
        assert solve(inst).kkt_max_violation <= 1e-6
        st = MarketInstance(inst.production, inst.preferences, ModelKind.MTES_ST)
        assert solve(st).kkt_max_violation <= 1e-6


def test_negative_price_flagged_for_trading_model(quartet):
    st_inst = MarketInstance(quartet.production, quartet.preferences, ModelKind.MTES_ST)
    result = solve(st_inst)
    bad = replace(result, lambda_star=-1.0)
    report = verify_kkt(st_inst, bad)
    assert report.price_violation == 1.0
    # a trading result that reports no trades cannot balance them
    report = verify_kkt(st_inst, replace(result, e_star=None))
    assert report.balance_violation == math.inf and report.ok is False


def test_result_gate_raises_on_planted_clearings(quartet):
    """A clearing nudged off the equilibrium by 1e-6 relative passes no
    packaging: closed-form, a stack of markets and the generic route."""
    clearing = solver._clear_kinks(quartet)
    assert solver._result(quartet, clearing)[0].kkt_max_violation <= 1e-12
    with pytest.raises(SolverError, match="KKT violation"):
        solver._result(quartet, clearing._replace(x=clearing.x * (1.0 + 1e-6)))

    capacity = quartet.capacity * np.array([0.5, 1.0, 2.0])
    clearing = solver._clear_kinks(quartet, capacity)
    assert len(solver._result(quartet, clearing, capacity=capacity)) == 3
    x = clearing.x.copy()
    x[2] *= 1.0 + 1e-6
    with pytest.raises(SolverError, match=re.escape(f"at price {clearing.lam[2].item()!r}")):
        solver._result(quartet, clearing._replace(x=x), capacity=capacity)

    mixed = MarketInstance((3.0, 1.0), (Quadratic(1.0, 4.0), Custom(lambda x: 5.0 * np.log1p(x), lambda x: 5.0 / (1.0 + x))))
    clearing = solver._clear_generic(mixed)
    with pytest.raises(SolverError, match="KKT violation"):
        solver._result(mixed, clearing._replace(lam=clearing.lam * (1.0 + 1e-6)))


def test_nan_balance_sets_the_peak():
    """A NaN anywhere in a row of violations is the row's peak, so the gate
    refuses it: here x = inf at every agent of a market whose total production
    overflows, a NaN balance behind zero stationarity and feasibility."""
    inst = MarketInstance((1e308, 1e308), (PiecewiseLinear(1.0, 3.0), PiecewiseLinear(2.0, 4.0)))
    clearing = solver._Clearing(0.0, np.full(2, np.inf), SolveMethod.BREAKPOINT_PWL)
    result = EquilibriumResult(0.0, (np.inf, np.inf), None, SolveMethod.BREAKPOINT_PWL, 0.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        report = verify_kkt(inst, result)
        assert report.stationarity == report.feasibility == (0.0, 0.0)
        assert np.isnan(report.balance_violation) and np.isnan(report.max_violation) and not report.ok
        with pytest.raises(SolverError, match="KKT violation nan"):
            solver._result(inst, clearing)


@pytest.mark.parametrize("model", [ModelKind.MTES, ModelKind.MTES_ST])
def test_tiny_pwl_rates_clear_at_the_rate(model):
    # a price of 1e-12 is the second agent's rate, not the zero price: the check tells them apart
    inst = MarketInstance((2.0, 2.0), (PiecewiseLinear(1e-12, 3.0), PiecewiseLinear(2e-12, 3.0)), model)
    result = solve(inst)
    assert result.lambda_star == 1e-12
    assert result.x_star == (1.0, 3.0)
    assert result.kkt_max_violation == verify_kkt(inst, result).max_violation == 0.0


@pytest.mark.parametrize("family", [Quadratic, PiecewiseLinear])
@pytest.mark.parametrize("scale", [1e-12, 1e-300])
def test_scaled_trading_markets_clear_as_the_plain_market(family, scale, quartet):
    # scaling b (or beta) by s scales a positive price by about s; the trading market keeps that price
    b, m = quartet.preferences.columns
    scaled = PreferenceColumns(family, b * scale if family is Quadratic else m * scale, m)
    plain = solve(MarketInstance(quartet.production, scaled))
    st_inst = MarketInstance(quartet.production, scaled, ModelKind.MTES_ST)
    trading = solve(st_inst)
    assert 0.0 < trading.lambda_star == plain.lambda_star <= 1e3 * scale
    assert trading.x_star == plain.x_star
    assert trading.kkt_max_violation <= 1e-12
    e = list(trading.e_star)
    e[0] -= 0.25  # a positive price, however small, binds x + e <= a
    assert verify_kkt(st_inst, replace(trading, e_star=tuple(e))).feasibility[0] == pytest.approx(0.25)


def _select_stationarity(lam, beta, phi, x):
    """The PWL stationarity as np.select wrote it: the first condition that holds picks its case."""
    eq_tol = 1e-9 * beta
    return np.select(
        [lam <= eq_tol, lam > beta + eq_tol, lam >= beta - eq_tol],
        [np.maximum(phi - x, 0.0), np.abs(x), np.maximum(np.maximum(-x, x - phi), 0.0)],
        np.abs(x - phi),
    )


def test_pwl_stationarity_matches_select_bit_for_bit():
    # every agent's rate, the rate +- its tolerance and one float past them, the zero prices and NaN, as
    # stacked price rows; allocations on both sides of 0 and phi, signed zeros and NaN, NaN rates and loads, and
    # a negative rate, under which the zero price and the drop-out case both hold
    beta = np.repeat([2.0, 5.0, 1e-300, np.nan, -2.0, 3.0], 9)
    phi = np.tile(np.repeat([1.5, 0.0, np.nan], 3), 6)
    x = np.resize([-1.0, -0.0, 0.0, 0.75, 1.5, 3.0, np.nan, 1.5 - 1e-12, -np.nan], len(beta))
    edges = [beta, beta + 1e-9 * beta, beta - 1e-9 * beta]
    prices = np.unique(np.concatenate([*edges, *(np.nextafter(e, s) for e in edges for s in (-np.inf, np.inf))]))
    lam = np.concatenate([prices, [0.0, -0.0, -1.0, np.nan, np.copysign(np.nan, -1.0)]])[:, None]
    rows = np.tile(x, (len(lam), 1))
    inst = MarketInstance(np.ones(len(beta)), PreferenceColumns(PiecewiseLinear, beta, phi))
    with np.errstate(invalid="ignore"):
        stationarity = solver._kkt(inst, lam, rows, None, capacity=np.ones(len(lam)))[0]
        expected = _select_stationarity(lam, beta, phi, rows)
    assert stationarity.shape == expected.shape == (len(lam), len(beta))
    assert stationarity.tobytes() == expected.tobytes()
