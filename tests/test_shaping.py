from __future__ import annotations

import math

import numpy as np
import pytest

from teshape import (
    BindingCondition,
    Custom,
    MarketInstance,
    ModelKind,
    PiecewiseLinear,
    Quadratic,
    ValidationError,
    check_homogeneous,
    check_pwl_set,
    check_quadratic_set,
    chi_theta_quadratic,
    solve,
    solve_mtes_generic,
    solve_mtes_pwl,
    solve_mtes_quadratic,
)
from teshape.shaping import NotDifferentiable


# ---------------------------------------------------------------------------
# Quadratic boxes
# ---------------------------------------------------------------------------


def test_quadratic_boundary_is_admissible_with_worst_case_at_threshold():
    n, capacity, threshold = 10_000, 50_000.0, 20.0
    m_max = 2.0 * capacity / n
    b_max = n * threshold / (n * m_max - capacity)
    verdict = check_quadratic_set(b_max, m_max, n, capacity, threshold)
    assert verdict.admissible
    assert verdict.worst_case_lambda == pytest.approx(threshold, abs=1e-9)
    assert verdict.binding_condition is BindingCondition.B_MAX_BOUND


def test_small_satiation_always_admissible():
    n, capacity = 4, 20.0
    verdict = check_quadratic_set(1e9, capacity / n, n, capacity, 0.001)
    assert verdict.admissible
    assert verdict.worst_case_lambda == 0.0
    assert verdict.binding_condition is BindingCondition.M_BELOW_CAPACITY_SHARE


def test_overshooting_curvature_rejected_and_witnessed():
    n, capacity, threshold = 8, 40.0, 10.0
    m_max = 3.0 * capacity / n
    b_max = 1.01 * n * threshold / (n * m_max - capacity)
    verdict = check_quadratic_set(b_max, m_max, n, capacity, threshold)
    assert not verdict.admissible
    # corner instance attains the worst case above the threshold
    corner = MarketInstance(
        production=tuple([capacity / n] * n),
        preferences=tuple([Quadratic(b_max, m_max)] * n),
    )
    solved = solve_mtes_quadratic(corner)
    assert solved.lambda_star == pytest.approx(1.01 * threshold, rel=1e-9)
    assert solved.lambda_star == pytest.approx(verdict.worst_case_lambda, rel=1e-12)


def test_chi_quadratic_values():
    assert chi_theta_quadratic(2.0, 6.0, 4, 24.0) == 0.0
    assert chi_theta_quadratic(10.0, 6.0, 4, 20.0) == pytest.approx(10.0, abs=1e-12)


def test_chi_quadratic_attained_at_corner():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        capacity = float(rng.uniform(1.0, 100.0))
        m_max = float(rng.uniform(capacity / n * 1.01, capacity / n * 10))
        b_max = float(rng.uniform(0.1, 10.0))
        corner = MarketInstance(
            production=tuple([capacity / n] * n),
            preferences=tuple([Quadratic(b_max, m_max)] * n),
        )
        solved = solve_mtes_quadratic(corner)
        assert solved.lambda_star == pytest.approx(
            chi_theta_quadratic(b_max, m_max, n, capacity), abs=1e-9 * max(1.0, capacity)
        )


def test_quadratic_soundness_random_profiles():
    rng = np.random.default_rng(43)
    n, capacity, threshold = 40, 200.0, 15.0
    m_max = 2.5 * capacity / n
    b_max = n * threshold / (n * m_max - capacity)
    assert check_quadratic_set(b_max, m_max, n, capacity, threshold).admissible
    for _ in range(300):
        b = b_max * (1.0 - rng.random(n))
        m = m_max * (1.0 - rng.random(n))
        a = rng.uniform(0, 2 * capacity / n, size=n)
        a *= capacity / a.sum()
        inst = MarketInstance(
            production=tuple(float(v) for v in a),
            preferences=tuple(Quadratic(float(bi), float(mi)) for bi, mi in zip(b, m)),
        )
        assert solve_mtes_quadratic(inst).lambda_star <= threshold + 1e-9


# ---------------------------------------------------------------------------
# PWL boxes
# ---------------------------------------------------------------------------


def test_pwl_rate_at_threshold_admissible():
    verdict = check_pwl_set(20.0, 500.0 / 100, 100, 500.0, 20.0)
    assert verdict.admissible
    assert verdict.binding_condition is BindingCondition.BETA_MAX_BOUND
    assert verdict.worst_case_lambda == 20.0


def test_pwl_small_saturation_admissible_for_any_rate():
    n, capacity = 10, 50.0
    verdict = check_pwl_set(1e6, 0.5 * capacity / n, n, capacity, 0.5)
    assert verdict.admissible
    assert verdict.worst_case_lambda == 0.0
    assert verdict.binding_condition is BindingCondition.PHI_BELOW_CAPACITY_SHARE


def test_pwl_rate_above_threshold_rejected_and_witnessed():
    n, capacity, threshold = 6, 30.0, 8.0
    beta_max = 1.5 * threshold
    phi_max = 2.0 * capacity / n  # strictly above the share: the corner attains beta_max
    verdict = check_pwl_set(beta_max, phi_max, n, capacity, threshold)
    assert not verdict.admissible
    corner = MarketInstance(
        production=tuple([capacity / n] * n),
        preferences=tuple([PiecewiseLinear(beta_max, phi_max)] * n),
    )
    solved = solve_mtes_pwl(corner)
    assert solved.lambda_star == beta_max
    assert solved.lambda_star > threshold


def test_pwl_soundness_random_profiles():
    rng = np.random.default_rng(47)
    n, capacity, threshold = 30, 150.0, 12.0
    phi_max = 3.0 * capacity / n
    beta_max = threshold
    assert check_pwl_set(beta_max, phi_max, n, capacity, threshold).admissible
    for _ in range(300):
        beta = beta_max * (1.0 - rng.random(n))
        phi = phi_max * (1.0 - rng.random(n))
        a = rng.uniform(0, 2 * capacity / n, size=n)
        a *= capacity / a.sum()
        inst = MarketInstance(
            production=tuple(float(v) for v in a),
            preferences=tuple(
                PiecewiseLinear(float(bi), float(pi)) for bi, pi in zip(beta, phi)
            ),
        )
        assert solve_mtes_pwl(inst).lambda_star <= threshold + 1e-9


def test_strictness_asymmetry_preserved():
    n, capacity = 5, 25.0
    share = capacity / n
    huge = 1e9
    # quadratic branch uses a non-strict comparison at the share
    assert check_quadratic_set(huge, share, n, capacity, 1.0).admissible
    # PWL branch is strict: at the share the rate bound kicks in
    verdict = check_pwl_set(huge, share, n, capacity, 1.0)
    assert verdict.binding_condition is BindingCondition.BETA_MAX_BOUND
    assert not verdict.admissible


# ---------------------------------------------------------------------------
# Homogeneous preferences
# ---------------------------------------------------------------------------


def test_homogeneous_quadratic_rule():
    n, capacity = 4, 20.0
    theta = Quadratic(2.0, 7.0)
    marginal = 2.0 * (7.0 - capacity / n)
    verdict = check_homogeneous(theta, n, capacity, threshold=marginal)
    assert verdict.admissible
    assert verdict.worst_case_lambda == pytest.approx(marginal, abs=1e-12)
    tighter = check_homogeneous(theta, n, capacity, threshold=marginal - 1e-6)
    assert not tighter.admissible


def test_homogeneous_satiation_at_share_is_free():
    verdict = check_homogeneous(Quadratic(5.0, 5.0), 4, 20.0, threshold=1e-9)
    assert verdict.admissible
    assert verdict.worst_case_lambda == 0.0


def test_homogeneous_custom_log():
    n, capacity = 5, 20.0
    theta = Custom(lambda x: math.log(1 + x), lambda x: 1 / (1 + x))
    expect = 1.0 / (1.0 + capacity / n)
    verdict = check_homogeneous(theta, n, capacity, threshold=expect)
    assert verdict.admissible
    assert verdict.worst_case_lambda == pytest.approx(expect, abs=1e-12)


def test_homogeneous_rejects_pwl():
    with pytest.raises(NotDifferentiable):
        check_homogeneous(PiecewiseLinear(1, 1), 2, 2.0, threshold=1.0)


def test_homogeneous_agrees_with_solver():
    rng = np.random.default_rng(53)
    for _ in range(50):
        n = int(rng.integers(1, 20))
        capacity = float(rng.uniform(1.0, 50.0))
        theta = Quadratic(float(rng.uniform(0.1, 10)), float(rng.uniform(0.1, 10)))
        threshold = float(rng.uniform(0.01, 30.0))
        inst = MarketInstance(
            production=tuple([capacity / n] * n), preferences=tuple([theta] * n)
        )
        solved = solve_mtes_generic(inst)
        verdict = check_homogeneous(theta, n, capacity, threshold)
        tol = 1e-7 * max(1.0, abs(solved.lambda_star))
        if verdict.admissible:
            assert solved.lambda_star <= threshold + tol
        else:
            assert solved.lambda_star > threshold - tol


def test_verdicts_survive_trading_model_switch():
    # the same boxes shape the trading model: zero-price branch and
    # positive-price equivalence both keep the price at or below the threshold
    rng = np.random.default_rng(59)
    n, capacity, threshold = 12, 60.0, 9.0
    m_max = 2.0 * capacity / n
    b_max = n * threshold / (n * m_max - capacity)
    for _ in range(100):
        b = b_max * (1.0 - rng.random(n))
        m = m_max * (1.0 - rng.random(n))
        a = rng.uniform(0, 2 * capacity / n, size=n)
        a *= capacity / a.sum()
        inst = MarketInstance(
            production=tuple(float(v) for v in a),
            preferences=tuple(Quadratic(float(bi), float(mi)) for bi, mi in zip(b, m)),
            model=ModelKind.MTES_ST,
        )
        assert solve(inst).lambda_star <= threshold + 1e-9


def test_nonpositive_inputs_rejected():
    with pytest.raises(ValidationError):
        check_quadratic_set(1.0, 1.0, 4, 20.0, -1.0)
    with pytest.raises(ValidationError):
        check_pwl_set(1.0, 1.0, 4, 0.0, 1.0)
    with pytest.raises(ValidationError):
        chi_theta_quadratic(0.0, 1.0, 2, 2.0)
    # numbers must be finite, and n an agent count in 1..2**63-1 (a float conversion of a huge n overflows)
    for bad in (math.inf, math.nan):
        for check in (lambda: check_quadratic_set(1.0, 6.0, 4, 20.0, bad),
                      lambda: check_pwl_set(1.0, 6.0, 4, bad, 20.0),
                      lambda: chi_theta_quadratic(1.0, bad, 4, 20.0),
                      lambda: check_homogeneous(Quadratic(2.0, 6.0), 4, bad, 10.0),
                      lambda: check_homogeneous(Quadratic(2.0, 6.0), 4, 20.0, bad)):
            with pytest.raises(ValidationError, match="must be positive and finite"):
                check()
    for n in (10**400, 2**63):
        for check in (lambda: check_quadratic_set(1.0, 6.0, n, 20.0, 10.0),
                      lambda: check_pwl_set(1.0, 6.0, n, 20.0, 10.0),
                      lambda: check_homogeneous(Quadratic(2.0, 6.0), n, 20.0, 10.0)):
            with pytest.raises(ValidationError, match=r"n must be in 1\.\.2\*\*63-1"):
                check()
    # a homogeneous quadratic needs finite positive b and m, and any marginal value must be a number
    for b, m in ((math.nan, 6.0), (math.inf, 5.0), (-1.0, 6.0), (2.0, math.inf), (2.0, 0.0)):
        with pytest.raises(ValidationError, match="must be positive and finite"):
            check_homogeneous(Quadratic(b, m), 4, 20.0, 10.0)
    with pytest.raises(ValidationError, match="NaN"):
        check_homogeneous(Custom(lambda x: x, lambda x: math.nan), 4, 20.0, 10.0)
    with pytest.raises(ValidationError, match="^unknown preference type object$"):
        check_homogeneous(object(), 4, 20.0, 10.0)
