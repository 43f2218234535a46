"""The paper's central claim as a tested property.

A box of preference parameters that the closed-form check admits clears at
or below lambda_dagger for every profile drawn from it (soundness); the
market with every agent at the box's corner clears at the check's
``worst_case_lambda`` (tightness); a refused box's corner clears above
lambda_dagger. Quadratic and PWL boxes run at n in {1, 2, 7, 1000} and
lambda_dagger in {0.01, 15, 1e6}; a w*log(1+x) box, w <= w_max, is decided
by ``check_homogeneous`` at its corner, since u'_w(C/n) = w/(1 + C/n) rises
in w. Soundness and the corners are checked in both models: a trading
market clears at max(lambda, 0), so every verdict holds there too. Every
draw comes from a seeded NumPy generator. The paper's tight ranges, the
largest admitted bounds, are the box checks' boundaries and the samplers'
corners on an explicit grid that reaches the float range's ends.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from teshape import (
    BindingCondition,
    Custom,
    MarketInstance,
    ModelKind,
    PiecewiseLinear,
    PreferenceColumns,
    Quadratic,
    ShapingVerdict,
    check_homogeneous,
    check_pwl_set,
    check_quadratic_set,
    pwl_beta_range,
    quadratic_b_range,
    sample_production,
    sample_pwl_params,
    sample_quadratic_params,
    solve,
)

from oracles import exact_b_range, exact_worst_case, rounded

SIZES = (1, 2, 7, 1000)
THRESHOLDS = (0.01, 15.0, 1e6)
PROFILES = 8  # profiles drawn from each admissible box

grid = pytest.mark.parametrize(("n", "lam_dagger"), [(n, t) for n in SIZES for t in THRESHOLDS])
# the grid in either model; a plain-model case keeps the grid's id, a trading one adds "mtes_st"
models = pytest.mark.parametrize(("n", "lam_dagger", "model"), [
    pytest.param(n, t, model, id=f"{n}-{t}" + ("-mtes_st" if model is ModelKind.MTES_ST else ""))
    for model in ModelKind for n in SIZES for t in THRESHOLDS
])


def _market(n: int, lam_dagger: float, salt: int) -> tuple[np.random.Generator, np.ndarray, float]:
    """A seeded generator, n productions and their capacity, summed as a Monte Carlo trial sums them."""
    rng = np.random.default_rng((n, THRESHOLDS.index(lam_dagger), salt))
    a = sample_production(n, rng)
    return rng, a, float(np.sum(a))


def _inside(upper: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from (0, upper], agent one on the bound."""
    out = upper * (1.0 - rng.random(n))
    out[0] = upper
    return out


def _quadratic_tol(n: int, lam_dagger: float, b_max: float, m: np.ndarray, capacity: float) -> float:
    """The Monte Carlo trial's rounding bound, with b_max for b_1: any active agent keeps S_b >= 1/b_max."""
    return 2 * (n + 4) * np.finfo(float).eps * (lam_dagger + b_max * (float(np.sum(m)) + capacity))


def _clear(kind, a: np.ndarray, first, second, model: ModelKind = ModelKind.MTES) -> float:
    """The price of the market whose agents take the parameters ``first`` and ``second`` (arrays or one value)."""
    columns = PreferenceColumns(kind, np.broadcast_to(first, len(a)), np.broadcast_to(second, len(a)))
    return solve(MarketInstance(a, columns, model)).lambda_star


def _log_agent(w: float) -> Custom:
    return Custom(lambda x: w * np.log1p(x), lambda x: w / (1.0 + x))


# ---------------------------------------------------------------------------
# Quadratic boxes
# ---------------------------------------------------------------------------


@models
def test_quadratic_admissible_boxes_are_sound(n, lam_dagger, model):
    """On the boundary b_max = n*lambda_dagger/(n*m_max - C), and with m_max
    at most the share C/n for any curvature: every profile clears at
    lambda_dagger + tol or below."""
    rng, a, capacity = _market(n, lam_dagger, 0)
    share = capacity / n
    m_max = share * rng.uniform(1.0, 100.0)
    boundary = (n * lam_dagger / (n * m_max - capacity), m_max, BindingCondition.B_MAX_BOUND)
    below = (10.0 ** rng.uniform(-3, 9), share * (1.0 - rng.random()), BindingCondition.M_BELOW_CAPACITY_SHARE)
    for b_max, m_max, binding in (boundary, below):
        verdict = check_quadratic_set(b_max, m_max, n, capacity, lam_dagger)
        assert verdict.admissible and verdict.binding_condition is binding
        assert verdict.worst_case_lambda <= lam_dagger * (1 + 1e-12)
        for _ in range(PROFILES):
            b, m = _inside(b_max, n, rng), _inside(m_max, n, rng)
            assert _clear(Quadratic, a, b, m, model) <= lam_dagger + _quadratic_tol(n, lam_dagger, b_max, m, capacity)


@models
def test_quadratic_corner_attains_the_worst_case(n, lam_dagger, model):
    """With n*m_max > C the corner clears at worst_case_lambda; past the
    boundary curvature the box is refused and its corner clears above
    lambda_dagger."""
    rng, a, capacity = _market(n, lam_dagger, 1)
    m_max = capacity / n * rng.uniform(1.01, 100.0)
    bound = n * lam_dagger / (n * m_max - capacity)
    for b_max in (bound * (1.0 - rng.random()), bound * rng.uniform(1.01, 10.0)):
        verdict = check_quadratic_set(b_max, m_max, n, capacity, lam_dagger)
        assert verdict.admissible is (b_max <= bound)
        price = _clear(Quadratic, a, b_max, m_max, model)
        tol = _quadratic_tol(n, lam_dagger, b_max, np.full(n, m_max), capacity)
        assert abs(price - verdict.worst_case_lambda) <= tol
        assert verdict.admissible or price > lam_dagger


@grid
def test_quadratic_knife_edge_share_is_admissible(n, lam_dagger):
    """m_max = C/n is admissible at any curvature with worst case 0.0; a
    capacity that is an exact multiple of n puts the corner at price 0."""
    rng, a, capacity = _market(n, lam_dagger, 2)
    b_max = 10.0 ** rng.uniform(-3, 9)
    exact = np.full(n, 0.375)
    for a, capacity in ((a, capacity), (exact, 0.375 * n)):
        verdict = check_quadratic_set(b_max, capacity / n, n, capacity, lam_dagger)
        assert verdict.admissible and verdict.worst_case_lambda == 0.0
        assert verdict.binding_condition is BindingCondition.M_BELOW_CAPACITY_SHARE
        tol = _quadratic_tol(n, lam_dagger, b_max, np.full(n, capacity / n), capacity)
        assert _clear(Quadratic, a, b_max, capacity / n) <= lam_dagger + tol
    assert _clear(Quadratic, exact, b_max, 0.375) == 0.0


def test_quadratic_one_ulp_past_the_share_is_admissible():
    """m_max one ulp above C/n can round n*m_max - C to zero; the worst case
    there is 0.0, so the box is admissible under the curvature bound."""
    edges = 0
    for capacity in (1.0, 3.0, 7.0, 20.0, 0.1, 1e6, 123.456):
        for n in range(1, 3000, 7):
            m_max = math.nextafter(capacity / n, math.inf)
            verdict = check_quadratic_set(1.0, m_max, n, capacity, 1.0)
            if n * m_max - capacity == 0:
                edges += 1
                assert verdict.admissible and verdict.worst_case_lambda == 0.0
                assert verdict.binding_condition is BindingCondition.B_MAX_BOUND
    assert edges > 0
    verdict = check_quadratic_set(1.0, 0.33333333333333337, 3, 1.0, 1.0)
    assert verdict.admissible and verdict.worst_case_lambda == 0.0
    assert _clear(Quadratic, np.full(3, 1.0 / 3.0), 1.0, 0.33333333333333337) <= 1.0


# ---------------------------------------------------------------------------
# PWL boxes
# ---------------------------------------------------------------------------


@models
def test_pwl_admissible_boxes_are_sound(n, lam_dagger, model):
    """beta_max at most lambda_dagger, and phi_max strictly below the share
    for any rate: every profile clears at lambda_dagger or below, exactly."""
    rng, a, capacity = _market(n, lam_dagger, 3)
    share = capacity / n
    rate = (lam_dagger * (1.0 - rng.random()), share * rng.uniform(1.0, 10.0), BindingCondition.BETA_MAX_BOUND)
    below = (lam_dagger * 10.0 ** rng.uniform(0, 6), share * rng.uniform(0.01, 1.0),
             BindingCondition.PHI_BELOW_CAPACITY_SHARE)
    for beta_max, phi_max, binding in (rate, below):
        verdict = check_pwl_set(beta_max, phi_max, n, capacity, lam_dagger)
        assert verdict.admissible and verdict.binding_condition is binding
        for _ in range(PROFILES):
            assert _clear(PiecewiseLinear, a, _inside(beta_max, n, rng), _inside(phi_max, n, rng), model) <= lam_dagger


@models
def test_pwl_corner_attains_the_worst_case(n, lam_dagger, model):
    """With phi_max past the share the corner clears at beta_max exactly:
    lambda_dagger on the threshold, above it when refused."""
    rng, a, capacity = _market(n, lam_dagger, 4)
    phi_max = capacity / n * rng.uniform(1.01, 10.0)
    for beta_max in (lam_dagger, lam_dagger * rng.uniform(1.01, 10.0)):
        verdict = check_pwl_set(beta_max, phi_max, n, capacity, lam_dagger)
        assert verdict.admissible is (beta_max == lam_dagger)
        price = _clear(PiecewiseLinear, a, beta_max, phi_max, model)
        assert price == verdict.worst_case_lambda == beta_max
        assert verdict.admissible or price > lam_dagger


@grid
def test_pwl_knife_edge_share_is_refused_but_clears_at_zero(n, lam_dagger):
    """phi_max = C/n is refused (the comparison is strict), yet with a
    capacity that is an exact multiple of n the corner is degenerate at
    price 0: saturation exactly fills the capacity."""
    rng = np.random.default_rng((n, THRESHOLDS.index(lam_dagger), 5))
    share = rng.integers(1, 640) / 64
    beta_max = lam_dagger * rng.uniform(1.01, 10.0)
    verdict = check_pwl_set(beta_max, share, n, share * n, lam_dagger)
    assert not verdict.admissible and verdict.binding_condition is BindingCondition.BETA_MAX_BOUND
    result = solve(MarketInstance(np.full(n, share), PreferenceColumns(PiecewiseLinear, [beta_max] * n, [share] * n)))
    assert result.lambda_star == 0.0 and result.degenerate


# ---------------------------------------------------------------------------
# A w*log(1+x) box, decided at its corner
# ---------------------------------------------------------------------------


@models
def test_log_box_decided_at_its_corner(n, lam_dagger, model):
    """Below w = lambda_dagger*(1 + C/n) the box is admissible, its corner
    clears at worst_case_lambda and profiles with w <= w_max clear at
    lambda_dagger or below; at 1% above it the box is refused and its corner
    clears above lambda_dagger. The self-check bounds the balance and each
    inverse by 1e-8*max(1, C), and sum_i |dx_i/dlambda| * lambda >= n at the
    corner, so prices carry a relative error of at most 2e-8*max(1, C)."""
    rng, a, capacity = _market(n, lam_dagger, 6)
    tol = 2e-8 * max(1.0, capacity) * lam_dagger
    edge = lam_dagger * (1.0 + capacity / n)
    for w_max in (edge * rng.uniform(0.5, 1.0), edge * 1.01):
        verdict = check_homogeneous(_log_agent(w_max), n, capacity, lam_dagger)
        assert verdict.admissible is (w_max < edge)
        assert verdict.binding_condition is BindingCondition.HOMOGENEOUS_DERIVATIVE
        corner = solve(MarketInstance(a, tuple(_log_agent(w_max) for _ in range(n)), model)).lambda_star
        assert abs(corner - verdict.worst_case_lambda) <= tol
        assert verdict.admissible or corner > lam_dagger
    profile = _inside(edge * rng.uniform(0.5, 1.0), n, rng).tolist()
    assert solve(MarketInstance(a, tuple(map(_log_agent, profile)), model)).lambda_star <= lam_dagger + tol


# ---------------------------------------------------------------------------
# The tight ranges on an explicit grid
# ---------------------------------------------------------------------------

RANGE_SIZES = (1, 3, 100, 2**62)
RANGE_CAPACITIES = (0.1, 1.0, 123.456, 1e6)  # capacities of the one-ulp knife-edge test above
RANGE_THRESHOLDS = (1e-300, 1.0, 1e308)
RANGE_FAMILIES = {  # family: its range, its box check and its sampler
    "quad": (quadratic_b_range, check_quadratic_set, sample_quadratic_params),
    "pwl": (pwl_beta_range, check_pwl_set, sample_pwl_params),
}

range_grid = pytest.mark.parametrize(("family", "n", "capacity", "lam_dagger"), [
    (family, n, c, t) for family in RANGE_FAMILIES for n in RANGE_SIZES for c in RANGE_CAPACITIES
    for t in RANGE_THRESHOLDS
])


def _given_bounds(n: int, capacity: float) -> tuple[float, ...]:
    """m_max or phi_max at the share C/n, one ulp either side of it, at twice it and at 1e299."""
    share = capacity / n
    return share, math.nextafter(share, 0.0), math.nextafter(share, math.inf), 2.0 * share, 1e299


def _inline_verdict(family: str, bound: float, given: float, n: int, capacity: float, threshold: float) -> tuple:
    """(admissible, worst case, binding condition) as the box checks' inline expressions gave them before the
    range functions; None for a field whose expression overflows, there being no float to keep."""
    if family == "pwl":
        if given < capacity / n:
            return True, 0.0, BindingCondition.PHI_BELOW_CAPACITY_SHARE
        return bound <= threshold, bound, BindingCondition.BETA_MAX_BOUND
    if given <= capacity / n:
        return True, 0.0, BindingCondition.M_BELOW_CAPACITY_SHARE
    excess = n * given - capacity
    overflows = excess and (math.isinf(excess) or math.isinf(n * threshold))  # excess == 0 divides nothing
    worst = bound * excess / n
    return (None if overflows else excess == 0 or bound <= n * threshold / excess,
            None if math.isinf(worst) else max(0.0, worst), BindingCondition.B_MAX_BOUND)


@range_grid
def test_range_is_the_box_checks_boundary(family, n, capacity, lam_dagger):
    """The check admits the range (a positive one: 1e-300/1e299 rounds to 0) and refuses the next float up; an
    infinite range admits the largest float. At these bounds and at 1e-300, 1 and 1e300 the verdicts are those
    of the inline expressions the ranges replaced wherever no n-fold product overflows; where one does, the
    range or the worst case is its rational value, rounded."""
    box_range, check, _ = RANGE_FAMILIES[family]
    for given in _given_bounds(n, capacity):
        bound = box_range(given, n, capacity, lam_dagger)
        if bound < math.inf:
            assert not check(math.nextafter(bound, math.inf), given, n, capacity, lam_dagger).admissible
        probes = [b for b in (bound, math.nextafter(bound, math.inf), sys.float_info.max) if 0 < b < math.inf]
        for b in (*probes, 1e-300, 1.0, 1e300):
            verdict = check(b, given, n, capacity, lam_dagger)
            assert verdict.admissible is (b <= bound)
            admissible, worst, binding = _inline_verdict(family, b, given, n, capacity, lam_dagger)
            assert verdict.binding_condition is binding
            if admissible is None:
                assert bound == pytest.approx(rounded(exact_b_range(given, n, capacity, lam_dagger)), rel=8e-16)
            else:
                assert verdict.admissible is admissible
            if worst is None:
                worst = pytest.approx(rounded(exact_worst_case(b, given, n, capacity)), rel=8e-16)
            assert verdict.worst_case_lambda == worst


@range_grid
def test_samplers_put_agent_one_on_the_range(family, n, capacity, lam_dagger):
    """Over seeded draws agent one's bound is the range at its other parameter, bit for bit, and the inline
    expression the sampler used before wherever n*lambda_dagger and n*m_1 stay finite. One-float buffers hold
    agent one alone, so n may be 2**62."""
    box_range, check, sample = RANGE_FAMILIES[family]
    rng = np.random.default_rng((RANGE_SIZES.index(n), RANGE_CAPACITIES.index(capacity),
                                 RANGE_THRESHOLDS.index(lam_dagger)))
    for _ in range(8):
        first, second = sample(n, capacity, lam_dagger, rng, out=(np.empty(1), np.empty(1)))
        corner, given = float(first[0]), float(second[0])
        assert corner.hex() == box_range(given, n, capacity, lam_dagger).hex()
        if family == "pwl":
            assert corner.hex() == lam_dagger.hex()
        elif not (math.isinf(n * lam_dagger) or math.isinf(n * given)):
            assert corner.hex() == (n * lam_dagger / (n * given - capacity)).hex()
        if corner < math.inf:  # the trial's own check admits the corner it samples
            assert check(corner, given, n, capacity, lam_dagger).admissible
