"""Admissibility of preference-parameter boxes against a price threshold.

A box of parameters is socially admissible when every profile drawn from it
clears at a price at or below the threshold. For quadratic boxes the exact
worst case over the box is attained with all agents at the corner; for
piece-wise linear boxes the marginal rate bound itself caps the price.
Membership comparisons are non-strict or strict exactly as the respective
conditions state (note the deliberate asymmetry: ``m_max <= C/n`` versus
``phi_max < C/n``).
"""

from __future__ import annotations

from .model import (
    BindingCondition,
    Custom,
    PiecewiseLinear,
    Quadratic,
    ShapingQuery,
    ShapingVerdict,
    UtilityParams,
    ValidationError,
)


class NotDifferentiable(TypeError):
    """Raised when a derivative-based check receives a PWL preference."""


def _require_positive(**values: float) -> None:
    bad = [name for name, v in values.items() if not v > 0]
    if bad:
        raise ValidationError([f"{name} must be positive" for name in bad])


def chi_theta_quadratic(b_max: float, m_max: float, n: int, capacity: float) -> float:
    """Worst-case clearing price over the quadratic box (0, b_max] x (0, m_max].

    By price monotonicity in both parameters the supremum sits at the corner
    where every agent picks (b_max, m_max); there the balance gives
    b_max * (n*m_max - C) / n, floored at zero when satiation fits capacity.
    """
    _require_positive(b_max=b_max, m_max=m_max, n=n, capacity=capacity)
    return max(0.0, b_max * (n * m_max - capacity) / n)


def check_quadratic_set(query: ShapingQuery) -> ShapingVerdict:
    """Decide admissibility of a quadratic parameter box.

    Admissible when satiation loads cannot exceed the per-agent capacity
    share, or when the curvature bound stays within
    n * threshold / (n * m_max - C).
    """
    if query.b_max is None or query.m_max is None:
        raise ValidationError(["quadratic query requires b_max and m_max"])
    _require_positive(
        threshold=query.threshold,
        n=query.n,
        capacity=query.capacity,
        b_max=query.b_max,
        m_max=query.m_max,
    )
    n, c = query.n, query.capacity
    share = c / n
    if query.m_max <= share:
        return ShapingVerdict(
            admissible=True,
            worst_case_lambda=0.0,
            binding_condition=BindingCondition.M_BELOW_CAPACITY_SHARE,
        )
    admissible = query.b_max <= n * query.threshold / (n * query.m_max - c)
    return ShapingVerdict(
        admissible=admissible,
        worst_case_lambda=chi_theta_quadratic(query.b_max, query.m_max, n, c),
        binding_condition=BindingCondition.B_MAX_BOUND,
    )


def check_pwl_set(query: ShapingQuery) -> ShapingVerdict:
    """Decide admissibility of a piece-wise linear parameter box.

    With saturation loads strictly below the per-agent capacity share the
    price is zero for every profile. Otherwise at least one agent's marginal
    rate bounds the price, so the box is admissible iff beta_max stays at or
    below the threshold.
    """
    if query.beta_max is None or query.phi_max is None:
        raise ValidationError(["pwl query requires beta_max and phi_max"])
    _require_positive(
        threshold=query.threshold,
        n=query.n,
        capacity=query.capacity,
        beta_max=query.beta_max,
        phi_max=query.phi_max,
    )
    share = query.capacity / query.n
    if query.phi_max < share:
        return ShapingVerdict(
            admissible=True,
            worst_case_lambda=0.0,
            binding_condition=BindingCondition.PHI_BELOW_CAPACITY_SHARE,
        )
    return ShapingVerdict(
        admissible=query.beta_max <= query.threshold,
        worst_case_lambda=query.beta_max,
        binding_condition=BindingCondition.BETA_MAX_BOUND,
    )


def check_homogeneous(
    theta: UtilityParams, n: int, capacity: float, threshold: float
) -> ShapingVerdict:
    """Decide admissibility of one preference shared by all agents.

    With identical preferences every agent consumes C/n and the price is the
    common marginal value there, so admissibility reduces to evaluating the
    derivative at the capacity share.
    """
    _require_positive(n=n, capacity=capacity, threshold=threshold)
    if isinstance(theta, PiecewiseLinear):
        raise NotDifferentiable("homogeneous check requires a differentiable preference")
    if isinstance(theta, Quadratic):
        marginal = theta.b * (theta.m - capacity / n)
    elif isinstance(theta, Custom):
        marginal = float(theta.deriv(capacity / n))
    else:
        raise ValidationError([f"unknown preference type {type(theta).__name__}"])
    return ShapingVerdict(
        admissible=marginal <= threshold,
        worst_case_lambda=marginal,
        binding_condition=BindingCondition.HOMOGENEOUS_DERIVATIVE,
    )
