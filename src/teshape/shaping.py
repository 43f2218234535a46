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

import math

from .model import (
    BindingCondition,
    Custom,
    PiecewiseLinear,
    Quadratic,
    ShapingVerdict,
    ValidationError,
)


class NotDifferentiable(TypeError):
    """Raised when a derivative-based check receives a PWL preference."""


def _require_positive(**values: float) -> None:
    """Each value positive and finite, and an ``n`` below 2**63, NumPy's index
    range, as ``ExperimentSpec`` requires."""
    bad = [name for name, v in values.items() if not 0 < v < (2**63 if name == "n" else math.inf)]
    if bad:
        raise ValidationError([f"{name} must be " + ("in 1..2**63-1" if name == "n" else "positive and finite")
                               for name in bad])


def chi_theta_quadratic(b_max: float, m_max: float, n: int, capacity: float) -> float:
    """Worst-case clearing price over the quadratic box (0, b_max] x (0, m_max].

    By price monotonicity in both parameters the supremum sits at the corner
    where every agent picks (b_max, m_max); there the balance gives
    b_max * (n*m_max - C) / n, floored at zero when satiation fits capacity.
    """
    _require_positive(b_max=b_max, m_max=m_max, n=n, capacity=capacity)
    return max(0.0, b_max * (n * m_max - capacity) / n)


def check_quadratic_set(b_max: float, m_max: float, n: int, capacity: float, threshold: float) -> ShapingVerdict:
    """Decide admissibility of the quadratic box (0, b_max] x (0, m_max].

    Admissible when satiation loads cannot exceed the per-agent capacity
    share, or when the curvature bound stays within
    n * threshold / (n * m_max - C). Where n * m_max - C rounds to zero, the
    worst case is chi_theta_quadratic's 0.0, so the box is admissible.
    """
    _require_positive(threshold=threshold, n=n, capacity=capacity, b_max=b_max, m_max=m_max)
    if m_max <= capacity / n:
        return ShapingVerdict(
            admissible=True,
            worst_case_lambda=0.0,
            binding_condition=BindingCondition.M_BELOW_CAPACITY_SHARE,
        )
    excess = n * m_max - capacity
    return ShapingVerdict(
        # the division form, as the sampler computes b_1: a boundary draw is admissible
        admissible=excess == 0 or b_max <= n * threshold / excess,
        worst_case_lambda=chi_theta_quadratic(b_max, m_max, n, capacity),
        binding_condition=BindingCondition.B_MAX_BOUND,
    )


def check_pwl_set(beta_max: float, phi_max: float, n: int, capacity: float, threshold: float) -> ShapingVerdict:
    """Decide admissibility of the piece-wise linear box (0, beta_max] x (0, phi_max].

    With saturation loads strictly below the per-agent capacity share the
    price is zero for every profile. Otherwise at least one agent's marginal
    rate bounds the price, so the box is admissible iff beta_max stays at or
    below the threshold.
    """
    _require_positive(threshold=threshold, n=n, capacity=capacity, beta_max=beta_max, phi_max=phi_max)
    if phi_max < capacity / n:
        return ShapingVerdict(
            admissible=True,
            worst_case_lambda=0.0,
            binding_condition=BindingCondition.PHI_BELOW_CAPACITY_SHARE,
        )
    return ShapingVerdict(
        admissible=beta_max <= threshold,
        worst_case_lambda=beta_max,
        binding_condition=BindingCondition.BETA_MAX_BOUND,
    )


def check_homogeneous(
    theta: Quadratic | PiecewiseLinear | Custom, n: int, capacity: float, threshold: float
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
        _require_positive(b=theta.b, m=theta.m)
        marginal = theta.b * (theta.m - capacity / n)
    elif isinstance(theta, Custom):
        marginal = float(theta.deriv_fn(capacity / n))
    else:
        raise ValidationError([f"unknown preference type {type(theta).__name__}"])
    if math.isnan(marginal):
        raise ValidationError(["marginal value at the capacity share C/n is NaN"])
    return ShapingVerdict(
        admissible=marginal <= threshold,
        worst_case_lambda=marginal,
        binding_condition=BindingCondition.HOMOGENEOUS_DERIVATIVE,
    )
