"""Admissibility of preference-parameter boxes against a price threshold.

A box of parameters is socially admissible when every profile drawn from it
clears at a price at or below the threshold. For quadratic boxes the exact
worst case over the box is attained with all agents at the corner; for
piece-wise linear boxes the marginal rate bound itself caps the price. The
paper's tight ranges, one function per family, give the largest admitted
bound; the box checks, the samplers and ``shape-check`` share them.
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

    By price monotonicity in both parameters the supremum sits at the corner where every agent picks (b_max, m_max);
    there the balance gives b_max * (n*m_max - C) / n, floored at zero when satiation fits capacity, and taken per
    agent as b_max * (m_max - C/n) where the n-fold product overflows.
    """
    _require_positive(b_max=b_max, m_max=m_max, n=n, capacity=capacity)
    worst = b_max * (n * m_max - capacity) / n
    return max(0.0, b_max * (m_max - capacity / n) if math.isinf(worst) else worst)


def _quadratic_range(m_max: float, n: int, capacity: float, threshold: float) -> tuple[float, BindingCondition]:
    """``quadratic_b_range`` for validated arguments, with the condition that binds it."""
    if m_max <= capacity / n:
        return math.inf, BindingCondition.M_BELOW_CAPACITY_SHARE
    excess = n * m_max - capacity
    if excess and (math.isinf(excess) or math.isinf(n * threshold)):  # an n-fold product overflows
        return threshold / (m_max - capacity / n), BindingCondition.B_MAX_BOUND
    return n * threshold / excess if excess else math.inf, BindingCondition.B_MAX_BOUND


def quadratic_b_range(m_max: float, n: int, capacity: float, threshold: float) -> float:
    """The paper's tight range for quadratic boxes, the largest b_max admitted with m_max: inf where satiation fits
    the capacity share or n*m_max - C rounds to 0 (the worst case is then 0.0), else n*threshold / (n*m_max - C),
    taken per agent as threshold / (m_max - C/n) where an n-fold product overflows."""
    _require_positive(m_max=m_max, n=n, capacity=capacity, threshold=threshold)
    return _quadratic_range(m_max, n, capacity, threshold)[0]


def pwl_beta_range(phi_max: float, n: int, capacity: float, threshold: float) -> float:
    """The paper's tight range for PWL boxes, the largest beta_max admitted with phi_max: inf where saturation loads
    stay strictly below the capacity share (every profile clears at 0), else the threshold, as a rate caps the price."""
    _require_positive(phi_max=phi_max, n=n, capacity=capacity, threshold=threshold)
    return math.inf if phi_max < capacity / n else threshold


def check_quadratic_set(b_max: float, m_max: float, n: int, capacity: float, threshold: float) -> ShapingVerdict:
    """Decide admissibility of the quadratic box (0, b_max] x (0, m_max]: b_max within ``quadratic_b_range``."""
    _require_positive(threshold=threshold, n=n, capacity=capacity, b_max=b_max, m_max=m_max)
    bound, binding = _quadratic_range(m_max, n, capacity, threshold)
    share = binding is BindingCondition.M_BELOW_CAPACITY_SHARE
    return ShapingVerdict(b_max <= bound, 0.0 if share else chi_theta_quadratic(b_max, m_max, n, capacity), binding)


def check_pwl_set(beta_max: float, phi_max: float, n: int, capacity: float, threshold: float) -> ShapingVerdict:
    """Decide admissibility of the PWL box (0, beta_max] x (0, phi_max]: beta_max within ``pwl_beta_range``."""
    _require_positive(threshold=threshold, n=n, capacity=capacity, beta_max=beta_max, phi_max=phi_max)
    if (bound := pwl_beta_range(phi_max, n, capacity, threshold)) == math.inf:  # the threshold is finite
        return ShapingVerdict(True, 0.0, BindingCondition.PHI_BELOW_CAPACITY_SHARE)
    return ShapingVerdict(beta_max <= bound, beta_max, BindingCondition.BETA_MAX_BOUND)


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
