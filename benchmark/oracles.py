"""Independent reference answers for the benchmark's output checks.

Written from the market-clearing conditions, not from the package: the
package's own self-check (``verify_kkt``) is never consulted. All oracles take
plain NumPy arrays or Python floats.

Tolerances scale with the market: balance-type residuals with the capacity C
(the solver's own contract is 1e-9 * max(1, C)), per-agent and price
comparisons with the magnitude of the compared value.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9


def balance_tol(capacity: float) -> float:
    return REL_TOL * max(1.0, abs(capacity))


def close(value: float, reference: float, rel: float = REL_TOL) -> bool:
    return abs(value - reference) <= rel * max(1.0, abs(reference))


def quadratic_prices(b: np.ndarray, m: np.ndarray, capacities) -> np.ndarray:
    """Water-filling prices of one quadratic market at several capacities.

    Aggregate demand D(lam) = sum(max(m - lam/b, 0)) is continuous, piecewise
    affine and non-increasing, with kinks at the drop-out prices m*b. It is
    tabulated once at the sorted kinks; each capacity is then located on its
    segment and the affine piece is inverted.
    """
    caps = np.atleast_1d(np.asarray(capacities, dtype=float))
    order = np.argsort(m * b)
    kinks = (m * b)[order]
    # sums over sorted positions >= j: the agents still active below kink j
    suffix_m = np.append(np.cumsum(m[order][::-1])[::-1], 0.0)
    suffix_binv = np.append(np.cumsum(1.0 / b[order][::-1])[::-1], 0.0)
    demand_at_kink = suffix_m[1:] - kinks * suffix_binv[1:]
    # the first kink with demand at or below capacity closes the crossing segment
    j = np.minimum(np.searchsorted(-demand_at_kink, -caps, side="left"), len(kinks) - 1)
    return (suffix_m[j] - caps) / suffix_binv[j]


def pwl_price(beta: np.ndarray, phi: np.ndarray, capacity: float) -> float:
    """Clearing price of a piecewise-linear market (zero when saturation fits).

    Agents are served in order of falling marginal rate; the price is the
    rate of the tier at which the saturated demand first covers capacity.
    """
    if float(np.sum(phi)) <= capacity:
        return 0.0
    rates, inverse = np.unique(-beta, return_inverse=True)  # rates descending
    tier_demand = np.bincount(inverse, weights=phi)
    covered = np.cumsum(tier_demand)
    return float(-rates[int(np.argmax(covered >= capacity))])


def pwl_allocation(beta: np.ndarray, phi: np.ndarray, capacity: float, lam: float) -> np.ndarray:
    """Allocation at a positive PWL price: saturated above it, zero below it,
    the tier at the price sharing the remainder in proportion to phi."""
    x = np.where(beta > lam, phi, 0.0)
    tier = beta == lam
    remainder = capacity - float(np.sum(x))
    x[tier] = phi[tier] * (remainder / float(np.sum(phi[tier])))
    return x


def mixed_demand(lam: float, b, m, w) -> float:
    """Demand of quadratic agents (b, m) plus log agents w*log(1+x) at lam > 0."""
    return float(np.sum(np.maximum(m - lam / b, 0.0)) + np.sum(np.maximum(w / lam - 1.0, 0.0)))


def mixed_price(b: np.ndarray, m: np.ndarray, w: np.ndarray, capacity: float) -> float:
    """Positive clearing price of a quadratic + log-utility market by bisection
    to adjacent floats. Log agents demand without bound as lam -> 0+, so the
    price is positive whenever any log agent is present."""
    lo, hi = 0.0, float(max(np.max(m * b, initial=0.0), np.max(w, initial=0.0)))
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if mixed_demand(mid, b, m, w) > capacity:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mixed_best_response(lam: float, b, m, w) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form best responses at lam: max(m - lam/b, 0) and max(w/lam - 1, 0)."""
    return np.maximum(m - lam / b, 0.0), np.maximum(w / lam - 1.0, 0.0)


def percentile(values, q: float) -> float:
    """Linear interpolation between order statistics, q in [0, 100]."""
    v = sorted(values)
    h = (len(v) - 1) * q / 100.0
    lo = math.floor(h)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (h - lo) * (v[hi] - v[lo])


def box_summary(values) -> dict:
    """Median, quartiles, 1.5*IQR whiskers and the outlier count."""
    q25, med, q75 = (percentile(values, q) for q in (25.0, 50.0, 75.0))
    iqr = q75 - q25
    lo_fence, hi_fence = q25 - 1.5 * iqr, q75 + 1.5 * iqr
    inside = [v for v in values if lo_fence <= v <= hi_fence]
    return {
        "median": med,
        "q25": q25,
        "q75": q75,
        "wlo": min(inside),
        "whi": max(inside),
        "n_outliers": len(values) - len(inside),
    }
