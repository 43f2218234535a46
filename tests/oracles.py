"""Independent oracles used to compute expected values.

Deliberately written from the problem statement, not from the package
internals: a plain bisection on the aggregate-demand balance for quadratic
markets, a feasibility enumeration over the optimality-correspondence cases
for piece-wise linear markets, and a hand-rolled linear-interpolation
percentile. Expected values in the tests were produced (or cross-checked)
with these and then frozen.
"""

from __future__ import annotations

import math


def quadratic_price_by_bisection(
    b: list[float], m: list[float], capacity: float, iters: int = 200
) -> float:
    """Root of sum(max(m_i - lam/b_i, 0)) = capacity by plain bisection."""

    def demand(lam: float) -> float:
        return sum(max(mi - lam / bi, 0.0) for bi, mi in zip(b, m))

    hi = max(mi * bi for bi, mi in zip(b, m))
    lo = 0.0
    if demand(lo) < capacity:
        width = max(1.0, hi)
        while demand(lo) < capacity:
            lo -= width
            width *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if demand(mid) > capacity:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def quadratic_allocation(b: list[float], m: list[float], lam: float) -> list[float]:
    return [max(mi - lam / bi, 0.0) for bi, mi in zip(b, m)]


def pwl_response_interval(beta: float, phi: float, lam: float) -> tuple[float, float]:
    """Optimal-consumption interval of one PWL agent at a given price."""
    if lam == 0:
        return (phi, math.inf)
    if lam < beta:
        return (phi, phi)
    if lam == beta:
        return (0.0, phi)
    return (0.0, 0.0)


def pwl_feasible_prices(
    betas: list[float], phis: list[float], capacity: float
) -> list[float]:
    """Every candidate price whose correspondence admits a balancing allocation.

    Candidates: zero, each distinct rate, midpoints between consecutive rates,
    and one point above the largest rate. Between breakpoints the
    correspondence is constant, so this enumeration covers all cases.
    """
    rates = sorted(set(betas))
    candidates = [0.0] + rates
    candidates += [0.5 * (u + v) for u, v in zip(rates, rates[1:])]
    if rates:
        candidates += [0.5 * rates[0]] if rates[0] > 0 else []
        candidates += [rates[-1] + 1.0]
    feasible = []
    for lam in sorted(set(candidates)):
        if lam < 0:
            continue
        lows, highs = zip(
            *(pwl_response_interval(bt, ph, lam) for bt, ph in zip(betas, phis))
        )
        if sum(lows) <= capacity <= sum(highs):
            feasible.append(lam)
    return feasible


def percentile_linear(values: list[float], q: float) -> float:
    """Linear-interpolation percentile over order statistics."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    frac = pos - lo
    if frac == 0:
        return xs[lo]
    return xs[lo] + frac * (xs[lo + 1] - xs[lo])


def box_summary(values: list[float]) -> dict:
    """Five-number summary with 1.5*IQR whiskers, from first principles."""
    q25 = percentile_linear(values, 25)
    med = percentile_linear(values, 50)
    q75 = percentile_linear(values, 75)
    iqr = q75 - q25
    lo_fence, hi_fence = q25 - 1.5 * iqr, q75 + 1.5 * iqr
    inside = [v for v in values if lo_fence <= v <= hi_fence]
    outliers = sorted(v for v in values if v < lo_fence or v > hi_fence)
    return {
        "median": med,
        "q25": q25,
        "q75": q75,
        "whisker_low": min(inside),
        "whisker_high": max(inside),
        "outliers": outliers,
    }


def mixed_price_by_bisection(
    b: list[float], m: list[float], w: list[float], capacity: float
) -> float:
    """Root of the demand balance of quadratic agents (b, m) and log agents
    w*log(1+x) by plain bisection to adjacent floats.

    Quadratic demand is max(m - lam/b, 0) and log demand max(w/lam - 1, 0);
    log demand grows without bound as lam falls to 0, so with any log agent
    the price is positive. Without one the lower end expands into negative
    prices as in ``quadratic_price_by_bisection``.
    """

    def demand(lam: float) -> float:
        quad = sum(max(mi - lam / bi, 0.0) for bi, mi in zip(b, m))
        if not w:
            return quad
        return math.inf if lam <= 0 else quad + sum(max(wi / lam - 1.0, 0.0) for wi in w)

    hi = max([mi * bi for bi, mi in zip(b, m)] + list(w))
    lo = 0.0
    width = max(1.0, hi)
    while demand(lo) < capacity:
        lo -= width
        width *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if demand(mid) > capacity:
            lo = mid
        else:
            hi = mid
