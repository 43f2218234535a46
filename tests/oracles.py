"""Independent oracles used to compute expected values.

Deliberately written from the problem statement, not from the package
internals: a plain bisection on the aggregate-demand balance for quadratic
markets, a feasibility enumeration over the optimality-correspondence cases
for piece-wise linear markets, and a hand-rolled linear-interpolation
percentile. Expected values in the tests were produced (or cross-checked)
with these and then frozen. ``flood_by_set_union`` keeps the original
set-based flooding simulation as the bitwise reference for the array one,
and ``local_solves`` the per-agent solve loop of average consensus as the
bitwise reference for its one-sort water-filling. ``full_sort_quadratic``
and ``full_sort_pwl`` keep the clearing cores that stable-sorted every
agent, as the bitwise reference for the ones that sort only the agents a
selection step leaves.
"""

from __future__ import annotations

import math

import numpy as np

from teshape import MarketInstance, solve


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


def bfs_diameter(n: int, edges) -> int | None:
    """Largest shortest-path distance by a BFS from every node; None when
    the graph is disconnected."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    diam = 0
    for src in range(n):
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        if len(dist) != n:
            return None
        diam = max(diam, max(dist.values()))
    return diam


def flood_by_set_union(a: np.ndarray, edges) -> np.ndarray:
    """Per-round flooding estimates, shape (diameter + 1, n), of a connected
    graph: each round every agent unions its neighbours' known sets, and its
    estimate is the mean of ``a`` over its known set in ascending index order."""
    n = len(a)
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    known = [{i} for i in range(n)]
    rounds = bfs_diameter(n, edges)
    estimates = np.empty((rounds + 1, n))
    estimates[0] = a
    for r in range(1, rounds + 1):
        new_known = [set(k) for k in known]
        for i in range(n):
            for j in adj[i]:
                new_known[i] |= known[j]
        known = new_known
        estimates[r] = [a[sorted(known[i])].mean() for i in range(n)]
    return estimates


def local_solves(estimates, preferences) -> list:
    """Average consensus's local markets solved one at a time: agent i holds
    capacity n * estimates[i], spread evenly over n agents with the shared
    preferences, and solves that plain market on its own."""
    n = len(estimates)
    return [solve(MarketInstance(np.full(n, float(e) * n / n), preferences)) for e in estimates]


def full_sort_kinks(b: np.ndarray, m: np.ndarray):
    """(starts, suffix sums of m and 1/b, kink demands) of the stable sort of
    every drop-out price m*b: the tie groups' first sorted indices and the
    float demand at each group's drop-out price."""
    drop = m * b
    order = np.argsort(drop, kind="stable")
    drop_s = drop[order]
    m_s = m[order]
    binv_s = 1.0 / b[order]
    suf_m = np.concatenate([np.cumsum(m_s[::-1])[::-1], [0.0]])
    suf_binv = np.concatenate([np.cumsum(binv_s[::-1])[::-1], [0.0]])
    starts = np.flatnonzero(np.concatenate([[True], drop_s[1:] != drop_s[:-1]]))
    ends = np.concatenate([starts[1:], [len(drop_s)]])
    return starts, suf_m, suf_binv, suf_m[ends] - drop_s[starts] * suf_binv[ends]


def full_sort_quadratic(b: np.ndarray, m: np.ndarray, capacity: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """(price, allocation) of one quadratic column pair at each capacity:
    water-filling over the stable sort of every drop-out price, the price
    solved at the first kink demand at or below the capacity."""
    sum_m = float(np.sum(m))
    spare = sum_m <= capacity
    lam = (sum_m - capacity) / float(np.sum(1.0 / b)) if spare.any() else np.empty(len(capacity))
    short = np.flatnonzero(~spare)
    if len(short):
        starts, suf_m, suf_binv, demand_at_kink = full_sort_kinks(b, m)
        j = starts[np.argmax(demand_at_kink <= capacity[short, None], axis=1)]
        lam[short] = (suf_m[j] - capacity[short]) / suf_binv[j]
    return [(level, np.maximum(m - level / b, 0.0)) for level in lam.tolist()]


def full_sort_pwl(beta: np.ndarray, phi: np.ndarray, capacity: float) -> tuple[float, np.ndarray, bool]:
    """(price, allocation, degenerate) of one PWL column pair: a stable sort
    of every marginal rate, descending, and the first tier whose saturated
    demand covers capacity."""
    n = len(beta)
    sum_phi = float(np.sum(phi))
    if sum_phi <= capacity:
        return 0.0, phi + (capacity - sum_phi) / n, sum_phi == capacity
    order = np.argsort(-beta, kind="stable")
    beta_s = beta[order]
    phi_s = phi[order]
    cum_phi = np.cumsum(phi_s)
    starts = np.flatnonzero(np.concatenate([[True], beta_s[1:] != beta_s[:-1]]))
    ends = np.concatenate([starts[1:], [n]])
    incl = cum_phi[ends - 1]
    excl = np.concatenate([[0.0], incl[:-1]])
    g = int(np.argmax(incl >= capacity))
    remainder = capacity - float(excl[g])
    tier = slice(starts[g], ends[g])
    tier_total = float(incl[g] - excl[g])
    x_s = np.zeros(n)
    x_s[: starts[g]] = phi_s[: starts[g]]
    x_s[tier] = phi_s[tier] * (remainder / tier_total)
    x = np.empty(n)
    x[order] = x_s
    return float(beta_s[starts[g]]), x, False
