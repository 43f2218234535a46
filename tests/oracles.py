"""Independent oracles used to compute expected values.

Deliberately written from the problem statement, not from the package
internals: a plain bisection on the aggregate-demand balance for quadratic
markets, a feasibility enumeration over the optimality-correspondence cases
for piece-wise linear markets, and a hand-rolled linear-interpolation
percentile. Expected values in the tests were produced (or cross-checked)
with these and then frozen. ``flood_by_set_union`` keeps the original
set-based flooding simulation as the bitwise reference for the array one,
``metropolis_rounds`` the per-agent averaging loop as the bitwise reference
for the segmented-sum rounds, and ``local_solves`` the per-market solve loop
of average consensus as the bitwise reference for its one-sort water-filling
and breakpoint search.
``full_sort_quadratic`` and ``full_sort_pwl`` keep the clearing cores that
stable-sorted every agent, as the bitwise reference for the ones that sort
only the agents a selection step leaves. ``bracketed_root``, ``inverse_marginal`` and
``ScalarCustomDemand`` keep the scalar root-finder, the one-agent-at-a-time
Custom inversion and its warm-started memory as the bitwise reference for
the lockstep array ones. ``document`` builds the solve document as a dict,
the reference whose ``json.dump`` the streamed writer must match byte for byte.
``exact_b_range`` and ``exact_worst_case`` give the quadratic box's range and
worst case in rational arithmetic, and ``rounded`` the float they round to.
``exact_kink_clearing`` gives the exact clearing-price interval of a small
market of quadratic and PWL agents, either family alone or both, and the
quadratic agents' allocation there, from the demand correspondence in
rational arithmetic; ``full_sort_kink_price`` the float price of a large one
by a stable sort of every key, walked down.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import repeat

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


def packed_identity(n: int) -> np.ndarray:
    """Flooding's round 0, each agent holding only its own bit: ``np.packbits``
    of the n x 64W identity rows, as 64-bit words, word-major."""
    return np.packbits(np.eye(n, -(-n // 64) * 64, dtype=bool), axis=1).view(np.uint64).T


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


def pairwise_sum(terms: list[float]) -> float:
    """NumPy's pairwise summation of float64, as ``np.add.reduce`` and
    ``np.add.reduceat`` apply it after a segment's first element: below 8
    terms a running sum from -0.0; up to 128, eight interleaved partial sums
    combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the
    terms past the last multiple of 8 in order; above 128, the sums of two
    halves split at a multiple of 8."""
    n = len(terms)
    if n < 8:
        total = -0.0
        for x in terms:
            total += x
        return total
    if n <= 128:
        r = terms[:8]
        full = n - n % 8
        for i in range(8, full, 8):
            r = [a + b for a, b in zip(r, terms[i:i + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in terms[full:]:
            total += x
        return total
    half = n // 2 - (n // 2) % 8
    return pairwise_sum(terms[:half]) + pairwise_sum(terms[half:])


def metropolis_rounds(a, edges, rounds: int, tol: float | None = None) -> np.ndarray:
    """Per-round Metropolis averaging estimates, shape (rounds used + 1, n),
    one agent at a time in Python floats. The weights come from the edge
    list alone: 1 / (1 + max(deg u, deg v)) per neighbour pair, and 1 minus
    the ``pairwise_sum`` of an agent's neighbour weights, in ascending
    neighbour order, for itself. A round gives agent u ``w_uu * z[u]`` plus
    the ``pairwise_sum`` of ``w_uv * z[v]`` over its neighbours v in
    ascending order. With ``tol`` the rounds stop at the first whose largest
    distance to the left-to-right mean is at most tol."""
    z = [float(v) for v in a]
    n = len(z)
    sets: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        sets[int(i)].add(int(j))
        sets[int(j)].add(int(i))
    neighbours = [sorted(s) for s in sets]
    weights = [[1.0 / (1 + max(len(neighbours[u]), len(neighbours[v]))) for v in neighbours[u]] for u in range(n)]
    own = [1.0 - pairwise_sum(row) for row in weights]
    total = 0.0
    for v in z:
        total += v
    target, history = total / n, [z]
    for _ in range(rounds):
        z = [own[u] * z[u] + pairwise_sum([w * z[v] for v, w in zip(neighbours[u], weights[u])]) for u in range(n)]
        history.append(z)
        if tol is not None and max(abs(x - target) for x in z) <= tol:
            break
    return np.array(history)


def local_solves(preferences, shares) -> list:
    """Markets that differ only in capacity solved one at a time, as
    ``solve_many`` is defined: market k spreads ``shares[k]`` over each of
    the n agents with the shared preferences. In average consensus agent i's
    share is its capacity estimate n * z_i divided by n again."""
    return [solve(MarketInstance(np.full(len(preferences), s), preferences)) for s in shares]


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


def first_kink_at_or_below(demand_at_kink: np.ndarray, capacity: np.ndarray) -> np.ndarray:
    """Per capacity, the first tie group whose float kink demand is at or
    below it, every kink compared (NaN never is); 0 if none is."""
    return np.argmax(demand_at_kink <= capacity[:, None], axis=1)


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
        j = starts[first_kink_at_or_below(demand_at_kink, capacity[short])]
        lam[short] = (suf_m[j] - capacity[short]) / suf_binv[j]
    return [(level, np.maximum(m - level / b, 0.0)) for level in lam.tolist()]


def full_sort_pwl(beta: np.ndarray, phi: np.ndarray, capacity: float) -> tuple[float, np.ndarray, bool]:
    """(price, allocation, degenerate) of one PWL column pair: a stable sort
    of every marginal rate, descending, and the first tier whose saturated
    demand covers capacity, or the last tier if none does (the float sum of
    every phi in that order may fall short of a capacity below their pairwise
    sum)."""
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
    g = int(np.argmax(incl >= capacity)) if incl[-1] >= capacity else len(starts) - 1
    remainder = capacity - float(excl[g])
    tier = slice(starts[g], ends[g])
    tier_total = float(incl[g] - excl[g])
    x_s = np.zeros(n)
    x_s[: starts[g]] = phi_s[: starts[g]]
    x_s[tier] = phi_s[tier] * (remainder / tier_total)
    x = np.empty(n)
    x[order] = x_s
    return float(beta_s[starts[g]]), x, False


def bracketed_root(f, lo: float, hi: float, f_lo: float, f_hi: float,
                   xtol: float, ftol: float, rtol: float = 0.0) -> float:
    """Root of a decreasing ``f`` with f(lo) >= 0 >= f(hi), one bracket at a
    time: the bracket end with the smaller |f| once the bracket is no wider
    than w = max(xtol, rtol*|hi|, 2 ulp(hi)) and |f| <= ftol at the last
    point. Secant steps where the secant lies in the bracket, ends included,
    and the two residuals differ by a finite nonzero amount, else bisection; a
    step that fails to halve |f| at the end it replaces is followed by a
    bisection; points stay w/2 inside the bracket, so a secant at an end closes
    the bracket next to a root there. At most 200 steps."""
    (p, f_p), (q, f_q) = (lo, f_lo), (hi, f_hi)
    bisect, width = False, max(xtol, rtol * abs(hi), 2.0 * math.ulp(hi))
    for _ in range(200):
        x = 0.5 * (lo + hi)
        if not bisect and hi - lo > width and f_p != f_q and math.isfinite(f_q - f_p):
            secant = q - f_q * (q - p) / (f_q - f_p)
            if lo <= secant <= hi:
                x = min(max(secant, lo + 0.5 * width), hi - 0.5 * width)
        fx = f(x)
        bisect = not bisect and abs(fx) > 0.5 * abs(f_lo if fx > 0 else f_hi)
        if fx > 0:
            lo, f_lo = x, fx
        else:
            hi, f_hi = x, fx
        (p, f_p), (q, f_q) = (q, f_q), (x, fx)
        width = max(xtol, rtol * abs(hi), 2.0 * math.ulp(hi))
        if hi - lo <= width and abs(fx) <= ftol:
            return lo if abs(f_lo) < abs(f_hi) else hi
    raise RuntimeError("root-finder did not meet tolerances in 200 iterations")


def inverse_marginal(deriv, lam: float, scale: float, n: int, lo: float = 0.0, hi: float | None = None) -> float:
    """Consumption at which one Custom derivative meets ``lam``, clipped at 0,
    to a bracket width of 1e-14 relative, in a market of ``n`` agents. A warm
    bracket [lo, hi] with hi <= max(1, scale) is used if deriv(lo) > lam >=
    deriv(hi); otherwise the bracket is [0, h], h doubling from the share
    max(1, scale) / 2**k, 2**k the largest power of two up to n, to
    max(1, scale) * 2**79. A derivative still above ``lam`` there returns the
    next doubling, max(1, scale) * 2**80, where the lockstep inversion returns
    ``inf``; scales whose 2**80 multiple overflows are out of range."""
    f_lo = deriv(lo) - lam
    warm = hi is not None and lo < hi <= max(1.0, scale) and f_lo > 0
    f_hi = deriv(hi) - lam if warm else math.nan
    if not f_hi <= 0:
        f_lo = deriv(0.0) - lam if lo else f_lo
        if f_lo <= 0:
            return 0.0
        k = n.bit_length() - 1
        lo, hi = 0.0, max(1.0, scale) / 2.0**k
        for _ in range(80 + k):
            f_hi = deriv(hi) - lam
            if f_hi <= 0:
                break
            hi *= 2.0
        else:
            return hi
    return bracketed_root(lambda x: deriv(x) - lam, lo, hi, f_lo, f_hi, 1e-14, math.inf, 1e-14)


class ScalarCustomDemand:
    """Custom consumptions at each price in a market of ``n`` agents, one
    ``inverse_marginal`` per agent; every price is remembered, and the
    consumptions at the nearest remembered prices above and below bound each
    agent's warm bracket. Every derivative is called afresh."""

    def __init__(self, derivs, scale: float, n: int) -> None:
        self.derivs, self.scale, self.n = list(derivs), scale, n
        self.prices: list[float] = []
        self.consumptions: list[list[float]] = []

    def at(self, lam: float) -> list[float]:
        k = bisect_left(self.prices, lam)
        if k == len(self.prices) or self.prices[k] != lam:
            floors = self.consumptions[k] if k < len(self.prices) else repeat(0.0)
            ceilings = self.consumptions[k - 1] if k else repeat(None)
            self.prices.insert(k, lam)
            self.consumptions.insert(k, [inverse_marginal(deriv, lam, self.scale, self.n, lo, hi)
                                         for deriv, lo, hi in zip(self.derivs, floors, ceilings)])
        return self.consumptions[k]


_FILE_KINDS = (("quadratic", "b", "m"), ("pwl", "beta", "phi"))  # by kind code


def document(instance: MarketInstance, result=None) -> dict:
    """The instance file's fields, extended by the result's when a result is
    given: ``save_instance`` and ``save_result`` write ``json.dump`` of it at
    indent=2 plus a newline. Every agent must be quadratic or PWL."""
    preferences = instance.preferences
    kinds = map(_FILE_KINDS.__getitem__, preferences.codes.tolist())
    rows = zip(instance.production.tolist(), kinds, *(c.tolist() for c in preferences.columns))
    agents = [{"a": a, "utility": {"kind": label, first: p, second: q}} for a, (label, first, second), p, q in rows]
    out = {"model": instance.model.value, "agents": agents}
    if result is not None:
        out.update(lambda_star=result.lambda_star, x_star=list(result.x_star), method=result.method.value)
        out["diagnostics"] = {"balance_residual": result.balance_residual,
                              "kkt_max_violation": result.kkt_max_violation, "degenerate": result.degenerate}
        if result.e_star is not None:
            out["e_star"] = list(result.e_star)
    return out


def exact_b_range(m_max: float, n: int, capacity: float, threshold: float) -> Fraction:
    """n*threshold / (n*m_max - C) in rational arithmetic, for n*m_max > C exactly."""
    return n * Fraction(threshold) / (n * Fraction(m_max) - Fraction(capacity))


def exact_worst_case(b_max: float, m_max: float, n: int, capacity: float) -> Fraction:
    """The corner's price max(0, b_max*(n*m_max - C)/n) in rational arithmetic."""
    return max(Fraction(0), Fraction(b_max) * (n * Fraction(m_max) - Fraction(capacity)) / n)


def rounded(exact: Fraction) -> float:
    """The nearest float to ``exact``, or inf where it rounds past the float range."""
    try:
        return float(exact)
    except OverflowError:
        return math.inf


def exact_kink_clearing(b, m, beta, phi, capacity: float) -> tuple[Fraction, Fraction, list[Fraction]]:
    """(lo, hi, x) of quadratic agents (b, m) and PWL agents (beta, phi) at ``capacity``, in rational
    arithmetic: the clearing prices form [lo, hi], and x is the quadratic agents' demand there,
    max(m - lam/b, 0), the same at every clearing price. A quadratic agent demands max(m - lam/b, 0);
    a PWL agent phi below its rate, [0, phi] at it and 0 above, [phi, inf) at price 0 and nothing
    clears at a negative price. Candidates are every kink (m*b or beta, and 0 with a PWL agent), where
    capacity must lie between the lower and upper demand, and each open segment between them, where
    demand is affine: its root, or the whole segment where demand is flat at capacity."""
    quadratic = [(Fraction(bi), Fraction(mi)) for bi, mi in zip(b, m)]
    pwl = [(Fraction(r), Fraction(p)) for r, p in zip(beta, phi)]
    c = Fraction(capacity)

    def quadratic_demand(lam: Fraction) -> Fraction:
        return sum((max(mi - lam / bi, Fraction(0)) for bi, mi in quadratic), Fraction(0))

    points = sorted({mi * bi for bi, mi in quadratic} | {r for r, _ in pwl} | ({Fraction(0)} if pwl else set()))
    prices = []
    for p in points:
        if pwl and p == 0:
            lower, upper = quadratic_demand(p) + sum(ph for _, ph in pwl), math.inf
        else:
            lower = quadratic_demand(p) + sum(ph for r, ph in pwl if r > p)
            upper = lower + sum(ph for r, ph in pwl if r == p)
        if lower <= c <= upper:
            prices.append(p)
    ends = [-math.inf] * (not pwl) + points + [math.inf]  # negative prices only without PWL agents
    for lo, hi in zip(ends, ends[1:]):
        mid = (lo + hi) / 2
        active = [(bi, mi) for bi, mi in quadratic if mi * bi > mid]
        level = sum(mi for _, mi in active) + sum(ph for r, ph in pwl if r > mid)
        slope = sum(1 / bi for bi, _ in active)
        if slope:
            lam = (level - c) / slope
            prices += [lam] if lo < lam < hi else []
        elif level == c:
            prices += [lo, hi]
    lo, hi = min(prices), max(prices)
    return lo, hi, [max(mi - lo / bi, Fraction(0)) for bi, mi in quadratic]


def full_sort_kink_price(pwl: np.ndarray, first: np.ndarray, second: np.ndarray, capacity: float) -> float:
    """The float price of a market of quadratic agents (b, m) and PWL agents (beta, phi), ``pwl`` marking
    the PWL rows of the columns ``first`` (b or beta) and ``second`` (m or phi): 0 if the sum of every m
    and phi is at most capacity; else every key (m*b or beta) stable-sorted descending, with running sums
    of m and phi and of 1/b in that order, walked down the tie groups. The first group whose demand just
    above its key reaches capacity prices the segment above it, by its linear equation; else a group
    whose PWL agents carry capacity at its key prices there; past the last group, its segment."""
    quadratic = ~pwl
    if float(np.sum(second)) <= capacity:
        return 0.0
    key, slope, jump = first.copy(), np.zeros(len(first)), np.where(pwl, second, 0.0)
    key[quadratic], slope[quadratic] = second[quadratic] * first[quadratic], 1.0 / first[quadratic]
    order = np.argsort(-key, kind="stable")
    key, levels, slopes, jump = key[order], np.cumsum(second[order]), np.cumsum(slope[order]), jump[order]
    starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    for g, start in enumerate(starts.tolist()):
        level, slope_sum = (levels[start - 1], slopes[start - 1]) if start else (0.0, 0.0)
        above = level - key[start] * slope_sum
        if capacity <= above:
            return (level - capacity) / slope_sum
        end = starts[g + 1] if g + 1 < len(starts) else len(key)
        if capacity <= above + float(np.sum(jump[start:end])):
            return float(key[start])
    return (levels[-1] - capacity) / slopes[-1] if slopes[-1] else float(key[starts[-1]])
