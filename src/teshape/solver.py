"""Equilibrium price and allocation solvers.

Two routes to the market-clearing price:

* a kink search for any market of quadratic and piecewise-linear (PWL)
  agents: exact water-filling over drop-out prices and breakpoint search over
  marginal rates at once, one sort, also over a stack of markets that differ
  only in capacity,
* safeguarded secant steps on the aggregate-demand balance for any market
  with Custom agents, which may mix with quadratic ones (not PWL ones: their
  utility is not differentiable at the saturation load).

``solve`` takes the route that the preferences pick; ``solve_mtes_quadratic``,
``solve_mtes_pwl`` and ``solve_mtes_generic`` force one. Every route clears
both models. Trading-model instances reduce to the plain market: a positive
plain-market price is the trading one with e = a - x; otherwise the trading
price floors at zero with satiation allocations.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .model import (
    Custom,
    EquilibriumResult,
    MarketInstance,
    ModelKind,
    PiecewiseLinear,
    PreferenceColumns,
    Quadratic,
    SolveMethod,
    ValidationError,
    _COLUMN_KINDS,
    max_capacity,
    validate_instance,
)


class SolverError(RuntimeError):
    pass


class BracketFailure(SolverError):
    """No sign change found for the demand-balance residual within the
    expanding price bracket; indicates a non-concave or non-monotone custom
    preference."""


class ConvergenceFailure(SolverError):
    """The root-finder exhausted its iteration budget before meeting tolerances."""


_LAMBDA_TOL = 1e-10  # generic route: price bracket width to stop at (at least 2 ulp)
_MAX_ITER = 200  # root-finder iteration cap
_KKT_TOL = 1e-8  # self-check: largest KKT violation a result may carry, times max(1, C)


def _roots(g, lo, hi, g_lo, g_hi, xtol: float, ftol: float, rtol: float = 0.0,
           target: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Roots of decreasing f_i = g_i - ``target`` with f_i(lo_i) >= 0 >= f_i(hi_i),
    stepped in lockstep, and g_i at each; ``g(x, i)`` evaluates g_i at x for the
    open brackets i, ``g_lo`` and ``g_hi`` are g at the ends. Root i is the end
    with the smaller |f_i| once the bracket is no wider than
    w = max(xtol, rtol*|hi|, 2 ulp(hi)) and |f_i| <= ftol at its last point;
    then the bracket is dropped. A step takes the secant through a bracket's
    last two points if it lies in the bracket, ends included, and their f differ
    by a finite nonzero amount, else bisects; a step that fails to halve |f| at
    the end it replaces is followed by a bisection. Points stay w/2 inside, so a
    secant at an end, as through f = 0 there, straddles a root that close to it;
    f = inf at an end gives no secant. Nothing is written in place.
    """
    lo, hi, g_lo, g_hi = (np.asarray(v, dtype=float) for v in (lo, hi, g_lo, g_hi))
    f_lo, f_hi = g_lo - target, g_hi - target
    p, f_p, q, f_q = lo, f_lo, hi, f_hi  # the last two points evaluated
    roots, values, open_, bisect = np.empty(len(lo)), np.empty(len(lo)), np.arange(len(lo)), np.zeros(len(lo), dtype=bool)
    width = np.maximum(np.maximum(xtol, rtol * (size := np.abs(hi))), 2.0 * np.spacing(size))
    for _ in range(_MAX_ITER):
        if not len(open_):
            return roots, values
        with np.errstate(all="ignore"):  # inf - inf, overflow, x/0: masked below where f_p == f_q or f_q - f_p isn't finite
            secant = q - f_q * (q - p) / (step := f_q - f_p)
        free, half = ~bisect, 0.5 * width
        inside = free & (hi - lo > width) & (f_p != f_q) & np.isfinite(step) & (lo <= secant) & (secant <= hi)
        x = np.where(inside, np.minimum(np.maximum(secant, lo + half), hi - half), 0.5 * (lo + hi))
        fx = (gx := g(x, open_)) - target
        above, fx_size = fx > 0, np.abs(fx)
        bisect = free & (fx_size > 0.5 * np.abs(np.where(above, f_lo, f_hi)))
        lo, f_lo, hi, f_hi = np.where(above, x, lo), np.where(above, fx, f_lo), np.where(above, hi, x), np.where(above, f_hi, fx)
        g_lo, g_hi = np.where(above, gx, g_lo), np.where(above, g_hi, gx)
        p, f_p, q, f_q = q, f_q, x, fx
        width = np.maximum(np.maximum(xtol, rtol * (size := np.abs(hi))), 2.0 * np.spacing(size))
        if (done := (hi - lo <= width) & (fx_size <= ftol)).any():
            low = np.abs(f_lo) < np.abs(f_hi)
            roots[open_[done]], values[open_[done]], keep = np.where(low, lo, hi)[done], np.where(low, g_lo, g_hi)[done], ~done
            open_, lo, hi, f_lo, f_hi, g_lo, g_hi, p, f_p, q, f_q, bisect, width = (
                v[keep] for v in (open_, lo, hi, f_lo, f_hi, g_lo, g_hi, p, f_p, q, f_q, bisect, width))
    if len(open_):
        raise ConvergenceFailure(f"root-finder did not meet tolerances in {_MAX_ITER} iterations")
    return roots, values


def _inverse_marginals(derivs: list, lam: float, cap: float, n: int, zero=None, floor=None,
                       ceiling=None) -> tuple[np.ndarray, np.ndarray]:
    """Consumptions at which Custom derivatives meet ``lam``, clipped at 0, to a
    bracket width of 1e-14 relative, inverted in lockstep, and the derivatives
    there (NaN where unbounded). ``zero`` holds each deriv(0), ``floor`` and
    ``ceiling`` (x, deriv(x)) arrays at a higher and a lower price, if known.
    Agent i keeps the warm bracket [floor_i, ceiling_i] if floor_i < ceiling_i
    <= cap and deriv(floor_i) > lam >= deriv(ceiling_i), else takes [0, h], h
    the first of s, 2s, 4s, ... with deriv(h) <= lam: s is cap over the largest
    power of two up to the market's agent count ``n``, a share of it. Still
    above lam at the last doubling, cap*2**79 or the largest finite one: inf.
    """
    def d(x, i):
        return np.array([derivs[k](v) for k, v in zip(i.tolist(), x.tolist())], dtype=float)
    every = np.arange(len(derivs))
    zero = d(np.zeros(len(derivs)), every) if zero is None else zero
    lo, d_lo = (np.zeros(len(derivs)), zero) if floor is None else floor
    hi, d_hi = (np.full(len(derivs), math.nan),) * 2 if ceiling is None else ceiling
    warm = (lo < hi) & (hi <= cap) & (d_lo > lam) & (d_hi <= lam)
    cold = ~warm & ~(zero <= lam)  # without a warm bracket; the rest of those demand 0
    share = math.ldexp(cap, 1 - n.bit_length())
    lo, d_lo, hi, d_hi = np.where(cold, 0.0, lo), np.where(cold, zero, d_lo), np.where(cold, share, hi), np.array(d_hi)
    d_hi[cold] = d(hi[cold], every[cold])
    x, d_x, far = np.zeros(len(derivs)), np.array(zero), every[cold & ~(d_hi <= lam)]
    unbounded = ~(d(np.full(len(far), math.ldexp(cap, min(79, 1024 - math.frexp(cap)[1]))), far) <= lam)
    x[far[unbounded]], d_x[far[unbounded]], grow = math.inf, math.nan, far[~unbounded]
    while len(grow):  # double up to the first point at or below lam, found by the probe
        hi[grow] *= 2.0
        d_hi[grow] = d(hi[grow], grow)
        grow = grow[~(d_hi[grow] <= lam)]
    rest = np.flatnonzero((warm | cold) & (d_hi <= lam))
    x[rest], d_x[rest] = _roots(lambda z, i: d(z, rest[i]), lo[rest], hi[rest], d_lo[rest], d_hi[rest],
                                1e-14, math.inf, 1e-14, lam)
    return x, d_x


class AggregateDemand:
    """Price-to-demand map of quadratic and Custom preferences, split once by
    masks on the kind codes: the quadratic agents' ``(b, m)`` rows (a slice
    when every agent is quadratic), the Custom agents' derivatives inverted
    together, unbounded demand as inf. Each evaluated price is remembered
    with its Custom consumptions, which fall as the price rises, and the
    derivatives there, so the nearest remembered prices on either side
    warm-start the inversions and no derivative is taken twice at a
    remembered point or at 0. Not thread-safe. ``breakpoints[i]`` is agent
    i's marginal value at 0.
    """

    def __init__(self, preferences, scale: float) -> None:
        preferences = PreferenceColumns.of(preferences)
        self.n, self.scale = len(preferences), scale
        if preferences.mask(PiecewiseLinear).any() or not all(isinstance(p, Custom) for p in preferences.others):
            raise ValidationError(["bisection requires differentiable preferences; "
                                   "PWL agents clear only in markets without Custom agents"])
        # every agent quadratic: the columns as they are, not copied
        self.quadratic = slice(None) if preferences.kind is Quadratic else preferences.mask(Quadratic)
        self.custom = preferences.mask(None)
        self.b, self.m = (c[self.quadratic] for c in preferences.columns)
        self.derivs = [p.deriv_fn for p in preferences.others]
        self._at_zero = np.array([deriv(0.0) for deriv in self.derivs], dtype=float)  # each Custom derivative at 0
        self._prices: list[float] = []  # remembered prices, ascending
        self._consumptions: list[tuple[np.ndarray, np.ndarray]] = []  # the Custom consumptions at each, derivatives there

    @property
    def breakpoints(self) -> np.ndarray:
        points = np.empty(self.n)
        points[self.quadratic] = self.b * self.m
        points[self.custom] = self._at_zero
        return points

    def allocation(self, lam: float) -> np.ndarray:
        """Every agent's demand at price ``lam``."""
        quadratic = np.maximum(self.m - lam / self.b, 0.0)
        if not self.derivs:
            return quadratic
        prices, k = self._prices, bisect_left(self._prices, lam)
        if k == len(prices) or prices[k] != lam:
            floors = self._consumptions[k] if k < len(prices) else None
            ceilings = self._consumptions[k - 1] if k else None
            prices.insert(k, lam)
            self._consumptions.insert(k, _inverse_marginals(self.derivs, lam, max(1.0, self.scale), self.n, self._at_zero,
                                                            floors, ceilings))
        x = np.empty(self.n)
        x[self.quadratic], x[self.custom] = quadratic, self._consumptions[k][0]
        return x

    def total(self, lam: float) -> float:
        return float(np.sum(self.allocation(lam)))


# ---------------------------------------------------------------------------
# Instance solvers (plain market)
# ---------------------------------------------------------------------------


class _Clearing(NamedTuple):
    """A plain-market solution before packaging: price, allocation, route. A stack
    of markets has a price, an allocation row and a degenerate flag (or one for all) each."""

    lam: float | np.ndarray
    x: np.ndarray
    method: SolveMethod
    degenerate: bool | np.ndarray = False
    demand: AggregateDemand | None = None  # the generic route's split, reused by the trading floor


def _result(instance: MarketInstance, clearing: _Clearing, e: np.ndarray | None = None,
            capacity: np.ndarray | None = None) -> list[EquilibriumResult]:
    """Package a clearing, or a stack of markets that differ from ``instance``
    only in ``capacity``, self-checked in one pass over the stacked arrays.
    ``balance_residual`` is |sum x - C| for the plain market and |sum e| when
    trades are given: the KKT balance violation. A market whose largest KKT
    violation exceeds 1e-8 * max(1, C) raises ``SolverError``."""
    lam = np.reshape(clearing.lam, (-1, 1))
    x = np.reshape(clearing.x, (len(lam), -1))
    e = None if e is None else np.reshape(e, x.shape)
    _, _, residuals, _, violations, ok = _kkt(instance, lam, x, e, capacity)
    if (bad := ~ok).any():
        i = int(np.argmax(bad))
        raise SolverError(f"KKT violation {violations[i]:.3e} > {_KKT_TOL:g} * max(1, C) at price {lam[i, 0].item()!r}")
    rows = zip(lam[:, 0].tolist(), x, repeat(None) if e is None else e, residuals, violations,
               np.broadcast_to(clearing.degenerate, len(lam)).tolist())
    return [EquilibriumResult.of_rows(row, trade, lambda_star=level, method=clearing.method, balance_residual=residual,
                                      kkt_max_violation=violation, degenerate=flag)
            for level, row, trade, residual, violation, flag in rows]


def _solve(instance: MarketInstance, clear) -> EquilibriumResult:
    """The plain-market clearing ``clear(instance)``, self-checked and
    packaged. A trading instance keeps a positive price with trades e = a - x.
    Otherwise its price floors at zero: agents consume their satiation loads
    and the production surplus is returned equally through the trade vector,
    keeping the total trade at zero and every x + e <= a."""
    clearing, e = clear(instance), None
    if instance.model is ModelKind.MTES_ST:
        if clearing.lam > 0:
            e = instance.production - clearing.x
        else:  # satiation loads, which a clearing at price 0 already holds
            x, demand = clearing.x, clearing.demand
            if clearing.lam < 0:
                demand = demand or AggregateDemand(instance.preferences, scale=instance.capacity)
                x = demand.allocation(0.0)
            e = instance.production - x - (instance.capacity - float(np.sum(x))) / instance.n
            clearing = clearing._replace(lam=0.0, x=x, demand=demand)
    return _result(instance, clearing, e)[0]


_SAMPLE = 1024  # keys that selection samples, at about this many: every (n // _SAMPLE)-th
_BACKOFF = 16  # sample ranks that the first threshold tried lies below the estimated crossing


def _active_order(key: np.ndarray, level: np.ndarray, slope: np.ndarray | None, capacity: float, level_sum: float,
                  descending: bool = False) -> np.ndarray:
    """Stable order (by key; descending if asked) of the agents with key at or above a threshold t, tried at the
    key of a strided sample _BACKOFF ranks below the highest whose kink demand, scaled by n over the sample size,
    passes ``capacity``, then 2, 4, ... times as far down (a lower key each time), and kept once D(t) = sum over
    key >= t of (level - t*slope) exceeds ``capacity`` by 4(n+4)*eps*``level_sum`` (``float(np.sum(level))``), a margin
    on the rounding of D(t) and of any kink demand or cumulative sum over a key suffix: no tie group below t holds the
    crossing, and the order is a suffix (prefix) of the full one. Past the sample's lowest key, every agent is sorted."""
    margin = 4.0 * (len(key) + 4) * np.finfo(float).eps * level_sum
    step = max(1, len(key) // _SAMPLE)
    ranked = np.argsort(sample := key[::step])
    sample = sample[ranked]  # ascending, with the sums of the sampled agents at or above each
    above = [np.cumsum(column[::step][ranked][::-1])[::-1] for column in (level, slope) if column is not None]
    estimate = (above[0] - (0.0 if slope is None else sample * above[1])) * (len(key) / len(sample))
    j, back = np.count_nonzero(estimate > capacity) - 1 - _BACKOFF, _BACKOFF
    while j >= 0:
        upper = key >= (t := sample[j])  # einsum casts it in small buffers, unlike np.dot
        demand = np.einsum("i,i", level, upper) - (0.0 if slope is None else t * np.einsum("i,i", slope, upper))
        if demand > capacity + margin:  # the crossing lies above t
            active = np.flatnonzero(upper)
            return active[_stable_argsort(-key[active] if descending else key[active])]
        j, back = min(j - back, int(np.searchsorted(sample, t)) - 1), 2 * back
    return _stable_argsort(-key if descending else key)


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` from NumPy's default argsort, SIMD
    quicksort where the CPU has it, not timsort. If keys tie, their run numbers
    are sorted again by stable radix sort, 16 bits a pass, packing no two
    numbers into one. Keys are NaN-free; -0.0 and 0.0 tie."""
    order = np.argsort(keys)
    ranked = keys[order]
    new = ranked[1:] != ranked[:-1]  # False inside a run of equal keys
    if new.all():
        return order
    run = np.empty(len(keys), dtype=np.int64)
    run[order] = np.concatenate([[0], np.cumsum(new)])
    order = np.arange(len(keys))
    for shift in range(0, int(np.count_nonzero(new)).bit_length(), 16):
        order = order[np.argsort((run[order] >> shift).astype(np.uint16), kind="stable")]
    return order


def _kinks(key: np.ndarray, columns: list[np.ndarray], capacity: np.ndarray,
           side: str) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Tie groups of agents sorted down ``key``: their bounds (first places, then the agent count), the sums of each of
    ``columns`` (level, then slope if given, then any other) up to each bound, and by one binary search per capacity the
    last group whose kink demand (the groups above: level sum - key * slope sum) is below it (side "left") or at or below
    it ("right"). Down the groups, sums of positive levels never fall but float kink demands may, so with a slope each
    capacity is sought in their minimum from each group down, NaN skipped (only NaN from a group down: sorted last, as
    inf). None: -1."""
    bounds = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1], [True]]))
    sums = [np.concatenate([[0.0], np.cumsum(column)])[bounds] for column in columns]
    demand = sums[0][:-1]
    if len(sums) > 1:
        demand = demand - key[bounds[:-1]] * sums[1][:-1]
        np.fmin.accumulate(demand[::-1], out=demand[::-1])  # in place: no more G-sized temporaries
    return bounds, sums, np.searchsorted(demand, capacity, side) - 1


def _clear_kinks(instance: MarketInstance, capacity: np.ndarray | None = None) -> _Clearing:
    """Kink search of a market of quadratic and PWL agents, validated, or of the stack of markets that differ from it
    only in ``capacity``, all from one sort. An agent has a level, a key, a slope and a jump: (m, m*b, 1/b, 0) if
    quadratic, (phi, beta, 0, phi) if PWL. Above its key it demands level - price * slope, below it nothing, and at it
    anything down to its jump less. With sum level <= C an all-quadratic market's price solves one linear equation;
    any other market's is 0, where the PWL agents share the surplus equally. Otherwise the crossing group is the last
    one down the keys whose kink demand is at or below C (all-quadratic: its stable ascending order reversed) or below C
    (tied agents in index order). Its key is the price if its jumps reach C or no slope runs through it, and its PWL
    agents share the remainder in proportion to phi; else the price solves the linear segment below the key."""
    validate_instance(instance).raise_if_invalid()
    preferences, n = instance.preferences, instance.n
    kind, (first, level) = preferences.kind, preferences.columns
    capacity = np.array([instance.capacity]) if capacity is None else capacity
    if kind is None:  # level, slope, jump; m*b and 1/b formed on the quadratic rows alone
        rows = preferences.mask(Quadratic)
        b, m, key, slope, jump = first[rows], level[rows], first.copy(), np.zeros(n), level.copy()
        key[rows], slope[rows], jump[rows] = m * b, 1.0 / b, 0.0
        columns, pwl_agents = [level, slope, jump], n - len(b)
    else:  # quadratic: level and slope, 1/b summed, the selection slope and the kink sums; PWL: level, the jump too
        columns, pwl_agents = [level, 1.0 / first] if kind is Quadratic else [level], n
    sum_level = float(np.sum(level))
    spare = sum_level <= capacity
    lam = (sum_level - capacity) / float(np.sum(columns[1])) if kind is Quadratic and spare.any() else np.zeros(len(capacity))
    if kind is not Quadratic:  # spare: the PWL agents share the surplus
        x = np.zeros((len(capacity), n))
        x[spare] = columns[-1] + ((capacity[spare] - sum_level) / pwl_agents)[:, None]
    short = np.flatnonzero(~spare)
    if len(short):
        key = level * first if kind is Quadratic else first if kind is PiecewiseLinear else key
        order = _active_order(key, level, columns[1] if len(columns) > 1 else None, float(np.max(capacity[short])),
                              sum_level, descending=kind is not Quadratic)
        order = order[::-1] if kind is Quadratic else order  # quadratic: tied agents in descending index order
        bounds, sums, k = _kinks(key_s := key[order], ranked := [c[order] for c in columns], capacity[short],
                                 "right" if kind is Quadratic else "left")
        slope_above, slope_through = (sums[1][k], sums[1][1:][k]) if len(sums) > 1 else (0.0, 0.0)
        tier = 0.0 if kind is Quadratic else sums[-1][1:][k] - sums[-1][k]  # the crossing group's jumps
        at = key_s[bounds[:-1][k]]  # its key (k = -1: the last group's)
        demand = sums[0][k] - at * slope_above  # just above it
        with np.errstate(all="ignore"):  # each formula is used only where it holds
            at_key = (slope_through == 0) | ((tier > 0) & (capacity[short] <= demand + tier))
            lam[short] = np.where(at_key, at, (sums[0][1:][k] - capacity[short]) / slope_through)
            share = np.where(at_key, (capacity[short] - demand) / tier, 1.0)  # below its key, the group saturates
        if kind is Quadratic:
            del key, columns, key_s, ranked  # freed before the allocation is made
        else:  # the PWL agents: saturated above the price, a share at it, nothing below
            x_s, place = ranked[-1] * share[:, None], np.arange(len(order))
            np.copyto(x_s, ranked[-1], where=place < bounds[k, None])
            np.copyto(x_s, 0.0, where=place >= bounds[k + 1, None])
            x[short[:, None], order] = x_s
    if kind is Quadratic:
        x = np.divide(lam[:, None], first)  # max(m - lam/b, 0), each step in place
        return _Clearing(lam, np.maximum(np.subtract(level, x, out=x), 0.0, out=x), SolveMethod.CLOSED_FORM_QUADRATIC)
    if kind is None:
        with np.errstate(over="ignore"):  # a PWL rate over a small b: the agent demands 0
            x[:, rows] = np.maximum(m - lam[:, None] / b, 0.0)
    return _Clearing(lam, x, SolveMethod.BREAKPOINT_PWL, degenerate=kind is PiecewiseLinear and sum_level == capacity)


def _one_family(instance: MarketInstance, kind: type) -> _Clearing:
    """``_clear_kinks`` of an instance whose agents are all of family ``kind``; any other is validated, then refused."""
    if instance.preferences.kind is not kind:
        validate_instance(instance).raise_if_invalid()
        got = _COLUMN_KINDS.get(instance.preferences.kind, ("mixed",))[0]  # any other kind is mixed
        raise ValidationError([f"solver requires a homogeneous {_COLUMN_KINDS[kind][0]} instance, got {got}"])
    return _clear_kinks(instance)


def solve_mtes_quadratic(instance: MarketInstance) -> EquilibriumResult:
    """``solve``'s kink search for an all-quadratic instance: exact water-filling over the drop-out prices m_i*b_i, the
    price possibly negative where total satiation does not exceed capacity. Any other instance is refused."""
    return _solve(instance, lambda inst: _one_family(inst, Quadratic))


def solve_mtes_pwl(instance: MarketInstance) -> EquilibriumResult:
    """``solve``'s kink search for an all-PWL instance: breakpoint search over the marginal rates, the price zero and
    the surplus split equally where total saturation does not exceed capacity, flagged degenerate (the price is
    set-valued) where the two are equal. Any other instance is refused."""
    return _solve(instance, lambda inst: _one_family(inst, PiecewiseLinear))


def _clear_generic(instance: MarketInstance) -> _Clearing:
    validate_instance(instance).raise_if_invalid()
    capacity = instance.capacity
    demand = AggregateDemand(instance.preferences, scale=capacity)

    def gap(lam: float) -> float:
        return demand.total(lam) - capacity

    hi = float(np.max(demand.breakpoints))
    hi = hi if hi > 0 else 1.0
    f_hi = gap(hi)
    if f_hi > 0:
        raise BracketFailure("aggregate demand positive at the zero-demand price; derivative not decreasing")
    lo, f_lo = 0.0, gap(0.0)
    if f_lo < 0:
        width = max(1.0, abs(hi))
        for _ in range(80):
            hi, f_hi = lo, f_lo  # the last price tried is short of capacity
            lo -= width
            width *= 2.0
            f_lo = gap(lo)
            if f_lo >= 0:
                break
        else:
            raise BracketFailure("no sign change within the expanding negative bracket")
    lam = _roots(lambda x, _: np.array([gap(x.item())]), [lo], [hi], [f_lo], [f_hi],
                 _LAMBDA_TOL, 1e-9 * max(1.0, capacity))[0].item()
    if not np.all(finite := np.isfinite(x := demand.allocation(lam))):
        raise SolverError(f"agent {np.argmin(finite)}: demand not finite at the clearing price {lam!r}")
    return _Clearing(lam, x, SolveMethod.BISECTION, demand=demand)


def solve_mtes_generic(instance: MarketInstance) -> EquilibriumResult:
    """Safeguarded secant steps on the aggregate-demand balance.

    The initial bracket is [0, max marginal value at zero consumption], where
    demand is respectively at least the satiation total (``inf`` if a Custom
    derivative stays above 0) and exactly zero; if demand at zero price falls
    short of capacity the lower end expands into negative prices until the
    balance residual changes sign. Iterates, at most 200 times, until the
    bracket is narrower than 1e-10 and the balance residual is within 1e-9 *
    max(1, C), all Custom agents inverted in lockstep at each price.
    """
    return _solve(instance, _clear_generic)


def solve(instance: MarketInstance) -> EquilibriumResult:
    """Clear ``instance``, of either model, by the route its preferences pick:
    the kink search if every agent is Quadratic or PiecewiseLinear, bisection
    if any is Custom."""
    return _solve(instance, _clear_generic if instance.preferences.others else _clear_kinks)


def local_capacities(n: int, shares: np.ndarray) -> tuple[np.ndarray, int]:
    """Capacities of n agents each holding one of ``shares``, summed as ``MarketInstance.capacity`` sums them,
    and how many from the first on lie in (0, max_capacity(n)], where a market may clear."""
    capacity = np.array(shares, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing capacity lies outside the range
        for _ in range(n - 1):
            capacity += shares
    return capacity, int(np.argmin(np.append((capacity > 0) & (capacity <= max_capacity(n)), False)))


def solve_many(preferences, shares, capacity: np.ndarray) -> list[EquilibriumResult]:
    """``[solve(MarketInstance(np.full(n, s), preferences)) for s in shares]``, bit for bit: average consensus's
    local markets, whose ``capacity`` is ``local_capacities(n, shares)``, every one in its range. Quadratic or PWL
    markets clear as one stack (one sort, one self-check), markets with Custom agents one market at a time."""
    preferences = PreferenceColumns.of(preferences)
    if preferences.others or not len(shares):
        return [solve(MarketInstance(np.full(len(preferences), s), preferences)) for s in shares]
    first = MarketInstance(np.full(len(preferences), shares[0]), preferences)
    return _result(first, _clear_kinks(first, capacity), capacity=capacity)


# ---------------------------------------------------------------------------
# Optimality verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KktReport:
    """Distances to per-agent optimality and to the balance constraints.

    ``stationarity[i]`` is the consumption-space distance from x_i to agent
    i's best-response set at the reported price. ``feasibility[i]`` covers
    x_i >= 0 and, for trading instances, x_i + e_i <= a_i. The balance
    violation is |sum x - C| for the plain market and |sum e| for trading.
    ``ok`` is the solver's own gate: max_violation <= 1e-8 * max(1, C), so a
    NaN violation is never ok.
    """

    ok: bool
    stationarity: tuple[float, ...]
    feasibility: tuple[float, ...]
    balance_violation: float
    price_violation: float
    max_violation: float


def _kkt(
    instance: MarketInstance, lam: np.ndarray, x: np.ndarray, e: np.ndarray | None, capacity: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, list[float], float, list[float], np.ndarray]:
    """(stationarity, feasibility, balance, price, max) violations of the
    markets stacked as rows of ``x`` at the prices in the column ``lam``, which
    differ from ``instance`` only in ``capacity``; a trading market is one row.
    Last, whether each row passes the solver's gate, max <= 1e-8 * max(1, C):
    a NaN violation never does.

    Stationarity is written per family: PWL and quadratic agents as arrays (a
    one-family market's is that array itself), Custom agents inverted cold,
    in lockstep, independently of the solve: every derivative value called
    afresh, none taken from the solve's memory.
    """
    capacity = instance.capacity if capacity is None else capacity
    preferences, is_st = instance.preferences, instance.model is ModelKind.MTES_ST
    zero_price = is_st and lam.item() <= 0  # the routes floor a trading price at exactly 0.0
    families = [(preferences.kind, slice(None))] if preferences.kind else [
        (kind, rows) for kind in (Quadratic, PiecewiseLinear, None) if (rows := preferences.mask(kind)).any()]
    stationarity = None if preferences.kind else np.empty(x.shape)
    for kind, rows in families:
        (first, second), xs = (c[rows] for c in preferences.columns), x[:, rows]
        if kind is PiecewiseLinear:
            eq_tol = 1e-9 * first  # relative: a rate of any scale is told apart from the zero price
            # zero price: satiate; above the rate: drop out; at it: anywhere in [0, phi]; below it: |x - phi|. The first
            # case that holds wins, as in np.select: the case at the rate is computed for all, the others copied over it
            zero, above, at = lam <= eq_tol, lam > first + eq_tol, lam >= first - eq_tol
            part = np.negative(xs)
            np.maximum(np.maximum(part, slack := np.subtract(xs, second), out=part), 0.0, out=part)
            np.copyto(part, np.abs(slack, out=slack), where=~at)
            np.copyto(part, np.abs(xs, out=slack), where=above)
            np.copyto(part, np.maximum(np.subtract(second, xs, out=slack), 0.0, out=slack), where=zero)
            del slack  # freed before the feasibility array is made
        elif kind is Quadratic:  # |x - max(m - lam/b, 0)|, |x - m| at the zero price, each step in place
            with np.errstate(over="ignore"):  # a PWL rate over a small b: the agent demands 0
                part = np.divide(lam, first)
            np.maximum(np.subtract(second, part, out=part), 0.0, out=part)
            np.abs(np.subtract(xs, second if zero_price else part, out=part), out=part)
        else:
            derivs, xc = [p.deriv_fn for p in preferences.others], xs[0].tolist()
            if zero_price:  # satiation may sit past the inversion cap: measure in gradient units
                ds = [deriv(xi) for deriv, xi in zip(derivs, xc)]
                part = [abs(d) if xi > 0 else max(0.0, -d) for d, xi in zip(ds, xc)]
            else:
                part = np.abs(xs[0] - _inverse_marginals(derivs, lam.item(), max(1.0, instance.capacity), instance.n)[0])
        if stationarity is None:
            stationarity = part
        else:
            stationarity[:, rows] = part

    feasibility = np.maximum(negative := np.negative(x), 0.0, out=negative)
    price_violation = 0.0
    if is_st:
        if e is None:
            balance_violation = [math.inf]
        else:
            balance_violation = np.abs(np.sum(e, axis=1)).tolist()
            slack = x + e - instance.production
            # positive price forces the trading constraint active
            trade_cap = np.abs(slack) if lam.item() > 0 else np.maximum(slack, 0.0)
            feasibility = np.maximum(feasibility, trade_cap)
        price_violation = max(0.0, -lam.item())
    else:
        balance_violation = np.abs(np.sum(x, axis=1) - capacity).tolist()

    peaks = [np.max(v, axis=1) if x.shape[1] else np.zeros(len(x)) for v in (stationarity, feasibility)]
    max_violation = np.max([*peaks, balance_violation, np.full(len(x), price_violation)], axis=0)  # NaN wins
    ok = max_violation <= _KKT_TOL * np.maximum(1.0, capacity)
    return stationarity, feasibility, balance_violation, price_violation, max_violation.tolist(), ok


def verify_kkt(instance: MarketInstance, result: EquilibriumResult) -> KktReport:
    """Check a result against the equilibrium conditions of its instance.

    Report-style: never raises on a bad result, just measures violations.
    """
    x = np.asarray(result.x_star, dtype=float)[None]
    e = None if result.e_star is None else np.asarray(result.e_star, dtype=float)[None]
    stationarity, feasibility, balance, price, peak, ok = _kkt(instance, np.array([[result.lambda_star]]), x, e)
    return KktReport(bool(ok[0]), tuple(stationarity[0].tolist()),
                     tuple(feasibility[0].tolist()), balance[0], price, peak[0])
