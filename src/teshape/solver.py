"""Equilibrium price and allocation solvers.

Three routes to the market-clearing price:

* exact water-filling over sorted drop-out prices for all-quadratic instances,
* breakpoint search over sorted marginal rates for all-piecewise-linear
  instances,
* safeguarded secant steps on the aggregate-demand balance for any mix of
  strictly concave differentiable preferences (quadratic and custom; PWL is
  excluded because its utility is not differentiable at the saturation load).

Trading-model instances reduce to the plain market: when the plain-market
price is positive the trading equilibrium is identical with e = a - x, and
when it is non-positive the trading price floors at zero with satiation
allocations.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .model import (
    Custom,
    EquilibriumResult,
    Family,
    MarketInstance,
    ModelKind,
    PreferenceColumns,
    Quadratic,
    SolveMethod,
    ValidationError,
    production_violations,
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


_LAMBDA_TOL = 1e-10  # generic route: price bracket width to stop at (at least 2 ulp); KKT: zero price
_MAX_ITER = 200  # root-finder iteration cap


def _bracketed_root(f, lo: float, hi: float, f_lo: float, f_hi: float,
                    xtol: float, ftol: float, rtol: float = 0.0) -> float:
    """Root of a decreasing ``f`` with f(lo) >= 0 >= f(hi): the bracket end
    with the smaller |f| once the bracket is no wider than w = max(xtol,
    rtol*|hi|, 2 ulp(hi)) and |f| <= ftol at the last point.

    Each step takes the secant through the last two points if it falls inside
    the bracket, else bisects; a step that fails to halve |f| at the end it
    replaces is followed by a bisection. Points stay w/2 inside the bracket,
    so a root that close to an end is straddled by the next point.
    """
    (p, f_p), (q, f_q) = (lo, f_lo), (hi, f_hi)  # the last two points evaluated
    bisect, width = False, max(xtol, rtol * abs(hi), 2.0 * math.ulp(hi))
    for _ in range(_MAX_ITER):
        x = 0.5 * (lo + hi)
        if not bisect and hi - lo > width and f_p != f_q:
            secant = q - f_q * (q - p) / (f_q - f_p)
            if lo < secant < hi:
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
    raise ConvergenceFailure(f"root-finder did not meet tolerances in {_MAX_ITER} iterations")


def _inverse_marginal(deriv, lam: float, scale: float, lo: float = 0.0, hi: float | None = None
                      ) -> float:
    """Consumption at which a Custom derivative meets ``lam``, clipped at 0, to
    a bracket width of 1e-14 relative. A warm bracket [lo, hi] with
    hi <= max(1, scale) is used if deriv(lo) > lam >= deriv(hi); otherwise the
    bracket is [0, cap], the cap doubling from max(1, scale). If the derivative
    stays above ``lam`` for 80 doublings the cap is returned (demand
    effectively unbounded).
    """
    f_lo = deriv(lo) - lam
    warm = hi is not None and lo < hi <= max(1.0, scale) and f_lo > 0
    f_hi = deriv(hi) - lam if warm else math.nan
    if not f_hi <= 0:  # no warm bracket, or it failed its check
        f_lo = deriv(0.0) - lam if lo else f_lo
        if f_lo <= 0:
            return 0.0
        lo, hi = 0.0, max(1.0, scale)
        for _ in range(80):
            f_hi = deriv(hi) - lam
            if f_hi <= 0:
                break
            hi *= 2.0
        else:
            return hi
    return _bracketed_root(lambda x: deriv(x) - lam, lo, hi, f_lo, f_hi, 1e-14, math.inf, 1e-14)


class AggregateDemand:
    """Price-to-demand map of quadratic and Custom preferences, split once:
    quadratic agents into ``(b, m)`` arrays (a quadratic column pair as is),
    Custom agents into derivatives inverted one by one. Each evaluated price
    is remembered with its Custom consumptions, which fall as the price rises,
    so the nearest remembered prices on either side warm-start an inversion.
    Not thread-safe. ``breakpoints[i]`` is agent i's marginal value at 0.
    """

    def __init__(self, preferences, scale: float) -> None:
        self.n, self.scale = len(preferences), scale
        self.quadratic, self.custom, self.derivs = slice(None), [], []  # index or mask
        if isinstance(preferences, PreferenceColumns) and preferences.kind is Quadratic:
            self.b, self.m = preferences.columns
        else:
            b, m, is_quadratic = [], [], []
            for p in preferences:
                is_quadratic.append(isinstance(p, Quadratic))
                if is_quadratic[-1]:
                    b.append(p.b)
                    m.append(p.m)
                elif isinstance(p, Custom):
                    self.derivs.append(p.deriv_fn)
                else:
                    raise ValidationError(["bisection requires differentiable preferences; "
                                           "PWL agents clear only in an all-PWL market"])
            self.quadratic = np.array(is_quadratic, dtype=bool)
            self.custom = ~self.quadratic
            self.b, self.m = np.array(b, dtype=float), np.array(m, dtype=float)
        self._prices: list[float] = []  # remembered prices, ascending
        self._consumptions: list[list[float]] = []  # the Custom consumptions at each

    @property
    def breakpoints(self) -> np.ndarray:
        points = np.empty(self.n)
        points[self.quadratic] = self.b * self.m
        points[self.custom] = [deriv(0.0) for deriv in self.derivs]
        return points

    def allocation(self, lam: float) -> np.ndarray:
        """Every agent's demand at price ``lam``."""
        quadratic = np.maximum(self.m - lam / self.b, 0.0)
        if not self.derivs:
            return quadratic
        prices, k = self._prices, bisect_left(self._prices, lam)
        if k == len(prices) or prices[k] != lam:
            floors = self._consumptions[k] if k < len(prices) else repeat(0.0)
            ceilings = self._consumptions[k - 1] if k else repeat(None)
            prices.insert(k, lam)
            self._consumptions.insert(k, [
                _inverse_marginal(deriv, lam, self.scale, lo, hi)
                for deriv, lo, hi in zip(self.derivs, floors, ceilings)
            ])
        x = np.empty(self.n)
        x[self.quadratic], x[self.custom] = quadratic, self._consumptions[k]
        return x

    def total(self, lam: float) -> float:
        return float(np.sum(self.allocation(lam)))


# ---------------------------------------------------------------------------
# Instance solvers (plain market)
# ---------------------------------------------------------------------------


def _require(instance: MarketInstance, family: Family) -> None:
    validate_instance(instance).raise_if_invalid()
    if instance.family is not family:
        raise ValidationError(
            [f"solver requires a homogeneous {family.value} instance, got {instance.family.value}"]
        )


class _Clearing(NamedTuple):
    """A plain-market solution before packaging: price, allocation, route.
    A stack of markets has one price per market and one allocation row each."""

    lam: float | np.ndarray
    x: np.ndarray
    method: SolveMethod
    degenerate: bool = False
    demand: AggregateDemand | None = None  # the generic route's split, reused by the self-check


def _result(instance: MarketInstance, clearing: _Clearing, e: np.ndarray | None = None,
            capacity: np.ndarray | None = None) -> list[EquilibriumResult]:
    """Package a clearing, or a stack of markets that differ from ``instance``
    only in ``capacity``, self-checked in one pass over the stacked arrays.
    ``balance_residual`` is |sum x - C| for the plain market and |sum e| when
    trades are given: the KKT balance violation."""
    lam = np.reshape(clearing.lam, (-1, 1))
    x = np.reshape(clearing.x, (len(lam), -1))
    e = None if e is None else np.reshape(e, x.shape)
    _, _, residuals, _, violations = _kkt(instance, lam, x, e, clearing.demand, capacity)
    trades = repeat(None) if e is None else (tuple(row.tolist()) for row in e)
    return [EquilibriumResult(level, tuple(row.tolist()), trade, clearing.method, residual, violation,
                              clearing.degenerate)
            for level, row, trade, residual, violation in zip(lam[:, 0].tolist(), x, trades, residuals, violations)]


_LEVEL_BLOCK = 256  # capacities compared with the kink demands at a time
_SELECT_FLOOR = 64  # candidate count below which selection stops (at least n >> 4)


def _active_order(key: np.ndarray, level: np.ndarray, slope: np.ndarray | None, capacity: float,
                  descending: bool = False) -> np.ndarray:
    """Stable order (by key; descending if asked) of the agents with key at or
    above a threshold t. Candidate keys are halved at their median u; t moves
    up to u while D(u) = sum over key >= u of (level - u*slope) exceeds
    ``capacity`` by 4(n+4)*eps*sum(level), a margin on the rounding of D(u) and
    of any kink demand or cumulative sum over a key suffix: no tie group below
    t holds the crossing, and the order is a suffix (prefix) of the full one."""
    margin = 4.0 * (len(key) + 4) * np.finfo(float).eps * float(np.sum(level))
    t, cand = -math.inf, key.copy()  # partitioned in place
    while len(cand) > max(_SELECT_FLOOR, len(key) >> 4):
        cand.partition(half := len(cand) // 2)
        u = cand[half]
        upper = key >= u  # einsum casts it in small buffers, unlike np.dot
        demand = np.einsum("i,i", level, upper) - (0.0 if slope is None else u * np.einsum("i,i", slope, upper))
        if demand > capacity + margin:  # the crossing lies above u
            t, cand = u, cand[half + 1:]
        else:
            cand = cand[:half]
    del cand  # a view that holds the whole copy: released before the sort
    active = slice(None) if t == -math.inf else np.flatnonzero(key >= t)
    order = np.argsort(-key[active] if descending else key[active], kind="stable")
    return order if t == -math.inf else active[order]


def _tie_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of the runs of equal values in sorted ``keys``."""
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    return starts, np.concatenate([starts[1:], [len(keys)]])


def _clear_quadratic(*instances: MarketInstance) -> _Clearing:
    """The stacked water-filling clearing of quadratic instances that share one
    preference object, validated once: one stable sort of the drop-out prices
    that can be active serves every capacity. Kink demands need not be monotone
    as floats, so each capacity meets all of them, ``_LEVEL_BLOCK`` at a time."""
    _require(instances[0], Family.QUADRATIC)
    for instance in instances[1:]:  # the shared preferences passed with the first
        if violations := production_violations(instance.production, len(instance.preferences))[0]:
            raise ValidationError(violations)
    b, m = instances[0].preferences.columns
    capacity = np.array([instance.capacity for instance in instances])
    sum_m = float(np.sum(m))
    spare = sum_m <= capacity  # every agent stays active: one linear equation
    lam = (sum_m - capacity) / float(np.sum(1.0 / b)) if spare.any() else np.empty(len(capacity))
    short = np.flatnonzero(~spare)
    if len(short):
        order = _active_order(m * b, m, 1.0 / b, float(np.max(capacity[short])))
        drop_s, m_s, binv_s = m[order] * b[order], m[order], 1.0 / b[order]  # no whole-n array kept
        # suffix sums over the sorted agents: demand of actives {drop > u}
        suf_m = np.concatenate([np.cumsum(m_s[::-1])[::-1], [0.0]])
        suf_binv = np.concatenate([np.cumsum(binv_s[::-1])[::-1], [0.0]])
        starts, ends = _tie_groups(drop_s)
        demand_at_kink = suf_m[ends] - drop_s[starts] * suf_binv[ends]
        for block in np.split(short, range(_LEVEL_BLOCK, len(short), _LEVEL_BLOCK)):
            g = np.argmax(demand_at_kink <= capacity[block, None], axis=1)  # first kink at/below capacity
            j = starts[g]  # actives on the crossing segment: sorted indices >= j
            lam[block] = (suf_m[j] - capacity[block]) / suf_binv[j]
    return _Clearing(lam, np.maximum(m - lam[:, None] / b, 0.0), SolveMethod.CLOSED_FORM_QUADRATIC)


def solve_mtes_quadratic(instance: MarketInstance) -> EquilibriumResult:
    """Exact water-filling for all-quadratic instances.

    When total satiation does not exceed capacity every agent stays active and
    the price (possibly negative) comes from one linear equation. Otherwise a
    selection step keeps the drop-out prices m_i*b_i that can be active, only
    those are sorted, and the price is solved on the unique segment where
    aggregate demand crosses capacity. Equal drop-out prices are grouped
    exactly, never perturbed.
    """
    return _result(instance, _clear_quadratic(instance))[0]


def _clear_pwl(instance: MarketInstance) -> _Clearing:
    _require(instance, Family.PWL)
    beta, phi = instance.preferences.columns
    capacity = instance.capacity
    n = instance.n
    sum_phi = float(np.sum(phi))

    if sum_phi <= capacity:
        # equal split of the surplus keeps every agent at or above saturation
        x = phi + (capacity - sum_phi) / n
        return _Clearing(0.0, x, SolveMethod.BREAKPOINT_PWL, degenerate=sum_phi == capacity)
    order = _active_order(beta, phi, None, capacity, descending=True)
    beta_s, phi_s = beta[order], phi[order]
    cum_phi = np.cumsum(phi_s)
    starts, ends = _tie_groups(beta_s)
    incl = cum_phi[ends - 1]  # saturated demand of tiers at or above each rate
    excl = np.concatenate([[0.0], incl[:-1]])
    g = int(np.argmax(incl >= capacity))  # first tier whose inclusive demand covers C
    remainder = capacity - float(excl[g])
    tier = slice(starts[g], ends[g])
    tier_total = float(incl[g] - excl[g])
    x = np.zeros(n)
    x[order[: starts[g]]] = phi_s[: starts[g]]
    x[order[tier]] = phi_s[tier] * (remainder / tier_total)
    return _Clearing(float(beta_s[starts[g]]), x, SolveMethod.BREAKPOINT_PWL)


def solve_mtes_pwl(instance: MarketInstance) -> EquilibriumResult:
    """Breakpoint search for all-piecewise-linear instances.

    With total saturation below capacity the price is zero and the surplus is
    split equally. Otherwise a selection step keeps the agents whose rates can
    carry capacity, and only those are scanned by marginal rate, descending;
    the price is the first rate at which the saturated demand above it stays
    within capacity, and the marginal tier shares the remainder in proportion
    to saturation loads. The exact-saturation boundary is priced at zero and
    flagged degenerate (the equilibrium price is set-valued there).
    """
    return _result(instance, _clear_pwl(instance))[0]


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
        raise BracketFailure(
            "aggregate demand positive at the zero-demand price; derivative not decreasing"
        )
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
    lam = _bracketed_root(gap, lo, hi, f_lo, f_hi, _LAMBDA_TOL, 1e-9 * max(1.0, capacity))
    return _Clearing(lam, demand.allocation(lam), SolveMethod.BISECTION, demand=demand)


def solve_mtes_generic(instance: MarketInstance) -> EquilibriumResult:
    """Safeguarded secant steps on the aggregate-demand balance.

    The initial bracket is [0, max marginal value at zero consumption], where
    demand is respectively at least the satiation total and exactly zero; if
    demand at zero price falls short of capacity the lower end expands into
    negative prices until the balance residual changes sign. Iterates, at
    most 200 times, until the bracket is narrower than 1e-10 and the balance
    residual is within 1e-9 * max(1, C).
    """
    return _result(instance, _clear_generic(instance))[0]


def _solve_plain(instance: MarketInstance, method: str) -> _Clearing:
    if method not in ("auto", "closed", "bisect"):
        raise ValidationError([f"unknown method {method!r}"])
    family = instance.family
    if method == "bisect" or (method == "auto" and family is Family.MIXED):
        return _clear_generic(instance)
    if family is Family.QUADRATIC:
        return _clear_quadratic(instance)  # a one-row stack
    if family is Family.PWL:
        return _clear_pwl(instance)
    raise ValidationError(["closed form requires homogeneous family"])


def solve_mtes_st(instance: MarketInstance, method: str = "auto") -> EquilibriumResult:
    """Solve a trading-model instance via its plain-market counterpart.

    A positive plain-market price carries over unchanged with trades
    e = a - x. Otherwise the price floors at zero: agents consume their
    satiation loads and the production surplus is returned equally through
    the trade vector, keeping the total trade at zero and every x + e <= a.
    ``balance_residual`` reports |sum of trades| for trading instances.
    """
    if instance.model is not ModelKind.MTES_ST:
        raise ValidationError(["solve_mtes_st requires an MTES-ST instance"])
    plain = replace(instance, model=ModelKind.MTES)
    clearing = _solve_plain(plain, method)
    if clearing.lam > 0:
        e = instance.production - clearing.x
    else:  # satiation loads; a PWL market clears at zero price only with everyone satiated
        x, demand = clearing.x, clearing.demand
        if plain.family is not Family.PWL:
            demand = demand or AggregateDemand(plain.preferences, scale=plain.capacity)
            x = demand.allocation(0.0)
        e = instance.production - x - (instance.capacity - float(np.sum(x))) / instance.n
        clearing = clearing._replace(lam=0.0, x=x, demand=demand)
    return _result(instance, clearing, e)[0]


def solve(instance: MarketInstance, method: str = "auto") -> EquilibriumResult:
    """Dispatch to the right solver for the instance's model and family."""
    if instance.model is ModelKind.MTES_ST:
        return solve_mtes_st(instance, method)
    return _result(instance, _solve_plain(instance, method))[0]


def solve_many(instances: list[MarketInstance]) -> list[EquilibriumResult]:
    """``[solve(i) for i in instances]``, bit for bit. Plain-market
    quadratic instances that hold one and the same ``PreferenceColumns``, as
    the local markets of average consensus do, share one water-filling sort
    and are packaged and self-checked as one stack."""
    first = instances[0] if instances else None
    if first is None or first.family is not Family.QUADRATIC or any(
            i.preferences is not first.preferences or i.model is not ModelKind.MTES for i in instances):
        return [solve(i) for i in instances]
    return _result(first, _clear_quadratic(*instances), capacity=np.array([i.capacity for i in instances]))


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
    """

    stationarity: tuple[float, ...]
    feasibility: tuple[float, ...]
    balance_violation: float
    price_violation: float
    max_violation: float

    def ok(self, tol: float = 1e-6) -> bool:
        return self.max_violation <= tol


def _kkt(
    instance: MarketInstance, lam: np.ndarray, x: np.ndarray, e: np.ndarray | None,
    demand: AggregateDemand | None = None, capacity: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, list[float], float, list[float]]:
    """(stationarity, feasibility, balance, price, max) violations of the
    markets stacked as rows of ``x`` at the prices in the column ``lam``, which
    differ from ``instance`` only in ``capacity``; a trading market is one row.

    Vectorized for PWL and for quadratic agents, which mixed instances share;
    only the Custom agents of a mixed instance go one by one. ``demand`` is
    the solve's split, if it made one; its remembered prices are not used.
    """
    is_st = instance.model is ModelKind.MTES_ST
    zero_price = is_st and lam.item() <= _LAMBDA_TOL
    if instance.family is Family.PWL:
        beta, phi = instance.preferences.columns
        eq_tol = 1e-9 * np.maximum(1.0, beta)
        # zero price: satiate; above the rate: drop out; at it: anywhere in [0, phi]
        stationarity = np.select(
            [lam <= eq_tol, lam > beta + eq_tol, lam >= beta - eq_tol],
            [np.maximum(phi - x, 0.0), np.abs(x), np.maximum(np.maximum(-x, x - phi), 0.0)],
            np.abs(x - phi),
        )
    else:  # quadratic agents as arrays; each Custom agent inverted cold, independently of the solve
        demand = demand or AggregateDemand(instance.preferences, instance.capacity)
        b, m = demand.b, demand.m
        quadratic = np.abs(x[:, demand.quadratic] - (m if zero_price else np.maximum(m - lam / b, 0.0)))
        stationarity = quadratic
        if demand.derivs:
            xc = x[0, demand.custom].tolist()
            if zero_price:  # satiation may sit past the inversion cap: measure in gradient units
                ds = [deriv(xi) for deriv, xi in zip(demand.derivs, xc)]
                custom = [abs(d) if xi > 0 else max(0.0, -d) for d, xi in zip(ds, xc)]
            else:
                custom = [abs(xi - _inverse_marginal(deriv, lam.item(), instance.capacity))
                          for deriv, xi in zip(demand.derivs, xc)]
            stationarity = np.empty(x.shape)
            stationarity[:, demand.quadratic], stationarity[:, demand.custom] = quadratic, custom

    feasibility = np.maximum(-x, 0.0)
    price_violation = 0.0
    if is_st:
        if e is None:
            balance_violation = [math.inf]
        else:
            balance_violation = np.abs(np.sum(e, axis=1)).tolist()
            slack = x + e - instance.production
            # positive price forces the trading constraint active
            trade_cap = np.abs(slack) if lam.item() > _LAMBDA_TOL else np.maximum(slack, 0.0)
            feasibility = np.maximum(feasibility, trade_cap)
        price_violation = max(0.0, -lam.item())
    else:
        balance_violation = np.abs(np.sum(x, axis=1) - (instance.capacity if capacity is None else capacity)).tolist()

    peaks = [np.max(v, axis=1).tolist() if x.shape[1] else [0.0] * len(x) for v in (stationarity, feasibility)]
    max_violation = [max(*row, price_violation) for row in zip(*peaks, balance_violation)]
    return stationarity, feasibility, balance_violation, price_violation, max_violation


def verify_kkt(instance: MarketInstance, result: EquilibriumResult) -> KktReport:
    """Check a result against the equilibrium conditions of its instance.

    Report-style: never raises on a bad result, just measures violations.
    """
    x = np.asarray(result.x_star, dtype=float)[None]
    e = None if result.e_star is None else np.asarray(result.e_star, dtype=float)[None]
    stationarity, feasibility, balance, price, peak = _kkt(instance, np.array([[result.lambda_star]]), x, e)
    return KktReport(tuple(stationarity[0].tolist()), tuple(feasibility[0].tolist()), balance[0], price, peak[0])
