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


@dataclass(frozen=True)
class SolverConfig:
    """Numerical tolerances for the solvers.

    ``balance_tol`` of None resolves to 1e-9 * max(1, C) per instance.
    ``lambda_tol`` is the absolute width at which the price bracket stops
    (never below two float spacings of the price).
    """

    balance_tol: float | None = None
    lambda_tol: float = 1e-10
    max_bisection_iters: int = 200

    def __post_init__(self) -> None:
        if self.balance_tol is not None and not self.balance_tol > 0:
            raise ValueError("balance_tol must be positive")
        if not self.lambda_tol > 0:
            raise ValueError("lambda_tol must be positive")
        if self.max_bisection_iters < 1:
            raise ValueError("max_bisection_iters must be >= 1")

    def resolved_balance_tol(self, capacity: float) -> float:
        if self.balance_tol is not None:
            return self.balance_tol
        return 1e-9 * max(1.0, capacity)


DEFAULT_CONFIG = SolverConfig()


# ---------------------------------------------------------------------------
# Per-agent best responses
# ---------------------------------------------------------------------------


def quadratic_best_response(b: float, m: float, lam: float) -> float:
    """Payoff-maximizing consumption of a quadratic agent at price ``lam``.

    Equals max(m - lam/b, 0): the unconstrained stationary point, clipped at
    zero once the price exceeds the agent's maximum marginal value m*b.
    """
    if not (b > 0 and m > 0):
        raise ValidationError(["quadratic_best_response requires b > 0 and m > 0"])
    return max(m - lam / b, 0.0)


@dataclass(frozen=True)
class ResponseInterval:
    """Closed interval [lo, hi] of optimal consumptions; hi may be +inf."""

    lo: float
    hi: float

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol


def pwl_best_response(beta: float, phi: float, lam: float) -> ResponseInterval:
    """Optimal-consumption correspondence of a piece-wise linear agent.

    At zero price anything from the saturation load up is optimal; below the
    marginal rate exactly the saturation load; at the marginal rate the agent
    is indifferent on [0, phi]; above it the agent drops out.
    """
    if not (beta > 0 and phi > 0):
        raise ValidationError(["pwl_best_response requires beta > 0 and phi > 0"])
    if lam < 0:
        raise ValidationError(["pwl_best_response requires lam >= 0"])
    if lam == 0:
        return ResponseInterval(phi, math.inf)
    if lam < beta:
        return ResponseInterval(phi, phi)
    if lam == beta:
        return ResponseInterval(0.0, phi)
    return ResponseInterval(0.0, 0.0)


def _bracketed_root(f, lo: float, hi: float, f_lo: float, f_hi: float,
                    xtol: float, ftol: float, max_iter: int, rtol: float = 0.0) -> float:
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
    for _ in range(max_iter):
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
    raise ConvergenceFailure(f"root-finder did not meet tolerances in {max_iter} iterations")


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
    return _bracketed_root(lambda x: deriv(x) - lam, lo, hi, f_lo, f_hi, 1e-14, math.inf, 200, 1e-14)


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
                    raise ValidationError(
                        ["bisection requires differentiable preferences; use the PWL solver instead"]
                    )
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
    """A plain-market solution before packaging: price, allocation, route."""

    lam: float
    x: np.ndarray
    method: SolveMethod
    degenerate: bool = False


def _result(
    instance: MarketInstance, cfg: SolverConfig, clearing: _Clearing, e: np.ndarray | None = None
) -> EquilibriumResult:
    """Package a clearing, self-checked on its arrays. ``balance_residual`` is
    |sum x - C| for the plain market and |sum e| when trades are given."""
    lam, x = clearing.lam, clearing.x
    residual = abs(float(np.sum(x)) - instance.capacity) if e is None else abs(float(np.sum(e)))
    return EquilibriumResult(
        lambda_star=lam,
        x_star=tuple(x.tolist()),
        e_star=None if e is None else tuple(e.tolist()),
        method=clearing.method,
        balance_residual=residual,
        kkt_max_violation=_kkt(instance, lam, x, e, cfg)[-1],
        degenerate=clearing.degenerate,
    )


def _clear_quadratic(instance: MarketInstance) -> _Clearing:
    _require(instance, Family.QUADRATIC)
    b, m = instance.preferences.columns
    capacity = instance.capacity
    sum_m = float(np.sum(m))

    if sum_m <= capacity:
        lam = (sum_m - capacity) / float(np.sum(1.0 / b))
    else:
        drop = m * b
        order = np.argsort(drop, kind="stable")
        drop_s = drop[order]
        m_s = m[order]
        binv_s = 1.0 / b[order]
        # suffix sums over the sorted agents: demand of actives {drop > u}
        suf_m = np.concatenate([np.cumsum(m_s[::-1])[::-1], [0.0]])
        suf_binv = np.concatenate([np.cumsum(binv_s[::-1])[::-1], [0.0]])
        starts = np.flatnonzero(np.concatenate([[True], drop_s[1:] != drop_s[:-1]]))
        ends = np.concatenate([starts[1:], [len(drop_s)]])
        demand_at_kink = suf_m[ends] - drop_s[starts] * suf_binv[ends]
        g = int(np.argmax(demand_at_kink <= capacity))  # first kink at/below capacity
        j = starts[g]  # actives on the crossing segment: sorted indices >= j
        lam = (suf_m[j] - capacity) / suf_binv[j]
    return _Clearing(float(lam), np.maximum(m - lam / b, 0.0), SolveMethod.CLOSED_FORM_QUADRATIC)


def solve_mtes_quadratic(
    instance: MarketInstance, cfg: SolverConfig = DEFAULT_CONFIG
) -> EquilibriumResult:
    """Exact water-filling for all-quadratic instances.

    When total satiation does not exceed capacity every agent stays active and
    the price (possibly negative) comes from one linear equation. Otherwise
    the drop-out prices m_i*b_i are sorted and the price is solved on the
    unique segment where aggregate demand crosses capacity. Equal drop-out
    prices are grouped exactly, never perturbed.
    """
    return _result(instance, cfg, _clear_quadratic(instance))


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
    order = np.argsort(-beta, kind="stable")
    beta_s = beta[order]
    phi_s = phi[order]
    cum_phi = np.cumsum(phi_s)
    starts = np.flatnonzero(np.concatenate([[True], beta_s[1:] != beta_s[:-1]]))
    ends = np.concatenate([starts[1:], [n]])
    incl = cum_phi[ends - 1]  # saturated demand of tiers at or above each rate
    excl = np.concatenate([[0.0], incl[:-1]])
    g = int(np.argmax(incl >= capacity))  # first tier whose inclusive demand covers C
    remainder = capacity - float(excl[g])
    tier = slice(starts[g], ends[g])
    tier_total = float(incl[g] - excl[g])
    x_s = np.zeros(n)
    x_s[: starts[g]] = phi_s[: starts[g]]
    x_s[tier] = phi_s[tier] * (remainder / tier_total)
    x = np.empty(n)
    x[order] = x_s
    return _Clearing(float(beta_s[starts[g]]), x, SolveMethod.BREAKPOINT_PWL)


def solve_mtes_pwl(
    instance: MarketInstance, cfg: SolverConfig = DEFAULT_CONFIG
) -> EquilibriumResult:
    """Breakpoint search for all-piecewise-linear instances.

    With total saturation below capacity the price is zero and the surplus is
    split equally. Otherwise agents are scanned by marginal rate, descending;
    the price is the first rate at which the saturated demand above it stays
    within capacity, and the marginal tier shares the remainder in proportion
    to saturation loads. The exact-saturation boundary is priced at zero and
    flagged degenerate (the equilibrium price is set-valued there).
    """
    return _result(instance, cfg, _clear_pwl(instance))


def _clear_generic(instance: MarketInstance, cfg: SolverConfig) -> _Clearing:
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
    lam = _bracketed_root(gap, lo, hi, f_lo, f_hi, cfg.lambda_tol,
                          cfg.resolved_balance_tol(capacity), cfg.max_bisection_iters)
    return _Clearing(lam, demand.allocation(lam), SolveMethod.BISECTION)


def solve_mtes_generic(
    instance: MarketInstance, cfg: SolverConfig = DEFAULT_CONFIG
) -> EquilibriumResult:
    """Safeguarded secant steps on the aggregate-demand balance.

    The initial bracket is [0, max marginal value at zero consumption], where
    demand is respectively at least the satiation total and exactly zero; if
    demand at zero price falls short of capacity the lower end expands into
    negative prices until the balance residual changes sign. Iterates, at
    most ``max_bisection_iters`` times, until the bracket is narrower than
    ``lambda_tol`` and the balance residual is within ``balance_tol``.
    """
    return _result(instance, cfg, _clear_generic(instance, cfg))


def _solve_plain(instance: MarketInstance, cfg: SolverConfig, method: str) -> _Clearing:
    if method not in ("auto", "closed", "bisect"):
        raise ValidationError([f"unknown method {method!r}"])
    family = instance.family
    if method == "bisect" or (method == "auto" and family is Family.MIXED):
        return _clear_generic(instance, cfg)
    if family is Family.QUADRATIC:
        return _clear_quadratic(instance)
    if family is Family.PWL:
        return _clear_pwl(instance)
    raise ValidationError(["closed form requires homogeneous family"])


def solve_mtes_st(
    instance: MarketInstance, cfg: SolverConfig = DEFAULT_CONFIG, method: str = "auto"
) -> EquilibriumResult:
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
    clearing = _solve_plain(plain, cfg, method)
    if clearing.lam > 0:
        e = instance.production - clearing.x
    else:  # satiation loads; a PWL market clears at zero price only with everyone satiated
        x = clearing.x
        if plain.family is not Family.PWL:
            x = AggregateDemand(plain.preferences, scale=plain.capacity).allocation(0.0)
        e = instance.production - x - (instance.capacity - float(np.sum(x))) / instance.n
        clearing = clearing._replace(lam=0.0, x=x)
    return _result(instance, cfg, clearing, e)


def solve(
    instance: MarketInstance, cfg: SolverConfig = DEFAULT_CONFIG, method: str = "auto"
) -> EquilibriumResult:
    """Dispatch to the right solver for the instance's model and family."""
    if instance.model is ModelKind.MTES_ST:
        return solve_mtes_st(instance, cfg, method)
    return _result(instance, cfg, _solve_plain(instance, cfg, method))


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
    instance: MarketInstance, lam: float, x: np.ndarray, e: np.ndarray | None, cfg: SolverConfig
) -> tuple[np.ndarray, np.ndarray, float, float, float]:
    """(stationarity, feasibility, balance, price, max) violations, on arrays.

    Vectorized for PWL and for quadratic agents, which mixed instances share;
    only the Custom agents of a mixed instance go one by one.
    """
    is_st = instance.model is ModelKind.MTES_ST
    zero_price = is_st and lam <= cfg.lambda_tol
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
        demand = AggregateDemand(instance.preferences, instance.capacity)
        b, m = demand.b, demand.m
        quadratic = np.abs(x[demand.quadratic] - (m if zero_price else np.maximum(m - lam / b, 0.0)))
        stationarity = quadratic
        if demand.derivs:
            xc = x[demand.custom].tolist()
            if zero_price:  # satiation may sit past the inversion cap: measure in gradient units
                ds = [deriv(xi) for deriv, xi in zip(demand.derivs, xc)]
                custom = [abs(d) if xi > 0 else max(0.0, -d) for d, xi in zip(ds, xc)]
            else:
                custom = [abs(xi - _inverse_marginal(deriv, lam, instance.capacity))
                          for deriv, xi in zip(demand.derivs, xc)]
            stationarity = np.empty(len(x))
            stationarity[demand.quadratic], stationarity[demand.custom] = quadratic, custom

    feasibility = np.maximum(-x, 0.0)
    price_violation = 0.0
    if is_st:
        if e is None:
            balance_violation = math.inf
        else:
            balance_violation = abs(float(np.sum(e)))
            slack = x + e - instance.production
            # positive price forces the trading constraint active
            trade_cap = np.abs(slack) if lam > cfg.lambda_tol else np.maximum(slack, 0.0)
            feasibility = np.maximum(feasibility, trade_cap)
        price_violation = max(0.0, -lam)
    else:
        balance_violation = abs(float(np.sum(x)) - instance.capacity)

    peaks = [float(np.max(v)) if len(x) else 0.0 for v in (stationarity, feasibility)]
    max_violation = max(*peaks, balance_violation, price_violation)
    return stationarity, feasibility, balance_violation, price_violation, max_violation


def verify_kkt(
    instance: MarketInstance,
    result: EquilibriumResult,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> KktReport:
    """Check a result against the equilibrium conditions of its instance.

    Report-style: never raises on a bad result, just measures violations.
    """
    x = np.asarray(result.x_star, dtype=float)
    e = None if result.e_star is None else np.asarray(result.e_star, dtype=float)
    stationarity, feasibility, *violations = _kkt(instance, result.lambda_star, x, e, cfg)
    return KktReport(tuple(stationarity.tolist()), tuple(feasibility.tolist()), *violations)
