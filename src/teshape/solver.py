"""Equilibrium price and allocation solvers.

Three routes to the market-clearing price:

* exact water-filling over sorted drop-out prices for all-quadratic instances,
* breakpoint search over sorted marginal rates for all-piecewise-linear
  instances,
* safeguarded secant steps on the aggregate-demand balance for any mix of
  strictly concave differentiable preferences (quadratic and custom; PWL is
  excluded because its utility is not differentiable at the saturation load).

``solve`` takes the route that the preferences pick; ``solve_mtes_quadratic``,
``solve_mtes_pwl`` and ``solve_mtes_generic`` force one. Every route clears
both models. Trading-model instances reduce to the plain market: when the
plain-market price is positive the trading equilibrium is identical with
e = a - x, and when it is non-positive the trading price floors at zero with
satiation allocations.
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


def _roots(f, lo, hi, f_lo, f_hi, xtol: float, ftol: float, rtol: float = 0.0) -> np.ndarray:
    """Roots of decreasing f_i with f_i(lo_i) >= 0 >= f_i(hi_i), stepped in
    lockstep; ``f(x, i)`` evaluates f_i at x for the open brackets i. Root i
    is the end with the smaller |f_i| once the bracket is no wider than
    w = max(xtol, rtol*|hi|, 2 ulp(hi)) and |f_i| <= ftol at its last point;
    then the bracket is dropped. A step takes the secant through a bracket's
    last two points if inside it, else bisects; a step that fails to halve |f|
    at the end it replaces is followed by a bisection. Points stay w/2 inside,
    so a root that close to an end is straddled. Nothing is written in place.
    """
    lo, hi, f_lo, f_hi = (np.asarray(v, dtype=float) for v in (lo, hi, f_lo, f_hi))
    p, f_p, q, f_q = lo, f_lo, hi, f_hi  # the last two points evaluated
    roots, open_, bisect = np.empty(len(lo)), np.arange(len(lo)), np.zeros(len(lo), dtype=bool)
    width = np.maximum(np.maximum(xtol, rtol * np.abs(hi)), 2.0 * np.spacing(np.abs(hi)))
    for _ in range(_MAX_ITER):
        if not len(open_):
            return roots
        with np.errstate(all="ignore"):  # masked below where f_p == f_q or f is infinite
            secant = q - f_q * (q - p) / (f_q - f_p)
        inside = ~bisect & (hi - lo > width) & (f_p != f_q) & (lo < secant) & (secant < hi)
        x = np.where(inside, np.minimum(np.maximum(secant, lo + 0.5 * width), hi - 0.5 * width), 0.5 * (lo + hi))
        fx = f(x, open_)
        above = fx > 0
        bisect = ~bisect & (np.abs(fx) > 0.5 * np.abs(np.where(above, f_lo, f_hi)))
        lo, f_lo, hi, f_hi = np.where(above, x, lo), np.where(above, fx, f_lo), np.where(above, hi, x), np.where(above, f_hi, fx)
        p, f_p, q, f_q = q, f_q, x, fx
        width = np.maximum(np.maximum(xtol, rtol * np.abs(hi)), 2.0 * np.spacing(np.abs(hi)))
        if (done := (hi - lo <= width) & (np.abs(fx) <= ftol)).any():
            roots[open_[done]] = np.where(np.abs(f_lo) < np.abs(f_hi), lo, hi)[done]
            open_, lo, hi, f_lo, f_hi, p, f_p, q, f_q, bisect, width = (
                v[~done] for v in (open_, lo, hi, f_lo, f_hi, p, f_p, q, f_q, bisect, width))
    if len(open_):
        raise ConvergenceFailure(f"root-finder did not meet tolerances in {_MAX_ITER} iterations")
    return roots


def _inverse_marginals(derivs: list, lam: float, cap: float, lo=None, hi=None) -> np.ndarray:
    """Consumptions at which Custom derivatives meet ``lam``, clipped at 0, to a
    bracket width of 1e-14 relative, inverted in lockstep. Agent i keeps the
    warm bracket [lo_i, hi_i] if lo_i < hi_i <= cap and deriv(lo_i) > lam >=
    deriv(hi_i), else takes [0, h], h the first of cap, 2cap, 4cap, ... with
    deriv(h) <= lam. Still above lam at cap*2**79, the last doubling: ``inf``.
    """
    def f(x, i):
        return np.array([derivs[k](v) for k, v in zip(i.tolist(), x.tolist())], dtype=float) - lam
    every = np.arange(len(derivs))
    lo = np.zeros(len(derivs)) if lo is None else np.array(lo, dtype=float)  # copies, written below
    hi = np.full(len(derivs), math.nan) if hi is None else np.array(hi, dtype=float)
    f_lo, f_hi = f(lo, every), np.full(len(derivs), math.nan)
    warm = (lo < hi) & (hi <= cap) & (f_lo > 0)
    f_hi[warm] = f(hi[warm], every[warm])
    cold = ~(f_hi <= 0)  # no warm bracket, or it failed its check
    again = cold & (lo != 0)
    f_lo[again] = f(np.zeros(np.count_nonzero(again)), every[again])
    cold &= ~(f_lo <= 0)  # the rest of the cold agents demand 0
    lo[cold], hi[cold] = 0.0, cap
    f_hi[cold] = f(hi[cold], every[cold])
    x, far = np.zeros(len(derivs)), every[cold & ~(f_hi <= 0)]
    unbounded = ~(f(np.full(len(far), cap * 2.0**79), far) <= 0)
    x[far[unbounded]], grow = math.inf, far[~unbounded]
    while len(grow):  # double up to the first cap point at or below lam, found by the probe
        hi[grow] *= 2.0
        f_hi[grow] = f(hi[grow], grow)
        grow = grow[~(f_hi[grow] <= 0)]
    rest = np.flatnonzero(f_hi <= 0)
    x[rest] = _roots(lambda z, i: f(z, rest[i]), lo[rest], hi[rest], f_lo[rest], f_hi[rest], 1e-14, math.inf, 1e-14)
    return x


class AggregateDemand:
    """Price-to-demand map of quadratic and Custom preferences, split once by
    masks on the kind codes: the quadratic agents' ``(b, m)`` rows (a slice
    when every agent is quadratic), the Custom agents' derivatives inverted
    together, unbounded demand as inf. Each evaluated price is remembered
    with its Custom consumptions, which fall as the price rises, so the
    nearest remembered prices on either side warm-start the inversions. Not
    thread-safe. ``breakpoints[i]`` is agent i's marginal value at 0.
    """

    def __init__(self, preferences, scale: float) -> None:
        preferences = PreferenceColumns.of(preferences)
        self.n, self.scale = len(preferences), scale
        if preferences.mask(PiecewiseLinear).any() or not all(isinstance(p, Custom) for p in preferences.others):
            raise ValidationError(["bisection requires differentiable preferences; "
                                   "PWL agents clear only in an all-PWL market"])
        # every agent quadratic: the columns as they are, not copied
        self.quadratic = slice(None) if preferences.kind is Quadratic else preferences.mask(Quadratic)
        self.custom = preferences.mask(None)
        self.b, self.m = (c[self.quadratic] for c in preferences.columns)
        self.derivs = [p.deriv_fn for p in preferences.others]
        self._prices: list[float] = []  # remembered prices, ascending
        self._consumptions: list[np.ndarray] = []  # the Custom consumptions at each

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
            floors = self._consumptions[k] if k < len(prices) else None
            ceilings = self._consumptions[k - 1] if k else None
            prices.insert(k, lam)
            self._consumptions.insert(k, _inverse_marginals(self.derivs, lam, max(1.0, self.scale), floors, ceilings))
        x = np.empty(self.n)
        x[self.quadratic], x[self.custom] = quadratic, self._consumptions[k]
        return x

    def total(self, lam: float) -> float:
        return float(np.sum(self.allocation(lam)))


# ---------------------------------------------------------------------------
# Instance solvers (plain market)
# ---------------------------------------------------------------------------


def _require(instance: MarketInstance, kind: type) -> None:
    validate_instance(instance).raise_if_invalid()
    if instance.preferences.kind is not kind:
        got = _COLUMN_KINDS.get(instance.preferences.kind, ("mixed",))[0]  # any other kind is mixed
        raise ValidationError([f"solver requires a homogeneous {_COLUMN_KINDS[kind][0]} instance, got {got}"])


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
    trades are given: the KKT balance violation. A market whose largest KKT
    violation exceeds 1e-8 * max(1, C) raises ``SolverError``."""
    lam = np.reshape(clearing.lam, (-1, 1))
    x = np.reshape(clearing.x, (len(lam), -1))
    e = None if e is None else np.reshape(e, x.shape)
    _, _, residuals, _, violations = _kkt(instance, lam, x, e, clearing.demand, capacity)
    limits = _KKT_TOL * np.maximum(1.0, instance.capacity if capacity is None else capacity)
    if (bad := ~(np.array(violations) <= limits)).any():
        i = int(np.argmax(bad))
        raise SolverError(f"KKT violation {violations[i]:.3e} > {_KKT_TOL:g} * max(1, C) at price {lam[i, 0].item()!r}")
    return [EquilibriumResult.of_rows(row, trade, lambda_star=level, method=clearing.method, balance_residual=residual,
                                      kkt_max_violation=violation, degenerate=clearing.degenerate)
            for level, row, trade, residual, violation in zip(lam[:, 0].tolist(), x, repeat(None) if e is None else e,
                                                              residuals, violations)]


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
        else:  # satiation loads; a PWL market clears at zero price only with everyone satiated
            x, demand = clearing.x, clearing.demand
            if instance.preferences.kind is not PiecewiseLinear:
                demand = demand or AggregateDemand(instance.preferences, scale=instance.capacity)
                x = demand.allocation(0.0)
            e = instance.production - x - (instance.capacity - float(np.sum(x))) / instance.n
            clearing = clearing._replace(lam=0.0, x=x, demand=demand)
    return _result(instance, clearing, e)[0]


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
    order = _stable_argsort(-key[active] if descending else key[active])
    return order if t == -math.inf else active[order]


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


def _tie_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of the runs of equal values in sorted ``keys``."""
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    return starts, np.concatenate([starts[1:], [len(keys)]])


def _clear_quadratic(instance: MarketInstance, capacity: np.ndarray | None = None) -> _Clearing:
    """Water-filling of a quadratic instance, validated, or of the stack of
    markets that differ from it only in ``capacity``: one stable sort of the
    drop-out prices that can be active serves every capacity. Kink demands need
    not be monotone as floats, so each capacity is sought in their running minimum."""
    _require(instance, Quadratic)
    b, m = instance.preferences.columns
    capacity = np.array([instance.capacity]) if capacity is None else capacity
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
        # the first kink whose demand is at or below C is the first where their running minimum is; NaN never is
        floor = suf_m[ends] - drop_s[starts] * suf_binv[ends]  # each kink's demand, then minus the running minimum
        floor[np.isnan(floor)] = np.inf
        np.negative(np.minimum.accumulate(floor, out=floor), out=floor)  # in place: ascending, no more temporaries
        j = starts[np.searchsorted(floor, -capacity[short]) % len(starts)]  # none at or below: 0, as np.argmax
        lam[short] = (suf_m[j] - capacity[short]) / suf_binv[j]
    x = np.divide(lam[:, None], b)  # max(m - lam/b, 0), each step in place
    return _Clearing(lam, np.maximum(np.subtract(m, x, out=x), 0.0, out=x), SolveMethod.CLOSED_FORM_QUADRATIC)


def solve_mtes_quadratic(instance: MarketInstance) -> EquilibriumResult:
    """Exact water-filling for all-quadratic instances.

    When total satiation does not exceed capacity every agent stays active and
    the price (possibly negative) comes from one linear equation. Otherwise a
    selection step keeps the drop-out prices m_i*b_i that can be active, only
    those are sorted, and the price is solved on the unique segment where
    aggregate demand crosses capacity. Equal drop-out prices are grouped
    exactly, never perturbed.
    """
    return _solve(instance, _clear_quadratic)


def _clear_pwl(instance: MarketInstance) -> _Clearing:
    _require(instance, PiecewiseLinear)
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
    return _solve(instance, _clear_pwl)


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
                 _LAMBDA_TOL, 1e-9 * max(1.0, capacity)).item()
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


def solve_mtes_st(instance: MarketInstance) -> EquilibriumResult:
    """``solve`` for a trading-model instance; any other raises ValidationError."""
    if instance.model is not ModelKind.MTES_ST:
        raise ValidationError(["solve_mtes_st requires an MTES-ST instance"])
    return solve(instance)


def solve(instance: MarketInstance) -> EquilibriumResult:
    """Clear ``instance``, of either model, by the route its preferences pick:
    water-filling if every agent is Quadratic, breakpoint search if every
    agent is PiecewiseLinear, bisection otherwise."""
    return _solve(instance, {Quadratic: _clear_quadratic, PiecewiseLinear: _clear_pwl}.get(
        instance.preferences.kind, _clear_generic))


def local_capacities(n: int, shares: np.ndarray) -> tuple[np.ndarray, int]:
    """Capacities of n agents each holding one of ``shares``, summed as ``MarketInstance.capacity`` sums them,
    and how many from the first on lie in (0, max_capacity(n)], where a market may clear."""
    capacity = np.array(shares, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing capacity lies outside the range
        for _ in range(n - 1):
            capacity += shares
    return capacity, int(np.argmin(np.append((capacity > 0) & (capacity <= max_capacity(n)), False)))


def solve_many(preferences, shares, capacity: np.ndarray) -> list[EquilibriumResult]:
    """``[solve(MarketInstance(np.full(n, s), preferences)) for s in shares]``,
    bit for bit: average consensus's local markets, whose ``capacity`` is ``local_capacities(n, shares)``, every
    one in its range. Quadratic markets clear as one stack: one sort, one self-check. Other families are solved one
    at a time."""
    preferences = PreferenceColumns.of(preferences)
    if preferences.kind is not Quadratic or not len(shares):
        return [solve(MarketInstance(np.full(len(preferences), s), preferences)) for s in shares]
    first = MarketInstance(np.full(len(preferences), shares[0]), preferences)
    return _result(first, _clear_quadratic(first, capacity), capacity=capacity)


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
    instance: MarketInstance, lam: np.ndarray, x: np.ndarray, e: np.ndarray | None,
    demand: AggregateDemand | None = None, capacity: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, list[float], float, list[float]]:
    """(stationarity, feasibility, balance, price, max) violations of the
    markets stacked as rows of ``x`` at the prices in the column ``lam``, which
    differ from ``instance`` only in ``capacity``; a trading market is one row.

    Vectorized for PWL and quadratic agents, which mixed instances share; a
    mixed instance's Custom agents are inverted cold, in lockstep. ``demand``
    is the solve's split, if it made one; its remembered prices are not used.
    """
    is_st = instance.model is ModelKind.MTES_ST
    zero_price = is_st and lam.item() <= 0  # the routes floor a trading price at exactly 0.0
    if instance.preferences.kind is PiecewiseLinear:
        beta, phi = instance.preferences.columns
        eq_tol = 1e-9 * beta  # relative: a rate of any scale is told apart from the zero price
        # zero price: satiate; above the rate: drop out; at it: anywhere in [0, phi]; below it: |x - phi|. The first case
        # that holds wins, as in np.select: the case at the rate is computed for all, the others copied over it in reverse
        zero, above, at = lam <= eq_tol, lam > beta + eq_tol, lam >= beta - eq_tol
        stationarity = np.negative(x)
        np.maximum(np.maximum(stationarity, slack := np.subtract(x, phi), out=stationarity), 0.0, out=stationarity)
        np.copyto(stationarity, np.abs(slack, out=slack), where=~at)
        np.copyto(stationarity, np.abs(x, out=slack), where=above)
        np.copyto(stationarity, np.maximum(np.subtract(phi, x, out=slack), 0.0, out=slack), where=zero)
        del slack  # freed before the feasibility array is made
    else:  # quadratic agents as arrays; the Custom agents inverted cold together, independently of the solve
        demand = demand or AggregateDemand(instance.preferences, instance.capacity)
        b, m = demand.b, demand.m
        quadratic = np.divide(lam, b)  # |x - max(m - lam/b, 0)|, |x - m| at the zero price, each step in place
        np.maximum(np.subtract(m, quadratic, out=quadratic), 0.0, out=quadratic)
        np.abs(np.subtract(x[:, demand.quadratic], m if zero_price else quadratic, out=quadratic), out=quadratic)
        stationarity = quadratic
        if demand.derivs:
            xc = x[0, demand.custom].tolist()
            if zero_price:  # satiation may sit past the inversion cap: measure in gradient units
                ds = [deriv(xi) for deriv, xi in zip(demand.derivs, xc)]
                custom = [abs(d) if xi > 0 else max(0.0, -d) for d, xi in zip(ds, xc)]
            else:
                custom = np.abs(x[0, demand.custom] - _inverse_marginals(demand.derivs, lam.item(), max(1.0, instance.capacity)))
            stationarity = np.empty(x.shape)
            stationarity[:, demand.quadratic], stationarity[:, demand.custom] = quadratic, custom

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
        balance_violation = np.abs(np.sum(x, axis=1) - (instance.capacity if capacity is None else capacity)).tolist()

    peaks = [np.max(v, axis=1) if x.shape[1] else np.zeros(len(x)) for v in (stationarity, feasibility)]
    max_violation = np.max([*peaks, balance_violation, np.full(len(x), price_violation)], axis=0).tolist()  # NaN wins
    return stationarity, feasibility, balance_violation, price_violation, max_violation


def verify_kkt(instance: MarketInstance, result: EquilibriumResult) -> KktReport:
    """Check a result against the equilibrium conditions of its instance.

    Report-style: never raises on a bad result, just measures violations.
    """
    x = np.asarray(result.x_star, dtype=float)[None]
    e = None if result.e_star is None else np.asarray(result.e_star, dtype=float)[None]
    stationarity, feasibility, balance, price, peak = _kkt(instance, np.array([[result.lambda_star]]), x, e)
    return KktReport(bool(peak[0] <= _KKT_TOL * np.maximum(1.0, instance.capacity)), tuple(stationarity[0].tolist()),
                     tuple(feasibility[0].tolist()), balance[0], price, peak[0])
