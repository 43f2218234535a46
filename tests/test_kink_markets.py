"""Markets of quadratic and PWL agents, mixed or of one family, through the
kink search, against oracles that share no code with it.

* Small markets (n = 2..8), drawn from seeded NumPy generators on small
  dyadic grids, so quadratic drop-out prices m*b tie PWL rates and each other
  exactly: against ``oracles.exact_kink_clearing``, the exact price interval
  and quadratic allocation in rational arithmetic. Capacities lie at both ends
  of every kink's demand interval and 1 and 2 ulps either side, at a random
  share of the total level, at the total (the spare case) and past it.
* Hand-made markets: a quadratic drop-out price tied with two PWL rates; the
  price bits at both float ends of one jump, which pin the inclusive test at
  the top and the search's "left" side at the bottom; and PWL rates of 1e-300
  and 1e300 next to quadratic agents (no RuntimeWarning: the suite raises
  them as errors).
* Large markets (n up to 2,000, so the selection step keeps only the agents
  it must sort): against ``oracles.full_sort_kink_price``, a stable sort of
  every key walked down, at random shares and at the kink demands of random
  groups and their 1-ulp neighbours.

Each market clears in both models. The price must lie in the exact interval
within 1e-12 times the market's price scale (its largest key; with an
extreme rate, the larger of the price and the quadratic keys); each quadratic
agent's allocation must be the exact one within that tolerance over its b;
``verify_kkt`` must pass; and ``solve_many`` over a stack of such markets
must equal ``solve`` one market at a time, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from teshape import MarketInstance, ModelKind, PiecewiseLinear, PreferenceColumns, Quadratic, SolveMethod, solve, verify_kkt
from teshape.solver import local_capacities, solve_many

from oracles import exact_kink_clearing, full_sort_kink_price, local_solves

MODELS = [ModelKind.MTES, ModelKind.MTES_ST]


def _market(pwl: np.ndarray, first: np.ndarray, second: np.ndarray) -> PreferenceColumns:
    codes = pwl.astype(np.int8)  # 0 quadratic, 1 PWL
    kind = Quadratic if not pwl.any() else PiecewiseLinear if pwl.all() else None
    return PreferenceColumns(kind, first, second, codes)


def _small_market(seed: int, family: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pwl mask, first, second) of 2..8 agents: b in {1/2, 1, 2, 4}, m and phi multiples of 1/2 up to 4, and each
    rate either a multiple of 1/2 up to 8 or a quadratic agent's drop-out price."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    pwl = {"quadratic": np.zeros(n, bool), "pwl": np.ones(n, bool)}.get(family, rng.random(n) < 0.5)
    if family == "mixed":
        pwl[rng.permutation(n)[:2]] = [True, False]  # one of each at least
    b, m = 2.0 ** rng.integers(-1, 3, n), 0.5 * rng.integers(1, 9, n)
    keys = (m * b)[~pwl] if (~pwl).any() else np.array([1.0])
    beta = np.where(rng.random(n) < 0.5, rng.choice(keys, n), 0.5 * rng.integers(1, 17, n))
    return pwl, np.where(pwl, beta, b), np.where(pwl, 0.5 * rng.integers(1, 9, n), m)


def _exact(pwl, first, second, capacity: float):
    return exact_kink_clearing(first[~pwl], second[~pwl], first[pwl], second[pwl], capacity)


def _edges(pwl: np.ndarray, first: np.ndarray, second: np.ndarray, rng: np.random.Generator) -> list[float]:
    """Capacities at both ends of every kink's demand interval and 1 and 2 ulps either side, a random share of the
    total level, the total and 1.5 times it: the positive ones."""
    keys = set(np.where(pwl, first, first * second).tolist())
    ends = []
    for key in keys:
        quadratic = float(np.sum(np.maximum(second[~pwl] - key / first[~pwl], 0.0)))
        above = quadratic + float(np.sum(second[pwl & (first > key)]))
        ends += [above, above + float(np.sum(second[pwl & (first == key)]))]
    total = float(np.sum(second))
    around = [float(v) for end in ends for v in (end, *np.nextafter(end, [-np.inf, np.inf]),
                                                 *np.nextafter(np.nextafter(end, [-np.inf, np.inf]), [-np.inf, np.inf]))]
    return sorted({c for c in around + [rng.uniform(0.05, 1.0) * total, total, 1.5 * total] if c > 0})


def _check(pwl, first, second, capacity: float, model: ModelKind, lo, hi, x_quadratic, scale: float):
    """Clear the market with all of ``capacity`` at agent 0 and check it against the price interval [lo, hi] and
    the quadratic agents' allocation (exact, or None), within 1e-12 * scale."""
    production = np.zeros(len(pwl))
    production[0] = capacity
    instance = MarketInstance(production, _market(pwl, first, second), model)
    result = solve(instance)
    lam = result.lambda_star
    if model is ModelKind.MTES_ST and hi < 0:  # the trading price floors at 0, with satiation loads
        lo, hi, x_quadratic = 0, 0, None if x_quadratic is None else second[~pwl]
    tol = 1e-12 * scale
    assert float(lo) - tol <= lam <= float(hi) + tol, (lam, float(lo), float(hi))
    if x_quadratic is not None:
        x = np.asarray(result.x_star)[~pwl]
        assert np.all(np.abs(x - np.asarray(x_quadratic, dtype=float)) <= tol / first[~pwl] + 4 * np.spacing(second[~pwl]))
    assert verify_kkt(instance, result).ok
    assert result.method is (SolveMethod.CLOSED_FORM_QUADRATIC if not pwl.any() else SolveMethod.BREAKPOINT_PWL)
    assert not result.degenerate or pwl.all()
    return result


@pytest.mark.parametrize("model", MODELS, ids=["mtes", "mtes_st"])
@pytest.mark.parametrize("family", ["mixed", "quadratic", "pwl"])
def test_small_markets_clear_in_the_exact_interval(family, model):
    for seed in range(40):
        pwl, first, second = _small_market(seed, family)
        scale = float(np.max(np.where(pwl, first, first * second)))
        for capacity in _edges(pwl, first, second, np.random.default_rng(seed)):
            lo, hi, x = _exact(pwl, first, second, capacity)
            _check(pwl, first, second, capacity, model, lo, hi, x, scale)


TIED = (np.array([False, True, False, True]), np.array([2.0, 6.0, 1.0, 6.0]), np.array([3.0, 2.0, 8.0, 1.0]))


@pytest.mark.parametrize("model", MODELS, ids=["mtes", "mtes_st"])
@pytest.mark.parametrize("capacity, price", [
    (1.0, 7.0),  # above every rate: agent 2 alone
    (2.0, 6.0),  # at the tied key 6, just above it: the jump's lower end
    (3.5, 6.0),  # inside the jump
    (5.0, 6.0),  # its upper end
    (5.0 + 1.5 * 2**-48, 6.0 - 2**-48),  # 6 ulps past it: on the segment below, both quadratic agents active
    (15.0, 0.0),  # the spare case: every level, and the surplus to the PWL agents
], ids=["above", "jump-low", "jump-inside", "jump-high", "below", "spare"])
def test_quadratic_drop_out_price_tied_with_pwl_rates(capacity, price, model):
    """Agent 0's drop-out price m*b = 6 ties the rates of agents 1 and 3; agent 2's is 8."""
    lo, hi, x = _exact(*TIED, capacity)
    assert float(lo) == float(hi) == price
    result = _check(*TIED, capacity, model, lo, hi, x, 8.0)
    assert result.lambda_star == price


@pytest.mark.parametrize("capacity, price", [
    (1.6666666666666667, 1.0),  # the float demand below the rate (1 - 1/3) + 1: the inclusive test prices at the rate
    (0.6666666666666667, 0.9999999999999998),  # the float demand above it: "left" solves the segment above the rate
], ids=["jump-top", "jump-bottom"])
def test_knife_edges_of_a_jump_follow_the_conventions(capacity, price):
    """A PWL agent (rate 1, phi 1) below a quadratic one (b 3, m 1): at each float end of the jump at 1, the bits
    the conventions give. Either price lies within ulps of the exact one, 1."""
    pwl, first, second = np.array([True, False]), np.array([1.0, 3.0]), np.array([1.0, 1.0])
    lo, hi, x = _exact(pwl, first, second, capacity)
    result = _check(pwl, first, second, capacity, ModelKind.MTES, lo, hi, x, 3.0)
    assert result.lambda_star.hex() == price.hex()


@pytest.mark.parametrize("model", MODELS, ids=["mtes", "mtes_st"])
@pytest.mark.parametrize("rate", [1e-300, 1e300])
def test_extreme_pwl_rates_next_to_quadratic_agents(rate, model):
    pwl = np.array([False, True, False, True])
    first, second = np.array([1e-3, rate, 2.0, 4.0]), np.array([3.0, 2.0, 1.0, 0.5])
    for capacity in (0.5, 2.25, 4.0, 6.25, 8.0):
        lo, hi, x = _exact(pwl, first, second, capacity)
        _check(pwl, first, second, capacity, model, lo, hi, x, max(float(hi), 2.0))  # the price, or the quadratic keys


def _large_market(seed: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pwl mask, first, second) of n agents, half PWL: b, m, phi uniform, a third of the rates a drop-out price."""
    rng = np.random.default_rng(seed)
    pwl = rng.random(n) < 0.5
    b, m = rng.uniform(0.2, 4.0, n), rng.uniform(0.1, 3.0, n)
    keys = m * b
    beta = np.where(rng.random(n) < 0.3, keys[rng.integers(0, n, n)], rng.uniform(0.05, 12.0, n))
    return pwl, np.where(pwl, beta, b), np.where(pwl, rng.uniform(0.1, 3.0, n), m)


@pytest.mark.parametrize("model", MODELS, ids=["mtes", "mtes_st"])
@pytest.mark.parametrize("n", [50, 500, 2000])
def test_large_markets_match_the_full_sort(n, model):
    for seed in range(4):
        pwl, first, second = _large_market(seed, n)
        keys = np.where(pwl, first, first * second)
        rng = np.random.default_rng(seed)
        total = float(np.sum(second))
        capacities = [rng.uniform(0.01, 1.2) * total for _ in range(6)]
        for key in rng.choice(keys, 4):  # both ends of random kinks' demand intervals, and their neighbours
            above = float(np.sum(np.maximum(second[~pwl] - key / first[~pwl], 0.0))) + float(np.sum(second[pwl & (first > key)]))
            for end in (above, above + float(np.sum(second[pwl & (first == key)]))):
                capacities += np.nextafter(end, [-np.inf, end, np.inf]).tolist()
        for capacity in capacities:
            lam = full_sort_kink_price(pwl, first, second, capacity)
            _check(pwl, first, second, capacity, model, lam, lam, None, float(np.max(keys)))


@pytest.mark.parametrize("seed", range(6))
def test_solve_many_equals_the_loop_bit_for_bit(seed):
    pwl, first, second = _large_market(seed, [7, 60, 1500][seed % 3])
    preferences = _market(pwl, first, second)
    n, rng = len(pwl), np.random.default_rng(seed)
    shares = np.concatenate([rng.uniform(0.02, 1.3, 6) * float(np.sum(second)) / n, [float(np.sum(second)) / n]])
    many = solve_many(preferences, shares, local_capacities(n, shares)[0])
    loop = local_solves(preferences, shares.tolist())
    assert [(r.lambda_star.hex(), np.asarray(r.x_star).tobytes(), r.degenerate, r.kkt_max_violation, r.method)
            for r in many] == [(r.lambda_star.hex(), np.asarray(r.x_star).tobytes(), r.degenerate,
                                r.kkt_max_violation, r.method) for r in loop]

