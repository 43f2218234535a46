"""The lockstep array root-finder against the scalar one it replaced.

``oracles.bracketed_root``, ``oracles.inverse_marginal`` and
``oracles.ScalarCustomDemand`` solve one bracket at a time; the array
versions must give the same bits:

* ``AggregateDemand`` over a sequence of prices with one price repeated, for
  log, disguised-quadratic and positive-infimum derivatives at scales
  1e-3..1e3, negative and zero prices included, next to 0-9 quadratic agents
  that count in the market's n, which sizes the cold start. Warm brackets and
  their derivative values come from the remembered arrays, so a remembered
  array written in place, or a remembered derivative that differs from a
  fresh call, shows as a changed bit at a later price or at the repeat;
* the cold inversion the self-check takes, at every one of those prices, with
  the cold start's edges as examples: n a power of two and not, a root at a
  doubling of the start, at and above the cap, and C < 1;
* the price brackets of up to four mixed markets found in lockstep, each
  against its own scalar run with the generic route's tolerances;
* the secant rule's edges, in both: a secant estimate at a bracket end is
  taken w/2 inside it, so a root at an end closes in at most two
  evaluations, and a residual pair whose difference is not finite (an
  infinite residual at the low end, or an overflow) is bisected, without a
  RuntimeWarning.

The scalar inversion reports unbounded demand as the last doubled cap,
max(1, scale) * 2**80; the array one as ``inf``. Runs are derandomized so
the suite is reproducible.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teshape import AggregateDemand, Custom, Quadratic
from teshape import solver

from oracles import ScalarCustomDemand, bracketed_root, inverse_marginal

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)

scale = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)  # log-uniform over 1e-3..1e3
price = st.one_of(scale, scale.map(lambda v: -v), st.just(0.0))

DERIVATIVES = {
    "log": lambda u, v: lambda x: u / (1.0 + x),
    "quadratic": lambda u, v: lambda x: u * (v - x),  # b * (m - x): a quadratic in disguise
    "floor": lambda u, v: lambda x: v + u / (1.0 + x),  # infimum v > 0: unbounded demand at prices <= v
    "root": lambda u, v: lambda x: u / math.sqrt(x) if x else math.inf,  # infinite at 0
}
agents = st.lists(st.tuples(st.sampled_from(sorted(DERIVATIVES)), scale, scale), min_size=1, max_size=6)


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def scalar_bits(values, capacity: float) -> list[str]:
    unbounded = max(1.0, capacity) * 2.0**80
    return bits(math.inf if v == unbounded else v for v in values)


@SETTINGS
@given(agents, st.lists(price, min_size=1, max_size=8), st.integers(0, 7), scale, st.integers(0, 9))
@example([("log", 2.0, 1.0)], [0.5], 0, 1.0, 0)  # n=1
@example([("floor", 3.0, 1.0), ("quadratic", 2.0, 4.0)], [0.5, 2.0, 0.0, 1.5], 1, 50.0, 0)
@example([("log", 1.0, 1.0)], [1.5 * 2.0**-79], 0, 1.0, 0)  # demand between the last two cap points
@example([("floor", 2.0, 0.5)], [1.5, 2.0, 1.8], 0, 1.0, 0)  # a warm ceiling exactly at the cap
@example([("log", 3.0, 1.0)] * 4, [0.5, 1.0, 0.25], 0, 8.0, 0)  # n = 4, a power of two: start 2
@example([("log", 3.0, 1.0)] * 3, [0.5, 1.0, 0.25], 0, 8.0, 2)  # n = 5, not one: start 2
# roots at 0 price: at the start 2, at 2 * 2 = 4, at the cap 8 and above it, n = 4
@example([("quadratic", 1.0, 2.0), ("quadratic", 1.0, 4.0), ("quadratic", 3.0, 8.0), ("quadratic", 0.5, 24.0)],
         [0.0], 0, 8.0, 0)
@example([("log", 1.5, 1.0), ("log", 3.0, 1.0)], [1.0, 0.5], 0, 0.25, 1)  # C < 1, n = 3: roots at the start 0.5, at 2
@example([("log", 5.0, 1.0)], [1.0, 0.9], 0, 4.0, 3)  # n = 4: a root exactly at the cap 4, then above it
@example([("quadratic", 1.0, 4.0)], [1.0], 0, 8.0, 0)  # the first secant lands on the root 3, then at that end
@example([("root", 1.0, 1.0)], [1.0], 0, 4.0, 0)  # deriv(0) = inf: the first step bisects
def test_lockstep_inversion_matches_scalar_bits(agent_list, prices, repeat_at, capacity, others):
    derivs = [DERIVATIVES[kind](u, v) for kind, u, v in agent_list]
    n, custom = len(derivs) + others, slice(len(derivs))
    prices = prices + [prices[repeat_at % len(prices)]]  # the repeat reads the remembered array
    demand = AggregateDemand([Custom(lambda x: 0.0, d) for d in derivs] + [Quadratic(1.0, 1.0)] * others, capacity)
    reference = ScalarCustomDemand(derivs, capacity, n)
    for lam in prices:
        assert bits(demand.allocation(lam)[custom]) == scalar_bits(reference.at(lam), capacity), lam
        cold = solver._inverse_marginals(derivs, lam, max(1.0, capacity), n)[0]
        assert bits(cold) == scalar_bits([inverse_marginal(d, lam, capacity, n) for d in derivs], capacity), lam


def market(quad, logs, capacity: float):
    """(gap, lo, hi): the demand balance of a market of quadratic agents
    ``quad`` (b, m) and log agents ``logs`` (w), and a bracket on which it
    changes sign, as the generic route sets it up."""
    def gap(lam: float) -> float:
        if logs and lam <= 0:
            return math.inf
        return sum(max(m - lam / b, 0.0) for b, m in quad) + sum(max(w / lam - 1.0, 0.0) for w in logs) - capacity

    hi = max([b * m for b, m in quad] + logs)
    lo = 0.0 if gap(0.0) >= 0 else -capacity * max(b for b, _ in quad) - 1.0
    return gap, lo, hi


@st.composite
def markets(draw):
    quad = draw(st.lists(st.tuples(scale, scale), max_size=4))
    logs = draw(st.lists(scale, min_size=0 if quad else 1, max_size=4))
    return market(quad, logs, draw(scale) * (len(quad) + len(logs)))


@SETTINGS
@given(st.lists(markets(), min_size=1, max_size=4), scale)
@example([(lambda lam: 2.0 - lam, 0.0, 2.0)], 1.0)  # the root is the high end
@example([market([(1.0, 3.0)], [5.0], 2.0)], 1.0)  # gap(0) = inf: the first step bisects
def test_lockstep_brackets_match_scalar_roots(brackets, ftol):
    gaps = [gap for gap, _, _ in brackets]
    lo, hi = [lo for _, lo, _ in brackets], [hi for _, _, hi in brackets]
    f_lo, f_hi = [g(v) for g, v in zip(gaps, lo)], [g(v) for g, v in zip(gaps, hi)]
    ftol *= 1e-9

    def f(x, i):
        return np.array([gaps[k](v) for k, v in zip(i.tolist(), x.tolist())])

    got = solver._roots(f, lo, hi, f_lo, f_hi, solver._LAMBDA_TOL, ftol)[0]
    want = [bracketed_root(*args, solver._LAMBDA_TOL, ftol) for args in zip(gaps, lo, hi, f_lo, f_hi)]
    assert bits(got) == bits(want)


def lockstep_and_scalar_points(g, lo: float, hi: float, target: float, tolerances: tuple) -> tuple:
    """The root of g - ``target`` on [lo, hi] by ``_roots`` and by
    ``bracketed_root``, and the points each evaluated g at; a RuntimeWarning
    fails the call."""
    lockstep, scalar = [], []

    def f(x, i):
        lockstep.extend(x.tolist())
        return np.array([g(v) for v in x.tolist()])

    def h(x: float) -> float:
        scalar.append(x)
        return g(x) - target

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solver._roots(f, [lo], [hi], [g(lo)], [g(hi)], *tolerances, target)[0][0]
        want = bracketed_root(h, lo, hi, g(lo) - target, g(hi) - target, *tolerances)
    assert bits([got]) == bits([want]) and lockstep == scalar
    return got, lockstep


PRICE_TOLERANCES = (solver._LAMBDA_TOL, 1e-9, 0.0)
INVERSION_TOLERANCES = (1e-14, math.inf, 1e-14)  # _inverse_marginals' width 1e-14 relative


@pytest.mark.parametrize("g, lo, hi, target, tolerances, root", [
    (lambda x: 2.0 - x, 0.0, 2.0, 0.0, PRICE_TOLERANCES, 2.0),
    # a quadratic in disguise at price 1, cold bracket [0, 8] (C = 8, n = 1): the
    # first secant step lands exactly on the root, which becomes the high end
    (DERIVATIVES["quadratic"](1.0, 4.0), 0.0, 8.0, 1.0, INVERSION_TOLERANCES, 3.0),
])
def test_a_root_at_a_bracket_end_closes_within_two_evaluations(g, lo, hi, target, tolerances, root):
    """The secant through a zero residual at an end is that end: the point
    is taken w/2 inside it, which closes the bracket, and the end is the
    root, bit for bit."""
    got, points = lockstep_and_scalar_points(g, lo, hi, target, tolerances)
    assert got.hex() == root.hex() and len(points) <= 2


@pytest.mark.parametrize("g, lo, hi, target, tolerances", [
    (market([(1.0, 3.0)], [5.0], 2.0)[0], 0.0, 5.0, 0.0, PRICE_TOLERANCES),  # the price 0 next to a log agent
    (DERIVATIVES["root"](1.0, 1.0), 0.0, 4.0, 1.0, INVERSION_TOLERANCES),  # a derivative infinite at 0
    (lambda x: 1.7e308 * (1.0 - x / 0.3), 0.0, 0.5, 0.0, INVERSION_TOLERANCES),  # finite ends; their difference overflows
])
def test_residuals_whose_difference_is_not_finite_are_bisected_first(g, lo, hi, target, tolerances):
    """The secant through f(lo) = inf, or through two residuals whose
    difference overflows, is exactly hi; the pair is masked, so the first
    point is the midpoint, not hi - w/2, and no RuntimeWarning is raised."""
    assert not math.isfinite((g(hi) - target) - (g(lo) - target))
    _, points = lockstep_and_scalar_points(g, lo, hi, target, tolerances)
    assert points[0] == 0.5 * (lo + hi)
