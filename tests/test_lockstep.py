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
  against its own scalar run with the generic route's tolerances.

The scalar inversion reports unbounded demand as the last doubled cap,
max(1, scale) * 2**80; the array one as ``inf``. Runs are derandomized so
the suite is reproducible.
"""

from __future__ import annotations

import math

import numpy as np
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


@st.composite
def markets(draw):
    """(gap, lo, hi): a quadratic + log market's demand balance and a bracket
    on which it changes sign, as the generic route sets it up."""
    quad = draw(st.lists(st.tuples(scale, scale), max_size=4))
    logs = draw(st.lists(scale, min_size=0 if quad else 1, max_size=4))
    capacity = draw(scale) * (len(quad) + len(logs))

    def gap(lam: float) -> float:
        if logs and lam <= 0:
            return math.inf
        return sum(max(m - lam / b, 0.0) for b, m in quad) + sum(max(w / lam - 1.0, 0.0) for w in logs) - capacity

    hi = max([b * m for b, m in quad] + logs)
    lo = 0.0 if gap(0.0) >= 0 else -capacity * max(b for b, _ in quad) - 1.0
    return gap, lo, hi


@SETTINGS
@given(st.lists(markets(), min_size=1, max_size=4), scale)
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
