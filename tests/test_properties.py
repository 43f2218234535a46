"""Property suites for the array-backed market core.

* vectorized ``validate_instance`` against a per-agent reference loop kept
  here, on instances with NaN, infinite, zero and negative entries;
* ``run_aggregator`` naming the lowest bad agent;
* the closed-form solvers against the independent oracles in ``oracles.py``
  at parameter scales 1e-6..1e6, with n=1, tied breakpoints and the
  ``sum(m) == C`` knife edge;
* the JSON round trip and equality of array-backed instances.

Runs are derandomized so the suite is reproducible; parameters for the
solver suites are small-mantissa dyadic numbers, so every sum the oracles
compare is exact and the checks can be strict.
"""

from __future__ import annotations

import copy
import json
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from teshape import (
    CollectionError,
    MarketInstance,
    ModelKind,
    PiecewiseLinear,
    PreferenceColumns,
    Quadratic,
    instance_from_dict,
    instance_to_dict,
    run_aggregator,
    solve_mtes_pwl,
    solve_mtes_quadratic,
    validate_instance,
)

from oracles import (
    pwl_feasible_prices,
    pwl_response_interval,
    quadratic_allocation,
    quadratic_price_by_bisection,
)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

EDGE_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e-300, 1e-300, 1.0, 7.5]
edgy = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=True, allow_infinity=True))
KIND_NAMES = {Quadratic: ("b", "m"), PiecewiseLinear: ("beta", "phi")}


def reference_violations(production, preferences) -> list[str]:
    """The invariants checked one agent at a time, in report order."""
    out = []
    n = len(production)
    if n < 1:
        out.append("n >= 1 required (empty agent list)")
    if len(preferences) != n:
        out.append(f"length mismatch: {n} productions vs {len(preferences)} preferences")
    for i, a in enumerate(production):
        if not math.isfinite(a):
            out.append(f"agent {i}: a must be finite")
        elif a < 0:
            out.append(f"agent {i}: a must be non-negative")
    capacity = sum(a for a in production if math.isfinite(a))
    if n >= 1 and not capacity > 0:
        out.append("C > 0 required (total production must be positive)")
    for i, pref in enumerate(preferences):
        for name in KIND_NAMES[type(pref)]:
            value = getattr(pref, name)
            if not (math.isfinite(value) and value > 0):
                out.append(f"agent {i}: {name} must be positive")
    return out


@st.composite
def edgy_markets(draw):
    """(production, preferences) with bad entries; families may mix and the
    preference count may differ from the agent count."""
    production = draw(st.lists(edgy, max_size=8))
    n_prefs = draw(st.sampled_from([len(production), len(production), max(0, len(production) - 1), len(production) + 1]))
    kinds = st.sampled_from([Quadratic, PiecewiseLinear])
    if draw(st.booleans()):
        kinds = st.just(draw(kinds))  # homogeneous: the column path
    preferences = [draw(kinds)(draw(edgy), draw(edgy)) for _ in range(n_prefs)]
    return production, preferences


@SETTINGS
@given(edgy_markets())
@example(([], []))
@example(([math.nan, -0.0, -2.0], [Quadratic(math.inf, 0.0), Quadratic(-1.0, math.nan), Quadratic(1.0, 1.0)]))
def test_vectorized_validation_matches_per_agent_reference(market):
    production, preferences = market
    instance = MarketInstance(production=production, preferences=preferences)
    report = validate_instance(instance)
    expected = reference_violations(production, preferences)
    assert list(report.violations) == expected
    assert report.ok is (not expected)


@SETTINGS
@given(edgy_markets())
def test_collection_error_names_lowest_bad_agent(market):
    production, preferences = market
    bad_agents = sorted(
        {int(v.split()[1].rstrip(":")) for v in reference_violations(production, preferences) if v.startswith("agent ")}
    )
    assume(bad_agents)
    with pytest.raises(CollectionError) as exc_info:
        run_aggregator(MarketInstance(production=production, preferences=preferences))
    lowest = bad_agents[0]
    assert exc_info.value.agent == lowest
    assert exc_info.value.reasons == [
        v.split(": ", 1)[1]
        for v in reference_violations(production, preferences)
        if v.startswith(f"agent {lowest}:")
    ]


# ---------------------------------------------------------------------------
# Solvers against the oracles
# ---------------------------------------------------------------------------

# mantissa * 2**exp spans ~9.5e-7 .. ~1.0e6; sums of a few of them are exact
dyadic = st.builds(lambda mant, exp: mant * 2.0**exp, st.integers(1, 255), st.integers(-20, 12))
tied = st.sampled_from([0.5, 1.0, 2.0, 4.0])  # few values: many equal breakpoints
param = st.one_of(dyadic, tied)


@st.composite
def clearing_markets(draw):
    """(a, first, second) of a valid homogeneous market; about a third sit on
    the knife edge where total satiation equals capacity exactly."""
    n = draw(st.integers(1, 10))
    first = draw(st.lists(param, min_size=n, max_size=n))
    second = draw(st.lists(param, min_size=n, max_size=n))
    if draw(st.integers(0, 2)) == 0:
        a = draw(st.permutations(second))  # sum(a) == sum(second) exactly
    else:
        a = draw(st.lists(st.one_of(st.just(0.0), param), min_size=n, max_size=n))
        assume(sum(a) > 0)
    return a, first, second


@SETTINGS
@given(clearing_markets())
@example(([3.0], [2.0], [5.0]))  # n=1, satiation above capacity
@example(([5.0], [2.0], [5.0]))  # n=1, sum(m) == C
def test_quadratic_solver_matches_bisection_oracle(market):
    a, b, m = market
    instance = MarketInstance(production=a, preferences=PreferenceColumns(Quadratic, b, m))
    capacity = sum(a)
    result = solve_mtes_quadratic(instance)
    lam = result.lambda_star
    oracle = quadratic_price_by_bisection(b, m, capacity)
    scale = max(1.0, abs(oracle), max(bi * mi for bi, mi in zip(b, m)))
    assert abs(lam - oracle) <= 1e-9 * scale
    if sum(m) == capacity:
        assert lam == 0.0
    assert np.allclose(result.x_star, quadratic_allocation(b, m, lam), rtol=0.0, atol=1e-12 * max(1.0, capacity))
    assert abs(sum(result.x_star) - capacity) <= 1e-9 * max(1.0, capacity)


@SETTINGS
@given(clearing_markets())
@example(([3.0], [2.0], [5.0]))
@example(([5.0], [2.0], [5.0]))
def test_pwl_solver_price_is_oracle_feasible(market):
    a, beta, phi = market
    instance = MarketInstance(production=a, preferences=PreferenceColumns(PiecewiseLinear, beta, phi))
    capacity = sum(a)
    result = solve_mtes_pwl(instance)
    lam = result.lambda_star
    assert lam in pwl_feasible_prices(beta, phi, capacity)
    if sum(phi) == capacity:
        assert lam == 0.0 and result.degenerate
    tol = 1e-12 * max(1.0, capacity)
    for x, bt, ph in zip(result.x_star, beta, phi):
        lo, hi = pwl_response_interval(bt, ph, lam)
        assert lo - tol <= x <= hi + tol
    assert abs(sum(result.x_star) - capacity) <= 1e-9 * max(1.0, capacity)


# ---------------------------------------------------------------------------
# Array-backed instances: JSON round trip and equality
# ---------------------------------------------------------------------------

positive = st.floats(min_value=1e-6, max_value=1e6)


@st.composite
def valid_instances(draw):
    n = draw(st.integers(1, 12))
    production = draw(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=n, max_size=n))
    assume(sum(production) > 0)
    kinds = st.sampled_from([Quadratic, PiecewiseLinear])
    if draw(st.booleans()):
        kinds = st.just(draw(kinds))
    preferences = tuple(draw(kinds)(draw(positive), draw(positive)) for _ in range(n))
    model = draw(st.sampled_from(list(ModelKind)))
    return MarketInstance(production=production, preferences=preferences, model=model)


@SETTINGS
@given(valid_instances())
def test_json_round_trip_and_equality(instance):
    homogeneous = len({type(p) for p in instance.preferences}) == 1
    assert isinstance(instance.preferences, PreferenceColumns if homogeneous else tuple)
    again = instance_from_dict(json.loads(json.dumps(instance_to_dict(instance))))
    assert again == instance
    assert again.family is instance.family
    # the per-agent objects describe the same instance as the columns
    as_objects = MarketInstance(
        tuple(instance.production.tolist()), tuple(instance.preferences), instance.model
    )
    assert as_objects == instance
    assert instance.preferences == tuple(instance.preferences)
    other_model = ModelKind.MTES if instance.model is ModelKind.MTES_ST else ModelKind.MTES_ST
    assert replace(instance, model=other_model) != instance


def test_columns_are_read_only_copies():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([1.0, 2.0, 4.0])
    m = np.array([2.0, 2.0, 2.0])
    instance = MarketInstance(production=a, preferences=PreferenceColumns(Quadratic, b, m))
    before = instance_to_dict(instance)
    a[0] = b[0] = m[0] = -9.0
    assert instance_to_dict(instance) == before
    for copied in (instance, copy.deepcopy(instance), pickle.loads(pickle.dumps(instance))):
        assert copied == instance
        for arr in (copied.production, *copied.preferences.columns):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
    assert instance.preferences[-1] == Quadratic(4.0, 2.0)
    assert instance.preferences[1:] == (Quadratic(2.0, 2.0), Quadratic(4.0, 2.0))
