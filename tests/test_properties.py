"""Property suites for the array-backed market core.

* vectorized ``validate_instance`` against a per-agent reference loop kept
  here, on instances with NaN, infinite, zero and negative entries, and with
  Custom agents (concave, convex, failing) and unknown objects among them;
* ``run_aggregator`` naming the lowest bad agent;
* the closed-form solvers against the independent oracles in ``oracles.py``
  at parameter scales 1e-6..1e6, with n=1, tied breakpoints and the
  ``sum(m) == C`` knife edge;
* the JSON round trip and equality of array-backed instances, copies of a
  mixed layout, and that the layout is no sequence of preference objects and
  the array paths build none.

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
    CommGraph,
    Custom,
    ExperimentSpec,
    MarketInstance,
    ModelKind,
    PiecewiseLinear,
    PreferenceColumns,
    Quadratic,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    run_aggregator,
    run_distributed,
    run_monte_carlo,
    save_instance,
    save_result,
    solve,
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


def log_value(x: float) -> float:
    return math.log1p(x)


def log_deriv(x: float) -> float:
    return 1.0 / (1.0 + x)


def square(x: float) -> float:
    return 0.5 * x * x


def identity(x: float) -> float:
    return x


def no_deriv(x: float) -> float:
    raise ArithmeticError(f"no derivative at {x!r}")


# agents outside the column families: concave, convex, failing, unknown
OTHER_AGENTS = [Custom(log_value, log_deriv), Custom(square, identity), Custom(log_value, no_deriv), object()]


def reference_custom_reason(pref: Custom, capacity: float) -> str | None:
    """The concavity spot check: deriv_fn on 17 evenly spaced points of
    [0, 2 * max(1, C)] (C taken as 1 unless positive) must strictly fall."""
    hi = 2.0 * max(1.0, capacity if capacity > 0 else 1.0)
    try:
        ds = [float(pref.deriv_fn(hi * k / 16)) for k in range(17)]
    except Exception as exc:  # noqa: BLE001 - the message is what is compared
        return f"deriv_fn evaluation failed ({exc})"
    if any(not ds[k + 1] < ds[k] for k in range(16)):
        return "deriv_fn not strictly decreasing (utility must be strictly concave)"
    return None


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
        if type(pref) in KIND_NAMES:
            for name in KIND_NAMES[type(pref)]:
                value = getattr(pref, name)
                if not (math.isfinite(value) and value > 0):
                    out.append(f"agent {i}: {name} must be positive")
        elif isinstance(pref, Custom):
            if reason := reference_custom_reason(pref, capacity):
                out.append(f"agent {i}: {reason}")
        else:
            out.append(f"agent {i}: unknown preference type {type(pref).__name__}")
    return out


@st.composite
def edgy_markets(draw):
    """(production, preferences) with bad entries; families may mix, Custom
    agents and unknown objects (kind None) may appear, and the preference
    count may differ from the agent count."""
    production = draw(st.lists(edgy, max_size=8))
    n_prefs = draw(st.sampled_from([len(production), len(production), max(0, len(production) - 1), len(production) + 1]))
    kinds = st.sampled_from([Quadratic, PiecewiseLinear, None])
    if draw(st.booleans()):
        kinds = st.just(draw(kinds))  # one kind throughout
    preferences = []
    for _ in range(n_prefs):
        kind = draw(kinds)
        preferences.append(draw(st.sampled_from(OTHER_AGENTS)) if kind is None else kind(draw(edgy), draw(edgy)))
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


def test_validation_reports_every_kind_in_agent_order():
    preferences = [Quadratic(-1.0, 2.0), *OTHER_AGENTS, PiecewiseLinear(1.0, math.nan)]
    report = validate_instance(MarketInstance(production=[1.0, math.nan, 2.0, 1.0, 0.0, 3.0], preferences=preferences))
    assert report.violations == (
        "agent 1: a must be finite",
        "agent 0: b must be positive",
        "agent 2: deriv_fn not strictly decreasing (utility must be strictly concave)",
        "agent 3: deriv_fn evaluation failed (no derivative at 0.0)",
        "agent 4: unknown preference type object",
        "agent 5: phi must be positive",
    )
    assert report.agents == (1, 0, 2, 3, 4, 5)
    assert list(report.violations) == reference_violations([1.0, math.nan, 2.0, 1.0, 0.0, 3.0], preferences)


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
    homogeneous = len(set(instance.preferences.codes.tolist())) == 1
    assert isinstance(instance.preferences, PreferenceColumns)
    assert (instance.preferences.kind is None) is not homogeneous
    again = instance_from_dict(json.loads(json.dumps(instance_to_dict(instance))))
    assert again == instance
    assert again.preferences.kind is instance.preferences.kind
    # the per-agent objects describe the same instance as the columns
    rows = zip(instance.preferences.codes.tolist(), *(column.tolist() for column in instance.preferences.columns))
    objects = [(Quadratic, PiecewiseLinear)[code](p, q) for code, p, q in rows]
    as_objects = MarketInstance(tuple(instance.production.tolist()), objects, instance.model)
    assert as_objects == instance
    assert instance.preferences == PreferenceColumns.of(objects)
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
    assert [column.tolist() for column in instance.preferences.columns] == [[1.0, 2.0, 4.0], [2.0, 2.0, 2.0]]

    # a mixed layout: Custom agents kept as objects beside the columns
    concave, convex = OTHER_AGENTS[:2]
    objects = (concave, Quadratic(1.0, 2.0), PiecewiseLinear(3.0, 1.5), convex, Quadratic(0.5, 4.0))
    mixed = MarketInstance(production=[1.0, 2.0, 3.0, 4.0, 5.0], preferences=list(objects))
    assert mixed.preferences.kind is None and mixed.preferences.codes.tolist() == [2, 0, 1, 2, 0]
    for copied in (mixed, copy.deepcopy(mixed), pickle.loads(pickle.dumps(mixed))):
        assert copied == mixed and copied.preferences.others == (concave, convex)
        for arr in (copied.production, *copied.preferences.columns, copied.preferences.codes):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        assert copied.preferences == PreferenceColumns.of(objects)
    assert mixed.preferences.others[0] is concave and mixed.preferences.others[1] is convex


def test_codes_set_the_kind_and_must_agree():
    assert PreferenceColumns(None, [1.0, 2.0], [3.0, 4.0], [1, 1]).kind is PiecewiseLinear
    assert PreferenceColumns(Quadratic, [1.0], [2.0], [0]) == PreferenceColumns(None, [1.0], [2.0], [0])
    mixed = PreferenceColumns(None, [1.0, math.nan], [2.0, math.nan], [0, 2], [OTHER_AGENTS[0]])
    assert mixed.kind is None and mixed.mask(Quadratic).tolist() == [True, False]
    assert mixed == PreferenceColumns.of([Quadratic(1.0, 2.0), OTHER_AGENTS[0]])
    assert mixed != PreferenceColumns.of([Quadratic(1.0, 2.0), OTHER_AGENTS[1]])
    assert mixed != PreferenceColumns.of([Quadratic(1.0, 3.0), OTHER_AGENTS[0]])
    assert MarketInstance([1.0, 1.0], mixed).preferences.kind is None
    # an other agent is validated as its object even when its column rows hold numbers
    numbered = PreferenceColumns(None, [1.0, 1.0], [2.0, 2.0], [0, 2], [OTHER_AGENTS[1]])
    assert validate_instance(MarketInstance([1.0, 1.0], numbered)).agents == (1,)
    assert MarketInstance([1.0], [OTHER_AGENTS[0]]).preferences.kind is None  # Custom only
    for bad_kind in (None, Custom):
        with pytest.raises(TypeError):
            PreferenceColumns(bad_kind, [1.0], [2.0])
    for kind, codes, others in [
        (None, [0, 0], ()),  # one code short
        (None, [2], ()),  # another agent without its object
        (None, [0], [OTHER_AGENTS[0]]),  # an object without its code
        (None, [3], ()),  # no such kind
        (Quadratic, [1], ()),  # the kind the codes do not share
    ]:
        with pytest.raises(ValueError):
            PreferenceColumns(kind, [1.0], [2.0], codes, others)


def test_preference_columns_are_no_sequence():
    objects = (Quadratic(1.0, 2.0), Quadratic(3.0, 4.0))
    preferences = PreferenceColumns.of(objects)
    for read in (lambda: preferences[0], lambda: iter(preferences), lambda: reversed(preferences)):
        with pytest.raises(TypeError):
            read()
    assert preferences != objects and len(preferences) == 2


def test_array_paths_build_no_preference_objects(tmp_path, monkeypatch):
    # solving, consensus and Monte Carlo read the columns; none rebuilds per-agent objects
    rng = np.random.default_rng(5)
    paths = []
    for kind, model in zip((Quadratic, PiecewiseLinear), ModelKind):
        columns = rng.uniform(1.0, 4.0, (2, 6))
        paths.append(str(tmp_path / f"{kind.__name__}.json"))
        save_instance(MarketInstance(rng.uniform(1.0, 4.0, 6), PreferenceColumns(kind, *columns), model), paths[-1])
    built = []
    for kind in (Quadratic, PiecewiseLinear):
        counted = lambda self, *args, _init=kind.__init__: built.append(args) or _init(self, *args)  # noqa: E731
        monkeypatch.setattr(kind, "__init__", counted)
    for path in paths:
        instance = load_instance(path)
        save_result(instance, solve(instance), path + ".out")
        for mode in ("flood", "average"):
            run_distributed(instance, CommGraph.ring(instance.n), rounds=20, mode=mode)
    for family in ("quadratic", "pwl"):
        run_monte_carlo(ExperimentSpec(family=family, n=50, trials=3, lambda_dagger=20.0, seed=1))
    Quadratic(1.0, 2.0)  # the counter itself counts
    assert built == [(1.0, 2.0)]
