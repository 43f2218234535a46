from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest

from teshape import (
    Custom,
    MarketInstance,
    ModelKind,
    PiecewiseLinear,
    PreferenceColumns,
    Quadratic,
    ValidationError,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
    solve,
    validate_instance,
)
from teshape.model import max_capacity

from conftest import quartet_instance


def test_quartet_validates_ok(quartet):
    report = validate_instance(quartet)
    assert report.ok
    assert report.violations == ()


def test_zero_total_production_rejected():
    inst = MarketInstance(
        production=(0.0, 0.0),
        preferences=(Quadratic(1, 1), Quadratic(1, 1)),
    )
    report = validate_instance(inst)
    assert not report.ok
    assert any("C > 0" in v for v in report.violations)


def test_overflowing_total_production_rejected():
    # every a_i is finite, but their sum is not: one violation, no overflow warning
    inst = MarketInstance(production=(1e308, 1e308), preferences=(Quadratic(1, 3), PiecewiseLinear(2, 4)))
    report = validate_instance(inst)
    assert report.violations == ("C must be finite (total production overflows)",)
    assert validate_instance(MarketInstance((1e308, 1e307), (Quadratic(1, 3),) * 2)).ok


@pytest.mark.parametrize("n", [3, 1000])
@pytest.mark.parametrize("kind", [Quadratic, PiecewiseLinear])
@pytest.mark.parametrize("model", list(ModelKind))
def test_largest_accepted_capacity_clears(n, kind, model):
    # C up to max/(1 + n*eps) validates and clears without an overflow; the next float up is rejected
    largest = np.finfo(float).max / (1 + n * np.finfo(float).eps)
    preferences = PreferenceColumns(kind, np.ones(n), np.full(n, 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        instance = MarketInstance(np.r_[largest, np.zeros(n - 1)], preferences, model)
        assert validate_instance(instance).ok
        result = solve(instance)
        assert result.kkt_max_violation <= 1e-8 * instance.capacity
        beyond = MarketInstance(np.r_[np.nextafter(largest, math.inf), np.zeros(n - 1)], preferences, model)
        assert validate_instance(beyond).violations == (
            "C must lie n*eps below the float limit (the allocations would sum past it)",)


TINY_B = "sum of 1/b must lie n*eps below the float limit (the curvatures are too small)"
LOG = Custom(lambda x: math.log1p(x), lambda x: 1.0 / (1.0 + x))


@pytest.mark.parametrize("preferences, reported", [
    ([Quadratic(1e-308, 1.0)] * 2, True),  # each 1/b is finite, their sum is not
    ([Quadratic(5e-324, 3.0)] * 2, True),  # 1/b itself overflows
    ([Quadratic(1e-308, 1.0), LOG, Quadratic(1e-308, 1.0)], True),  # the Custom agent's NaN b is not summed
    ([Quadratic(2 / max_capacity(2), 1.0)] * 2, True),  # min(b) at n/max_capacity(n): the sum rounds past it
    ([Quadratic(0.6e-308, 1.0), Quadratic(1.0, 1.0)], False),  # min(b) below n/max_capacity(n), the sum within
    ([Quadratic(4 / max_capacity(2), 1.0)] * 2, False),  # min(b) at 2n/max_capacity(n): not summed
    ([PiecewiseLinear(1e-308, 1.0)] * 2, False),  # rates are not curvatures
], ids=["sum-overflows", "reciprocal-overflows", "mixed", "sum-rounds-past", "sum-within", "not-summed", "pwl"])
def test_tiny_quadratic_curvatures_rejected(preferences, reported):
    # sum 1/b past max_capacity(n) would overflow the price equation: one instance-level violation, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate_instance(MarketInstance([1.0] * len(preferences), preferences))
    assert (report.violations, report.agents) == (((TINY_B,), (None,)) if reported else ((), ()))


def test_overflowing_drop_out_prices_name_their_agents():
    # each quadratic agent whose m*b passes the float limit is named, without a warning; large factors whose
    # product is finite are not, an infinite b is reported as a bad b alone, and PWL and Custom agents are not
    # multiplied out
    preferences = [Quadratic(1e200, 1e200), LOG, Quadratic(1e200, 1.0), Quadratic(1.0, 1e200), Quadratic(1e154, 1e154),
                   Quadratic(math.inf, 1e200), PiecewiseLinear(1e200, 1e200), Quadratic(1e200, 1e200)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate_instance(MarketInstance([1.0] * len(preferences), preferences))
    reason = "m*b must be finite (the drop-out price overflows)"
    assert report.violations == (f"agent 0: {reason}", f"agent 7: {reason}", "agent 5: b must be positive")


def test_individual_zero_production_is_legal(quartet):
    # agent 4 produces nothing; only the total must be positive
    assert quartet.production[3] == 0.0
    assert validate_instance(quartet).ok


def test_nonpositive_quadratic_parameter_rejected():
    inst = MarketInstance(
        production=(1.0, 1.0),
        preferences=(Quadratic(2, 6), Quadratic(0.0, 5)),
    )
    report = validate_instance(inst)
    assert not report.ok
    assert any("b must be positive" in v for v in report.violations)


def test_length_mismatch_reported():
    inst = MarketInstance(production=(1.0, 2.0), preferences=(Quadratic(1, 1),))
    report = validate_instance(inst)
    assert any("length mismatch" in v for v in report.violations)


def test_empty_agent_list_rejected():
    report = validate_instance(MarketInstance(production=(), preferences=()))
    assert any("n >= 1" in v for v in report.violations)


def test_custom_concavity_check():
    good = Custom(lambda x: math.log(1 + x), lambda x: 1 / (1 + x))
    bad = Custom(lambda x: x * x, lambda x: 2 * x)  # convex: derivative increasing
    assert validate_instance(MarketInstance((1.0,), (good,))).ok
    report = validate_instance(MarketInstance((1.0,), (bad,)))
    assert any("strictly decreasing" in v for v in report.violations)


def test_family_detection(quartet):
    assert quartet.preferences.kind is Quadratic
    pwl = MarketInstance((1.0,), (PiecewiseLinear(1, 1),))
    assert pwl.preferences.kind is PiecewiseLinear
    mixed = MarketInstance((1.0, 1.0), (Quadratic(1, 1), PiecewiseLinear(1, 1)))
    assert mixed.preferences.kind is None


def test_capacity_derived(quartet):
    assert quartet.capacity == 20.0
    assert quartet.n == 4


# ---------------------------------------------------------------------------
# File round trips
# ---------------------------------------------------------------------------


def test_load_quartet_file(quartet_path):
    inst = load_instance(str(quartet_path))
    assert inst.n == 4
    assert inst.capacity == 20.0
    assert inst.model is ModelKind.MTES
    assert inst.preferences.kind is Quadratic
    assert [column[0] for column in inst.preferences.columns] == [2.0, 6.0]


def test_round_trip_is_exact(tmp_path):
    inst = MarketInstance(
        production=(0.1, 2.7, 3.14159),
        preferences=(Quadratic(0.3, 7.7), PiecewiseLinear(4.25, 1.125), Quadratic(9.9, 0.0625)),
        model=ModelKind.MTES_ST,
    )
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    again = load_instance(str(path))
    assert again == inst  # bit-exact field equality


def test_empty_agent_list_load_error(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"model": "mtes", "agents": []}')
    with pytest.raises(ValidationError, match="n >= 1"):
        load_instance(str(path))


def test_unknown_fields_rejected():
    with pytest.raises(ValidationError, match="unknown fields"):
        instance_from_dict({"model": "mtes", "agents": [], "extra": 1})
    with pytest.raises(ValidationError, match="unknown utility fields"):
        instance_from_dict(
            {"agents": [{"a": 1, "utility": {"kind": "quadratic", "b": 1, "m": 1, "z": 0}}]}
        )


def test_nan_and_inf_rejected(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"model": "mtes", "agents": [{"a": NaN, "utility": {"kind": "quadratic", "b": 1, "m": 1}}]}')
    with pytest.raises(ValidationError, match="non-finite"):
        load_instance(str(path))


def test_parse_error_has_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"model": "mtes",\n "agents": [}')
    with pytest.raises(ValidationError, match="line 2"):
        load_instance(str(path))


def test_mixed_instance_loads_for_generic_route(tmp_path):
    payload = {
        "model": "mtes",
        "agents": [
            {"a": 1.0, "utility": {"kind": "quadratic", "b": 1, "m": 2}},
            {"a": 1.0, "utility": {"kind": "pwl", "beta": 1, "phi": 2}},
        ],
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(payload))
    inst = load_instance(str(path))
    assert inst.preferences.kind is None


def test_custom_not_serializable():
    inst = MarketInstance(
        (1.0,), (Custom(lambda x: math.log(1 + x), lambda x: 1 / (1 + x)),)
    )
    with pytest.raises(ValidationError, match="no file representation"):
        instance_to_dict(inst)


def test_single_field_corruptions_rejected():
    base = instance_to_dict(quartet_instance())
    corruptions = []
    for i in range(4):
        for field, value in (("b", 0.0), ("b", -1.0), ("m", 0.0), ("m", -2.0)):
            bad = json.loads(json.dumps(base))
            bad["agents"][i]["utility"][field] = value
            corruptions.append(bad)
    bad_a = json.loads(json.dumps(base))
    bad_a["agents"][0]["a"] = -5.0
    corruptions.append(bad_a)
    for data in corruptions:
        with pytest.raises(ValidationError):
            instance_from_dict(data)
