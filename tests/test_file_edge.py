"""The file edge: the column gather of the agent list and the streamed writer.

* ``instance_from_dict`` gathers a single-family agent list into columns and
  falls back to the per-agent loop for anything else; on mutated agent lists
  both must give the same instance, bit for bit, or the same error text.
* ``save_result`` and ``save_instance`` must write exactly the text of
  ``json.dump(document, fh, indent=2)`` plus a newline, including the
  ``ValueError`` that ``allow_nan=False`` raises for the instance file.

Runs are derandomized so the suites are reproducible.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teshape import (
    Custom,
    EquilibriumResult,
    MarketInstance,
    ModelKind,
    PiecewiseLinear,
    PreferenceColumns,
    Quadratic,
    SolveMethod,
    ValidationError,
    instance_from_dict,
    instance_to_dict,
    save_instance,
    save_result,
    solve,
)
from teshape import model as model_module

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)
BLOCK = model_module._BLOCK_ROWS

FIELDS = {"quadratic": ("b", "m"), "pwl": ("beta", "phi")}

# ---------------------------------------------------------------------------
# Reader: column gather against the per-agent loop
# ---------------------------------------------------------------------------

numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.sampled_from([-0.0, 0.0, 1, 5e-324, 2**53 + 1, 2**63 + 5, 10**400, -(10**400), math.nan, math.inf]),
)
ODD_VALUES = [True, False, "1.5", "-0", None, [1.0], {"v": 1.0}, -0.0, 2**53 + 1, 10**400, -(10**400)]
ODD_KINDS = ["cubic", "", "PWL", 1, None, True, ["pwl"], {"kind": "pwl"}]
NOT_OBJECTS = [None, 1.0, "agent", [], [1.0, 2.0]]


def _mutate(draw, entry):
    """One malformation of one agent entry (left as is if it is no longer an object)."""
    if not isinstance(entry, dict):
        return entry
    entry = dict(entry)
    utility = entry.get("utility")
    op = draw(st.sampled_from(["value", "drop", "extra", "entry", "utility", "kind", "family"]))
    if op == "entry":
        return draw(st.sampled_from(NOT_OBJECTS))
    if op == "utility":
        entry["utility"] = draw(st.sampled_from(NOT_OBJECTS))
        return entry
    if op in ("kind", "family"):
        if isinstance(utility, dict):
            if op == "kind":
                entry["utility"] = {**utility, "kind": draw(st.sampled_from(ODD_KINDS))}
            else:  # a well-formed agent of either family
                label = draw(st.sampled_from(sorted(FIELDS)))
                first, second = FIELDS[label]
                entry["utility"] = {"kind": label, first: draw(numbers), second: draw(numbers)}
        return entry
    target = dict(utility) if isinstance(utility, dict) and draw(st.booleans()) else entry
    if op == "extra":
        target[draw(st.sampled_from(["z", "A", "kind", "a"]))] = 0.0
    elif target:
        key = draw(st.sampled_from(sorted(target)))
        if op == "drop":
            del target[key]
        else:
            target[key] = draw(st.sampled_from(ODD_VALUES))
    if target is not entry:
        entry["utility"] = target
    return entry


@st.composite
def agent_lists(draw):
    label = draw(st.sampled_from(sorted(FIELDS)))
    first, second = FIELDS[label]
    rows = draw(st.lists(st.tuples(numbers, numbers, numbers), max_size=6))
    agents = [{"a": a, "utility": {"kind": label, first: p, second: q}} for a, p, q in rows]
    for _ in range(draw(st.integers(0, 3)) if agents else 0):
        i = draw(st.integers(0, len(agents) - 1))
        agents[i] = _mutate(draw, agents[i])
    return agents


def _signature(instance: MarketInstance) -> tuple:
    """Everything that tells two instances apart, down to the sign of zero."""
    prefs = instance.preferences
    described = (prefs.codes.tobytes(), *(c.tobytes() for c in prefs.columns), repr(prefs.others))
    return instance.model, instance.production.tobytes(), described


def _outcome(data: dict) -> tuple:
    try:
        return ("instance", _signature(instance_from_dict(data)))
    except Exception as exc:  # noqa: BLE001 - the type and text are what is compared
        return (type(exc).__name__, str(exc))


@SETTINGS
@given(agent_lists(), st.sampled_from(["mtes", "mtes_st"]))
@example([], "mtes")
@example([{"a": -0.0, "utility": {"kind": "pwl", "beta": 2**53 + 1, "phi": 1}}, {"a": 1.5, "utility": {"kind": "pwl", "beta": 1.0, "phi": 2}}], "mtes")
@example([{"a": 1, "utility": {"kind": "quadratic", "b": 1, "m": 2}}, {"a": 1, "utility": {"kind": "pwl", "beta": 1, "phi": 2}}], "mtes_st")
@example([{"a": 10**400, "utility": {"kind": "quadratic", "b": 1, "m": 2}}], "mtes")
@example([{"a": 1, "utility": {"kind": "quadratic", "b": True, "m": 2}}], "mtes")
def test_gather_matches_per_agent_loop(agents, model):
    data = {"model": model, "agents": agents}
    gathered = _outcome(data)
    with mock.patch.object(model_module, "_gather_agents", return_value=None):
        assert _outcome(data) == gathered


def test_gather_takes_well_formed_single_family_lists():
    for label, (first, second) in FIELDS.items():
        agents = [{"a": 1, "utility": {"kind": label, first: 2.5, second: 2**53 + 1}}] * 3
        production, preferences = model_module._gather_agents(agents)
        assert production == [1.0] * 3 and isinstance(preferences, PreferenceColumns)
    mixed = [{"a": 1, "utility": {"kind": "quadratic", "b": 1, "m": 2}}, {"a": 1, "utility": {"kind": "pwl", "beta": 1, "phi": 2}}]
    assert model_module._gather_agents(mixed) is None


# ---------------------------------------------------------------------------
# Writer: byte identity with json.dump(indent=2)
# ---------------------------------------------------------------------------

EXTREMES = [5e-324, 1.7976931348623157e308, -0.0, 0.0, 1.0, 3.0, 1e16, 123456789.0, 0.1, 2.5e-8]
floats = st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False))
# n=1, one block, one row over a block, and a few sizes in between
sizes = st.sampled_from([1, 2, 7, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])


NON_FINITE = [math.nan, float(np.copysign(math.nan, -1.0)), math.inf, -math.inf]  # NaN with and without its sign bit


def _column(draw, n: int) -> np.ndarray:
    """n floats tiled from a small drawn pool, so large n stays cheap to draw."""
    return np.resize(np.array(draw(st.lists(floats, min_size=1, max_size=9))), n)


def _signed_zeros(draw, column: np.ndarray) -> np.ndarray:
    """``column``, maybe with a run of -0.0 and 0.0 in drawn order across the end of the first block of rows:
    equal values whose text differs."""
    if draw(st.booleans()):
        run = column[BLOCK - 3 : BLOCK + 3]
        run[:] = np.resize(draw(st.lists(st.sampled_from([-0.0, 0.0]), min_size=2, max_size=4)), len(run))
    return column


def _vector(draw, n: int) -> tuple:
    """A result vector of n floats, with up to two non-finite values planted and maybe a signed-zero run."""
    column = _column(draw, n)
    for _ in range(draw(st.integers(0, 2))):
        column[draw(st.integers(0, n - 1))] = draw(st.sampled_from(NON_FINITE))
    return tuple(_signed_zeros(draw, column).tolist())


@st.composite
def column_instances(draw):
    n = draw(sizes)
    kind = draw(st.sampled_from([Quadratic, PiecewiseLinear]))
    preferences = PreferenceColumns(kind, _column(draw, n), _column(draw, n))
    return MarketInstance(_column(draw, n), preferences, draw(st.sampled_from(list(ModelKind))))


@st.composite
def results(draw, n: int):
    e_star = _vector(draw, n) if draw(st.booleans()) else None
    return EquilibriumResult(
        lambda_star=draw(st.one_of(floats, st.sampled_from([-25.519, -1.7976931348623157e308]))),
        x_star=_vector(draw, n),
        e_star=e_star,
        method=draw(st.sampled_from(list(SolveMethod))),
        balance_residual=draw(floats),
        kkt_max_violation=draw(floats),
        degenerate=draw(st.booleans()),
    )


def _oracle(document: dict, allow_nan: bool) -> str:
    fh = io.StringIO()
    json.dump(document, fh, indent=2, allow_nan=allow_nan)
    fh.write("\n")
    return fh.getvalue()


def _assert_same_text(got: str, expected: str) -> None:
    """Compare two documents by length and sha256 and, on a mismatch, fail at
    once naming the first differing offset with 40 characters either side:
    pytest's own diff of multi-megabyte strings runs for minutes."""
    digests = [(len(text), hashlib.sha256(text.encode()).digest()) for text in (got, expected)]
    if digests[0] == digests[1]:
        return
    k, hi = 0, min(len(got), len(expected))
    while k < hi:  # the length of the common prefix, by halving
        mid = (k + hi + 1) // 2
        k, hi = (mid, hi) if got[:mid] == expected[:mid] else (k, mid - 1)
    lo = max(0, k - 40)
    pytest.fail(f"texts differ at offset {k} (lengths {len(got)} and {len(expected)}):\n"
                f"got      {got[lo : k + 40]!r}\nexpected {expected[lo : k + 40]!r}", pytrace=False)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_result_document_matches_json_dump(tmp_path_factory, data):
    instance = data.draw(column_instances())
    result = data.draw(results(instance.n))
    path = tmp_path_factory.mktemp("doc") / "result.json"
    save_result(instance, result, str(path))
    expected = _oracle({**instance_to_dict(instance), **result.to_dict()}, allow_nan=True)
    _assert_same_text(path.read_text(encoding="utf-8"), expected)


@pytest.mark.parametrize("model", list(ModelKind))
@pytest.mark.parametrize("n", [1, BLOCK, BLOCK + 1])
def test_solved_document_matches_json_dump(model, n, tmp_path):
    i = np.arange(n)
    instance = MarketInstance(
        production=((i + 1) * 7919 % 1001) / 100.0,
        preferences=PreferenceColumns(PiecewiseLinear, (100 + i * 37 % 2900) / 100, (2000 + i * 53 % 10000) / 1000),
        model=model,
    )
    result = solve(instance)
    assert (result.e_star is None) is (model is ModelKind.MTES)
    save_result(instance, result, str(tmp_path / "result.json"))
    expected = _oracle({**instance_to_dict(instance), **result.to_dict()}, allow_nan=True)
    _assert_same_text((tmp_path / "result.json").read_text(encoding="utf-8"), expected)


def test_negative_price_document_matches_json_dump(tmp_path):
    instance = MarketInstance(
        production=[10.0 + i for i in range(9)],
        preferences=PreferenceColumns(Quadratic, [1.0 + i / 3 for i in range(9)], [0.5 + i / 7 for i in range(9)]),
    )
    result = solve(instance)
    assert result.lambda_star < 0
    save_result(instance, result, str(tmp_path / "result.json"))
    expected = _oracle({**instance_to_dict(instance), **result.to_dict()}, allow_nan=True)
    _assert_same_text((tmp_path / "result.json").read_text(encoding="utf-8"), expected)


@st.composite
def saved_instances(draw):
    """Instances given one family's columns or a list of quadratic and PWL
    objects, which the instance holds in the same column layout (kind codes
    per agent, NaN in the other family's rows), some with non-finite values
    or signed-zero runs planted."""
    as_columns = draw(st.booleans())
    n = draw(sizes if as_columns else st.integers(1, 12))
    columns = [_signed_zeros(draw, _column(draw, n)) for _ in range(3)]
    for _ in range(draw(st.integers(0, 3))):
        columns[draw(st.integers(0, 2))][draw(st.integers(0, n - 1))] = draw(st.sampled_from(NON_FINITE))
    production, first, second = columns
    kinds = st.sampled_from([Quadratic, PiecewiseLinear])
    if as_columns:
        preferences = PreferenceColumns(draw(kinds), first, second)
    else:
        preferences = tuple(draw(kinds)(p, q) for p, q in zip(first.tolist(), second.tolist()))
    return MarketInstance(production, preferences, draw(st.sampled_from(list(ModelKind))))


# the document written, or the type and text of the error raised: a document opens with "{", an error line never
def _saved(instance: MarketInstance, path) -> str:
    try:
        save_instance(instance, str(path))
    except Exception as exc:  # noqa: BLE001 - the type and text are what is compared
        return f"{type(exc).__name__}: {exc}"
    return path.read_text(encoding="utf-8")


def _dumped(instance: MarketInstance) -> str:
    try:
        return _oracle(instance_to_dict(instance), allow_nan=False)
    except Exception as exc:  # noqa: BLE001 - the type and text are what is compared
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(saved_instances())
# -inf in two columns of row 1 after NaN in row 0: the error names NaN, the first in document order, though
# -inf comes first by column, by bit pattern and by count
@example(MarketInstance([1.0, -math.inf], PreferenceColumns(Quadratic, [1.0, -math.inf], [math.nan, 2.0])))
def test_saved_instance_matches_json_dump(tmp_path_factory, instance):
    path = tmp_path_factory.mktemp("inst") / "instance.json"
    _assert_same_text(_saved(instance, path), _dumped(instance))


@pytest.mark.parametrize(
    "instance",
    [
        MarketInstance((), ()),
        MarketInstance((1.0, math.nan), (Quadratic(math.inf, 1.0), Quadratic(1.0, 2.0))),
        MarketInstance((1.0, 2.0), (PiecewiseLinear(1.0, 2.0), Quadratic(-math.inf, 2.0))),
        MarketInstance((1.0, 2.0, 3.0), (Quadratic(1.0, 2.0),)),
    ],
    ids=["empty", "inf-before-nan", "mixed-inf", "fewer-preferences"],
)
def test_saved_edge_instances_match_json_dump(instance, tmp_path):
    _assert_same_text(_saved(instance, tmp_path / "instance.json"), _dumped(instance))


def test_save_instance_rejects_custom(tmp_path):
    instance = MarketInstance((1.0, 2.0), (Quadratic(1.0, 2.0), Custom(math.log1p, lambda x: 1 / (1 + x))))
    with pytest.raises(ValidationError, match="no file representation"):
        save_instance(instance, str(tmp_path / "custom.json"))


def _nan_at_4000() -> MarketInstance:
    production = np.ones(5000)
    production[4000] = math.nan
    return MarketInstance(production, PreferenceColumns(Quadratic, np.ones(5000), np.full(5000, 2.0)))


@pytest.mark.parametrize(
    "instance, error",
    [
        (_nan_at_4000(), ValueError),
        (MarketInstance((1.0, 2.0), (Quadratic(1.0, 2.0), Custom(math.log1p, lambda x: 1 / (1 + x)))), ValidationError),
    ],
    ids=["nan-at-agent-4000", "custom"],
)
def test_failed_save_leaves_target_untouched(instance, error, tmp_path):
    target = tmp_path / "instance.json"
    save_instance(MarketInstance((1.0, 2.0), (Quadratic(1.0, 2.0), Quadratic(2.0, 3.0))), str(target))
    before = target.read_bytes()
    with pytest.raises(error):
        save_instance(instance, str(target))
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["instance.json"]
