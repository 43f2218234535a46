"""Domain types, validation and JSON serialization for energy market instances.

A market instance bundles the per-agent production profile with each agent's
consumption preference. Three preference families are supported:

* ``Quadratic(b, m)`` -- concave quadratic with curvature scale ``b`` and
  satiation load ``m`` (kW); marginal value is ``b * (m - x)``.
* ``PiecewiseLinear(beta, phi)`` -- linear at rate ``beta`` ($/kWh) up to the
  saturation load ``phi`` (kW), flat beyond it.
* ``Custom(value_fn, deriv_fn)`` -- caller-supplied strictly concave utility
  with its analytic derivative. Never differentiated numerically for solving.

Instances are array-backed: ``production`` is a read-only float64 array and
an all-Quadratic or all-PiecewiseLinear preference list is held as a
read-only column pair (``PreferenceColumns``). Only instances mixing families
or holding Custom agents keep a tuple of per-agent objects.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Callable, Union

import numpy as np


class ValidationError(ValueError):
    """Raised when an instance (or a file being loaded) violates invariants."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class Quadratic:
    """Quadratic preference: value b*(m*x - x^2/2), satiated at x = m."""

    b: float
    m: float

    def value(self, x: float) -> float:
        return -0.5 * self.b * x * x + self.m * self.b * x

    def deriv(self, x: float) -> float:
        return self.b * (self.m - x)


@dataclass(frozen=True)
class PiecewiseLinear:
    """Piece-wise linear preference: value min(beta*x, beta*phi)."""

    beta: float
    phi: float

    def value(self, x: float) -> float:
        return min(self.beta * x, self.phi * self.beta)


@dataclass(frozen=True)
class Custom:
    """Caller-provided strictly concave preference with analytic derivative."""

    value_fn: Callable[[float], float]
    deriv_fn: Callable[[float], float]

    def value(self, x: float) -> float:
        return self.value_fn(x)

    def deriv(self, x: float) -> float:
        return self.deriv_fn(x)


UtilityParams = Union[Quadratic, PiecewiseLinear, Custom]


class ModelKind(Enum):
    MTES = "mtes"
    MTES_ST = "mtes_st"


class Family(Enum):
    """Preference family of a whole instance, for solver dispatch."""

    QUADRATIC = "quadratic"
    PWL = "pwl"
    MIXED = "mixed"  # mixed families and/or Custom agents: generic solver only


# file label and parameter names of the families that are held as columns
_COLUMN_KINDS = {Quadratic: ("quadratic", "b", "m"), PiecewiseLinear: ("pwl", "beta", "phi")}


def _frozen(values) -> np.ndarray:
    """A read-only float64 copy of ``values``, never aliasing the caller's data."""
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def _sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, bit-identical to the builtin ``sum`` of the
    same floats (``np.sum`` is pairwise and rounds differently)."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


class PreferenceColumns(Sequence):
    """Homogeneous preferences as a read-only column pair.

    ``columns`` is ``(b, m)`` for ``kind=Quadratic`` and ``(beta, phi)`` for
    ``kind=PiecewiseLinear``, each a read-only float64 array (copied from the
    arguments). As a sequence it reads like the per-agent tuple it replaces:
    ``[i]`` and iteration yield ``kind`` objects, slices yield tuples of them.
    """

    __slots__ = ("kind", "columns")

    def __init__(self, kind: type, first, second) -> None:
        if kind not in _COLUMN_KINDS:
            raise TypeError(f"no column layout for {getattr(kind, '__name__', kind)!r}")
        self.kind = kind
        self.columns = (_frozen(first), _frozen(second))
        if self.columns[0].ndim != 1 or self.columns[0].shape != self.columns[1].shape:
            raise ValueError("preference columns must be one-dimensional and of equal length")

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return map(self.kind, *(c.tolist() for c in self.columns))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.kind, *(c[i].tolist() for c in self.columns)))
        return self.kind(*(float(c[i]) for c in self.columns))

    def __eq__(self, other) -> bool:
        if isinstance(other, PreferenceColumns):
            return self.kind is other.kind and all(map(np.array_equal, self.columns, other.columns))
        if isinstance(other, Sequence):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None

    def __reduce__(self):  # rebuild through __init__, so copies stay read-only
        return PreferenceColumns, (self.kind, *self.columns)


def _as_preferences(preferences) -> PreferenceColumns | tuple:
    """Columns for a homogeneous Quadratic/PWL list, else a tuple of objects."""
    if isinstance(preferences, PreferenceColumns):
        return preferences
    preferences = tuple(preferences)
    for kind, (_, first, second) in _COLUMN_KINDS.items():
        if all(isinstance(p, kind) for p in preferences):
            pairs = [(getattr(p, first), getattr(p, second)) for p in preferences]
            return PreferenceColumns(kind, *np.array(pairs, dtype=np.float64).reshape(-1, 2).T)
    return preferences


@dataclass(frozen=True, eq=False)
class MarketInstance:
    """Immutable market instance: production profile plus one preference per agent.

    ``production`` becomes a read-only float64 copy; homogeneous Quadratic or
    PiecewiseLinear preferences become ``PreferenceColumns``, anything else a
    tuple. Individual productions may be zero; only the total capacity must
    be positive. Construction performs no validation so that report-style
    checking (``validate_instance``) can inspect bad values.
    """

    production: np.ndarray
    preferences: PreferenceColumns | tuple[UtilityParams, ...]
    model: ModelKind = ModelKind.MTES

    def __post_init__(self) -> None:
        object.__setattr__(self, "production", _frozen(self.production))
        object.__setattr__(self, "preferences", _as_preferences(self.preferences))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MarketInstance):
            return NotImplemented
        same_production = np.array_equal(self.production, other.production)
        return same_production and self.model is other.model and self.preferences == other.preferences

    __hash__ = None

    def __reduce__(self):  # rebuild through __init__, so copies stay read-only
        return MarketInstance, (self.production, self.preferences, self.model)

    @property
    def n(self) -> int:
        return len(self.production)

    @cached_property
    def capacity(self) -> float:
        """Total network production C = sum of all a_i."""
        return _sequential_sum(self.production)

    @property
    def family(self) -> Family:
        if isinstance(self.preferences, PreferenceColumns):
            return Family.QUADRATIC if self.preferences.kind is Quadratic else Family.PWL
        return Family.MIXED


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]

    def raise_if_invalid(self) -> None:
        if not self.ok:
            raise ValidationError(list(self.violations))


# Grid used for the strict-concavity spot check of Custom derivatives.
_CONCAVITY_GRID_POINTS = 17


def _check_custom_concavity(pref: Custom, scale: float, label: str) -> list[str]:
    """Sample deriv_fn on [0, 2*scale] and flag any non-decreasing step."""
    hi = 2.0 * max(1.0, scale)
    xs = [hi * k / (_CONCAVITY_GRID_POINTS - 1) for k in range(_CONCAVITY_GRID_POINTS)]
    try:
        ds = [float(pref.deriv_fn(x)) for x in xs]
    except Exception as exc:  # noqa: BLE001 - report, don't crash
        return [f"{label}: deriv_fn evaluation failed ({exc})"]
    for prev, cur in zip(ds, ds[1:]):
        if not cur < prev:
            return [f"{label}: deriv_fn not strictly decreasing (utility must be strictly concave)"]
    return []


def production_violations(a: np.ndarray, n_preferences: int) -> tuple[list[str], float]:
    """``validate_instance``'s production violations and the total of the finite a_i."""
    violations: list[str] = []
    n = len(a)
    if n < 1:
        violations.append("n >= 1 required (empty agent list)")
    if n_preferences != n:
        violations.append(f"length mismatch: {n} productions vs {n_preferences} preferences")
    finite = np.isfinite(a)
    for i in np.flatnonzero(~finite | (a < 0)).tolist():
        violations.append(f"agent {i}: a must be " + ("non-negative" if finite[i] else "finite"))
    capacity = _sequential_sum(a[finite])
    if n >= 1 and not capacity > 0:
        violations.append("C > 0 required (total production must be positive)")
    return violations, capacity


def validate_instance(instance: MarketInstance) -> ValidationReport:
    """Check all instance invariants; returns a report instead of raising.

    Checks: n >= 1, length agreement between production and preferences,
    a_i >= 0 and finite, C > 0, positive family parameters, and strict
    concavity (on a sampled grid) for Custom preferences.
    """
    preferences = instance.preferences
    violations, capacity = production_violations(instance.production, len(preferences))
    if isinstance(preferences, PreferenceColumns):
        fields = _COLUMN_KINDS[preferences.kind][1:]
        bad = [~(np.isfinite(c) & (c > 0)) for c in preferences.columns]
        for i in np.flatnonzero(bad[0] | bad[1]).tolist():
            bad_fields = [field for field, mask in zip(fields, bad) if mask[i]]
            violations.extend(f"agent {i}: {field} must be positive" for field in bad_fields)
    else:
        for i, pref in enumerate(preferences):  # per agent: mixed families or Custom agents
            if isinstance(pref, Quadratic):
                if not (math.isfinite(pref.b) and pref.b > 0):
                    violations.append(f"agent {i}: b must be positive")
                if not (math.isfinite(pref.m) and pref.m > 0):
                    violations.append(f"agent {i}: m must be positive")
            elif isinstance(pref, PiecewiseLinear):
                if not (math.isfinite(pref.beta) and pref.beta > 0):
                    violations.append(f"agent {i}: beta must be positive")
                if not (math.isfinite(pref.phi) and pref.phi > 0):
                    violations.append(f"agent {i}: phi must be positive")
            elif isinstance(pref, Custom):
                violations.extend(
                    _check_custom_concavity(pref, capacity if capacity > 0 else 1.0, f"agent {i}")
                )
            else:
                violations.append(f"agent {i}: unknown preference type {type(pref).__name__}")
    return ValidationReport(ok=not violations, violations=tuple(violations))


class SolveMethod(Enum):
    CLOSED_FORM_QUADRATIC = "ClosedFormQuadratic"
    BREAKPOINT_PWL = "BreakpointPWL"
    BISECTION = "Bisection"


@dataclass(frozen=True)
class EquilibriumResult:
    """Equilibrium price and allocation, with solver diagnostics.

    ``e_star`` is populated for MTES-ST only. ``degenerate`` marks knife-edge
    instances where the equilibrium price is set-valued and a deterministic
    representative was chosen.
    """

    lambda_star: float
    x_star: tuple[float, ...]
    e_star: tuple[float, ...] | None
    method: SolveMethod
    balance_residual: float
    kkt_max_violation: float
    degenerate: bool = False

    def to_dict(self) -> dict:
        out: dict = {
            "lambda_star": self.lambda_star,
            "x_star": list(self.x_star),
            "method": self.method.value,
            "diagnostics": {
                "balance_residual": self.balance_residual,
                "kkt_max_violation": self.kkt_max_violation,
                "degenerate": self.degenerate,
            },
        }
        if self.e_star is not None:
            out["e_star"] = list(self.e_star)
        return out


class BindingCondition(Enum):
    M_BELOW_CAPACITY_SHARE = "MBelowCapacityShare"
    B_MAX_BOUND = "BMaxBound"
    PHI_BELOW_CAPACITY_SHARE = "PhiBelowCapacityShare"
    BETA_MAX_BOUND = "BetaMaxBound"
    HOMOGENEOUS_DERIVATIVE = "HomogeneousDerivative"


@dataclass(frozen=True)
class ShapingQuery:
    """A box of candidate preference parameters tested against a price threshold.

    Exactly one bound family is set: (b_max, m_max) for quadratic boxes,
    (beta_max, phi_max) for piece-wise linear boxes, or ``theta`` for a
    homogeneous-preference query.
    """

    threshold: float
    n: int
    capacity: float
    b_max: float | None = None
    m_max: float | None = None
    beta_max: float | None = None
    phi_max: float | None = None
    theta: UtilityParams | None = None


@dataclass(frozen=True)
class ShapingVerdict:
    admissible: bool
    worst_case_lambda: float
    binding_condition: BindingCondition

    def to_dict(self) -> dict:
        return {
            "admissible": self.admissible,
            "worst_case_lambda": self.worst_case_lambda,
            "binding_condition": self.binding_condition.value,
        }


# ---------------------------------------------------------------------------
# JSON serialization
#
# Schema: {"model": "mtes"|"mtes_st",
#          "agents": [{"a": number, "utility": {"kind": "quadratic", "b":, "m":}
#                                 | {"kind": "pwl", "beta":, "phi":}}]}
# Unknown fields are rejected; NaN/Inf are rejected. Custom preferences have
# no file representation.
# ---------------------------------------------------------------------------


def _reject_constant(token: str) -> float:
    raise ValidationError([f"non-finite number not accepted: {token}"])


def strict_int(value, field: str) -> int:
    """``value`` as an int if it is an integral JSON number; booleans rejected."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ValidationError([f"{field} must be an integer, got {value!r}"])
    return int(value)


def _number(d: dict, field: str, agent: int) -> float:
    value = d[field]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError([f"agent {agent}: '{field}' must be a number"])
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ValidationError([f"agent {agent}: '{field}' is beyond the float range"]) from None


# file label -> (per-agent type, parameter names) of the families held as columns
_FILE_KINDS = {label: (kind, first, second) for kind, (label, first, second) in _COLUMN_KINDS.items()}


def _utility_from_dict(d: dict, agent: int) -> tuple[type, float, float]:
    """(kind, first parameter, second parameter) of one agent's utility object."""
    if not isinstance(d, dict):
        raise ValidationError([f"agent {agent}: utility must be an object"])
    label = d.get("kind")
    if not isinstance(label, str) or label not in _FILE_KINDS:
        raise ValidationError([f"agent {agent}: unknown utility kind {label!r}"])
    kind, first, second = _FILE_KINDS[label]
    expected = {"kind", first, second}
    if d.keys() != expected:
        unknown = set(d) - expected
        if unknown:
            raise ValidationError([f"agent {agent}: unknown utility fields {sorted(unknown)}"])
        raise ValidationError([f"agent {agent}: missing utility fields {sorted(expected - set(d))}"])
    return kind, _number(d, first, agent), _number(d, second, agent)


def instance_from_dict(data: dict) -> MarketInstance:
    """Build and validate a MarketInstance from parsed JSON data.

    A single-family agent list goes straight into columns; a list mixing
    quadratic and pwl agents becomes per-agent objects.
    """
    if not isinstance(data, dict):
        raise ValidationError(["top-level value must be an object"])
    unknown = set(data) - {"model", "agents"}
    if unknown:
        raise ValidationError([f"unknown fields {sorted(unknown)}"])
    model_raw = data.get("model", "mtes")
    try:
        model = ModelKind(model_raw)
    except ValueError:
        raise ValidationError([f"model must be 'mtes' or 'mtes_st', got {model_raw!r}"]) from None
    agents = data.get("agents")
    if not isinstance(agents, list):
        raise ValidationError(["'agents' must be a list"])

    production, preferences = _gather_agents(agents) or _parse_agents(agents)
    instance = MarketInstance(production=production, preferences=preferences, model=model)
    validate_instance(instance).raise_if_invalid()
    return instance


def _gather_agents(agents: list) -> tuple[list, PreferenceColumns] | None:
    """Production and preference columns of a well-formed single-family agent
    list, gathered field by field in C-level passes; ``None`` when any entry
    is not exactly ``{"a": number, "utility": {"kind": label, first: number,
    second: number}}`` with one file label throughout, so ``_parse_agents``
    words the error. Numbers must be plain ints or floats (no bools)."""
    if set(map(type, agents)) != {dict} or set(map(len, agents)) != {2}:
        return None
    try:
        production = [entry["a"] for entry in agents]
        utilities = [entry["utility"] for entry in agents]
        if set(map(type, utilities)) != {dict} or set(map(len, utilities)) != {3}:
            return None
        labels = {utility["kind"] for utility in utilities}
        label = labels.pop() if len(labels) == 1 else None
        if not isinstance(label, str) or label not in _FILE_KINDS:
            return None
        kind, first, second = _FILE_KINDS[label]
        firsts = [utility[first] for utility in utilities]
        seconds = [utility[second] for utility in utilities]
        if not set(map(type, production)) | set(map(type, firsts)) | set(map(type, seconds)) <= {int, float}:
            return None
        columns = [list(map(float, values)) for values in (production, firsts, seconds)]
    except (KeyError, TypeError, OverflowError):  # missing key, unhashable kind, huge integer
        return None
    return columns[0], PreferenceColumns(kind, columns[1], columns[2])


def _parse_agents(agents: list) -> tuple[tuple, PreferenceColumns | tuple]:
    """Production and preferences read one agent at a time, raising
    ValidationError for the first malformed agent. Mixed families become a
    tuple of per-agent objects."""
    rows = []  # (a, kind, first parameter, second parameter) per agent
    for i, entry in enumerate(agents):
        if not isinstance(entry, dict):
            raise ValidationError([f"agent {i}: must be an object"])
        if entry.keys() != {"a", "utility"}:
            unknown = set(entry) - {"a", "utility"}
            if unknown:
                raise ValidationError([f"agent {i}: unknown fields {sorted(unknown)}"])
            raise ValidationError([f"agent {i}: requires fields 'a' and 'utility'"])
        rows.append((_number(entry, "a", i), *_utility_from_dict(entry["utility"], i)))
    production, kinds, firsts, seconds = zip(*rows) if rows else ((),) * 4
    if len(set(kinds)) > 1:
        return production, tuple(map(lambda kind, p, q: kind(p, q), kinds, firsts, seconds))
    return production, PreferenceColumns(kinds[0] if kinds else Quadratic, firsts, seconds)


def _utility_to_dict(pref: UtilityParams) -> dict:
    kind = next((k for k in _COLUMN_KINDS if isinstance(pref, k)), None)
    if kind is None:
        raise ValidationError(["Custom preferences have no file representation"])
    label, first, second = _COLUMN_KINDS[kind]
    return {"kind": label, first: float(getattr(pref, first)), second: float(getattr(pref, second))}


def instance_to_dict(instance: MarketInstance) -> dict:
    preferences = instance.preferences
    if isinstance(preferences, PreferenceColumns):
        label, first, second = _COLUMN_KINDS[preferences.kind]
        pairs = zip(*(c.tolist() for c in preferences.columns))
        utilities = [{"kind": label, first: p, second: q} for p, q in pairs]
    else:
        utilities = [_utility_to_dict(p) for p in preferences]
    agents = [{"a": a, "utility": u} for a, u in zip(instance.production.tolist(), utilities)]
    return {"model": instance.model.value, "agents": agents}


def read_json(path: str, **kwargs):
    """Parse a JSON file read as UTF-8. Bytes that do not decode raise
    ValidationError; ``json.JSONDecodeError`` is left for the caller to word."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, **kwargs)
        except UnicodeDecodeError as exc:
            raise ValidationError([f"not UTF-8 text: {exc.reason} at byte {exc.start}"]) from None


@contextmanager
def atomic_write(path: str, newline: str | None = None):
    """A UTF-8 text file to write in place of ``path``: a new file beside it
    that replaces ``path`` when the block ends normally and is removed when
    it raises, so ``path`` is never left half written."""
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline=newline)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_instance(path: str) -> MarketInstance:
    """Load, parse and validate an instance file.

    Raises ValidationError with field context on malformed input.
    """
    try:
        data = read_json(path, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ValidationError([f"parse error at line {exc.lineno} col {exc.colno}: {exc.msg}"]) from None
    return instance_from_dict(data)


def save_instance(instance: MarketInstance, path: str) -> None:
    """Write ``instance`` as an instance file; a non-finite value raises
    ValueError and a Custom preference ValidationError."""
    with atomic_write(path) as fh:
        _write_document(fh, instance, None, allow_nan=False)


def save_result(instance: MarketInstance, result: EquilibriumResult, path: str) -> None:
    """Write the self-describing solve document: the instance fields extended
    by the result fields, as ``solve --out`` does."""
    with atomic_write(path) as fh:
        _write_document(fh, instance, result, allow_nan=True)


# The writer streams the exact text of ``json.dump(document, fh, indent=2)``
# plus a newline, where ``document`` is ``instance_to_dict(instance)``
# extended by ``result.to_dict()``. Number text comes from the C encoder one
# block of rows at a time (the same ``float.__repr__``, ``NaN`` and
# ``Infinity`` text that json.dump writes), so the whole document is never
# held in memory.
_BLOCK_ROWS = 2048
_NON_FINITE = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}


def _agent_template(label: str, first: str, second: str) -> str:
    """One agent record at the indent=2 layout, with ``%s`` for its numbers."""
    return (
        '    {\n      "a": %s,\n      "utility": {\n'
        f'        "kind": "{label}",\n        "{first}": %s,\n        "{second}": %s\n'
        "      }\n    }"
    )


_AGENT_TEMPLATES = {kind: _agent_template(*names) for kind, names in _COLUMN_KINDS.items()}


def _numbers_text(values) -> str:
    """JSON text of the numbers in ``values`` (an array or a tuple of
    floats), separated by ``", "``."""
    return json.dumps(values.tolist() if isinstance(values, np.ndarray) else values)[1:-1]


def _reject_non_finite(columns: list[list[str]]) -> None:
    """json.dump's ``allow_nan=False`` error for the first non-finite number,
    reading the columns row by row as the document does."""
    if all(_NON_FINITE.keys().isdisjoint(column) for column in columns):
        return
    text = next(t for t in chain.from_iterable(zip(*columns)) if t in _NON_FINITE)
    raise ValueError(f"Out of range float values are not JSON compliant: {_NON_FINITE[text]!r}")


def _write_rows(fh, n: int, block_text: Callable[[slice], str]) -> None:
    """Write a JSON array of ``n`` rows, ``block_text(s)`` giving the text of
    rows ``s`` joined by ``",\\n"``."""
    if not n:
        fh.write("[]")
        return
    fh.write("[\n")
    for start in range(0, n, _BLOCK_ROWS):
        fh.write(",\n" if start else "")
        fh.write(block_text(slice(start, start + _BLOCK_ROWS)))
    fh.write("\n  ]")


def _write_vector(fh, values: tuple) -> None:
    _write_rows(fh, len(values), lambda rows: "    " + _numbers_text(values[rows]).replace(", ", ",\n    "))


def _write_document(fh, instance: MarketInstance, result: EquilibriumResult | None, allow_nan: bool) -> None:
    preferences = instance.preferences
    if isinstance(preferences, PreferenceColumns):
        templates = [_AGENT_TEMPLATES[preferences.kind]] * len(preferences)
        first, second = preferences.columns
    else:  # per-agent objects: mixed families, or Custom (which has no file form)
        kinds = [next((k for k in _COLUMN_KINDS if isinstance(p, k)), None) for p in preferences]
        if None in kinds:
            raise ValidationError(["Custom preferences have no file representation"])
        templates = [_AGENT_TEMPLATES[kind] for kind in kinds]
        names = [_COLUMN_KINDS[kind] for kind in kinds]
        first = tuple(float(getattr(p, name[1])) for p, name in zip(preferences, names))
        second = tuple(float(getattr(p, name[2])) for p, name in zip(preferences, names))

    def agent_block(rows: slice) -> str:
        columns = [_numbers_text(column[rows]).split(", ") for column in (instance.production, first, second)]
        if not allow_nan:
            _reject_non_finite(columns)
        return ",\n".join(map(str.__mod__, templates[rows], zip(*columns)))

    fh.write('{\n  "model": %s,\n  "agents": ' % json.dumps(instance.model.value))
    _write_rows(fh, min(instance.n, len(templates)), agent_block)
    if result is not None:
        fh.write(',\n  "lambda_star": %s,\n  "x_star": ' % json.dumps(result.lambda_star))
        _write_vector(fh, result.x_star)
        diagnostics = (result.balance_residual, result.kkt_max_violation, result.degenerate)
        fh.write(
            ',\n  "method": %s,\n  "diagnostics": {\n    "balance_residual": %s,\n'
            '    "kkt_max_violation": %s,\n    "degenerate": %s\n  }'
            % tuple(map(json.dumps, (result.method.value, *diagnostics)))
        )
        if result.e_star is not None:
            fh.write(',\n  "e_star": ')
            _write_vector(fh, result.e_star)
    fh.write("\n}\n")
