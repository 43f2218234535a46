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
the preferences are ``PreferenceColumns``, one layout for every instance: a
read-only column pair of Quadratic or PiecewiseLinear parameters, a read-only
kind code per agent, and the objects of the agents outside those families
(Custom, or anything validation reports as unknown) in agent order. The
family classes only describe agents: a sequence of them becomes columns, and
nothing turns columns back into objects.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import Callable

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


@dataclass(frozen=True)
class PiecewiseLinear:
    """Piece-wise linear preference: value min(beta*x, beta*phi)."""

    beta: float
    phi: float


@dataclass(frozen=True)
class Custom:
    """Caller-provided strictly concave preference with analytic derivative."""

    value_fn: Callable[[float], float]
    deriv_fn: Callable[[float], float]


class ModelKind(Enum):
    MTES = "mtes"
    MTES_ST = "mtes_st"


# file label and parameter names of the families that are held as columns; a
# family's kind code is its place here, and _OTHER codes every other agent
_COLUMN_KINDS = {Quadratic: ("quadratic", "b", "m"), PiecewiseLinear: ("pwl", "beta", "phi")}
_KINDS = tuple(_COLUMN_KINDS)
_OTHER = len(_KINDS)
_SUM_BLOCK = 8192  # values _sequential_sum accumulates at a time


def _frozen(values, dtype=np.float64) -> np.ndarray:
    """A read-only copy of ``values``, never aliasing the caller's data."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, bit-identical to a Python loop adding the floats
    (``np.sum`` is pairwise; the builtin ``sum`` compensates from Python 3.12 on),
    a block at a time, each block led by the total so far (-0.0 + v is v)."""
    total = -0.0
    for start in range(0, len(values), _SUM_BLOCK):
        total = float(np.cumsum(np.concatenate([[total], values[start : start + _SUM_BLOCK]]))[-1])
    return total if len(values) else 0.0


class PreferenceColumns:
    """Every agent's preference as read-only columns: a kind code per agent
    (``codes``: 0 Quadratic, 1 PiecewiseLinear, 2 any other object), the
    parameter pair of each column agent (``columns``: ``(b, m)`` or
    ``(beta, phi)``, NaN in the other agents' rows) and the other agents'
    objects in agent order (``others``). ``kind`` is the class every agent
    shares, else None. ``PreferenceColumns(kind, first, second)`` holds one
    family; given ``codes``, ``kind`` may be None and is read from them.
    Arrays are copies. Agent i's parameters are ``columns[0][i]`` and
    ``columns[1][i]``; ``mask(kind)`` selects a family's rows.
    """

    __slots__ = ("kind", "columns", "codes", "others")

    def __init__(self, kind: type | None, first, second, codes=None, others=()) -> None:
        if kind not in _COLUMN_KINDS and (kind is not None or codes is None):
            raise TypeError(f"no column layout for {getattr(kind, '__name__', kind)!r}")
        self.columns = (_frozen(first), _frozen(second))
        self.codes = _frozen(np.full(self.columns[0].shape, _KINDS.index(kind), np.int8) if codes is None else codes, np.int8)
        self.others = tuple(others)
        if self.codes.ndim != 1 or not self.codes.shape == self.columns[0].shape == self.columns[1].shape:
            raise ValueError("preference columns and codes must be one-dimensional and of equal length")
        counts = [np.count_nonzero(self.codes == code) for code in range(_OTHER + 1)]
        self.kind = kind or next((k for k, count in zip(_KINDS, counts) if count == len(self)), None)
        if sum(counts) != len(self) or counts[_OTHER] != len(self.others) or (
                self.kind and counts[_KINDS.index(self.kind)] != len(self)):
            raise ValueError("kind codes must agree with the kind and the other agents")

    @classmethod
    def of(cls, preferences) -> PreferenceColumns:
        """``preferences``, a sequence of preference objects, as columns (the
        same object if it already is): each object's type is classified once,
        a subclass as its family, then each family's parameters gathered at once."""
        if isinstance(preferences, PreferenceColumns):
            return preferences
        objects = np.fromiter(preferences, dtype=object)
        types = list(map(type, objects))
        code_of = {t: next((code for code, kind in enumerate(_KINDS) if issubclass(t, kind)), _OTHER) for t in set(types)}
        codes = np.fromiter(map(code_of.__getitem__, types), dtype=np.int8, count=len(types))
        columns = np.full((2, len(codes)), math.nan)
        for code, (_, *names) in enumerate(_COLUMN_KINDS.values()):
            if (rows := codes == code).any():
                for column, name in zip(columns, names):
                    column[rows] = np.array(list(map(attrgetter(name), objects[rows])), dtype=np.float64)
        return cls(None, *columns, codes, objects[codes == _OTHER])

    def mask(self, kind: type | None) -> np.ndarray:
        """Which agents are of column family ``kind``, or other agents for None."""
        return self.codes == (_OTHER if kind is None else _KINDS.index(kind))

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PreferenceColumns):
            return NotImplemented
        held = ~self.mask(None)
        return (self.kind is other.kind and np.array_equal(self.codes, other.codes) and self.others == other.others
                and all(np.array_equal(c[held], d[held]) for c, d in zip(self.columns, other.columns)))

    __hash__ = None

    def __reduce__(self):  # rebuild through __init__, so copies stay read-only
        return PreferenceColumns, (self.kind, *self.columns, self.codes, self.others)


@dataclass(frozen=True, eq=False)
class MarketInstance:
    """Immutable market instance: production profile plus one preference per agent.

    ``production`` becomes a read-only float64 copy and a sequence of
    preference objects becomes ``PreferenceColumns``, whatever their
    families. Individual productions may be zero; only the total capacity
    must be positive. Construction performs no validation so that
    report-style checking (``validate_instance``) can inspect bad values.
    """

    production: np.ndarray
    preferences: PreferenceColumns
    model: ModelKind = ModelKind.MTES

    def __post_init__(self) -> None:
        object.__setattr__(self, "production", _frozen(self.production))
        object.__setattr__(self, "preferences", PreferenceColumns.of(self.preferences))

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


@dataclass(frozen=True)
class ValidationReport:
    """Violations in report order; ``agents[k]`` is the agent that
    ``violations[k]`` names, or None for one about the whole instance."""

    ok: bool
    violations: tuple[str, ...]
    agents: tuple[int | None, ...]

    @classmethod
    def of(cls, issues: list[tuple[int | None, str]]) -> ValidationReport:
        """The report of ``(agent or None, reason)`` pairs."""
        violations = tuple(reason if i is None else f"agent {i}: {reason}" for i, reason in issues)
        return cls(not issues, violations, tuple(i for i, _ in issues))

    def raise_if_invalid(self) -> None:
        if not self.ok:
            raise ValidationError(list(self.violations))


# Grid used for the strict-concavity spot check of Custom derivatives.
_CONCAVITY_GRID_POINTS = 17


def _other_violation(pref, scale: float) -> str | None:
    """Why an agent outside the column families is invalid, if it is: not a
    Custom, or a deriv_fn that fails or is not strictly decreasing on
    [0, 2*max(1, scale)]."""
    if not isinstance(pref, Custom):
        return f"unknown preference type {type(pref).__name__}"
    hi = 2.0 * max(1.0, scale)
    xs = [hi * k / (_CONCAVITY_GRID_POINTS - 1) for k in range(_CONCAVITY_GRID_POINTS)]
    try:
        ds = [float(pref.deriv_fn(x)) for x in xs]
    except Exception as exc:  # noqa: BLE001 - report, don't crash
        return f"deriv_fn evaluation failed ({exc})"
    if not all(cur < prev for prev, cur in zip(ds, ds[1:])):
        return "deriv_fn not strictly decreasing (utility must be strictly concave)"
    return None


def max_capacity(n: int) -> float:
    """The largest total production C of n agents: n*eps below the float
    limit, so the sum of the allocations that clear it cannot round past it."""
    return np.finfo(float).max / (1 + n * np.finfo(float).eps)


def validate_instance(instance: MarketInstance) -> ValidationReport:
    """Check all instance invariants; returns a report instead of raising.

    Checks: n >= 1, equal lengths of production and preferences, a_i >= 0 and finite,
    C > 0 and finite, positive family parameters, the quadratic agents' sum 1/b within
    max_capacity(n) and finite drop-out prices m*b, and strict concavity (on a sampled grid) for Custom preferences.
    """
    preferences, a, n = instance.preferences, instance.production, instance.n
    issues: list[tuple[int | None, str]] = []
    if n < 1:
        issues.append((None, "n >= 1 required (empty agent list)"))
    if len(preferences) != n:
        issues.append((None, f"length mismatch: {n} productions vs {len(preferences)} preferences"))
    finite = np.isfinite(a)
    for i in np.flatnonzero(~finite | (a < 0)).tolist():
        issues.append((i, "a must be " + ("non-negative" if finite[i] else "finite")))
    with np.errstate(over="ignore"):  # an overflowing total is reported below
        capacity = instance.capacity if finite.all() else _sequential_sum(a[finite])  # the total of the finite a_i
    if n >= 1 and not capacity > 0:
        issues.append((None, "C > 0 required (total production must be positive)"))
    elif capacity == math.inf:
        issues.append((None, "C must be finite (total production overflows)"))
    elif capacity > max_capacity(n):
        issues.append((None, "C must lie n*eps below the float limit (the allocations would sum past it)"))
    bad = [~(np.isfinite(c) & (c > 0)) for c in preferences.columns]
    if preferences.kind is not PiecewiseLinear:  # sum 1/b <= n/min(b): summed only if min(b) < 2n/max_capacity(n) (2: rounding)
        b, m = (c if preferences.kind is Quadratic else c[preferences.mask(Quadratic)] for c in preferences.columns)
        with np.errstate(over="ignore", invalid="ignore"):  # a 1/b or an m*b past the float limit is inf
            if len(b) and np.min(b) < 2 * n / max_capacity(n) and not np.sum(1.0 / b[b > 0]) <= max_capacity(n):
                issues.append((None, "sum of 1/b must lie n*eps below the float limit (the curvatures are too small)"))
            if len(b) and not np.isfinite(np.max(m) * np.max(b)):  # the drop-out prices m*b, formed only if one may overflow
                over = np.isinf(preferences.columns[0] * preferences.columns[1]) & ~(bad[0] | bad[1]) & preferences.mask(Quadratic)
                issues.extend((i, "m*b must be finite (the drop-out price overflows)") for i in np.flatnonzero(over).tolist())
    rows = np.flatnonzero(bad[0] | bad[1] | preferences.mask(None))  # every other agent, whatever its column rows
    others = iter(preferences.others)
    for i, code in zip(rows.tolist(), preferences.codes[rows].tolist()):
        if code == _OTHER:
            if reason := _other_violation(next(others), capacity if 0 < capacity < math.inf else 1.0):
                issues.append((i, reason))
        else:
            fields = _COLUMN_KINDS[_KINDS[code]][1:]
            issues.extend((i, f"{field} must be positive") for field, mask in zip(fields, bad) if mask[i])
    return ValidationReport.of(issues)


class SolveMethod(Enum):
    CLOSED_FORM_QUADRATIC = "ClosedFormQuadratic"
    BREAKPOINT_PWL = "BreakpointPWL"
    BISECTION = "Bisection"


@dataclass(frozen=True)
class EquilibriumResult:
    """Equilibrium price and allocation, with solver diagnostics.

    ``e_star`` is populated for MTES-ST only. ``degenerate`` marks knife-edge
    instances where the equilibrium price is set-valued and a deterministic
    representative was chosen. A solver's result builds its allocation and
    trade tuples from array rows when first read: a price alone costs none.
    """

    lambda_star: float
    x_star: tuple[float, ...]
    e_star: tuple[float, ...] | None
    method: SolveMethod
    balance_residual: float
    kkt_max_violation: float
    degenerate: bool = False

    @classmethod
    def of_rows(cls, x: np.ndarray, e: np.ndarray | None, **fields) -> EquilibriumResult:
        """The result of ``fields`` whose ``x_star`` and ``e_star`` are the rows ``x`` and ``e``, as read."""
        vars(result := cls.__new__(cls)).update(fields, _rows={"x_star": x, "e_star": e})
        return result

    def __getattr__(self, name: str):  # reached only while a row is not yet a tuple
        if name not in (rows := vars(self).get("_rows", {})):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        vars(self)[name] = value = None if rows[name] is None else tuple(rows[name].tolist())
        return value

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

    def _vectors(self) -> list[np.ndarray]:
        """``x_star`` and any ``e_star`` as arrays, read from a solver's rows while it holds them."""
        fields = vars(self).get("_rows") or {"x_star": self.x_star, "e_star": self.e_star}
        return [np.asarray(v, dtype=np.float64) for v in fields.values() if v is not None]


class BindingCondition(Enum):
    M_BELOW_CAPACITY_SHARE = "MBelowCapacityShare"
    B_MAX_BOUND = "BMaxBound"
    PHI_BELOW_CAPACITY_SHARE = "PhiBelowCapacityShare"
    BETA_MAX_BOUND = "BetaMaxBound"
    HOMOGENEOUS_DERIVATIVE = "HomogeneousDerivative"


@dataclass(frozen=True)
class ShapingVerdict:
    admissible: bool
    worst_case_lambda: float
    binding_condition: BindingCondition


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


def strict_number(value, field: str) -> float:
    """``value`` as a float if it is a JSON number; booleans rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError([f"{field} must be a number, got {value!r}"])
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ValidationError([f"{field} is beyond the float range"]) from None


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
    return (kind, *(strict_number(d[name], f"agent {agent}: '{name}'") for name in (first, second)))


def instance_from_dict(data: dict) -> MarketInstance:
    """Build and validate a MarketInstance from parsed JSON data.

    A well-formed single-family agent list is gathered into columns field by
    field; any other list is read one agent at a time.
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


def _parse_agents(agents: list) -> tuple[tuple, PreferenceColumns]:
    """Production and preference columns read one agent at a time, raising
    ValidationError for the first malformed agent."""
    rows = []  # (a, kind, first parameter, second parameter) per agent
    for i, entry in enumerate(agents):
        if not isinstance(entry, dict):
            raise ValidationError([f"agent {i}: must be an object"])
        if entry.keys() != {"a", "utility"}:
            unknown = set(entry) - {"a", "utility"}
            if unknown:
                raise ValidationError([f"agent {i}: unknown fields {sorted(unknown)}"])
            raise ValidationError([f"agent {i}: requires fields 'a' and 'utility'"])
        rows.append((strict_number(entry["a"], f"agent {i}: 'a'"), *_utility_from_dict(entry["utility"], i)))
    production, kinds, firsts, seconds = zip(*rows) if rows else ((),) * 4
    return production, PreferenceColumns(None, firsts, seconds, list(map(_KINDS.index, kinds)))


def _file_codes(preferences: PreferenceColumns) -> np.ndarray:
    """The agents' kind codes. An agent outside the column families has no
    file form and raises ValidationError."""
    if preferences.others:
        raise ValidationError(["Custom preferences have no file representation"])
    return preferences.codes


def instance_to_dict(instance: MarketInstance) -> dict:
    preferences = instance.preferences
    names = tuple(_COLUMN_KINDS.values())
    rows = zip(map(names.__getitem__, _file_codes(preferences).tolist()), *(c.tolist() for c in preferences.columns))
    utilities = [{"kind": label, first: p, second: q} for (label, first, second), p, q in rows]
    agents = [{"a": a, "utility": u} for a, u in zip(instance.production.tolist(), utilities)]
    return {"model": instance.model.value, "agents": agents}


def read_json(path: str):
    """Parse a JSON file read as UTF-8. Text that is not UTF-8, not JSON,
    nested too deeply or holding a NaN/Infinity literal raises
    ValidationError; the file itself, OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except UnicodeDecodeError as exc:
            raise ValidationError([f"not UTF-8 text: {exc.reason} at byte {exc.start}"]) from None
        except json.JSONDecodeError as exc:
            raise ValidationError([f"parse error at line {exc.lineno} col {exc.colno}: {exc.msg}"]) from None
        except RecursionError:
            raise ValidationError(["parse error: JSON nested too deeply"]) from None


@contextmanager
def atomic_write(path: str, newline: str | None = None):
    """A UTF-8 text file to write in place of ``path``: a new file beside it
    that replaces ``path`` when the block ends normally and is removed when
    it raises, so ``path`` is never left half written. An OSError in
    creating or renaming the new file names ``path``."""
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    with _naming(path):
        fh = open(tmp, "x", encoding="utf-8", newline=newline)
    try:
        with fh:
            yield fh
        with _naming(path):
            os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@contextmanager
def _naming(path: str):
    """Re-raise an OSError of the block as one about ``path``, so an error
    about the temporary sibling reads as one about the target."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def load_instance(path: str) -> MarketInstance:
    """Load, parse and validate an instance file.

    Raises ValidationError with field context on malformed input.
    """
    return instance_from_dict(read_json(path))


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
# plus a newline, where ``document`` is ``instance_to_dict(instance)`` extended
# by ``result.to_dict()``. Metered data repeats its numbers, so each distinct
# float64 bit pattern of the agent rows and result vectors is rendered once, by
# the C encoder (json.dump's ``float.__repr__``, ``NaN`` and ``Infinity`` text),
# and the rows index that text table a block at a time. The key is the bit
# pattern, not the value: -0.0 == 0.0 but they print apart, and NaN != NaN but
# every NaN prints ``NaN``.
_BLOCK_ROWS = 2048


def _agent_parts(label: str, first: str, second: str) -> list[str]:
    """One agent record at the indent=2 layout, led by the row separator, as
    the text around its three numbers."""
    return [',\n    {\n      "a": ', ',\n      "utility": {\n' f'        "kind": "{label}",\n        "{first}": ',
            f',\n        "{second}": ', "\n      }\n    }"]


_AGENT_PARTS = np.array([_agent_parts(*names) for names in _COLUMN_KINDS.values()], dtype=object)  # by kind code
_VECTOR_PARTS = np.array([[",\n    ", ""]], dtype=object)


def _write_rows(fh, table: np.ndarray, places: np.ndarray, parts: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Write a JSON array of a row per kind code, its numbers the ``table`` text at
    the next ``places`` between the row's ``parts[code]``; return the places left."""
    width, n = parts.shape[1] - 1, len(codes)
    fh.write("[" if n else "[]")
    for start in range(0, n, _BLOCK_ROWS):
        block = codes[start : start + _BLOCK_ROWS]
        pieces = np.empty((len(block), 2 * width + 1), dtype=object)
        pieces[:, 1::2] = table[places[start * width : (start + len(block)) * width]].reshape(-1, width)
        pieces[:, ::2] = parts[block]
        fh.write("".join(pieces.ravel().tolist())[0 if start else 1 :])  # the first row opens with no comma
    fh.write("\n  ]" if n else "")
    return places[n * width :]


def _write_document(fh, instance: MarketInstance, result: EquilibriumResult | None, allow_nan: bool) -> None:
    codes = _file_codes(instance.preferences)[: instance.n]
    vectors = [] if result is None else result._vectors()
    agents = np.column_stack([instance.production[: len(codes)], *(c[: len(codes)] for c in instance.preferences.columns)])
    bits = np.concatenate([agents.ravel(), *vectors]).view(np.int64)
    distinct, places = np.unique(bits, return_inverse=True)
    if 2 * len(distinct) > len(bits):  # mostly distinct: every number's text in document order, read in order
        distinct, places = bits, np.arange(len(bits))
    del agents, bits  # freed before the text is made
    values = distinct.view(np.float64)
    if not allow_nan and not (finite := np.isfinite(values)).all():
        first = values[places[np.argmin(finite[places])]].item()  # the first non-finite number in the document
        raise ValueError(f"Out of range float values are not JSON compliant: {first!r}")
    texts = json.dumps(values.tolist())[1:-1].split(", ")
    table = np.fromiter(texts, dtype=object, count=len(texts))

    fh.write('{\n  "model": %s,\n  "agents": ' % json.dumps(instance.model.value))
    places = _write_rows(fh, table, places, _AGENT_PARTS, codes)
    if result is not None:
        fh.write(',\n  "lambda_star": %s,\n  "x_star": ' % json.dumps(result.lambda_star))
        places = _write_rows(fh, table, places, _VECTOR_PARTS, np.zeros(len(vectors[0]), np.int8))
        diagnostics = (result.balance_residual, result.kkt_max_violation, result.degenerate)
        fh.write(
            ',\n  "method": %s,\n  "diagnostics": {\n    "balance_residual": %s,\n'
            '    "kkt_max_violation": %s,\n    "degenerate": %s\n  }'
            % tuple(map(json.dumps, (result.method.value, *diagnostics)))
        )
        if len(vectors) > 1:
            fh.write(',\n  "e_star": ')
            _write_rows(fh, table, places, _VECTOR_PARTS, np.zeros(len(vectors[1]), np.int8))
    fh.write("\n}\n")
