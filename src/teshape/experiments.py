"""Seeded sampling plans, Monte Carlo batches, sweeps and box statistics.

Sampling conventions: production draws come from a normal (mean 5, sd 1.25)
rejected outside [0, 10]; agent one takes the box's corner, its bound on the
family's tight range (``quadratic_b_range``, ``pwl_beta_range``); remaining
agents draw uniformly from half-open intervals (0, upper] so zero is excluded
exactly. A batch is checked for admissibility before clearing, its price after.

Per-trial generators derive from (seed, cell, trial) so trials are
independent, order-insensitive and reproducible bit-for-bit. A run gives each
trial thread a workspace: buffers for the production and parameter columns,
which every trial samples into and its instance adopts uncopied.
"""

from __future__ import annotations

import csv
import errno
import functools
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .model import (
    MarketInstance,
    PiecewiseLinear,
    PreferenceColumns,
    Quadratic,
    ValidationError,
    atomic_write,
    read_json,
    strict_int,
    strict_number,
)
from .shaping import check_pwl_set, check_quadratic_set, pwl_beta_range, quadratic_b_range
from .solver import SolverError, solve_mtes_pwl, solve_mtes_quadratic

QUARTILE_CONVENTION = "linear interpolation between order statistics"


class EmptyInput(ValueError):
    pass


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary with 1.5*IQR whiskers; points beyond are outliers."""

    median: float
    q25: float
    q75: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]


def box_stats(values) -> BoxStats:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise EmptyInput("box_stats requires a non-empty list")
    q25, median, q75 = np.percentile(arr, [25.0, 50.0, 75.0])
    with np.errstate(over="ignore"):  # fences past the float limit are infinite: they exclude nothing
        iqr = q75 - q25
        lo_fence = q25 - 1.5 * iqr
        hi_fence = q75 + 1.5 * iqr
    inside = arr[(arr >= lo_fence) & (arr <= hi_fence)]
    if inside.size == 0:  # only non-finite input leaves the fences empty
        raise EmptyInput("box_stats found no value inside its whiskers; the input is not finite")
    outliers = arr[(arr < lo_fence) | (arr > hi_fence)]
    return BoxStats(
        median=float(median),
        q25=float(q25),
        q75=float(q75),
        whisker_low=float(inside.min()),
        whisker_high=float(inside.max()),
        outliers=tuple(sorted(float(v) for v in outliers)),
    )


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

PRODUCTION_MEAN = 5.0
PRODUCTION_SD = 1.25
PRODUCTION_RANGE = (0.0, 10.0)


def _buffers(n: int, rows: int) -> np.ndarray:
    """``rows`` uninitialized arrays of n floats, as one; ValidationError if n is too large."""
    try:
        return np.empty((rows, n))
    except (MemoryError, ValueError):  # more bytes than memory holds, or than an address can count
        raise ValidationError([f"n={n} is too large to sample"]) from None


def sample_production(n: int, rng: np.random.Generator, out=None) -> np.ndarray:
    """n production draws, normal(5, 1.25) rejected outside [0, 10]; into the n floats out[0], drawn in out[1], if given."""
    if n < 1:
        raise ValidationError(["n >= 1 required"])
    lo, hi = PRODUCTION_RANGE
    a, draws = _buffers(n, 2) if out is None else out
    filled = 0
    while filled < n:  # mean + sd * standard_normal is normal(mean, sd) bit for bit, from the same bits
        draw = rng.standard_normal(out=draws[filled:])
        draw *= PRODUCTION_SD
        draw += PRODUCTION_MEAN
        cuts = [-1, *np.flatnonzero((draw < lo) | (draw > hi)).tolist(), len(draw)]  # the rejected draws
        for start, stop in zip(cuts, cuts[1:]):  # the kept runs between them, in order
            a[filled : filled + stop - start - 1] = draw[start + 1 : stop]
            filled += stop - start - 1
    return a


def _half_open_uniform(upper: float, out: np.ndarray, rng: np.random.Generator) -> None:
    # (0, upper]: map U[0,1) through upper*(1-U) so zero is excluded exactly, in place
    np.multiply(upper, np.subtract(1.0, rng.random(out=out), out=out), out=out)


def sample_quadratic_params(
    n: int, capacity: float, lambda_dagger: float, rng: np.random.Generator, out=None
) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic batch with agent one on the admissibility boundary, into the n-float pair ``out`` if given.

    m_1 is uniform on [C/n, 100C/n] (resampled off the degenerate lower endpoint), b_1 is ``quadratic_b_range``
    at m_1, and everyone else draws from (0, b_1] x (0, m_1].
    """
    share = capacity / n
    m1 = rng.uniform(share, 100.0 * share)
    while m1 <= share:
        m1 = rng.uniform(share, 100.0 * share)
    b1 = quadratic_b_range(m1, n, capacity, lambda_dagger)
    b, m = _buffers(n, 2) if out is None else out
    b[0], m[0] = b1, m1  # agent one on the corner
    _half_open_uniform(b1, b[1:], rng)
    _half_open_uniform(m1, m[1:], rng)
    return b, m


def sample_pwl_params(
    n: int, capacity: float, lambda_dagger: float, rng: np.random.Generator, out=None
) -> tuple[np.ndarray, np.ndarray]:
    """PWL batch with agent one's marginal rate at the threshold, into the n-float pair ``out`` if given.

    phi_1 draws from a normal rejected outside [C/n, 10C/n] (centered on the interval, sd a quarter of its width),
    beta_1 is ``pwl_beta_range`` at phi_1 (the threshold), and the rest draw from (0, beta_1] x (0, phi_1].
    """
    share = capacity / n
    lo, hi = share, 10.0 * share
    mu, sd = 0.5 * (lo + hi), 0.25 * (hi - lo)
    phi1 = rng.normal(mu, sd)
    while not (lo <= phi1 <= hi):
        phi1 = rng.normal(mu, sd)
    beta1 = pwl_beta_range(phi1, n, capacity, lambda_dagger)
    beta, phi = _buffers(n, 2) if out is None else out
    beta[0], phi[0] = beta1, phi1  # agent one on the corner
    _half_open_uniform(beta1, beta[1:], rng)
    _half_open_uniform(phi1, phi[1:], rng)
    return beta, phi


# ---------------------------------------------------------------------------
# Monte Carlo batches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """A sampling plan: K trials per cell, cells over thresholds or scales."""

    family: str  # "quadratic" | "pwl"
    n: int
    trials: int
    lambda_dagger: float | tuple[float, ...]
    seed: int
    scale_list: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        for name in ("lambda_dagger", "scale_list"):  # a list, as JSON gives it, held as a tuple
            if isinstance(value := getattr(self, name), list):
                object.__setattr__(self, name, value := tuple(value))
            if value == ():
                raise ValidationError([f"{name} must be a non-empty list"])
        if self.family not in ("quadratic", "pwl"):
            raise ValidationError([f"family must be 'quadratic' or 'pwl', got {self.family!r}"])
        if not (0 < self.n < 2**63 and 0 < self.trials < 2**63):  # 2**63: NumPy's index range
            raise ValidationError(["n and trials must be in 1..2**63-1"])
        if any(not 0 < t < math.inf for t in self.thresholds):
            raise ValidationError(["lambda_dagger must be positive and finite"])
        if not 0 <= self.seed < 2**64:
            raise ValidationError(["seed must be a non-negative 64-bit integer"])
        if self.scale_list is not None:
            if isinstance(self.lambda_dagger, tuple):
                raise ValidationError(["scale study requires a single lambda_dagger"])
            if any(not 0 < v < 2**63 for v in self.scale_list):
                raise ValidationError(["scale_list entries must be in 1..2**63-1"])
        keys = [key for key, _, _ in self.cells()]
        if len(set(keys)) < len(keys):  # the artifacts' rows would not tell the cells apart
            raise ValidationError([f"two cells share the key {next(k for k in keys if keys.count(k) > 1)!r}"])

    @staticmethod
    def from_dict(data: dict) -> ExperimentSpec:
        """Strict parse: integral numbers only (no booleans), numeric lambda_dagger."""
        if not isinstance(data, dict):
            raise ValidationError(["spec must be a JSON object"])
        required = {"family", "n", "trials", "lambda_dagger", "seed"}
        unknown = set(data) - required - {"scale_list"}
        if unknown:
            raise ValidationError([f"unknown spec fields {sorted(unknown)}"])
        if not required <= set(data):
            raise ValidationError([f"missing spec fields {sorted(required - set(data))}"])
        lam, scale = data["lambda_dagger"], data.get("scale_list")
        if isinstance(lam, list):
            lam = [strict_number(v, "lambda_dagger") for v in lam]
        if scale is not None and not isinstance(scale, list):
            raise ValidationError(["scale_list must be a non-empty list"])
        return ExperimentSpec(
            family=data["family"],
            n=strict_int(data["n"], "n"),
            trials=strict_int(data["trials"], "trials"),
            lambda_dagger=lam if isinstance(lam, list) else strict_number(lam, "lambda_dagger"),
            seed=strict_int(data["seed"], "seed"),
            scale_list=None if scale is None else [strict_int(v, "scale_list") for v in scale],
        )

    @staticmethod
    def load(path: str) -> ExperimentSpec:
        return read_json(path, ExperimentSpec.from_dict)

    def to_dict(self) -> dict:
        lam = list(self.lambda_dagger) if isinstance(self.lambda_dagger, tuple) else self.lambda_dagger
        out = {
            "family": self.family,
            "n": self.n,
            "trials": self.trials,
            "lambda_dagger": lam,
            "seed": self.seed,
        }
        if self.scale_list is not None:
            out["scale_list"] = list(self.scale_list)
        return out

    @property
    def thresholds(self) -> tuple[float, ...]:
        lam = self.lambda_dagger
        return lam if isinstance(lam, tuple) else (lam,)

    def cells(self) -> list[tuple[str, int, float]]:
        """(cell_key, n, lambda_dagger) triples, one per batch of trials."""
        if self.scale_list is not None:
            lam = float(self.lambda_dagger)  # type: ignore[arg-type]
            return [(f"n={n}", n, lam) for n in self.scale_list]
        return [(f"lambda_dagger={lam:g}", self.n, float(lam)) for lam in self.thresholds]


@dataclass(frozen=True)
class CellResult:
    key: str
    n: int
    lambda_dagger: float
    stats: BoxStats
    prices: tuple[float, ...]


@dataclass(frozen=True)
class MonteCarloResult:
    spec: ExperimentSpec
    cells: tuple[CellResult, ...]

    def write(self, out_dir: str) -> None:
        """The three artifacts, into the existing directory ``out_dir``."""
        with atomic_write(os.path.join(out_dir, "results.csv"), newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cell_key", "trial", "seed", "lambda_star"])
            for cell in self.cells:
                for trial, price in enumerate(cell.prices):
                    writer.writerow([cell.key, trial, self.spec.seed, repr(price)])
        with atomic_write(os.path.join(out_dir, "stats.csv"), newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cell_key", "median", "q25", "q75", "wlo", "whi", "n_outliers"])
            for cell in self.cells:
                s = cell.stats
                summary = (s.median, s.q25, s.q75, s.whisker_low, s.whisker_high)
                writer.writerow([cell.key, *map(repr, summary), len(s.outliers)])
        with atomic_write(os.path.join(out_dir, "metadata.json")) as fh:
            json.dump(
                {
                    "spec": self.spec.to_dict(),
                    "seed": self.spec.seed,
                    "quartile_convention": QUARTILE_CONVENTION,
                    "library_version": __version__,
                },
                fh,
                indent=2,
            )
            fh.write("\n")


def _run_trial(spec: ExperimentSpec, cell_index: int, trial: int, n: int, lam_dagger: float,
               workspace: threading.local) -> float:
    """The price of one sampled market, its corner checked first; above lambda_dagger + tol, SolverError. PWL: tol = 0,
    the price being 0 or a sampled rate, none above beta_1 (``pwl_beta_range``). Quadratic: the price (S_m - C)/S_b is
    exactly at most the corner's b_1*(m_1 - C/n), lambda_dagger up to the roundings of b_1 (``quadratic_b_range``)
    and C; with S_b >= 1/b_1 (agent one active), n-term sums erring n*eps: tol = 2(n + 4)*eps*(lambda_dagger +
    b_1*(sum m + C)). The thread's ``workspace`` holds the production and parameter columns, adopted uncopied."""
    if getattr(workspace, "n", None) != n:
        workspace.buffers, workspace.n = _buffers(n, 3), n
    a, *columns = workspace.buffers
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, cell_index, trial)))
    sample_production(n, rng, out=(a, columns[0]))  # drawn in a column before it is sampled
    capacity = float(np.sum(a))  # pairwise: the sampled bits depend on it
    if spec.family == "quadratic":
        first, second = sample_quadratic_params(n, capacity, lam_dagger, rng, out=columns)
        if not math.isfinite(float(first[0]) * float(second[0])):  # the corner's drop-out price m_1*b_1
            raise ValidationError([f"cell {cell_index}: lambda_dagger {lam_dagger!r} at n={n} puts the corner's "
                                   "drop-out price m_1*b_1 past the float range"])
        kind, check, solver = Quadratic, check_quadratic_set, solve_mtes_quadratic
        tol = 2 * (n + 4) * math.ulp(1.0) * (lam_dagger + float(first[0]) * (float(np.sum(second)) + capacity))
    else:
        first, second = sample_pwl_params(n, capacity, lam_dagger, rng, out=columns)
        kind, check, solver, tol = PiecewiseLinear, check_pwl_set, solve_mtes_pwl, 0.0
    if not check(float(first[0]), float(second[0]), n, capacity, lam_dagger).admissible:
        raise RuntimeError(f"sampled batch not admissible (cell {cell_index}, trial {trial})")
    lam = solver(MarketInstance._adopt(a, kind, first, second)).lambda_star
    if not lam <= lam_dagger + tol:
        raise SolverError(f"cell {cell_index}, trial {trial}: price {lam!r} above lambda_dagger {lam_dagger!r} + {tol:.3e}")
    return lam


def run_monte_carlo(spec: ExperimentSpec, out_dir: str | None = None, threads: int = 1) -> MonteCarloResult:
    """K trials per cell: sample, check admissibility, solve, summarize.

    Trials may run in parallel; aggregation orders by trial index so the
    output never depends on scheduling; each thread samples into its own
    workspace, freed when the run returns. ``out_dir`` is created before the
    first trial, with its artifact names, so an unusable one fails early.
    """
    if threads < 1:
        raise ValidationError([f"threads must be a positive integer, got {threads}"])
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for name in ("results.csv", "stats.csv", "metadata.json"):
            if os.path.isdir(path := os.path.join(out_dir, name)):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    cells, workspace = [], threading.local()
    # one pool for all cells; with one thread the trials run inline
    with ThreadPoolExecutor(max_workers=threads) as pool:
        trial_map = pool.map if threads > 1 else map
        for cell_index, (key, n, lam_dagger) in enumerate(spec.cells()):
            run = functools.partial(_run_trial, spec, cell_index, n=n, lam_dagger=lam_dagger, workspace=workspace)
            prices = list(trial_map(run, range(spec.trials)))
            cells.append(CellResult(key, n, lam_dagger, stats=box_stats(prices), prices=tuple(prices)))
    result = MonteCarloResult(spec=spec, cells=tuple(cells))
    if out_dir is not None:
        result.write(out_dir)
    return result


# ---------------------------------------------------------------------------
# Satiation sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    value: float  # satiation load applied to the swept agent
    lambda_star: float
    x_agent: float


def run_satiation_sweep(base: MarketInstance, agent: int = -1, values=None) -> list[SweepRow]:
    """Re-solve a quadratic instance while one agent's satiation load varies.

    Defaults sweep the last agent over the integer grid 5..30 (26 points),
    holding everything else fixed. ``agent`` indexes as a sequence does:
    -n <= agent < n, else ValidationError.
    """
    if base.preferences.kind is not Quadratic:
        raise ValidationError(["satiation sweep requires an all-quadratic instance"])
    if values is None:
        values = [float(v) for v in range(5, 31)]
    values = list(values)
    if not values:
        raise ValidationError(["sweep requires at least one value"])
    if not -base.n <= agent < base.n:
        raise ValidationError([f"agent {agent} out of range for {base.n} agents"])
    idx = agent % base.n
    b, m = base.preferences.columns
    rows = []
    for value in values:
        m_swept = m.copy()
        m_swept[idx] = float(value)
        swept = replace(base, preferences=PreferenceColumns(Quadratic, b, m_swept))
        result = solve_mtes_quadratic(swept)
        rows.append(SweepRow(float(value), result.lambda_star, result.x_star[idx]))
    return rows


def sweep_to_csv(rows: list[SweepRow], path: str) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m_agent", "lambda_star", "x_agent"])
        for row in rows:
            writer.writerow([repr(row.value), repr(row.lambda_star), repr(row.x_agent)])
