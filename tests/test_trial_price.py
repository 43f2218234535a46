"""The Monte Carlo trial path.

* a solved result builds its ``x_star`` and ``e_star`` tuples when they are
  first read, and is then the result built from those tuples; a trial reads
  the price alone, behind the same self-check, so it builds none;
* a trial refuses a price above lambda-dagger + tol as a solver failure, and
  the corner trials at n = 1 and 2, which clear one ulp above or exactly at
  lambda-dagger, pass for both families;
* ``_half_open_uniform`` writes the draws of ``upper * (1 - U)`` in place,
  bit for bit;
* PWL cells whose rates are scaled to a threshold of 1e-12 or 1e-300 clear
  at or below it, and one near the float limit writes nothing to stderr;
* an instance's sequential total is summed once, by validation and
  ``capacity`` together, a block at a time and bit for bit a Python loop's;
* one n=100000 trial's traced allocation peak stays under a bound per
  family, so an n-sized temporary brought back onto the trial path fails.
"""

from __future__ import annotations

import copy
import functools
import json
import sys
import threading
import math
import operator
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from teshape import (
    Custom,
    EquilibriumResult,
    ExperimentSpec,
    MarketInstance,
    ModelKind,
    PiecewiseLinear,
    Quadratic,
    SolverError,
    model,
    run_monte_carlo,
    save_result,
    solve,
    solver,
    validate_instance,
)
from teshape import experiments
from teshape.cli import main

from conftest import quartet_instance, random_pwl_instance, random_quadratic_instance
from oracles import document


def _markets():
    rng = np.random.default_rng(41)
    yield quartet_instance()
    yield MarketInstance((20.0, 1.0), (Quadratic(1.0, 2.0), Quadratic(2.0, 3.0)))  # every agent active: a negative price
    yield MarketInstance((10.0, 0.0), (PiecewiseLinear(2.0, 3.0), PiecewiseLinear(1.0, 4.0)))  # zero price
    for _ in range(20):
        yield random_quadratic_instance(rng)
        yield random_pwl_instance(rng)
    log = Custom(lambda x: 4.0 * math.log1p(x), lambda x: 4.0 / (1.0 + x))
    yield MarketInstance((3.0, 1.0, 2.0), (Quadratic(1.0, 4.0), log, Quadratic(2.0, 1.0)))


def test_result_rows_become_tuples_on_first_read(tmp_path):
    for instance in [*_markets(), quartet_instance(ModelKind.MTES_ST)]:
        result = solve(instance)
        assert "x_star" not in vars(result) and "e_star" not in vars(result)
        eager = EquilibriumResult(result.lambda_star, tuple(result.x_star), result.e_star, result.method,
                                  result.balance_residual, result.kkt_max_violation, result.degenerate)
        assert isinstance(result.x_star, tuple) and result.x_star is result.x_star  # built once
        assert (result.e_star is None) is (instance.model is ModelKind.MTES)
        assert eager == result and hash(eager) == hash(result) and repr(eager) == repr(result)
        assert pickle.loads(pickle.dumps(solve(instance))) == result == replace(solve(instance))
        if not instance.preferences.others:  # a Custom agent has no file form
            save_result(instance, solve(instance), str(tmp_path / "lazy.json"))
            save_result(instance, eager, str(tmp_path / "eager.json"))
            expected = json.dumps(document(instance, eager), indent=2) + "\n"
            assert (tmp_path / "lazy.json").read_text() == (tmp_path / "eager.json").read_text() == expected
    with pytest.raises(AttributeError, match="'EquilibriumResult' object has no attribute 'x'"):
        result.x


@pytest.mark.parametrize("kind", [Quadratic, PiecewiseLinear])
def test_planted_kkt_violation_fails_the_trial(kind, monkeypatch):
    def nudged(instance, clear=solver._clear_kinks):
        clearing = clear(instance)
        return clearing._replace(x=clearing.x * (1.0 + 1e-6))

    monkeypatch.setattr(solver, "_clear_kinks", nudged)
    family = "quadratic" if kind is Quadratic else "pwl"
    with pytest.raises(SolverError, match="^KKT violation"):
        run_monte_carlo(ExperimentSpec(family, n=200, trials=2, lambda_dagger=20.0, seed=3))


@pytest.mark.parametrize("family, name", [("quadratic", "solve_mtes_quadratic"), ("pwl", "solve_mtes_pwl")])
def test_trials_build_no_tuples_and_price_as_solve(family, name, monkeypatch):
    solved = []

    def recorded(instance, clear=getattr(experiments, name)):  # a copy: the next trial samples into its arrays
        solved.append((copy.deepcopy(instance), clear(instance)))
        return solved[-1][1]

    spec = ExperimentSpec(family, n=500, trials=4, lambda_dagger=(0.01, 17.5, 1e6), seed=8)
    monkeypatch.setattr(experiments, name, recorded)
    prices = [price for cell in run_monte_carlo(spec).cells for price in cell.prices]
    assert len(solved) == 12 and all(vars(result).keys().isdisjoint({"x_star", "e_star"}) for _, result in solved)
    assert [solve(instance).lambda_star.hex() for instance, _ in solved] == [price.hex() for price in prices]


def _priced(lam: float):
    def solved(instance):
        return replace(solve(instance), lambda_star=lam)

    return solved


@pytest.mark.parametrize("above", [1e3, 1e-9], ids=["far", "near"])
def test_price_above_lambda_dagger_exits_3(above, tmp_path, monkeypatch, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"family": "quadratic", "n": 50, "trials": 3, "lambda_dagger": 20.0, "seed": 4}')
    monkeypatch.setattr(experiments, "solve_mtes_quadratic", _priced(20.0 * (1.0 + above)))
    code = main(["experiment", str(spec), "--out", str(tmp_path / "out"), "--threads", "1"])
    out, err = capsys.readouterr()
    assert (code, out, err.count("\n")) == (3, "", 1)
    assert err.startswith(f"solver failure: cell 0, trial 0: price {20.0 * (1.0 + above)!r} above lambda_dagger 20.0 + ")
    assert not (tmp_path / "out" / "results.csv").exists()


def test_price_at_lambda_dagger_passes(monkeypatch):
    # the gate is not strict: a corner market may clear exactly at the threshold
    monkeypatch.setattr(experiments, "solve_mtes_quadratic", _priced(20.0))
    result = run_monte_carlo(ExperimentSpec("quadratic", n=50, trials=2, lambda_dagger=20.0, seed=4))
    assert result.cells[0].prices == (20.0, 20.0)


@pytest.mark.parametrize("family", ["quadratic", "pwl"])
def test_corner_trials_pass(family):
    # n = 1 clears at lambda-dagger up to an ulp (above it in some quadratic
    # trials); n = 2 PWL trials clear exactly at it when agent one's rate binds
    for lam in (0.01, 15.0, 1e6):
        spec = ExperimentSpec(family, n=1, trials=100, lambda_dagger=lam, seed=6, scale_list=(1, 2))
        one, two = (np.array(cell.prices) for cell in run_monte_carlo(spec).cells)
        assert np.all(np.abs(one - lam) <= 4 * np.spacing(lam))
        assert np.all(two <= lam)
        if family == "pwl":
            assert np.any(two == lam)


@pytest.mark.parametrize("lambda_dagger", [1e-12, 1e-300, 1.7e308])
def test_pwl_cells_at_extreme_thresholds_pass(lambda_dagger, tmp_path, capsys):
    # rates scaled to a tiny threshold clear at the rates, not at a zero price; near the float
    # limit the outlier fences overflow to inf quietly (warnings are raised as errors here)
    spec = ExperimentSpec("pwl", n=50, trials=20, lambda_dagger=lambda_dagger, seed=3)
    prices = run_monte_carlo(spec).cells[0].prices
    assert 0.0 < max(prices) <= lambda_dagger
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"family": "pwl", "n": 50, "trials": 20, "lambda_dagger": lambda_dagger, "seed": 3}))
    code = main(["experiment", str(spec_path), "--out", str(tmp_path / "out"), "--threads", "1"])
    assert (code, capsys.readouterr().err) == (0, "")


@pytest.mark.parametrize("seed", [0, 1, 2, 99])
@pytest.mark.parametrize("n", [1, 2, 7, 1000])
def test_half_open_uniform_in_place_bits(seed, n):
    upper = 3.7 * (seed + 1)
    column = np.full(n, upper)
    rng = np.random.default_rng(seed)
    experiments._half_open_uniform(upper, column[1:], rng)
    expected = upper * (1.0 - np.random.default_rng(seed).random(n - 1))
    assert column[1:].tobytes() == expected.tobytes()
    assert column[0] == upper and rng.random() == np.random.default_rng(seed).random(n)[-1]


def test_validation_and_capacity_sum_once(monkeypatch):
    calls = []
    monkeypatch.setattr(model, "_sequential_sum", lambda values: calls.append(len(values)) or math.fsum(values))
    instance = MarketInstance((1.0, 2.0, 3.0), (Quadratic(1.0, 4.0),) * 3)
    assert validate_instance(instance).ok and instance.capacity == 6.0
    assert calls == [3]
    inf = MarketInstance((1.0, math.inf, 3.0), (Quadratic(1.0, 4.0),) * 3)  # the finite a_i summed apart
    assert validate_instance(inf).violations == ("agent 1: a must be finite",)
    assert calls == [3, 2]


def _sums():
    rng = np.random.default_rng(12)
    n = 3 * model._SUM_BLOCK + 5  # blocks past the first carry the running total in
    cancel = np.tile([1e16, 1.0, -1e16, 0.5], n // 4) * rng.random(n - n % 4)
    yield "cancellation", cancel
    yield "overflow to inf", np.concatenate([np.full(model._SUM_BLOCK - 1, 1e307), np.full(40, -1e308), rng.random(n)])
    with_nan = rng.normal(size=n)
    with_nan[model._SUM_BLOCK + 3] = math.nan
    yield "nan", with_nan
    yield "negative zeros", np.full(model._SUM_BLOCK + 1, -0.0)
    yield "one block", rng.normal(size=7)


@pytest.mark.parametrize("values", [pytest.param(values, id=name) for name, values in _sums()])
def test_sequential_sum_is_a_left_to_right_loop(values):
    # the loop, not the builtin sum, which compensates from Python 3.12 on
    expected = functools.reduce(operator.add, values.tolist())
    with np.errstate(over="ignore"):  # as validation calls it
        got, whole = model._sequential_sum(values), float(np.cumsum(values)[-1])
    if math.isnan(expected):
        assert math.isnan(got) and math.isnan(whole)
    else:
        assert got.hex() == expected.hex() == whole.hex()
    assert model._sequential_sum(values[:0]) == 0.0


@pytest.mark.parametrize("family, bound_mb", [("quadratic", 3.8), ("pwl", 4.6)])
def test_trial_allocation_peak(family, bound_mb):
    # measured 2.9 and 3.7 MB past the workspace, each bound 0.9 MB above; a trial that allocates its samples
    # and copies them into its instance again reads 5.1 and 6.1 MB
    spec = ExperimentSpec(family, n=100_000, trials=2, lambda_dagger=15.0, seed=7)
    workspace = threading.local()
    experiments._run_trial(spec, 0, 0, n=100_000, lam_dagger=15.0, workspace=workspace)  # set-up outside the trace
    tracemalloc.start()
    try:
        experiments._run_trial(spec, 0, 1, n=100_000, lam_dagger=15.0, workspace=workspace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 1e6


@pytest.mark.parametrize("threads", [1, 3])
def test_workspace_is_freed_when_the_run_returns(threads):
    # three threads on two cores, switching often: each samples into its own buffers, every price as one
    # thread's, and no buffer outlives the run (each column is 160 kB; caches grow by a few kB)
    spec = ExperimentSpec("pwl", n=20_000, trials=6, lambda_dagger=(15.0, 1e6), seed=2)
    run_monte_carlo(replace(spec, n=10_000))  # lazy set-up outside the trace, at another n
    interval = sys.getswitchinterval()
    tracemalloc.start()
    try:
        sys.setswitchinterval(1e-5)
        baseline = tracemalloc.get_traced_memory()[0]
        got = run_monte_carlo(spec, threads=threads)
        prices = [cell.prices for cell in got.cells]
        del got
        assert tracemalloc.get_traced_memory()[0] <= baseline + 32_000
    finally:
        tracemalloc.stop()
        sys.setswitchinterval(interval)
    assert prices == [cell.prices for cell in run_monte_carlo(spec).cells]


@pytest.mark.parametrize("family, name", [("quadratic", "solve_mtes_quadratic"), ("pwl", "solve_mtes_pwl")])
def test_trial_instances_adopt_read_only_views_of_one_workspace(family, name, monkeypatch):
    arrays = []

    def recorded(instance, clear=getattr(experiments, name)):
        held = [instance.production, *instance.preferences.columns, instance.preferences.codes]
        assert not any(a.flags.writeable for a in held)
        with pytest.raises(ValueError, match="read-only"):
            instance.production[0] = 1.0
        arrays.append(held)
        return clear(instance)

    monkeypatch.setattr(experiments, name, recorded)
    run_monte_carlo(ExperimentSpec(family, n=300, trials=3, lambda_dagger=15.0, seed=4))
    assert len(arrays) == 3
    for first, later in zip(arrays[0][:3], arrays[2][:3]):  # every trial samples into the same buffers
        assert np.shares_memory(first, later)
