from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import teshape
from teshape import (
    EmptyInput,
    ExperimentSpec,
    MarketInstance,
    Quadratic,
    ValidationError,
    box_stats,
    check_pwl_set,
    check_quadratic_set,
    run_monte_carlo,
    run_satiation_sweep,
    sample_production,
    sample_pwl_params,
    sample_quadratic_params,
    solve,
)

from conftest import quartet_instance
from oracles import box_summary


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_production_samples_in_range():
    rng = np.random.default_rng(71)
    a = sample_production(5000, rng)
    assert np.all(a >= 0.0) and np.all(a <= 10.0)


def test_production_sampling_deterministic():
    a1 = sample_production(100, np.random.default_rng(1234))
    a2 = sample_production(100, np.random.default_rng(1234))
    assert np.array_equal(a1, a2)
    with pytest.raises(ValidationError, match="^n >= 1 required$"):
        sample_production(0, np.random.default_rng(1234))


def test_production_mean_close_to_center():
    # truncation at +-4 sd barely shifts the mean off 5
    rng = np.random.default_rng(73)
    a = sample_production(100_000, rng)
    assert 4.95 <= float(a.mean()) <= 5.05


def test_quadratic_batch_pins_admissibility_boundary():
    rng = np.random.default_rng(79)
    n, lam_dagger = 50, 20.0
    a = sample_production(n, rng)
    capacity = float(a.sum())
    b, m = sample_quadratic_params(n, capacity, lam_dagger, rng)
    assert np.all(b > 0) and np.all(m > 0)
    assert np.all(b <= b[0]) and np.all(m <= m[0])
    # the corner curvature satisfies the backed-out boundary formula
    assert b[0] == pytest.approx(n * lam_dagger / (n * m[0] - capacity), rel=1e-12)
    verdict = check_quadratic_set(b[0], m[0], n, capacity, lam_dagger)
    assert verdict.admissible


def test_quadratic_corner_formula_at_double_share():
    # m1 at twice the capacity share makes the boundary curvature n*t/C
    n, capacity, lam_dagger = 10, 30.0, 20.0
    m1 = 2.0 * capacity / n
    b1 = n * lam_dagger / (n * m1 - capacity)
    assert b1 == pytest.approx(n * lam_dagger / capacity, rel=1e-12)


def test_sampled_batches_build_valid_instances():
    from teshape import PiecewiseLinear, PreferenceColumns, validate_instance

    rng = np.random.default_rng(97)
    n, lam_dagger = 30, 20.0
    a = sample_production(n, rng)
    capacity = float(a.sum())
    b, m = sample_quadratic_params(n, capacity, lam_dagger, rng)
    quad = MarketInstance(
        production=tuple(a.tolist()),
        preferences=tuple(map(Quadratic, b.tolist(), m.tolist())),
    )
    assert validate_instance(quad).ok
    beta, phi = sample_pwl_params(n, capacity, lam_dagger, rng)
    pwl = MarketInstance(
        production=tuple(a.tolist()),
        preferences=tuple(map(PiecewiseLinear, beta.tolist(), phi.tolist())),
    )
    assert validate_instance(pwl).ok
    # any single-field corruption flips the verdict
    for bad in (
        MarketInstance(quad.production, PreferenceColumns(Quadratic, [0.0, *b[1:]], m)),
        MarketInstance(pwl.production, PreferenceColumns(PiecewiseLinear, beta, [-1.0, *phi[1:]])),
        MarketInstance((-1.0, *quad.production[1:]), quad.preferences),
    ):
        assert not validate_instance(bad).ok


def test_pwl_batch_admissible_with_rate_at_threshold():
    rng = np.random.default_rng(83)
    n, lam_dagger = 50, 20.0
    a = sample_production(n, rng)
    capacity = float(a.sum())
    beta, phi = sample_pwl_params(n, capacity, lam_dagger, rng)
    assert beta[0] == lam_dagger
    share = capacity / n
    assert share <= phi[0] <= 10 * share
    assert np.all(beta > 0) and np.all(phi > 0)
    verdict = check_pwl_set(beta[0], phi[0], n, capacity, lam_dagger)
    assert verdict.admissible


# ---------------------------------------------------------------------------
# Box statistics
# ---------------------------------------------------------------------------


def test_box_stats_flags_far_point_as_outlier():
    values = [1.0, 2.0, 3.0, 4.0, 100.0]
    oracle = box_summary(values)
    stats = box_stats(values)
    assert stats.outliers == (100.0,)
    assert stats.q25 == oracle["q25"] == 2.0
    assert stats.q75 == oracle["q75"] == 4.0
    assert stats.whisker_low == oracle["whisker_low"] == 1.0
    assert stats.whisker_high == oracle["whisker_high"] == 4.0


def test_box_stats_constant_list():
    stats = box_stats([3.5] * 12)
    assert stats.median == stats.q25 == stats.q75 == 3.5
    assert stats.whisker_low == stats.whisker_high == 3.5
    assert stats.outliers == ()


def test_box_stats_linear_interpolation_convention():
    values = [float(v) for v in range(1, 9)]
    oracle = box_summary(values)
    stats = box_stats(values)
    assert stats.median == oracle["median"] == 4.5
    assert stats.q25 == oracle["q25"] == 2.75
    assert stats.q75 == oracle["q75"] == 6.25


def test_box_stats_matches_oracle_on_random_data():
    rng = np.random.default_rng(89)
    for _ in range(50):
        values = list(rng.normal(0, 1, size=int(rng.integers(1, 60))))
        oracle = box_summary(values)
        stats = box_stats(values)
        assert stats.median == pytest.approx(oracle["median"], abs=1e-12)
        assert stats.q25 == pytest.approx(oracle["q25"], abs=1e-12)
        assert stats.q75 == pytest.approx(oracle["q75"], abs=1e-12)
        assert stats.whisker_low == oracle["whisker_low"]
        assert stats.whisker_high == oracle["whisker_high"]
        assert list(stats.outliers) == pytest.approx(oracle["outliers"])


def test_box_stats_empty_input():
    with pytest.raises(EmptyInput):
        box_stats([])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NumPy's percentile on inf
@pytest.mark.parametrize("values", [[math.nan, 1.0, 2.0], [math.nan], [1.0, math.inf]])
def test_box_stats_non_finite_input_raises_empty_input(values):
    with pytest.raises(EmptyInput, match="not finite"):
        box_stats(values)


def test_box_stats_non_finite_input_raises_empty_input_under_optimize():
    # the check must not be an assert, which ``python -O`` strips
    src = os.path.dirname(os.path.dirname(teshape.__file__))
    code = (
        "from teshape.experiments import EmptyInput, box_stats\n"
        "try:\n    box_stats([float('nan'), 1.0])\nexcept EmptyInput:\n    print('EmptyInput')\n"
    )
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.stdout.strip() == "EmptyInput", done.stderr


def test_box_stats_fences_past_the_float_limit():
    # q75 + 1.5 * IQR overflows: the fence is inf and excludes nothing, with no warning (raised as errors here)
    stats = box_stats([0.0, 1.7e308])
    assert (stats.whisker_low, stats.whisker_high, stats.outliers) == (0.0, 1.7e308, ())


def test_box_stats_single_value():
    stats = box_stats([7.0])
    assert (
        stats.median
        == stats.q25
        == stats.q75
        == stats.whisker_low
        == stats.whisker_high
        == 7.0
    )


# ---------------------------------------------------------------------------
# Monte Carlo batches
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValidationError):
        ExperimentSpec(family="cubic", n=10, trials=5, lambda_dagger=20.0, seed=1)
    with pytest.raises(ValidationError):
        ExperimentSpec(family="quadratic", n=0, trials=5, lambda_dagger=20.0, seed=1)
    with pytest.raises(ValidationError):
        ExperimentSpec(family="quadratic", n=10, trials=5, lambda_dagger=-1.0, seed=1)
    with pytest.raises(ValidationError):
        ExperimentSpec(
            family="quadratic", n=10, trials=5, lambda_dagger=(20.0, 22.0), seed=1,
            scale_list=(10, 20),
        )
    for lambda_dagger, scale_list in [((15.0, 15.000001), None), (15.0, (10, 20, 10))]:
        with pytest.raises(ValidationError, match="two cells share the key"):
            ExperimentSpec(family="pwl", n=10, trials=5, lambda_dagger=lambda_dagger, seed=1, scale_list=scale_list)


def test_spec_given_lists_holds_tuples():
    # lists, as JSON gives them, are held as tuples: the spec validates, hashes and round-trips
    spec = ExperimentSpec(family="quadratic", n=10, trials=2, lambda_dagger=[17.5, 22.0], seed=1)
    assert spec.lambda_dagger == spec.thresholds == (17.5, 22.0)
    assert spec == ExperimentSpec.from_dict(spec.to_dict()) and hash(spec) == hash(ExperimentSpec.from_dict(spec.to_dict()))
    scale = ExperimentSpec(family="pwl", n=10, trials=2, lambda_dagger=20.0, seed=1, scale_list=[10, 20])
    assert scale.scale_list == (10, 20) and [key for key, _, _ in scale.cells()] == ["n=10", "n=20"]
    with pytest.raises(ValidationError, match="two cells share the key"):
        ExperimentSpec(family="pwl", n=10, trials=5, lambda_dagger=[15.0, 15.000001], seed=1)
    # an empty list, which would run no cell, is refused whether given directly or read from JSON
    for name, fields in [("lambda_dagger", {"lambda_dagger": []}), ("scale_list", {"lambda_dagger": 20.0, "scale_list": []})]:
        with pytest.raises(ValidationError, match=f"^{name} must be a non-empty list$"):
            ExperimentSpec(family="pwl", n=10, trials=5, seed=1, **fields)
        with pytest.raises(ValidationError, match=f"^{name} must be a non-empty list$"):
            ExperimentSpec.from_dict({"family": "pwl", "n": 10, "trials": 5, "seed": 1, **fields})
    with pytest.raises(ValidationError, match="^lambda_dagger must be a non-empty list$"):
        ExperimentSpec(family="pwl", n=10, trials=5, lambda_dagger=(), seed=1)


def test_spec_json_round_trip(tmp_path):
    spec = ExperimentSpec(
        family="pwl", n=100, trials=10, lambda_dagger=(20.0, 30.0), seed=99
    )
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    assert ExperimentSpec.load(str(path)) == spec


def test_threshold_cells_prices_below_threshold():
    spec = ExperimentSpec(
        family="quadratic", n=50, trials=25, lambda_dagger=(20.0, 30.0), seed=7
    )
    result = run_monte_carlo(spec)
    assert [c.key for c in result.cells] == ["lambda_dagger=20", "lambda_dagger=30"]
    for cell in result.cells:
        assert len(cell.prices) == 25
        assert all(p <= cell.lambda_dagger + 1e-9 for p in cell.prices)


def test_scale_cells():
    spec = ExperimentSpec(
        family="pwl", n=10, trials=10, lambda_dagger=20.0, seed=11, scale_list=(20, 40)
    )
    result = run_monte_carlo(spec)
    assert [c.key for c in result.cells] == ["n=20", "n=40"]
    for cell in result.cells:
        assert all(p <= 20.0 + 1e-9 for p in cell.prices)


def test_single_trial_stats_collapse():
    spec = ExperimentSpec(family="quadratic", n=20, trials=1, lambda_dagger=25.0, seed=3)
    result = run_monte_carlo(spec)
    (cell,) = result.cells
    (price,) = cell.prices
    s = cell.stats
    assert s.median == s.q25 == s.q75 == s.whisker_low == s.whisker_high == price
    assert s.outliers == ()


def test_csv_artifacts_deterministic(tmp_path):
    spec = ExperimentSpec(family="quadratic", n=30, trials=8, lambda_dagger=20.0, seed=21)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run_monte_carlo(spec, out_dir=str(dir_a))
    run_monte_carlo(spec, out_dir=str(dir_b))
    for name in ("results.csv", "stats.csv", "metadata.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_threads_do_not_change_output():
    spec = ExperimentSpec(family="pwl", n=40, trials=12, lambda_dagger=24.0, seed=31)
    serial = run_monte_carlo(spec, threads=1)
    parallel = run_monte_carlo(spec, threads=4)
    assert serial == parallel


def test_results_csv_layout(tmp_path):
    spec = ExperimentSpec(family="quadratic", n=10, trials=3, lambda_dagger=20.0, seed=5)
    run_monte_carlo(spec, out_dir=str(tmp_path))
    lines = (tmp_path / "results.csv").read_text().strip().splitlines()
    assert lines[0] == "cell_key,trial,seed,lambda_star"
    assert len(lines) == 1 + 3
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["quartile_convention"].startswith("linear interpolation")
    assert meta["spec"]["seed"] == 5


# ---------------------------------------------------------------------------
# Satiation sweep
# ---------------------------------------------------------------------------


def test_sweep_grid_and_endpoints(quartet):
    rows = run_satiation_sweep(quartet)
    assert len(rows) == 26
    assert rows[0].value == 5.0 and rows[-1].value == 30.0
    assert rows[0].lambda_star == pytest.approx(1.765, abs=1e-3)
    assert rows[-1].lambda_star == pytest.approx(100.0, abs=1e-9)
    assert rows[-1].x_agent == pytest.approx(20.0, abs=1e-9)  # swept agent takes all
    ratio = rows[-1].lambda_star / rows[0].lambda_star
    assert 56.0 <= ratio <= 58.0


def test_sweep_price_monotone_in_satiation(quartet):
    rows = run_satiation_sweep(quartet)
    for prev, cur in zip(rows, rows[1:]):
        assert cur.lambda_star >= prev.lambda_star - 1e-12


def test_sweep_requires_quadratic():
    from teshape import PiecewiseLinear

    inst = MarketInstance((1.0,), (PiecewiseLinear(1, 1),))
    with pytest.raises(ValidationError):
        run_satiation_sweep(inst)


def test_sweep_requires_a_value(quartet):
    with pytest.raises(ValidationError, match="^sweep requires at least one value$"):
        run_satiation_sweep(quartet, values=[])


def test_sweep_agent_indexes_as_a_sequence(quartet):
    def sweep(agent):
        return run_satiation_sweep(quartet, agent=agent, values=[5.0, 9.0])

    assert sweep(-4) == sweep(0) != sweep(3) == sweep(-1)


def test_sweep_other_parameters_held_fixed(quartet):
    rows = run_satiation_sweep(quartet, values=[5.0])
    base = quartet_instance()
    assert rows[0].lambda_star == pytest.approx(solve(base).lambda_star, abs=1e-12)
