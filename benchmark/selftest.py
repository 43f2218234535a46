"""Self-tests of the benchmark, at small sizes.

    python3 benchmark/selftest.py

Checks that each oracle agrees with the library on small instances, that a
planted wrong answer makes ``ok_frac`` drop below 1 on every workload, and
that a changed workload seed changes the inputs but not the metric names,
which must be the ones ``BENCHMARK.json`` lists, with its units. Exits 1 if
any test fails.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import sys
import traceback
from dataclasses import replace
from unittest import mock

import numpy as np

import oracles
import run
import worker
import workloads

sys.path.insert(0, os.path.join(run.ROOT, "src"))
import teshape  # noqa: E402
import teshape.cli  # noqa: E402

SMALL = {
    "experiment_quad": {"n": 2000, "trials": 4},
    "solve_file_pwl_st": {"n": 3000},
    "solve_mixed_custom": {"n": 400},
    "consensus_session": {"flood_n": 16, "average_n": 30, "rounds": 300},
}


def _workdir(tag: str) -> str:
    path = os.path.join(run.WORK, f"selftest-{tag}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _nudged(fn):
    """Wrap a solver so its price is off by 1e-6 * max(1, |lambda*|)."""

    def wrong(*args, **kwargs):
        result = fn(*args, **kwargs)
        lam = result.lambda_star
        return replace(result, lambda_star=lam + 1e-6 * max(1.0, abs(lam)))

    return wrong


def _above_threshold(fn):
    """Wrap a solver so its price lands far above any lambda-dagger sampled."""

    def wrong(*args, **kwargs):
        result = fn(*args, **kwargs)
        return replace(result, lambda_star=1e3 * max(1.0, abs(result.lambda_star)))

    return wrong


def _nudged_quartile(fn):
    def wrong(values):
        stats = fn(values)
        return replace(stats, q25=stats.q25 + 1e-6 * max(1.0, abs(stats.q25)))

    return wrong


# workload -> planted faults as (module, attribute, wrapper factory)
FAULTS = {
    "experiment_quad": [
        (teshape.experiments, "solve_mtes_quadratic", _above_threshold),
        (teshape.experiments, "box_stats", _nudged_quartile),
    ],
    "solve_file_pwl_st": [(teshape.cli, "solve", _nudged)],
    "solve_mixed_custom": [(teshape, "solve", _nudged)],
    "consensus_session": [(teshape.consensus, "solve", _nudged)],
}


def _ok_frac(workdir: str, ops: int = 2) -> tuple[float, str | None]:
    """ok_frac over ``ops`` ops, and the first failure reason."""
    workload = workloads.load(workdir)
    workload.setup(teshape)
    records = []
    for _ in range(ops):  # a zero-second window runs exactly one op
        records += worker.measure(workload, 0.0)
    errors = [r["error"] for r in records if r["error"] is not None]
    return run.end_to_end(records, [1.0], 1)["ok_frac"][0], (errors or [None])[0]


def test_quadratic_oracle_matches_solver():
    rng = np.random.default_rng(7)
    for n in (1, 5, 200):
        b = rng.uniform(0.2, 3.0, n)
        m = rng.uniform(1.0, 10.0, n)
        b[: n // 2], m[: n // 2] = 2.0, 4.0  # tied drop-out prices
        for capacity in (0.5 * m.sum(), 0.95 * m.sum(), 1.5 * m.sum()):
            market = teshape.MarketInstance(
                production=(capacity,) + (0.0,) * (n - 1),
                preferences=tuple(map(teshape.Quadratic, b.tolist(), m.tolist())),
            )
            got = teshape.solve(market).lambda_star
            want = float(oracles.quadratic_prices(b, m, capacity)[0])
            assert oracles.close(got, want), (n, capacity, got, want)


def test_pwl_oracle_matches_solver():
    rng = np.random.default_rng(8)
    for n in (1, 7, 500):
        a = rng.uniform(0.0, 10.0, n)
        beta = np.round(rng.uniform(1.0, 5.0, n), 1)  # many ties
        phi = rng.uniform(1.0, 20.0, n)
        market = teshape.MarketInstance(
            production=tuple(a.tolist()),
            preferences=tuple(map(teshape.PiecewiseLinear, beta.tolist(), phi.tolist())),
            model=teshape.ModelKind.MTES_ST,
        )
        result = teshape.solve(market)
        capacity = float(np.sum(a))
        want = oracles.pwl_price(beta, phi, capacity)
        assert oracles.close(result.lambda_star, want), (n, result.lambda_star, want)
        if want > 0:
            x = oracles.pwl_allocation(beta, phi, capacity, want)
            assert np.allclose(result.x_star, x, rtol=0, atol=oracles.balance_tol(capacity))


def test_mixed_oracle_matches_solver():
    rng = np.random.default_rng(9)
    n = 300
    custom = np.arange(n) % 20 == 0
    a, b, m, w = (rng.uniform(1.0, 9.0, n), rng.uniform(0.5, 2.0, n),
                  rng.uniform(5.0, 15.0, n), rng.uniform(2.0, 20.0, n))
    prefs = tuple(
        teshape.Custom(functools.partial(workloads.log_value, wi), functools.partial(workloads.log_deriv, wi))
        if c else teshape.Quadratic(bi, mi)
        for c, bi, mi, wi in zip(custom, b.tolist(), m.tolist(), w.tolist())
    )
    result = teshape.solve(teshape.MarketInstance(tuple(a.tolist()), prefs))
    want = oracles.mixed_price(b[~custom], m[~custom], w[custom], float(np.sum(a)))
    assert oracles.close(result.lambda_star, want), (result.lambda_star, want)
    br_quad, br_log = oracles.mixed_best_response(result.lambda_star, b[~custom], m[~custom], w[custom])
    x = np.asarray(result.x_star)
    assert np.allclose(x[~custom], br_quad, rtol=oracles.REL_TOL, atol=oracles.REL_TOL)
    assert np.allclose(x[custom], br_log, rtol=oracles.REL_TOL, atol=oracles.REL_TOL)


def test_box_summary_matches_library():
    rng = np.random.default_rng(10)
    for size in (1, 2, 4, 9, 100):
        values = rng.normal(10.0, 3.0, size).tolist() + [40.0] * (size > 4)
        stats = teshape.box_stats(values)
        want = oracles.box_summary(values)
        got = {"median": stats.median, "q25": stats.q25, "q75": stats.q75,
               "wlo": stats.whisker_low, "whi": stats.whisker_high, "n_outliers": len(stats.outliers)}
        for key in want:
            assert oracles.close(got[key], want[key]), (size, key, got[key], want[key])


def test_clean_runs_pass_and_planted_faults_fail():
    for name, faults in FAULTS.items():
        workdir = _workdir(name)
        try:
            workloads.generate(name, 1, workdir, SMALL[name])
            frac, error = _ok_frac(workdir)
            assert frac == 1.0, f"{name}: clean run failed a check: {error}"
            for module, attr, plant in faults:
                with mock.patch.object(module, attr, plant(getattr(module, attr))):
                    frac, error = _ok_frac(workdir)
                assert frac < 1.0, f"{name}: planted {plant.__name__} in {attr} went unnoticed"
                print(f"  {name}, {plant.__name__} in {attr}: ok_frac={frac} ({error})")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def _input_digest(workdir: str) -> str:
    """Hash of the generated inputs; the arrays by content, since the .npz
    archive stamps its members with the time of writing."""
    digest = hashlib.sha256()
    for entry in sorted(os.listdir(workdir)):
        if entry == "arrays.npz":
            with np.load(os.path.join(workdir, entry)) as data:
                for key in sorted(data.files):
                    digest.update(key.encode() + data[key].tobytes())
        elif entry != "manifest.json":
            with open(os.path.join(workdir, entry), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def test_seed_changes_inputs_not_metric_names():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        digests = []
        for seed in (1, 1, 2):
            workdir = _workdir(f"{name}-{len(digests)}")
            try:
                workloads.generate(name, seed, workdir, SMALL[name])
                digests.append(_input_digest(workdir))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        assert digests[0] == digests[1], f"{name}: same seed, different inputs"
        assert digests[0] != digests[2], f"{name}: new seed, same inputs"
        for seed, trace, names in ((1, False, end_to_end), (2, False, end_to_end), (1, True, per_layer)):
            _, result = run.run(name, seed, 0.2, trace, SMALL[name])
            assert result["correct"], f"{name} seed {seed}: {result}"
            units = {metric: value["unit"] for metric, value in result["metrics"].items()}
            assert units == names, (name, trace, set(units.items()) ^ set(names.items()))


def main() -> int:
    tests = [(key, fn) for key, fn in globals().items() if key.startswith("test_")]
    failures = 0
    for key, fn in tests:
        try:
            fn()
            print(f"PASS {key}")
        except Exception:  # noqa: BLE001 - report every test
            failures += 1
            print(f"FAIL {key}\n{traceback.format_exc()}")
    print(f"{len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
