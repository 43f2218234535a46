"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from teshape import (
    CommGraph,
    ExperimentSpec,
    MarketInstance,
    ModelKind,
    PiecewiseLinear,
    PreferenceColumns,
    Quadratic,
    run_distributed,
    run_monte_carlo,
    run_satiation_sweep,
    solve,
    solve_mtes_generic,
    solve_mtes_pwl,
    solve_mtes_quadratic,
    verify_kkt,
)

from conftest import quartet_instance, random_pwl_instance, random_quadratic_instance


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    else:
        print(f"[criterion {num:02d}] {name}: PASS")


def best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_golden_quartet_under_1ms():
    with criterion(1, "four-agent golden values, solve < 1 ms"):
        inst = quartet_instance()
        result = solve_mtes_quadratic(inst)
        assert result.lambda_star == pytest.approx(1.765, abs=1e-3)
        for got, want in zip(result.x_star, (5.12, 4.65, 5.41, 4.82)):
            assert got == pytest.approx(want, abs=1e-2)
        elapsed = best_of(200, lambda: solve_mtes_quadratic(inst))
        assert elapsed < 1e-3, f"solve took {elapsed * 1e3:.3f} ms"


def test_criterion_2_satiation_sweep_ratio_under_10ms():
    with criterion(2, "satiation sweep ratio in [56, 58], 26 solves < 10 ms"):
        inst = quartet_instance()
        rows = run_satiation_sweep(inst)
        assert len(rows) == 26
        ratio = rows[-1].lambda_star / rows[0].lambda_star
        assert 56.0 <= ratio <= 58.0
        elapsed = best_of(20, lambda: run_satiation_sweep(inst))
        assert elapsed < 1e-2, f"sweep took {elapsed * 1e3:.3f} ms"


def test_criterion_3_quadratic_box_tightness():
    with criterion(3, "corner profile attains the threshold (100 random boxes)"):
        rng = np.random.default_rng(101)
        for _ in range(100):
            n = int(rng.integers(2, 200))
            capacity = float(rng.uniform(1.0, 1000.0))
            m_max = float(rng.uniform(1.01, 20.0)) * capacity / n
            threshold = float(rng.uniform(0.1, 50.0))
            b_max = n * threshold / (n * m_max - capacity)
            corner = MarketInstance(
                production=tuple([capacity / n] * n),
                preferences=tuple([Quadratic(b_max, m_max)] * n),
            )
            solved = solve_mtes_quadratic(corner)
            assert abs(solved.lambda_star - threshold) <= 1e-6


def test_criterion_4_monte_carlo_soundness_desk_scale():
    with criterion(4, "all sampled trials price at or below the threshold"):
        for family in ("quadratic", "pwl"):
            for n in (100, 1000):
                spec = ExperimentSpec(
                    family=family,
                    n=n,
                    trials=100,
                    lambda_dagger=(20.0, 30.0),
                    seed=2024,
                )
                result = run_monte_carlo(spec)
                for cell in result.cells:
                    assert len(cell.prices) == 100
                    assert all(p <= cell.lambda_dagger + 1e-9 for p in cell.prices)


def test_criterion_5_oracle_equivalence_1000_instances():
    with criterion(5, "closed form matches bisection on 1000 random instances"):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            inst = random_quadratic_instance(rng, n_max=50)
            closed = solve_mtes_quadratic(inst)
            bisected = solve_mtes_generic(inst)
            assert abs(closed.lambda_star - bisected.lambda_star) <= 1e-8
            gap = max(abs(c - g) for c, g in zip(closed.x_star, bisected.x_star))
            assert gap <= 1e-6


def test_criterion_6_price_sign_rules_1000_per_family_and_model():
    with criterion(6, "price sign tracks satiation/saturation totals, zero violations"):
        rng = np.random.default_rng(107)
        sides = {"q_le": 0, "q_gt": 0, "st_le": 0, "pwl_lt": 0, "pwl_gt": 0}
        for _ in range(1000):
            inst = random_quadratic_instance(rng)
            lam = solve_mtes_quadratic(inst).lambda_star
            if sum(inst.preferences.columns[1].tolist()) <= inst.capacity:
                assert lam <= 0
                sides["q_le"] += 1
            else:
                assert lam > 0
                sides["q_gt"] += 1
        for _ in range(1000):
            inst = random_quadratic_instance(rng, model=ModelKind.MTES_ST)
            lam = solve(inst).lambda_star
            if sum(inst.preferences.columns[1].tolist()) <= inst.capacity:
                assert lam == 0.0
                sides["st_le"] += 1
        for _ in range(1000):
            inst = random_pwl_instance(rng)
            lam = solve_mtes_pwl(inst).lambda_star
            total_phi = sum(inst.preferences.columns[1].tolist())
            if total_phi < inst.capacity:
                assert lam == 0.0
                sides["pwl_lt"] += 1
            elif total_phi > inst.capacity:
                assert lam > 0
                sides["pwl_gt"] += 1
        assert min(sides.values()) >= 50  # both sides genuinely exercised


def test_criterion_7_trading_reduction_on_500_positive_price_instances():
    with criterion(7, "positive-price trading equilibria copy the plain market"):
        rng = np.random.default_rng(109)
        seen = 0
        while seen < 500:
            if seen % 2 == 0:
                inst = random_quadratic_instance(rng, n_max=30)
                plain = solve_mtes_quadratic(inst)
            else:
                inst = random_pwl_instance(rng, n_max=30)
                plain = solve_mtes_pwl(inst)
            if plain.lambda_star <= 0:
                continue
            st = solve(replace(inst, model=ModelKind.MTES_ST))
            assert st.lambda_star == plain.lambda_star  # exact for closed forms
            assert st.x_star == plain.x_star
            assert abs(sum(st.e_star)) <= 1e-9
            for a, x, e in zip(inst.production, st.x_star, st.e_star):
                assert x + e <= a + 1e-9
            seen += 1


def test_criterion_8_consensus_agreement():
    with criterion(8, "flooding agrees bitwise; averaging tracks the price"):
        quartet = quartet_instance()
        central = solve(quartet)
        flood = run_distributed(quartet, CommGraph.complete(4), mode="flood")
        for result in flood.results:
            assert result.lambda_star == central.lambda_star
            assert result.x_star == central.x_star

        rng = np.random.default_rng(113)
        n = 10
        inst = MarketInstance(
            production=tuple(float(v) for v in rng.uniform(0, 10, n)),
            preferences=tuple(
                Quadratic(float(b), float(m))
                for b, m in zip(rng.uniform(0.5, 10, n), rng.uniform(0.5, 10, n))
            ),
        )
        reference = solve(inst)
        run = run_distributed(
            inst,
            CommGraph.path(n),
            rounds=50_000,
            mode="average",
            tol=1e-9 * inst.capacity,
        )
        assert run.trace.final_error <= 1e-8 * inst.capacity
        for result in run.results:
            assert abs(result.lambda_star - reference.lambda_star) <= 1e-6


def test_criterion_9_experiment_determinism(tmp_path):
    with criterion(9, "same seed reproduces byte-identical CSV artifacts"):
        spec = ExperimentSpec(
            family="quadratic", n=100, trials=50, lambda_dagger=(20.0, 30.0), seed=77
        )
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        run_monte_carlo(spec, out_dir=str(dir_a), threads=1)
        run_monte_carlo(spec, out_dir=str(dir_b), threads=4)
        for name in ("results.csv", "stats.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_criterion_10_kkt_across_solver_suites():
    with criterion(10, "every solver result verifies within 1e-6"):
        rng = np.random.default_rng(127)
        worst = 0.0

        def check(instance, result):
            nonlocal worst
            report = verify_kkt(instance, result)
            worst = max(worst, report.max_violation)
            assert report.max_violation <= 1e-6

        quartet = quartet_instance()
        check(quartet, solve_mtes_quadratic(quartet))
        check(quartet, solve_mtes_generic(quartet))
        st_quartet = replace(quartet, model=ModelKind.MTES_ST)
        check(st_quartet, solve(st_quartet))
        b, m = quartet.preferences.columns
        for row_inst in (replace(quartet, preferences=PreferenceColumns(Quadratic, b, [*m[:3].tolist(), 30.0])),):
            check(row_inst, solve_mtes_quadratic(row_inst))
        for _ in range(200):
            inst = random_quadratic_instance(rng, n_max=30)
            check(inst, solve_mtes_quadratic(inst))
            check(inst, solve_mtes_generic(inst))
            st = replace(inst, model=ModelKind.MTES_ST)
            check(st, solve(st))
        for _ in range(200):
            inst = random_pwl_instance(rng, n_max=30)
            check(inst, solve_mtes_pwl(inst))
            st = replace(inst, model=ModelKind.MTES_ST)
            check(st, solve(st))
        print(f"    worst observed violation: {worst:.3e}")
