"""The in-place samplers against the allocating draws they replace, bit for bit.

``sample_production`` draws standard normals into a buffer, scales them in
place to normal(5, 1.25) and copies the runs kept between rejected draws;
the parameter samplers write agent one's corner and ``upper * (1 - U)``
into the columns given. Each must equal the allocating draws kept here
(``rng.normal`` rejected by mask, ``np.full`` filled by ``rng.random``)
bit for bit and leave its generator in the same state: with and without
buffers, with the draws made in a buffer that a parameter column then
reuses, as a trial does, and with the production range patched narrow so
that most draws are rejected and redrawn.
"""

from __future__ import annotations

import numpy as np
import pytest

from teshape import experiments
from teshape.experiments import sample_production, sample_pwl_params, sample_quadratic_params


def reference_production(n: int, rng: np.random.Generator) -> np.ndarray:
    lo, hi = experiments.PRODUCTION_RANGE
    out, filled = np.empty(n), 0
    while filled < n:
        draw = rng.normal(experiments.PRODUCTION_MEAN, experiments.PRODUCTION_SD, size=n - filled)
        keep = (draw >= lo) & (draw <= hi)
        out[filled : filled + np.count_nonzero(keep)] = draw[keep]
        filled += np.count_nonzero(keep)
    return out


def reference_quadratic(n: int, capacity: float, lambda_dagger: float, rng: np.random.Generator):
    share = capacity / n
    m1 = rng.uniform(share, 100.0 * share)
    while m1 <= share:
        m1 = rng.uniform(share, 100.0 * share)
    b1 = n * lambda_dagger / (n * m1 - capacity)
    b, m = np.full(n, b1), np.full(n, m1)
    b[1:] = b1 * (1.0 - rng.random(n - 1))
    m[1:] = m1 * (1.0 - rng.random(n - 1))
    return b, m


def reference_pwl(n: int, capacity: float, lambda_dagger: float, rng: np.random.Generator):
    share = capacity / n
    lo, hi = share, 10.0 * share
    phi1 = rng.normal(0.5 * (lo + hi), 0.25 * (hi - lo))
    while not (lo <= phi1 <= hi):
        phi1 = rng.normal(0.5 * (lo + hi), 0.25 * (hi - lo))
    beta, phi = np.full(n, lambda_dagger), np.full(n, phi1)
    beta[1:] = lambda_dagger * (1.0 - rng.random(n - 1))
    phi[1:] = phi1 * (1.0 - rng.random(n - 1))
    return beta, phi


def _state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


@pytest.mark.parametrize("narrow", [False, True], ids=["range", "narrow"])
@pytest.mark.parametrize("buffers", [False, True], ids=["allocated", "buffers"])
@pytest.mark.parametrize("n", [1, 2, 7, 1000, 100_000])
@pytest.mark.parametrize("seed", [0, 5, 2**63 + 11])
def test_in_place_samplers_draw_the_allocating_bits(seed, n, buffers, narrow, monkeypatch):
    if narrow:  # about two draws in three rejected: several redraws of many runs
        monkeypatch.setattr(experiments, "PRODUCTION_RANGE", (4.5, 5.5))
    workspace = np.full((3, n), np.nan)  # production, then the columns; the draws made in the first column
    for family, sampler, reference in (("quadratic", sample_quadratic_params, reference_quadratic),
                                       ("pwl", sample_pwl_params, reference_pwl)):
        rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        a = sample_production(n, rng, out=(workspace[0], workspace[1]) if buffers else None)
        expected_a = reference_production(n, expected_rng)
        assert a.tobytes() == expected_a.tobytes() and _state(rng) == _state(expected_rng), family
        assert np.shares_memory(a, workspace[0]) is buffers
        capacity, threshold = float(np.sum(a)), 20.0 * (seed % 7 + 1)
        columns = sampler(n, capacity, threshold, rng, out=(workspace[1], workspace[2]) if buffers else None)
        expected = reference(n, capacity, threshold, expected_rng)
        assert [c.tobytes() for c in columns] == [c.tobytes() for c in expected], family
        assert _state(rng) == _state(expected_rng), family
    if narrow:
        assert np.all((a >= 4.5) & (a <= 5.5))

