"""``solver._stable_argsort`` against ``np.argsort(kind="stable")``, index
for index.

The helper sorts with NumPy's default (unstable) argsort and, when keys tie,
re-sorts each key's run number by stable radix sort so that every run of
equal keys lies in ascending index order. Keys cover continuous draws,
cent-rounded draws with heavy ties, one repeated value, tied infinities,
signed zeros, more than 2**16 distinct tied values (two radix passes), the
lengths 0, 1 and 2, and the negated rates the breakpoint route passes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from teshape import solver


def _keys():
    rng = np.random.default_rng(20)
    yield "random", rng.random(21_900)
    yield "cents", np.round(rng.uniform(1.0, 30.0, 28_000), 2)
    yield "all equal", np.full(20_000, 3.25)
    yield "tied inf", rng.permutation(np.concatenate([rng.random(500), np.full(40, math.inf), np.full(7, -math.inf)]))
    yield "signed zeros", rng.permutation(np.concatenate([np.zeros(30), np.full(30, -0.0), rng.normal(size=60)]))
    yield "one pair", np.concatenate([rng.random(5_000), [0.5, 0.5]])
    yield "two radix passes", rng.permutation(np.repeat(np.arange(70_000, dtype=float), 2))
    for n in (0, 1, 2):
        yield f"length {n}", rng.random(n)
    yield "length 2 tied", np.array([1.5, 1.5])
    yield "negated cents", -np.round(rng.uniform(1.0, 30.0, 28_000), 2)
    yield "negated random", -rng.random(21_900)


@pytest.mark.parametrize("keys", [pytest.param(keys, id=name) for name, keys in _keys()])
def test_stable_argsort_matches_numpy_stable(keys):
    expected = np.argsort(keys, kind="stable")
    got = solver._stable_argsort(keys)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)
