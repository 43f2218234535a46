"""Golden-bytes regression: seeded artifacts must not change by a single byte.

The digests below were produced by the pre-array-core implementation
(per-agent objects throughout) and pin the exact bytes of the experiment
artifacts and of a trading-model result document. The consensus digests
were produced by the set-union flooding and two-loop averaging
implementation and pin the ``consensus --out`` trace CSVs and the prices of
a homogenized averaging run. The tiered-market and saved-quartet digests
were produced by the ``json.dump(indent=2)`` writer and pin the streamed
``solve --out`` and ``save_instance`` documents. The average-mode result
digests were produced by one ``solve`` per agent's local market and pin
every local price, allocation and diagnostic, bit for bit, of the one-sort
water-filling that replaced it. The two 20000-agent ``results.csv``
digests were produced by the full-sort water-filling and breakpoint search
and pin the prices of the selection step that replaced the full sort. The
average-mode path trace and path result digests were regenerated when
averaging moved from a dense matrix product to a segmented sum over each
agent's neighbour list (its own term, then NumPy's pairwise sum of its
neighbours' terms in ascending order); the other average-mode digests kept
their values. That order fixes their bits on every BLAS kernel. Any change to sampling,
summation order, solver arithmetic or serialization shows up here. The
metadata digests also pin ``library_version``; a version bump must
regenerate them.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from teshape import CommGraph, instance_from_dict, run_distributed, save_instance
from teshape.cli import main

QUADRATIC_SPEC = {"family": "quadratic", "n": 50, "trials": 7, "lambda_dagger": [15.0, 25.0], "seed": 11}
PWL_SPEC = {"family": "pwl", "n": 40, "trials": 6, "lambda_dagger": 24.0, "seed": 7, "scale_list": [10, 60]}
LARGE_QUADRATIC_SPEC = {"family": "quadratic", "n": 20000, "trials": 3, "lambda_dagger": 20.0, "seed": 23}
LARGE_PWL_SPEC = {"family": "pwl", "n": 20000, "trials": 3, "lambda_dagger": 24.0, "seed": 29}

EXPERIMENT_DIGESTS = {
    "quadratic": (
        QUADRATIC_SPEC,
        {
            "results.csv": "e4140dee0a612583c681105c08dc318b5af6b4b392fa1047e75f4a2dd6e45252",
            "stats.csv": "af70cf8cb88bd1d55988e880422731d434ddcc908fd152cfa681db142a8be5a2",
            "metadata.json": "9f6c3f2e0c0b0fc4b9a7761e4dfe8acb78bb54f229527eb2cc8c0aeb34efe389",
        },
    ),
    "pwl": (
        PWL_SPEC,
        {
            "results.csv": "6ff3567d15a052099334dbc51b9ee33d04eed587a536181e344d2cb2315e31c2",
            "stats.csv": "ef1be008624021be9f42b50273dce4e15bd77bb8da38f82921b4629390a9da13",
            "metadata.json": "742684f9fe46879037fa4b6f1a59c2509bad8453cc6e38b26190bab09970b265",
        },
    ),
    "quadratic_large": (
        LARGE_QUADRATIC_SPEC,
        {"results.csv": "106b40ea2eb34325a7b188c604cc07fbab3e441f3249b55e98dd5564bbff22b8"},
    ),
    "pwl_large": (
        LARGE_PWL_SPEC,
        {"results.csv": "0d45c657336acdc3e719b98cbd67ab53a700961fad0afe1755592c268ed9001a"},
    ),
}

QUARTET_ST_RESULT_DIGEST = "43f58b407fcce84c8594db9b57f22edd255c535ff94237917a89345086ea3328"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(EXPERIMENT_DIGESTS))
def test_experiment_artifacts_byte_identical(name, tmp_path, capsys):
    spec, digests = EXPERIMENT_DIGESTS[name]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["experiment", str(spec_path), "--out", str(out), "--threads", "1"]) == 0
    capsys.readouterr()
    assert {f: _sha256(out / f) for f in digests} == digests


def test_quartet_trading_result_document_byte_identical(quartet_path, tmp_path, capsys):
    out = tmp_path / "result.json"
    assert main(["solve", str(quartet_path), "--model", "mtes_st", "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out) == QUARTET_ST_RESULT_DIGEST


def _tiered_pwl_market(n: int) -> dict:
    """Deterministic PWL trading market (no RNG): cent-resolution rates on
    2900 tiers, so many agents share the marginal rate."""
    return {
        "model": "mtes_st",
        "agents": [
            {
                "a": ((i * 7919) % 1001) / 100.0,
                "utility": {"kind": "pwl", "beta": (100 + (i * 37) % 2900) / 100, "phi": (2000 + (i * 53) % 10000) / 1000},
            }
            for i in range(n)
        ],
    }


TIERED_RESULT_DIGESTS = {
    "mtes_st": "e65093fcdd3f41c9b0981ef55cf5b8e5c1a86dfa497e472271999725e5a5208e",
    "mtes": "0830d48cebc48dae9b103236ff1a0df4cdceef994ecf5fe98be4688a5691e8cf",
}

QUARTET_SAVED_DIGEST = "4e808858926f075bc14fe3fb1462de45d251b22fc9f83c136fdf4b4f66801c32"


@pytest.mark.parametrize("model", sorted(TIERED_RESULT_DIGESTS))
def test_tiered_pwl_result_document_byte_identical(model, tmp_path, capsys):
    market, out = tmp_path / "market.json", tmp_path / "result.json"
    market.write_text(json.dumps(_tiered_pwl_market(5000)))
    assert main(["solve", str(market), "--model", model, "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out) == TIERED_RESULT_DIGESTS[model]


def test_saved_quartet_byte_identical(quartet, tmp_path):
    out = tmp_path / "quartet.json"
    save_instance(quartet, str(out))
    assert _sha256(out) == QUARTET_SAVED_DIGEST


# ---------------------------------------------------------------------------
# Consensus traces
# ---------------------------------------------------------------------------


def _consensus_market(n: int) -> dict:
    """Deterministic quadratic market (no RNG) with uneven productions."""
    return {
        "model": "mtes",
        "agents": [
            {
                "a": ((i * 7919) % 101) / 7.0,
                "utility": {"kind": "quadratic", "b": 1.0 + (i * 31 % 17) / 4.0, "m": 2.0 + (i * 13 % 23) / 3.0},
            }
            for i in range(n)
        ],
    }


def _sparse_edges(n: int, seed: int) -> list[list[int]]:
    """A seeded random spanning tree plus n // 2 extra edges (duplicates allowed)."""
    rng = random.Random(seed)
    edges = [[rng.randrange(i), i] for i in range(1, n)]
    while len(edges) < n - 1 + n // 2:
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            edges.append([i, j])
    return edges


CONSENSUS_GRAPHS = {
    "ring": (40, [[i, (i + 1) % 40] for i in range(40)]),
    "path": (25, [[i, i + 1] for i in range(24)]),
    "complete": (30, [[i, j] for i in range(30) for j in range(i + 1, 30)]),
    "sparse": (50, _sparse_edges(50, 2024)),
}

CONSENSUS_TRACE_DIGESTS = {
    ("flood", "ring", ()): "7779e6c5cb2ee377e7e6ac2a2d8bf012832d35319ed18c1143ee1129069512d6",
    ("flood", "path", ()): "847e3ebed35d44443d1e01a65fcc911933ed7605fe7f30f2e9f3444987060ff6",
    ("flood", "complete", ()): "ea6744c1e7c3e07c6f1df1d621709f1b191d5882cd114e6fbe2f656b2ec8610e",
    ("flood", "sparse", ()): "f751e4745f4c215c977acff83b9541482b655f192ffbbdf070a56fcaa019765c",
    ("average", "ring", ("--rounds", "200")): "f62cb9596c5275d8c7159cfc1fb0ee3e6a6d869a2c08dc4a1157a4fccb3dbb20",
    ("average", "path", ("--rounds", "5000", "--tol", "1e-6")): "747fd26798ef85e6378bad63a4edc055ea18bdea191f21feeb44477d33002b52",
}

HOMOGENIZED_PRICES_DIGEST = "522acfcd965872f435006855eb31c7e6618139f0951533bd73c532e0a7c9b8ec"


@pytest.mark.parametrize("mode, graph, extra", sorted(CONSENSUS_TRACE_DIGESTS))
def test_consensus_trace_byte_identical(mode, graph, extra, tmp_path, capsys):
    n, edges = CONSENSUS_GRAPHS[graph]
    market, graph_path, out = tmp_path / "market.json", tmp_path / "graph.json", tmp_path / "trace.csv"
    market.write_text(json.dumps(_consensus_market(n)))
    graph_path.write_text(json.dumps({"n": n, "edges": edges}))
    argv = ["consensus", str(market), "--graph", str(graph_path), "--mode", mode, "--out", str(out)]
    assert main([*argv, *extra]) == 0
    capsys.readouterr()
    assert _sha256(out) == CONSENSUS_TRACE_DIGESTS[mode, graph, extra]


def test_homogenized_average_prices_byte_identical():
    instance = instance_from_dict(_consensus_market(12))
    run = run_distributed(instance, CommGraph.ring(12), rounds=300, mode="average", tol=1e-10, homogenize=True)
    prices = json.dumps([r.lambda_star.hex() for r in run.results]).encode()
    assert hashlib.sha256(prices).hexdigest() == HOMOGENIZED_PRICES_DIGEST


# ---------------------------------------------------------------------------
# Average-mode local results
# ---------------------------------------------------------------------------


def _surplus_market(n: int) -> dict:
    """Quadratic market whose productions total about its satiation loads,
    so after a few averaging rounds some local capacities exceed the sum of
    m (negative local prices) and some fall short of it."""
    market = _consensus_market(n)
    for i, agent in enumerate(market["agents"]):
        agent["a"] = agent["utility"]["m"] * (0.25 + (i % 5) / 2.5)
    return market


def _tied_market(n: int) -> dict:
    """Quadratic market with many tied drop-out prices m*b (3, 6 or 12):
    tied agents differ in m = k/10 and b = (m*b)/m, so their sums depend on
    the order they are added in."""
    agents = []
    for i in range(n):
        m = 1 + (i * 37) % 99 / 10
        agents.append({"a": m * (i % 4) / 2, "utility": {"kind": "quadratic", "b": (3.0, 6.0, 12.0)[i % 3] / m, "m": m}})
    return {"model": "mtes", "agents": agents}


AVERAGE_RUNS = {
    "ring": (_consensus_market(40), CommGraph.ring(40), {"rounds": 200}),
    "path": (_consensus_market(25), CommGraph.path(25), {"rounds": 5000, "tol": 1e-6}),
    "surplus": (_surplus_market(30), CommGraph.ring(30), {"rounds": 3}),
    "tied": (_tied_market(36), CommGraph.ring(36), {"rounds": 50}),
}

AVERAGE_RESULT_DIGESTS = {
    "ring": "39db89efd2a2eead77d97cf5a4f06902994112180e011f41f9cdac7484408914",
    "path": "8d47e9d52314ef486dad9561e1192602f8239da13f88dfeba33fa0f8df0ec40e",
    "surplus": "402e665f5f9fd67bd9ee0c5d86e3aef3740a02382530e92bfcfd2dec670fbbbf",
    "tied": "798452ddb3167ec5be631c67b65461be365e899a5466deb85a48c41f816eadfa",
}


def average_results_digest(run) -> str:
    """sha256 of every local result's price, allocation, diagnostics and route, as bits."""
    rows = [
        [r.lambda_star.hex(), [x.hex() for x in r.x_star], r.balance_residual.hex(), r.kkt_max_violation.hex(),
         r.method.value]
        for r in run.results
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(AVERAGE_RUNS))
def test_average_local_results_bit_identical(name):
    market, graph, kwargs = AVERAGE_RUNS[name]
    run = run_distributed(instance_from_dict(market), graph, mode="average", **kwargs)
    assert average_results_digest(run) == AVERAGE_RESULT_DIGESTS[name]
