"""Average consensus holds one round and replays its trace when read.

* A run's trace builds its estimates on first read. They equal the rounds
  collected one at a time by ``oracles.metropolis_rounds``, bit for bit,
  after 0, 1 and 50 rounds, with a ``tol`` met at round 1, and with
  ``homogenize``; a ``tol`` never met raises NotConverged with the oracle's
  last error. The averaged ``(b, m)`` of a homogenized run are the oracle's
  last round too: its local prices equal solves at those parameters.
* ``tol`` applies from round 1 on: a uniform production runs one round.
* Traces of both modes pickle before and after their estimates are built,
  and the copy's estimates equal the original's.
* A 1000-ring run for 2000 rounds that never reads its estimates stays
  below a memory bound that holding all rounds would pass.
"""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest

from teshape import CommGraph, MarketInstance, NotConverged, PreferenceColumns, Quadratic, run_distributed, solve

from oracles import metropolis_rounds


def _instance(n: int, seed: int) -> MarketInstance:
    rng = np.random.default_rng(seed)
    return MarketInstance(rng.uniform(0.0, 10.0, n), PreferenceColumns(Quadratic, rng.uniform(1.0, 5.0, n),
                                                                       rng.uniform(5.0, 9.0, n)))


CASES = {  # name: (graph, rounds, tol, homogenize)
    "0-rounds": (CommGraph.ring(24), 0, None, False),
    "1-round": (CommGraph.ring(24), 1, None, False),
    "50-rounds": (CommGraph.ring(24), 50, None, False),
    "tol-at-round-1": (CommGraph.complete(12), 50, 1e-9, False),  # one round reaches the mean up to rounding
    "homogenized": (CommGraph.ring(24), 50, None, True),
    "homogenized-tol-at-round-1": (CommGraph.complete(12), 50, 1e-9, True),
}


@pytest.mark.parametrize("name", CASES)
def test_replayed_trace_equals_collected_rounds(name):
    graph, rounds, tol, homogenize = CASES[name]
    instance = _instance(graph.n, 5)
    run = run_distributed(instance, graph, rounds, "average", tol=tol, homogenize=homogenize)
    assert "estimates" not in vars(run.trace)  # nothing so far built the rounds
    expected = metropolis_rounds(instance.production, graph.edges, rounds, tol)
    assert run.rounds_used == run.trace.rounds == len(expected) - 1 == (1 if tol else rounds)
    assert run.trace.estimates.tobytes() == expected.tobytes()
    assert run.trace.final_error.hex() == float(np.max(np.abs(expected[-1] - run.trace.target))).hex()
    if homogenize:  # the last round of (b, m) as well
        n = graph.n
        b, m = (metropolis_rounds(column, graph.edges, run.rounds_used)[-1] for column in instance.preferences.columns)
        local = [solve(MarketInstance(np.full(n, s), PreferenceColumns(Quadratic, np.full(n, bu), np.full(n, mu))))
                 for s, bu, mu in zip((expected[-1] * n / n).tolist(), b.tolist(), m.tolist())]
        assert [r.lambda_star.hex() for r in run.results] == [r.lambda_star.hex() for r in local]


def test_tol_never_met_raises_with_the_last_error():
    graph = CommGraph.ring(24)
    instance = _instance(graph.n, 5)
    expected = metropolis_rounds(instance.production, graph.edges, 50)
    with pytest.raises(NotConverged) as raised:
        run_distributed(instance, graph, 50, "average", tol=1e-300)
    target = instance.capacity / graph.n
    assert (raised.value.rounds, raised.value.final_error.hex()) == (50, float(np.max(np.abs(expected[-1] - target))).hex())


def test_tol_applies_from_round_one():
    # round 0 already holds the mean; the stop is still checked only after round 1
    n = 10
    instance = MarketInstance(np.full(n, 5.0), PreferenceColumns(Quadratic, np.ones(n), np.full(n, 7.0)))
    run = run_distributed(instance, CommGraph.ring(n), rounds=5, mode="average", tol=1e-12)
    assert run.rounds_used == 1 and run.trace.estimates.shape == (2, n)
    assert run_distributed(instance, CommGraph.ring(n), rounds=0, mode="average", tol=0.0).rounds_used == 0


@pytest.mark.parametrize("mode", ["flood", "average"])
def test_traces_pickle_and_replay_equally(mode):
    graph = CommGraph.ring(24)
    trace = run_distributed(_instance(graph.n, 7), graph, 30, mode).trace
    unread = pickle.loads(pickle.dumps(trace))
    assert "estimates" not in vars(unread)
    assert unread.estimates.tobytes() == trace.estimates.tobytes()
    read = pickle.loads(pickle.dumps(trace))  # the built estimates travel with it
    assert (read.estimates.tobytes(), read.replay().tobytes()) == (trace.estimates.tobytes(),) * 2
    assert (unread.target, unread.rounds, unread.final_error) == (trace.target, trace.rounds, trace.final_error)


def test_average_run_holds_no_rounds():
    n, rounds = 1000, 2000
    instance = MarketInstance(np.linspace(1.0, 9.0, n), PreferenceColumns(Quadratic, np.ones(n), np.full(n, 5.0)))
    graph = CommGraph.ring(n)
    tracemalloc.start()
    try:
        run = run_distributed(instance, graph, rounds, "average")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 1000 local markets' allocations and their self-check peak near 23 MB; all 2001
    # rounds would add 16 MB more (38 MB when the estimates array grew as the rounds ran)
    assert peak < 30 * 2**20
    assert run.rounds_used == rounds and "estimates" not in vars(run.trace)
