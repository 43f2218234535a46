"""A fixed reference computation that times the host, not the program.

The shared hosts the benchmark runs on change speed by up to 2.5x over
seconds to minutes (frequency and neighbour load), which moves every wall
time with them. The worker runs this kernel right before and right after
each op and reports the op's cost as its wall time divided by the mean of
the two reference times: a number in "refs" that follows the program, not
the host. The kernel never touches the package and takes no input, so a
change to the program cannot move it.

Its mix follows the workloads: interpreter work on small objects (per-agent
preferences, demand sums), a NumPy sort and cumulative sum (the array code),
and a JSON round trip (instance and result files).
"""

from __future__ import annotations

import json
import time

import numpy as np

_ARRAY = np.random.default_rng(20210927).random(480_000)
_RECORDS = [
    {"a": round(0.001 * i, 3), "utility": {"kind": "quadratic", "b": 1.0 + 0.25 * (i % 7), "m": 10.0 - i % 5}}
    for i in range(1_500)
]


class _Agent:
    __slots__ = ("b", "m")

    def __init__(self, b: float, m: float) -> None:
        self.b, self.m = b, m

    def demand(self, lam: float) -> float:
        x = self.m - lam / self.b
        return x if x > 0.0 else 0.0


def _objects() -> float:
    agents = [_Agent(1.0 + 0.25 * (i % 7), 10.0 - i % 5) for i in range(13_000)]
    by_key = {i: agent for i, agent in enumerate(agents)}
    return sum(sum(by_key[i].demand(lam) for i in range(len(agents))) for lam in (2.0, 5.0, 8.0))


def _arrays() -> float:
    return float(np.cumsum(np.sort(_ARRAY))[-1])


def _json() -> int:
    return len(json.loads(json.dumps(_RECORDS)))


def reference_s() -> float:
    """Wall time of one pass of the reference kernel."""
    start = time.perf_counter()
    _objects()
    _arrays()
    _json()
    return time.perf_counter() - start
