"""Deterministic simulation of the two market-clearing deployments.

Approach 1 runs everything through one aggregator: collect each agent's
preference and production, solve once, broadcast price and allocations.
Approach 2 has the agents compute for themselves over a communication graph,
either by flooding the raw data (exact agreement after diameter-many
synchronous rounds) or by iterating weighted averaging on the production
values so every agent estimates the network mean and solves locally.

Everything is single-process and synchronous-round, so repeated runs are
bit-identical.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    EquilibriumResult,
    Family,
    MarketInstance,
    ModelKind,
    PreferenceColumns,
    Quadratic,
    ValidationError,
    atomic_write,
    read_json,
    strict_int,
    validate_instance,
)
from .solver import solve, solve_many


_HISTORY_ROWS = 64  # averaging rounds held before the estimates array first grows


class DisconnectedGraph(ValueError):
    pass


class NotConverged(RuntimeError):
    def __init__(self, final_error: float, rounds: int, tol: float):
        self.final_error = final_error
        self.rounds = rounds
        self.tol = tol
        super().__init__(
            f"consensus error {final_error:.3e} above tolerance {tol:.3e} after {rounds} rounds"
        )


class CollectionError(ValueError):
    """A malformed agent submission, identified by agent index."""

    def __init__(self, agent: int, reasons: list[str]):
        self.agent = agent
        self.reasons = reasons
        super().__init__(f"agent {agent}: " + "; ".join(reasons))


@dataclass(frozen=True)
class CommGraph:
    """Undirected communication graph over the n agents."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @staticmethod
    def from_edges(n: int, edges) -> CommGraph:
        if n < 1:
            raise ValidationError(["graph requires n >= 1"])
        pairs = np.asarray(edges).reshape(-1, 2)
        if pairs.size and pairs.dtype.kind not in "iu":
            raise ValidationError([f"edge endpoints must be integers in 0..{n - 1}"])
        lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
        outside = (lo < 0) | (hi >= n)
        bad = outside | (lo == hi)
        if bad.any():
            k = int(np.argmax(bad))
            i, j = pairs[k].tolist()
            raise ValidationError(
                [f"edge ({i},{j}) out of range for n={n}" if outside[k] else f"self-loop ({i},{i}) not allowed"]
            )
        order = np.lexsort((hi, lo))  # sorted (min, max) pairs, duplicates dropped
        lo, hi = lo[order], hi[order]
        first = np.ones(len(lo), dtype=bool)
        first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        return CommGraph(n=n, edges=tuple(zip(lo[first].tolist(), hi[first].tolist())))

    @staticmethod
    def complete(n: int) -> CommGraph:
        return CommGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    @staticmethod
    def ring(n: int) -> CommGraph:
        return CommGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @staticmethod
    def path(n: int) -> CommGraph:
        return CommGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @staticmethod
    def load(path: str) -> CommGraph:
        """Read ``{"n": N, "edges": [[i, j], ...]}``: integral numbers only, no booleans."""
        data = read_json(path)
        if not isinstance(data, dict) or set(data) != {"n", "edges"}:
            raise ValidationError(["graph file requires exactly the fields 'n' and 'edges'"])
        edges = data["edges"]
        if not isinstance(edges, list):
            raise ValidationError([f"graph edges must be a list of [i, j] pairs, got {type(edges).__name__}"])
        if not (set(map(type, edges)) <= {list} and set(map(len, edges)) <= {2}):
            k, edge = next((k, e) for k, e in enumerate(edges) if not (type(e) is list and len(e) == 2))
            raise ValidationError([f"graph edge {k} must be an [i, j] pair, got {edge!r}"])
        ends = [v for edge in edges for v in edge]
        if not set(map(type, ends)) <= {int}:
            ends = [strict_int(v, f"graph edge {k // 2} endpoint") for k, v in enumerate(ends)]
        return CommGraph.from_edges(strict_int(data["n"], "graph n"), np.array(ends))

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def is_connected(self) -> bool:
        adj, seen, stack = self.neighbors(), {0}, [0]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n

    def _reach(self):
        """Yield the boolean n x n array "agent i holds agent j's data" after
        each synchronous flooding round, from round 0 (the identity) until
        the first round that adds nobody, then raise DisconnectedGraph if
        some agent still misses some data. Rows are kept as packed bits; a
        round ORs in each agent's neighbours' rows, one neighbour slot at a time."""
        adj = self.neighbors()
        width = max(map(len, adj))
        # slot k of agent u holds its k-th neighbour, or u itself past its degree
        slots = np.array([nb + [u] * (width - len(nb)) for u, nb in enumerate(adj)], dtype=np.intp)
        reach = np.packbits(np.eye(self.n, dtype=bool), axis=1)
        while True:
            held = np.unpackbits(reach, axis=1, count=self.n).view(bool)
            yield held
            grown = reach.copy()
            for neighbour in slots.T:
                grown |= reach[neighbour]
            if np.array_equal(grown, reach):
                if not held.all():
                    raise DisconnectedGraph("graph is not connected")
                return
            reach = grown

    def diameter(self) -> int:
        """Synchronous flooding rounds until every agent holds every agent's data."""
        for rounds, _ in enumerate(self._reach()):
            pass
        return rounds

    def mixing_matrix(self) -> np.ndarray:
        """Metropolis-Hastings averaging weights: symmetric, doubly stochastic."""
        if not self.is_connected():
            raise DisconnectedGraph("graph is not connected")
        i, j = np.array(self.edges, dtype=np.intp).reshape(-1, 2).T
        deg = np.bincount(np.concatenate([i, j]), minlength=self.n).astype(float)
        w = np.zeros((self.n, self.n))
        w[i, j] = w[j, i] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
        np.fill_diagonal(w, 1.0 - w.sum(axis=1))
        return w


@dataclass(frozen=True)
class AggregatorRun:
    result: EquilibriumResult


def run_aggregator(instance: MarketInstance) -> AggregatorRun:
    """Centralized clearing: collect, solve once, broadcast to every agent."""
    report = validate_instance(instance)
    if bad := [i for i in report.agents if i is not None]:
        agent = min(bad)
        reasons = [v.removeprefix(f"agent {agent}: ") for i, v in zip(report.agents, report.violations) if i == agent]
        raise CollectionError(agent, reasons)
    report.raise_if_invalid()
    return AggregatorRun(result=solve(instance))


@dataclass(frozen=True)
class ConsensusTrace:
    """Per-round per-agent estimates of the network-average production."""

    estimates: np.ndarray  # shape (rounds + 1, n)
    target: float  # true average C/n
    rounds: int

    @property
    def errors(self) -> np.ndarray:
        return np.abs(self.estimates - self.target)

    @property
    def final_error(self) -> float:
        return float(np.max(np.abs(self.estimates[-1] - self.target)))

    def to_csv(self, path: str) -> None:
        rounds = zip(self.estimates.tolist(), self.errors.tolist())
        with atomic_write(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "agent", "estimate", "error"])
            writer.writerows(
                [r, i, repr(x), repr(e)] for r, row in enumerate(rounds) for i, (x, e) in enumerate(zip(*row))
            )


@dataclass(frozen=True)
class DistributedRun:
    results: tuple[EquilibriumResult, ...]
    trace: ConsensusTrace
    rounds_used: int


def _flood(instance: MarketInstance, graph: CommGraph) -> ConsensusTrace:
    """Synchronous flooding of (theta, a); each estimate is the mean of ``a``
    over the agents whose data it holds, gathered in ascending index order.
    Each round stable-sorts the reach rows by held count, so the values held
    by the rows of count k form one C-contiguous (rows, k) block, and NumPy
    sums each row of it pairwise: the bits of ``np.add.reduce(a[row]) / k``."""
    a = instance.production
    rounds = graph._reach()
    next(rounds)  # round 0: each agent holds only its own value
    estimates = [a]
    for held in rounds:
        counts = np.count_nonzero(held, axis=1)
        order = np.argsort(counts, kind="stable")
        values = np.broadcast_to(a, held.shape)[held[order]]  # row-major: row by row, agents ascending
        rows = np.bincount(counts)  # rows[k]: the rows that hold k agents
        ks = np.flatnonzero(rows)
        blocks = np.split(values, np.cumsum(ks * rows[ks])[:-1])
        means = np.empty_like(a)
        means[order] = np.concatenate([np.add.reduce(v.reshape(-1, k), axis=1) / k
                                       for v, k in zip(blocks, ks.tolist())])
        estimates.append(means)
    return ConsensusTrace(np.array(estimates), target=instance.capacity / instance.n, rounds=len(estimates) - 1)


def _average(
    instance: MarketInstance, w: np.ndarray, rounds: int, tol: float | None, homogenize: bool
) -> tuple[ConsensusTrace, np.ndarray | None, np.ndarray | None]:
    """Iterated Metropolis averaging on the production values and, with
    ``homogenize``, on the quadratic parameters ``(b, m)`` in the same
    rounds. Returns the trace and the averaged ``(b, m)``, else ``None``s."""
    b, m = instance.preferences.columns if homogenize else (None, None)
    target = instance.capacity / instance.n
    history = np.zeros((min(rounds, _HISTORY_ROWS) + 1, instance.n))  # doubled as needed, up to rounds + 1
    history[0] = z = instance.production
    r = 0
    for r in range(1, rounds + 1):
        if r == len(history):
            history = np.concatenate([history, np.zeros((min(r, rounds + 1 - r), instance.n))])
        z = np.matmul(w, z, out=history[r])
        if homogenize:
            b, m = w @ b, w @ m
        if tol is not None and float(np.max(np.abs(z - target))) <= tol:
            break
    trace = ConsensusTrace(history[:r + 1], target=target, rounds=r)
    if tol is not None and trace.final_error > tol:
        raise NotConverged(trace.final_error, trace.rounds, tol)
    return trace, b, m


def run_distributed(
    instance: MarketInstance,
    graph: CommGraph,
    rounds: int = 0,
    mode: str = "flood",
    tol: float | None = None,
    homogenize: bool = False,
) -> DistributedRun:
    """Agents solve locally after exchanging data over the graph.

    ``mode="flood"`` floods raw data for ``diameter`` rounds and each agent
    solves the identical instance (trading model included), so all results
    agree bit-for-bit. ``mode="average"`` iterates weighted averaging on the
    production values (at most ``rounds`` rounds, early stop at ``tol``);
    each agent then solves with its own capacity estimate, production spread
    uniformly. Preferences are still flooded in average mode, except with
    ``homogenize=True`` where quadratic parameters are averaged as well
    (rejected for other families; the parameter space must be convex for the
    mean to stay in-family). In average mode a trading instance is cleared as
    its plain-market counterpart: trade vectors need the true productions,
    which only flooding replicates at every agent. With shared quadratic
    preferences one water-filling sort prices all n local markets; PWL,
    mixed or Custom preferences and ``homogenize=True``, where every local
    market has its own preferences, are solved one local market at a time.
    A negative ``rounds`` or a NaN or negative ``tol`` raises ValidationError.
    """
    validate_instance(instance).raise_if_invalid()
    if rounds < 0:
        raise ValidationError([f"rounds must be non-negative, got {rounds}"])
    if tol is not None and not tol >= 0:
        raise ValidationError([f"tol must be non-negative, got {tol!r}"])
    if graph.n != instance.n:
        raise ValidationError([f"graph has {graph.n} nodes, instance has {instance.n}"])
    if mode not in ("flood", "average"):
        raise ValidationError([f"unknown mode {mode!r}; expected 'flood' or 'average'"])

    plain = replace(instance, model=ModelKind.MTES)
    if mode == "flood":
        trace = _flood(plain, graph)  # checks connectivity
        result = solve(instance)  # identical input at every agent
        return DistributedRun(results=(result,) * instance.n, trace=trace, rounds_used=trace.rounds)

    if homogenize and plain.family is not Family.QUADRATIC:
        raise ValidationError(["preference averaging requires quadratic preferences (convex parameter space)"])

    trace, b, m = _average(plain, graph.mixing_matrix(), rounds, tol, homogenize)  # checks connectivity
    n, prefs = instance.n, plain.preferences
    local = []
    for i, capacity_i in enumerate((trace.estimates[-1] * n).tolist()):
        if homogenize:
            prefs = PreferenceColumns(Quadratic, np.full(n, b[i]), np.full(n, m[i]))
        local.append(MarketInstance(np.full(n, capacity_i / n), prefs, model=ModelKind.MTES))
    return DistributedRun(results=tuple(solve_many(local)), trace=trace, rounds_used=trace.rounds)
