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
import json
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
    validate_instance,
)
from .solver import DEFAULT_CONFIG, SolverConfig, solve


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
        seen: set[tuple[int, int]] = set()
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValidationError([f"edge ({i},{j}) out of range for n={n}"])
            if i == j:
                raise ValidationError([f"self-loop ({i},{i}) not allowed"])
            seen.add((min(i, j), max(i, j)))
        return CommGraph(n=n, edges=tuple(sorted(seen)))

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
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(
                    [f"graph parse error at line {exc.lineno}: {exc.msg}"]
                ) from None
        if not isinstance(data, dict) or set(data) != {"n", "edges"}:
            raise ValidationError(["graph file requires exactly the fields 'n' and 'edges'"])
        return CommGraph.from_edges(int(data["n"]), [tuple(e) for e in data["edges"]])

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        adj = self.neighbors()
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n

    def diameter(self) -> int:
        adj = self.neighbors()
        diam = 0
        for src in range(self.n):
            dist = {src: 0}
            frontier = [src]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in adj[u]:
                        if v not in dist:
                            dist[v] = dist[u] + 1
                            nxt.append(v)
                frontier = nxt
            if len(dist) != self.n:
                raise DisconnectedGraph("graph is not connected")
            diam = max(diam, max(dist.values()))
        return diam

    def mixing_matrix(self) -> np.ndarray:
        """Metropolis-Hastings averaging weights: symmetric, doubly stochastic."""
        if not self.is_connected():
            raise DisconnectedGraph("graph is not connected")
        deg = np.zeros(self.n)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        w = np.zeros((self.n, self.n))
        for i, j in self.edges:
            w[i, j] = w[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
        np.fill_diagonal(w, 1.0 - w.sum(axis=1))
        return w

    def contraction_factor(self) -> float:
        """Spectral radius of the mixing matrix restricted off the consensus
        direction; strictly below 1 on any connected graph."""
        w = self.mixing_matrix()
        deviation = w - np.full_like(w, 1.0 / self.n)
        return float(np.max(np.abs(np.linalg.eigvalsh(deviation))))


@dataclass(frozen=True)
class BroadcastEvent:
    phase: str  # "collect" | "broadcast"
    agent: int
    payload: dict


@dataclass(frozen=True)
class AggregatorRun:
    result: EquilibriumResult
    log: tuple[BroadcastEvent, ...]


def run_aggregator(
    instance: MarketInstance, cfg: SolverConfig = DEFAULT_CONFIG
) -> AggregatorRun:
    """Centralized clearing: collect, solve once, broadcast to every agent."""
    report = validate_instance(instance)
    if not report.ok:
        per_agent: dict[int, list[str]] = {}
        for v in report.violations:
            if v.startswith("agent "):
                idx = int(v.split()[1].rstrip(":"))
                per_agent.setdefault(idx, []).append(v.split(": ", 1)[1])
        if per_agent:
            agent = min(per_agent)
            raise CollectionError(agent, per_agent[agent])
        report.raise_if_invalid()

    log = [
        BroadcastEvent(phase="collect", agent=i, payload={"a": a})
        for i, a in enumerate(instance.production.tolist())
    ]
    result = solve(instance, cfg)
    for i in range(instance.n):
        log.append(
            BroadcastEvent(
                phase="broadcast",
                agent=i,
                payload={"lambda_star": result.lambda_star, "x": result.x_star[i]},
            )
        )
    return AggregatorRun(result=result, log=tuple(log))


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
        return float(np.max(self.errors[-1]))

    def to_csv(self, path: str) -> None:
        errors = self.errors
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "agent", "estimate", "error"])
            for r in range(self.estimates.shape[0]):
                for i in range(self.estimates.shape[1]):
                    writer.writerow(
                        [r, i, repr(float(self.estimates[r, i])), repr(float(errors[r, i]))]
                    )


@dataclass(frozen=True)
class DistributedRun:
    results: tuple[EquilibriumResult, ...]
    trace: ConsensusTrace
    rounds_used: int


def _flood(instance: MarketInstance, graph: CommGraph) -> ConsensusTrace:
    """Synchronous flooding of (theta, a); estimates are means over known sets."""
    n = instance.n
    a = instance.production
    target = instance.capacity / n
    known = [{i} for i in range(n)]
    adj = graph.neighbors()
    rounds = graph.diameter()
    estimates = np.empty((rounds + 1, n))
    estimates[0] = a
    for r in range(1, rounds + 1):
        new_known = [set(k) for k in known]
        for i in range(n):
            for j in adj[i]:
                new_known[i] |= known[j]
        known = new_known
        estimates[r] = [a[sorted(known[i])].mean() for i in range(n)]
    if any(len(k) != n for k in known):
        raise DisconnectedGraph("flooding did not reach every agent")
    return ConsensusTrace(estimates=estimates, target=target, rounds=rounds)


def _average(
    instance: MarketInstance, graph: CommGraph, rounds: int, tol: float | None
) -> ConsensusTrace:
    """Iterated Metropolis averaging on the production values."""
    w = graph.mixing_matrix()
    z = instance.production
    target = instance.capacity / instance.n
    history = [z]
    for _ in range(rounds):
        z = w @ z
        history.append(z)
        if tol is not None and float(np.max(np.abs(z - target))) <= tol:
            break
    trace = ConsensusTrace(
        estimates=np.array(history), target=target, rounds=len(history) - 1
    )
    if tol is not None and trace.final_error > tol:
        raise NotConverged(trace.final_error, trace.rounds, tol)
    return trace


def run_distributed(
    instance: MarketInstance,
    graph: CommGraph,
    rounds: int = 0,
    mode: str = "flood",
    tol: float | None = None,
    homogenize: bool = False,
    cfg: SolverConfig = DEFAULT_CONFIG,
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
    which only flooding replicates at every agent.
    """
    validate_instance(instance).raise_if_invalid()
    if graph.n != instance.n:
        raise ValidationError([f"graph has {graph.n} nodes, instance has {instance.n}"])
    if not graph.is_connected():
        raise DisconnectedGraph("graph is not connected")

    plain = replace(instance, model=ModelKind.MTES)
    if mode == "flood":
        trace = _flood(plain, graph)
        result = solve(instance, cfg)  # identical input at every agent
        results = tuple([result] * instance.n)
        return DistributedRun(results=results, trace=trace, rounds_used=trace.rounds)

    if mode != "average":
        raise ValidationError([f"unknown mode {mode!r}; expected 'flood' or 'average'"])

    if homogenize and plain.family is not Family.QUADRATIC:
        raise ValidationError(
            ["preference averaging requires quadratic preferences (convex parameter space)"]
        )

    trace = _average(plain, graph, rounds, tol)
    w = graph.mixing_matrix()
    if homogenize:
        b, m = plain.preferences.columns
        for _ in range(trace.rounds):
            b = w @ b
            m = w @ m

    n = instance.n
    results = []
    for i in range(n):
        capacity_i = float(trace.estimates[-1, i]) * n
        prefs_i = (
            PreferenceColumns(Quadratic, np.full(n, b[i]), np.full(n, m[i]))
            if homogenize
            else plain.preferences
        )
        local = MarketInstance(
            production=np.full(n, capacity_i / n), preferences=prefs_i, model=ModelKind.MTES
        )
        results.append(solve(local, cfg))
    return DistributedRun(results=tuple(results), trace=trace, rounds_used=trace.rounds)
