"""Deterministic simulation of the two market-clearing deployments.

Approach 1, one aggregator that collects each agent's preference and
production, solves once and broadcasts price and allocations, is ``solve``.
Approach 2 has the agents compute for themselves over a communication graph,
either by flooding the raw data (exact agreement after diameter-many
synchronous rounds) or by iterating Metropolis averaging on the production
values so every agent estimates the network mean and solves locally.

Everything is single-process and synchronous-round, so repeated runs are
bit-identical. Averaging sums each agent's terms without BLAS, in a fixed
order: ``np.add.reduceat`` adds its own term to NumPy's pairwise sum of its
neighbours' terms, which below 8 terms runs left to right from -0.0. So with at most
7 neighbours each, ``np.bincount`` from +0.0, own term last (one IEEE add either way),
gives the same floats unless every term is -0.0, which no column without sign bits holds.
"""

from __future__ import annotations

import csv
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .model import (
    EquilibriumResult,
    MarketInstance,
    PreferenceColumns,
    Quadratic,
    ValidationError,
    atomic_write,
    read_json,
    strict_int,
    validate_instance,
)
from .solver import local_capacities, solve, solve_many


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


class EstimateOutOfRange(RuntimeError):
    """An agent's averaged capacity estimate lies outside (0, max_capacity(n)]: its local market
    has nothing to clear, or cannot be cleared in floats."""


@dataclass(frozen=True, eq=False)
class CommGraph:
    """Undirected graph over the n agents: ``edges`` is a read-only ``(m, 2)`` intp
    array of sorted ``(lo, hi)`` pairs, each edge once. Compares by value, unhashable."""

    n: int
    edges: np.ndarray

    def __eq__(self, other) -> bool:
        return isinstance(other, CommGraph) and self.n == other.n and np.array_equal(self.edges, other.edges)

    __hash__ = None

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
        edges = np.column_stack([lo[first], hi[first]]).astype(np.intp, copy=False)
        edges.setflags(write=False)
        return CommGraph(n, edges)

    @staticmethod
    def complete(n: int) -> CommGraph:
        return CommGraph.from_edges(n, np.column_stack(np.triu_indices(n, 1)))

    @staticmethod
    def ring(n: int) -> CommGraph:
        return CommGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n if n > 1 else 0)])

    @staticmethod
    def path(n: int) -> CommGraph:
        return CommGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @staticmethod
    def load(path: str) -> CommGraph:
        """Read ``{"n": N, "edges": [[i, j], ...]}``: integral numbers only, no booleans."""
        return read_json(path, CommGraph._from_dict)

    @staticmethod
    def _from_dict(data) -> CommGraph:
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

    def _adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(starts, cols, degrees): agent u's segment ``cols[starts[u]:starts[u] + degrees[u] + 1]``
        holds u itself, then u's neighbours in ascending order."""
        lo, hi = self.edges.T
        own = np.arange(self.n)  # a stable sort by agent: itself, then smaller neighbours, then larger
        cols = np.concatenate([own, lo, hi])[np.argsort(np.concatenate([own, hi, lo]), kind="stable")]
        degrees = np.bincount(self.edges.ravel(), minlength=self.n)
        return np.cumsum(degrees + 1) - (degrees + 1), cols, degrees

    def is_connected(self) -> bool:
        return _connected(*self._adjacency()[:2])

    def mixing_weights(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Metropolis-Hastings weights ``(starts, cols, w)`` on the ``_adjacency`` segments:
        1 / (1 + max(deg u, deg v)) for u's neighbour v, and for u itself 1 minus
        their ``np.add.reduceat``. Symmetric, segments sum to 1. Raises DisconnectedGraph."""
        starts, cols, degrees = self._adjacency()
        if not _connected(starts, cols):
            raise DisconnectedGraph("graph is not connected")
        w = 1.0 / (1.0 + np.maximum(np.repeat(degrees, degrees + 1), degrees[cols]))
        w[starts] = 0.0
        w[starts] = 1.0 - np.add.reduceat(w, starts)
        return starts, cols, w


def _connected(starts: np.ndarray, cols: np.ndarray) -> bool:
    """Min-label hooking with pointer jumping over the ``_adjacency`` segments:
    once no root moves, the trees are the components; connected iff all labels are 0."""
    label = np.arange(len(starts))
    while True:
        hooked = label.copy()
        np.minimum.at(hooked, label, np.minimum.reduceat(label[cols], starts))
        while not np.array_equal(jumped := hooked[hooked], hooked):
            hooked = jumped
        if np.array_equal(hooked, label):
            return not label.any()
        label = hooked


@dataclass(frozen=True)
class ConsensusTrace:
    """Per-round per-agent estimates of the network-average production, built on first read."""

    replay: Callable[[], np.ndarray] = field(repr=False)  # makes the estimates, shape (rounds + 1, n)
    target: float  # true average C/n
    rounds: int
    final_error: float  # the last round's largest error, known without the estimates

    @cached_property
    def estimates(self) -> np.ndarray:
        return self.replay()

    @property
    def errors(self) -> np.ndarray:
        return np.abs(self.estimates - self.target)

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

    @property
    def rounds_used(self) -> int:
        return self.trace.rounds


def _reach_rounds(n: int, starts: np.ndarray, cols: np.ndarray) -> Iterator[np.ndarray]:
    """Who holds whose data after rounds 0, 1, ... until a round adds nobody: packed bits in
    64-bit words, word-major; a round ORs together the columns of each ``_adjacency`` segment."""
    reach, own = np.zeros((n, -(-n // 64) * 8), dtype=np.uint8), np.arange(n)
    reach[own, own // 8] = 0x80 >> own % 8  # round 0 in np.packbits' layout: agent i's own bit
    yield (reach := reach.view(np.uint64).T)
    while not np.array_equal(grown := np.bitwise_or.reduceat(np.take(reach, cols, axis=1), starts, axis=1), reach):
        yield (reach := grown)


def _flood_estimates(a: np.ndarray, starts: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Per round, each agent's mean of ``a`` over the agents whose bits it holds, in index order. Rows sorted
    by held count k form C-contiguous (rows, k) blocks: ``np.add.reduce(a[row]) / k`` bit for bit."""
    reaches, estimates = _reach_rounds(len(a), starts, cols), [a]
    next(reaches)  # round 0: each agent holds only its own value
    for reach in reaches:
        held = np.unpackbits(np.ascontiguousarray(reach.T).view(np.uint8), axis=1, count=len(a)).view(bool)
        counts = np.count_nonzero(held, axis=1)
        order = np.argsort(counts, kind="stable")
        values = np.broadcast_to(a, held.shape)[held[order]]  # row-major: row by row, agents ascending
        rows = np.bincount(counts)  # rows[k]: the rows that hold k agents
        ks = np.flatnonzero(rows)
        blocks = np.split(values, np.cumsum(ks * rows[ks])[:-1])
        means = np.empty_like(a)
        means[order] = np.concatenate([np.add.reduce(v.reshape(-1, k), axis=1) / k for v, k in zip(blocks, ks.tolist())])
        estimates.append(means)
    return np.array(estimates)


def _flood(instance: MarketInstance, graph: CommGraph) -> ConsensusTrace:
    """Synchronous flooding of (theta, a). Each reach column holds its own agent's bit, so the columns end
    equal iff every agent holds all n values (else DisconnectedGraph); then every last estimate is, bit
    for bit, ``np.add.reduce(a) / n``, and ``final_error`` needs no ``_flood_estimates``."""
    n, a = instance.n, instance.production
    starts, cols, _ = graph._adjacency()
    for rounds, reach in enumerate(_reach_rounds(n, starts, cols)):
        pass
    if not (reach == reach[:, :1]).all():
        raise DisconnectedGraph("graph is not connected")
    target = instance.capacity / n
    return ConsensusTrace(partial(_flood_estimates, a, starts, cols), target, rounds,
                          float(abs(np.add.reduce(a) / n - target)))


def _metropolis_rounds(z: np.ndarray, starts: np.ndarray, cols: np.ndarray, w: np.ndarray) -> Iterator[np.ndarray]:
    """z, then each Metropolis round: u's own term plus NumPy's pairwise sum of its neighbours' terms, ascending.
    Below 8 terms that sum runs left to right from -0.0, so with at most 7 neighbours each and no sign bit in z, one
    ``np.bincount`` from +0.0, u's own term last (S + own is own + S), gives the same bits; all -0.0 would give +0.0."""
    if np.diff(starts, append=len(cols)).max() <= 8 and not np.signbit(z).any():
        agent = np.searchsorted(starts, np.arange(len(cols)), "right") - 1
        order = np.argsort(2 * agent + (cols == agent), kind="stable")  # u's neighbours ascending, then u
        cols, w = cols[order], w[order]
        while True:
            yield z
            z = np.bincount(agent, w * z[cols], len(z))
    while True:
        yield z
        z = np.add.reduceat(w * z[cols], starts)


def _average_estimates(a: np.ndarray, starts: np.ndarray, cols: np.ndarray, w: np.ndarray, rounds: int) -> np.ndarray:
    """Rounds 0..``rounds`` of ``_metropolis_rounds`` from ``a``, as rows."""
    return np.fromiter(_metropolis_rounds(a, starts, cols, w), np.dtype((float, len(a))), rounds + 1)


def _average(
    instance: MarketInstance, graph: CommGraph, rounds: int, tol: float | None, homogenize: bool
) -> tuple[ConsensusTrace, tuple[np.ndarray, ...]]:
    """Metropolis averaging of the production values z and, with ``homogenize``, the quadratic ``(b, m)``, one
    round held; ``tol`` stops it from round 1 on. Returns the trace and the last round ``(z, b, m)`` or ``(z,)``."""
    starts, cols, w = graph.mixing_weights()  # raises DisconnectedGraph
    columns = [instance.production, *(instance.preferences.columns if homogenize else ())]
    target = instance.capacity / instance.n
    for r, state in zip(range(rounds + 1), zip(*(_metropolis_rounds(z, starts, cols, w) for z in columns))):
        if r and tol is not None and float(np.max(np.abs(state[0] - target))) <= tol:
            break
    error = float(np.max(np.abs(state[0] - target)))
    if tol is not None and error > tol:
        raise NotConverged(error, r, tol)
    return ConsensusTrace(partial(_average_estimates, instance.production, starts, cols, w, r), target, r, error), state


def run_distributed(
    instance: MarketInstance,
    graph: CommGraph,
    rounds: int = 0,
    mode: str = "flood",
    tol: float | None = None,
    homogenize: bool = False,
) -> DistributedRun:
    """Agents solve locally after exchanging data over the graph.

    ``mode="flood"`` floods raw data for as many rounds as the graph's diameter and each agent
    solves the identical instance (trading model included), so all results agree bit-for-bit;
    in both modes the trace replays the rounds to build the per-round estimates when read. ``mode="average"``
    iterates Metropolis averaging over each agent's neighbour list
    (``CommGraph.mixing_weights``) on the production values (at most
    ``rounds`` rounds, early stop at ``tol`` from round 1 on, one round held); each agent then solves with
    its own capacity estimate, production spread uniformly. Preferences are still flooded in average mode, except with
    ``homogenize=True`` where quadratic parameters are averaged as well
    (rejected for other families; the parameter space must be convex for the
    mean to stay in-family). In average mode a trading instance is cleared as
    its plain-market counterpart: trade vectors need the true productions,
    which only flooding replicates at every agent. The local capacities are
    summed once, by ``local_capacities``; the first agent, in index order,
    whose capacity lies outside (0, max_capacity(n)] raises EstimateOutOfRange.
    The local markets differ only in capacity, so they are cleared by
    ``solve_many`` from the vectors of shares and capacities (quadratic or PWL
    markets clear as one stack); with
    ``homogenize=True`` every local market has its own preferences and is
    solved alone. A negative ``rounds`` or a NaN or negative ``tol`` raises
    ValidationError.
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

    if mode == "flood":
        trace = _flood(instance, graph)  # checks connectivity
        result = solve(instance)  # identical input at every agent
        return DistributedRun((result,) * instance.n, trace)

    if homogenize and instance.preferences.kind is not Quadratic:
        raise ValidationError(["preference averaging requires quadratic preferences (convex parameter space)"])

    trace, state = _average(instance, graph, rounds, tol, homogenize)  # checks connectivity
    n = instance.n
    with np.errstate(over="ignore"):  # an estimate that overflows here has a capacity out of range
        shares = state[0] * n / n  # each local market's production per agent
    capacity, k = local_capacities(n, shares)
    if k < n:
        reason = (f"{capacity[k].item()!r} past the float limit for {n} agents" if capacity[k] > 0
                  else f"{state[0][k] * n:.3e} not positive")
        raise EstimateOutOfRange(f"agent {k}: capacity estimate {reason} after {trace.rounds} rounds")
    if homogenize:  # each local market has its own averaged (b, m)
        results = [solve(MarketInstance(np.full(n, s), PreferenceColumns(Quadratic, np.full(n, b), np.full(n, m))))
                   for s, b, m in zip(shares.tolist(), state[1].tolist(), state[2].tolist())]
    else:
        results = solve_many(instance.preferences, shares, capacity)
    return DistributedRun(tuple(results), trace)
