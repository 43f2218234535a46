"""Outside-in layer trace of the teshape package.

The tracer wraps public names from outside the program: every module
namespace of the package that binds a traced function gets a wrapper, and
traced methods are wrapped on their class. Each call records a span (layer,
call site, start, end, parent span, op id, thread); spans stay in memory and
are summarised once the run ends. Span stacks are kept per thread, so spans
in experiment worker threads have no parent and their layer times are busy
time on top of the op's wall time.

A traced name that a later version of the package no longer defines is
recorded as absent and its layer reads zero; the run does not fail.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

# (defining module, public name or Class.method, layer)
TARGETS = (
    ("cli", "main", "cli"),
    ("experiments", "run_monte_carlo", "experiments.run"),
    ("experiments", "sample_production", "experiments.sample"),
    ("experiments", "sample_quadratic_params", "experiments.sample"),
    ("experiments", "sample_pwl_params", "experiments.sample"),
    ("experiments", "MonteCarloResult.write", "experiments.write"),
    ("shaping", "check_quadratic_set", "shaping.check"),
    ("shaping", "check_pwl_set", "shaping.check"),
    ("shaping", "check_homogeneous", "shaping.check"),
    ("model", "load_instance", "model.load"),
    ("model", "validate_instance", "model.validate"),
    ("model", "instance_to_dict", "model.to_dict"),
    ("model", "EquilibriumResult.to_dict", "model.to_dict"),
    ("solver", "solve", "solver.core"),
    ("solver", "solve_mtes_st", "solver.core"),
    ("solver", "solve_mtes_quadratic", "solver.core"),
    ("solver", "solve_mtes_pwl", "solver.core"),
    ("solver", "solve_mtes_generic", "solver.core"),
    ("solver", "verify_kkt", "solver.kkt"),
    ("solver", "AggregateDemand.total", "solver.demand"),
    ("consensus", "run_distributed", "consensus.run"),
    ("consensus", "CommGraph.diameter", "consensus.diameter"),
    ("consensus", "CommGraph.mixing_matrix", "consensus.mixing"),
)


def _trials(result) -> int:
    return sum(len(cell.prices) for cell in result.cells)


def _rounds(result) -> int:
    return int(result.rounds_used)


# work counts read off a layer's return value
COUNTS = {"experiments.run": _trials, "consensus.run": _rounds}

# per-layer metric name -> (layer, what); "self" is self time in seconds,
# "calls" the number of spans, "count" the sum of COUNTS over the spans
LAYER_METRICS = {
    "experiments.run_self_s": ("experiments.run", "self"),
    "experiments.sample_s": ("experiments.sample", "self"),
    "experiments.write_s": ("experiments.write", "self"),
    "experiments.trials": ("experiments.run", "count"),
    "shaping.check_s": ("shaping.check", "self"),
    "shaping.checks": ("shaping.check", "calls"),
    "model.load_s": ("model.load", "self"),
    "model.validate_s": ("model.validate", "self"),
    "model.validates": ("model.validate", "calls"),
    "model.to_dict_s": ("model.to_dict", "self"),
    "solver.core_s": ("solver.core", "self"),
    "solver.kkt_s": ("solver.kkt", "self"),
    "solver.kkts": ("solver.kkt", "calls"),
    "solver.demand_s": ("solver.demand", "self"),
    "solver.demand_evals": ("solver.demand", "calls"),
    "consensus.run_self_s": ("consensus.run", "self"),
    "consensus.diameter_s": ("consensus.diameter", "self"),
    "consensus.mixing_s": ("consensus.mixing", "self"),
    "consensus.mixing_builds": ("consensus.mixing", "calls"),
    "consensus.rounds": ("consensus.run", "count"),
    "cli.self_s": ("cli", "self"),
}


class Span:
    __slots__ = ("layer", "site", "parent", "op", "thread", "start", "end", "count")

    def __init__(self, layer, site, parent, op, thread):
        self.layer, self.site, self.parent, self.op, self.thread = layer, site, parent, op, thread
        self.start = self.end = 0.0
        self.count = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op_id: int | None = None
        self.absent: list[str] = []
        self._local = threading.local()

    def install(self, package) -> None:
        prefix = package.__name__
        modules = {
            name: module
            for name, module in list(sys.modules.items())
            if module is not None and (name == prefix or name.startswith(prefix + "."))
        }
        for home_name, dotted, layer in TARGETS:
            home = modules.get(f"{prefix}.{home_name}")
            owner_name, _, attr = dotted.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name, None)
                original = vars(owner).get(attr) if isinstance(owner, type) else None
                if not callable(original):
                    self.absent.append(f"{home_name}.{dotted}")
                    continue
                setattr(owner, attr, self._wrap(original, layer, home_name))
                continue
            original = getattr(home, attr, None)
            if not callable(original):
                self.absent.append(f"{home_name}.{dotted}")
                continue
            for name, module in modules.items():
                if vars(module).get(attr) is original:
                    site = name.rpartition(".")[2]
                    setattr(module, attr, self._wrap(original, layer, site))

    def _wrap(self, fn, layer: str, site: str):
        spans, local, tracer = self.spans, self._local, self
        count = COUNTS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = Span(layer, site, stack[-1] if stack else None, tracer.op_id, threading.get_ident())
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                spans.append(span)
            if count is not None:
                try:
                    span.count = count(result)
                except (AttributeError, TypeError, ValueError):
                    span.count = None
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write every span as [layer, site, start, end, parent index, op, thread]."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [s.layer, s.site, s.start, s.end, index.get(id(s.parent)), s.op, s.thread]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent, "spans": rows}, fh)

    def summary(self, op_latency: dict[int, float], main_thread: int) -> dict[str, float]:
        """Median over ops of each per-layer metric, plus each op's
        unattributed wall time (main-thread time outside any span)."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[id(span.parent)] += span.end - span.start
        per_op = {op: defaultdict(float) for op in op_latency}
        for span in self.spans:
            acc = per_op.get(span.op)
            if acc is None:
                continue
            duration = span.end - span.start
            acc[(span.layer, "self")] += duration - child_time[id(span)]
            acc[(span.layer, "calls")] += 1
            if span.count is not None:
                acc[(span.layer, "count")] += span.count
            if span.layer == "solver.core" and span.site == "consensus":
                acc["local_solve_s"] += duration
                acc["local_solves"] += 1
            if span.parent is None and span.thread == main_thread:
                acc["top_s"] += duration
        out = {}
        for metric, key in LAYER_METRICS.items():
            out[metric] = statistics.median(acc[key] for acc in per_op.values())
        out["consensus.local_solves"] = statistics.median(a["local_solves"] for a in per_op.values())
        out["consensus.local_solve_s"] = statistics.median(a["local_solve_s"] for a in per_op.values())
        out["trace.unattributed_s"] = statistics.median(
            op_latency[op] - acc["top_s"] for op, acc in per_op.items()
        )
        return out
