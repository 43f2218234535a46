"""teshape benchmark: one workload per invocation, one JSON result line.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed under ``.bench_work/``, times
set-up in separate processes (median of ``SETUP_PROBES`` and the measuring
process), then runs the closed loop in a fresh process for S seconds. With
``--trace 1`` the loop is split, S/2 untraced then S/2 traced, and the
per-layer metrics are printed instead of the end-to-end ones. Op costs are
in refs, wall times over a reference kernel's (``reference.py``). The last
line of stdout is the result; the line before it is the run context. Exits
2 without a result when the package sources are missing, 1 when a workload
process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import oracles
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 8  # set-up-only processes, after one discarded warm-up
CHILD_SLACK_S = 120.0  # beyond the measuring window, before a worker is killed


class WorkerFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("TE_SHAPE_THREADS", None)  # the experiment runs at its default thread count
    # NumPy's BLAS stays single-threaded: the experiment pool is the only parallelism
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workdir: str, mode: str, seconds: float) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time and, unless mode is "setup",
    its report."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workdir, mode, repr(seconds)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        rc = proc.wait(timeout=seconds + CHILD_SLACK_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if rc != 0 or not line.startswith("READY "):
        raise WorkerFailed(f"{mode} worker exited {rc} before finishing")
    setup_s = ready - start - float(line.split()[1])
    if mode == "setup":
        return setup_s, None
    with open(os.path.join(workdir, f"{mode}.json"), encoding="utf-8") as fh:
        return setup_s, json.load(fh)


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten ops beyond it; below 20 ops
    no percentile above the median qualifies, so the median stands in."""
    return max(50, (100 * (count - 10)) // count)


def end_to_end(records: list[dict], setup: list[float], peak_rss_kb: int) -> dict:
    cost = [r["cost_ref"] for r in records]
    failed = sum(r["error"] is not None for r in records)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_ref": (len(cost) / sum(cost), "1/ref"),
        "op_p50_ref": (statistics.median(cost), "ref"),
        "op_tail_ref": (oracles.percentile(cost, tail_percentile(len(cost))), "ref"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "ok_frac": ((len(records) - failed) / len(records), "fraction"),
    }


def wall_context(records: list[dict]) -> dict:
    """The wall times behind the op costs, for the run context."""
    latency = [r["latency_s"] for r in records]
    return {
        "op_p50_wall_s": statistics.median(latency),
        "ops_per_wall_s": len(latency) / sum(latency),
        "reference_p50_s": statistics.median(r["ref_s"] for r in records),
    }


def _unit(metric: str) -> str:
    for suffix, unit in (("_s", "s"), ("_bytes", "bytes"), ("_frac", "fraction")):
        if metric.endswith(suffix):
            return unit
    return "count"


def per_layer(plain: dict, traced: dict) -> dict:
    base = statistics.median(r["cost_ref"] for r in plain["records"])
    with_trace = statistics.median(r["cost_ref"] for r in traced["records"])
    layers = dict(traced["layers"])
    layers["cli.out_bytes"] = statistics.median(r["out_bytes"] for r in plain["records"])
    layers["proc.cpu_s"] = statistics.median(r["cpu_s"] for r in plain["records"])
    layers["trace.overhead_frac"] = (with_trace - base) / base
    return {name: (value, _unit(name)) for name, value in layers.items()}


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None) -> tuple[dict, dict]:
    """Generate, set up, measure and check one workload; returns (context, result)."""
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        sizes = sizes or workloads.full_sizes(workload)
        workloads.generate(workload, seed, workdir, sizes)
        if trace:
            _, plain = run_worker(workdir, "plain", seconds / 2.0)
            _, traced = run_worker(workdir, "traced", seconds / 2.0)
            records = plain["records"] + traced["records"]
            metrics = per_layer(plain, traced)
            setup = None
        else:
            run_worker(workdir, "setup", 0.0)  # warm-up: compiled bytecode, file cache
            setup = [run_worker(workdir, "setup", 0.0)[0] for _ in range(SETUP_PROBES)]
            setup_s, plain = run_worker(workdir, "plain", seconds)
            setup.append(setup_s)
            records = plain["records"]
            metrics = end_to_end(records, setup, plain["peak_rss_kb"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [r["error"] for r in records if r["error"] is not None]
    context = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "sizes": sizes,
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
        "experiment_default_threads": plain.get("experiment_threads"),
        "ops": len(plain["records"]),
        "op_tail_percentile": tail_percentile(len(plain["records"])),
        **wall_context(plain["records"]),
        "setup_samples_s": setup,
        "absent_layers": traced["absent"] if trace else None,
        "first_failure": failed[0] if failed else None,
    }
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return context, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "teshape", "__init__.py")):
        print(f"no teshape sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        context, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
