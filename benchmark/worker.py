"""One workload process: set up, report readiness, run the closed loop.

Usage: worker.py WORKDIR MODE SECONDS, MODE one of ``setup`` (stop once
ready), ``plain`` or ``traced``. The parent times the process from spawn to
the ``READY <excluded_s>`` line; ``excluded_s`` is the time spent loading the
benchmark's own arrays, which set-up time does not count. Per-op records go
to WORKDIR/MODE.json.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import threading
import time

import workloads  # imports NumPy, which the package needs too: counted as set-up

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def measure(workload, seconds: float, tracer=None) -> list[dict]:
    """Closed loop, one client: the next op starts when the previous one and
    its output check have finished. Checks and collection sit outside the
    timed region. The reference kernel runs right before and right after each
    op; the op's cost is its wall time over their mean (see reference.py)."""
    from reference import reference_s  # here, so building its data is not set-up time

    reference_s()  # warm-up
    records = []
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        gc.collect()
        if tracer is not None:
            tracer.op_id = k
        ref_before = reference_s()
        cpu0, t0 = _cpu_s(), time.perf_counter()
        try:
            output, error = workload.op(k), None
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            output, error = None, f"{type(exc).__name__}: {exc}"
        t1, cpu1 = time.perf_counter(), _cpu_s()
        ref_after = reference_s()
        if tracer is not None:
            tracer.op_id = None
        out_bytes = 0
        if error is None:
            try:
                error = workload.check(k, output)
                out_bytes = workload.out_bytes()
            except Exception as exc:  # noqa: BLE001 - a malformed output is a failed op
                error = f"check raised {type(exc).__name__}: {exc}"
        records.append({"latency_s": t1 - t0, "cost_ref": 2.0 * (t1 - t0) / (ref_before + ref_after),
                        "ref_s": 0.5 * (ref_before + ref_after), "cpu_s": cpu1 - cpu0,
                        "out_bytes": out_bytes, "error": error})
        k += 1
        if time.perf_counter() >= deadline:
            return records


def main(workdir: str, mode: str, seconds: float) -> int:
    t0 = time.perf_counter()
    workload = workloads.load(workdir)
    excluded = time.perf_counter() - t0

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import teshape
    import teshape.cli

    if not os.path.abspath(teshape.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"teshape imported from {teshape.__file__}, not from this checkout", file=sys.stderr)
        return 2
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(teshape)
    workload.setup(teshape)
    print(f"READY {excluded!r}", flush=True)
    if mode == "setup":
        return 0

    records = measure(workload, seconds, tracer)
    report = {"records": records,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        latency = {k: r["latency_s"] for k, r in enumerate(records)}
        report["layers"] = tracer.summary(latency, threading.get_ident())
        report["absent"] = tracer.absent
        tracer.dump(os.path.join(os.path.dirname(workdir), f"spans-{workload.params['workload']}.json"))
    if mode == "plain":
        try:
            argv = ["experiment", "spec.json", "--out", "out"]
            report["experiment_threads"] = teshape.cli.build_parser().parse_args(argv).threads
        except (SystemExit, AttributeError):
            report["experiment_threads"] = None
    with open(os.path.join(workdir, f"{mode}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], float(sys.argv[3])))
