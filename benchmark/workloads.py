"""The four benchmark workloads: input generation, program set-up, op, check.

Each workload generates its inputs from the workload seed (the program sees
only the generated files or arrays), does its once-per-run program calls in
``setup``, runs one op per ``op`` call, and checks the op's outputs with the
independent oracles in ``oracles.py``. Ops rotate over ``VARIANTS`` distinct
inputs. See ``NOTES.md`` for why each workload and size was chosen.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os

import numpy as np

import oracles

VARIANTS = 2


def full_sizes(name: str) -> dict:
    if name == "experiment_quad":
        return {"n": 100_000, "trials": 2 * (os.cpu_count() or 1)}
    if name == "solve_file_pwl_st":
        return {"n": 40_000}
    if name == "solve_mixed_custom":
        return {"n": 10_000}
    if name == "consensus_session":
        return {"flood_n": 200, "average_n": 400, "rounds": 2000}
    raise KeyError(name)


def _production(rng: np.random.Generator, n: int) -> np.ndarray:
    # metered production in kW, three decimals, normal(5, 1.25) clipped to [0, 10]
    return np.round(np.clip(rng.normal(5.0, 1.25, n), 0.0, 10.0), 3)


def _quadratic_params(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    # satiation loads well above the production mean, so prices are positive
    return np.round(rng.uniform(0.5, 2.0, n), 3), np.round(rng.uniform(5.0, 15.0, n), 3)


def _write_quadratic_market(path: str, a, b, m) -> None:
    agents = [
        {"a": ai, "utility": {"kind": "quadratic", "b": bi, "m": mi}}
        for ai, bi, mi in zip(a.tolist(), b.tolist(), m.tolist())
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"model": "mtes", "agents": agents}, fh)


def _ring(n: int) -> list[list[int]]:
    return [[i, (i + 1) % n] for i in range(n)]


def _cli(teshape, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = teshape.cli.main(argv)
    return rc, out.getvalue() + err.getvalue()


def _failed_rc(rc: int, text: str) -> str:
    return f"exit code {rc}: {text.strip()[-300:]}"


def log_value(w: float, x: float) -> float:
    return w * math.log1p(x)


def log_deriv(w: float, x: float) -> float:
    return w / (1.0 + x)


class Workload:
    """Base: ``params`` holds the generated, JSON-serialisable input facts;
    ``arrays`` the generated arrays the checks need."""

    def __init__(self, workdir: str, params: dict, arrays: dict) -> None:
        self.workdir, self.params, self.arrays = workdir, params, arrays
        self.teshape = None

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self, teshape) -> None:
        self.teshape = teshape

    def out_bytes(self) -> int:
        return 0


class ExperimentQuad(Workload):
    """``teshape experiment`` on a quadratic n=100000 spec, one lambda-dagger
    cell, 2*nproc trials, a fresh seed per op, one trial thread.

    One thread, not the default ``nproc``: on a 2-vCPU VM two busy trial
    threads draw 20-40% steal time and the op swings from 1.2 s to over 2 s
    between runs, too wide for any regression bound (see NOTES.md)."""

    @staticmethod
    def generate(rng, workdir: str, sizes: dict) -> tuple[dict, dict]:
        thresholds = [round(float(rng.uniform(15.0, 30.0)), 1) for _ in range(VARIANTS)]
        for v, lam in enumerate(thresholds):
            spec = {"family": "quadratic", "n": sizes["n"], "trials": sizes["trials"],
                    "lambda_dagger": lam, "seed": 0}
            with open(os.path.join(workdir, f"spec_{v}.json"), "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
        return {"thresholds": thresholds, "seed_base": int(rng.integers(2**40))}, {}

    def op(self, k: int):
        seed = self.params["seed_base"] + k
        return _cli(self.teshape, ["experiment", self.path(f"spec_{k % VARIANTS}.json"),
                                   "--out", self.path("out"), "--seed", str(seed), "--threads", "1"])

    def out_bytes(self) -> int:
        out = self.path("out")
        return sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))

    def check(self, k: int, output) -> str | None:
        rc, text = output
        if rc != 0:
            return _failed_rc(rc, text)
        lam_dagger = self.params["thresholds"][k % VARIANTS]
        key = f"lambda_dagger={lam_dagger:g}"
        seed = self.params["seed_base"] + k
        with open(self.path("out/results.csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.params["sizes"]["trials"]:
            return f"results.csv has {len(rows)} rows"
        prices = []
        for t, row in enumerate(rows):
            if row["cell_key"] != key or int(row["trial"]) != t or int(row["seed"]) != seed:
                return f"results.csv row {t} mislabelled: {row}"
            lam = float(row["lambda_star"])
            # the admissibility theorem: every profile from the box clears at or below lambda-dagger
            if not (math.isfinite(lam) and lam <= lam_dagger * (1.0 + oracles.REL_TOL)):
                return f"trial {t}: lambda*={lam!r} above lambda-dagger {lam_dagger}"
            prices.append(lam)
        with open(self.path("out/stats.csv"), newline="", encoding="utf-8") as fh:
            stats = list(csv.DictReader(fh))
        if len(stats) != 1 or stats[0]["cell_key"] != key:
            return f"stats.csv rows {stats}"
        expected = oracles.box_summary(prices)
        for field, want in expected.items():
            got = stats[0][field]
            if field == "n_outliers":
                if int(got) != want:
                    return f"stats.csv {field}={got}, expected {want}"
            elif not oracles.close(float(got), want):
                return f"stats.csv {field}={got}, expected {want!r}"
        return None


class SolveFilePwlSt(Workload):
    """``teshape solve`` on a 40000-agent piecewise-linear trading file.

    40000 agents, not the 100000 it was first sized at: at ≈3 s per op a
    run held only seven ops, and their median cost moved by 0.12 from run to
    run (see NOTES.md)."""

    @staticmethod
    def generate(rng, workdir: str, sizes: dict) -> tuple[dict, dict]:
        n = sizes["n"]
        arrays = {}
        for v in range(VARIANTS):
            a = _production(rng, n)
            # cent-resolution rates tie often, so the marginal tier is shared
            beta = np.round(rng.uniform(1.0, 30.0, n), 2)
            phi = np.round(rng.uniform(2.0, 12.0, n), 3)
            arrays.update({f"a{v}": a, f"beta{v}": beta, f"phi{v}": phi})
            with open(os.path.join(workdir, f"market_{v}.json"), "w", encoding="utf-8") as fh:
                fh.write('{"model": "mtes_st", "agents": [')
                fh.write(", ".join(
                    f'{{"a": {ai!r}, "utility": {{"kind": "pwl", "beta": {bi!r}, "phi": {pi!r}}}}}'
                    for ai, bi, pi in zip(a.tolist(), beta.tolist(), phi.tolist())
                ))
                fh.write("]}\n")
        return {}, arrays

    def op(self, k: int):
        return _cli(self.teshape, ["solve", self.path(f"market_{k % VARIANTS}.json"),
                                   "--out", self.path("result.json")])

    def out_bytes(self) -> int:
        return os.path.getsize(self.path("result.json"))

    def check(self, k: int, output) -> str | None:
        rc, text = output
        if rc != 0:
            return _failed_rc(rc, text)
        v = k % VARIANTS
        a, beta, phi = (self.arrays[f"{f}{v}"] for f in ("a", "beta", "phi"))
        capacity = float(np.sum(a))
        tol = oracles.balance_tol(capacity)
        with open(self.path("result.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        lam = doc["lambda_star"]
        want = oracles.pwl_price(beta, phi, capacity)
        if not oracles.close(lam, want):
            return f"lambda*={lam!r}, breakpoint oracle {want!r}"
        x = np.asarray(doc["x_star"], dtype=float)
        e = np.asarray(doc["e_star"], dtype=float)
        if x.shape != a.shape or e.shape != a.shape:
            return f"allocation lengths {x.shape} {e.shape}, expected {a.shape}"
        if abs(float(np.sum(e))) > tol:
            return f"sum of trades {float(np.sum(e))!r} exceeds {tol:.3e}"
        if float(np.max(x + e - a)) > tol:
            return f"x + e exceeds a by {float(np.max(x + e - a))!r}"
        if float(np.max(np.abs(x - oracles.pwl_allocation(beta, phi, capacity, want)))) > tol:
            return "allocation differs from the breakpoint oracle"
        return None


class SolveMixedCustom(Workload):
    """``teshape.solve`` on an in-memory n=10000 market, 95% quadratic and 5%
    Custom log-utility agents w*log(1+x): the generic bisection route."""

    CUSTOM_EVERY = 20

    @staticmethod
    def generate(rng, workdir: str, sizes: dict) -> tuple[dict, dict]:
        n = sizes["n"]
        arrays = {}
        for v in range(VARIANTS):
            b, m = _quadratic_params(rng, n)
            arrays.update({f"a{v}": _production(rng, n), f"b{v}": b, f"m{v}": m,
                           f"w{v}": np.round(rng.uniform(2.0, 20.0, n), 3)})
        return {}, arrays

    def _split(self, v: int):
        custom = np.arange(len(self.arrays[f"a{v}"])) % self.CUSTOM_EVERY == 0
        return custom, self.arrays[f"b{v}"][~custom], self.arrays[f"m{v}"][~custom], self.arrays[f"w{v}"][custom]

    def setup(self, teshape) -> None:
        super().setup(teshape)
        self.instances = []
        for v in range(VARIANTS):
            custom = self._split(v)[0]
            prefs = tuple(
                teshape.Custom(functools.partial(log_value, w), functools.partial(log_deriv, w))
                if is_custom else teshape.Quadratic(b=b, m=m)
                for is_custom, b, m, w in zip(custom.tolist(), self.arrays[f"b{v}"].tolist(),
                                              self.arrays[f"m{v}"].tolist(), self.arrays[f"w{v}"].tolist())
            )
            self.instances.append(teshape.MarketInstance(
                production=tuple(self.arrays[f"a{v}"].tolist()), preferences=prefs))

    def op(self, k: int):
        return self.teshape.solve(self.instances[k % VARIANTS])

    def check(self, k: int, result) -> str | None:
        v = k % VARIANTS
        custom, b, m, w = self._split(v)
        capacity = float(np.sum(self.arrays[f"a{v}"]))
        lam = result.lambda_star
        want = oracles.mixed_price(b, m, w, capacity)
        if not oracles.close(lam, want):
            return f"lambda*={lam!r}, bisection oracle {want!r}"
        x = np.asarray(result.x_star, dtype=float)
        if x.shape != custom.shape:
            return f"allocation length {x.shape}"
        if abs(float(np.sum(x)) - capacity) > oracles.balance_tol(capacity):
            return f"sum x* - C = {float(np.sum(x)) - capacity!r}"
        br_quad, br_log = oracles.mixed_best_response(lam, b, m, w)
        for got, br in ((x[~custom], br_quad), (x[custom], br_log)):
            if np.any(np.abs(got - br) > oracles.REL_TOL * np.maximum(1.0, br)):
                return "allocation is not the best response at lambda*"
        return None


class ConsensusSession(Workload):
    """Three ``teshape consensus`` calls: flood on a ring and on a complete
    graph at n=200, Metropolis averaging on a ring at n=400 for 2000 rounds."""

    @staticmethod
    def generate(rng, workdir: str, sizes: dict) -> tuple[dict, dict]:
        arrays = {}
        for v in range(VARIANTS):
            for label in ("flood", "average"):
                n = sizes[f"{label}_n"]
                a = _production(rng, n)
                b, m = _quadratic_params(rng, n)
                arrays.update({f"{label}_a{v}": a, f"{label}_b{v}": b, f"{label}_m{v}": m})
                _write_quadratic_market(os.path.join(workdir, f"{label}_{v}.json"), a, b, m)
        flood_n, average_n = sizes["flood_n"], sizes["average_n"]
        graphs = {
            "ring_flood": (flood_n, _ring(flood_n)),
            "complete_flood": (flood_n, [[i, j] for i in range(flood_n) for j in range(i + 1, flood_n)]),
            "ring_average": (average_n, _ring(average_n)),
        }
        for name, (n, edges) in graphs.items():
            with open(os.path.join(workdir, f"{name}.json"), "w", encoding="utf-8") as fh:
                json.dump({"n": n, "edges": edges}, fh)
        return {}, arrays

    def setup(self, teshape) -> None:
        super().setup(teshape)
        self.references = {}
        self.runs = []
        # Capture the runs the CLI computes, for the bitwise flood check; the
        # stdout summary is checked as well, so a rename degrades, not breaks.
        for module in (teshape, teshape.cli, teshape.consensus):
            original = vars(module).get("run_distributed")
            if callable(original):
                setattr(module, "run_distributed", self._capturing(original))

    def _capturing(self, fn):
        @functools.wraps(fn)
        def capture(*args, **kwargs):
            run = fn(*args, **kwargs)
            self.runs.append(run)
            return run
        return capture

    def op(self, k: int):
        v = k % VARIANTS
        self.runs.clear()
        flood = self.path(f"flood_{v}.json")
        return [
            _cli(self.teshape, ["consensus", flood, "--graph", self.path("ring_flood.json")]),
            _cli(self.teshape, ["consensus", flood, "--graph", self.path("complete_flood.json")]),
            _cli(self.teshape, ["consensus", self.path(f"average_{v}.json"), "--graph",
                                self.path("ring_average.json"), "--mode", "average",
                                "--rounds", str(self.params["sizes"]["rounds"])]),
        ]

    def _reference(self, v: int):
        # the library's own solve of the same instance file
        if v not in self.references:
            self.references[v] = self.teshape.solve(
                self.teshape.load_instance(self.path(f"flood_{v}.json")))
        return self.references[v]

    def check(self, k: int, outputs) -> str | None:
        for rc, text in outputs:
            if rc != 0:
                return _failed_rc(rc, text)
        v = k % VARIANTS
        sizes = self.params["sizes"]
        diameters = (sizes["flood_n"] // 2, 1)  # ring, complete graph
        ref = self._reference(v)
        a, b, m = (self.arrays[f"flood_{f}{v}"] for f in "abm")
        want = float(oracles.quadratic_prices(b, m, float(np.sum(a)))[0])
        if not oracles.close(ref.lambda_star, want):
            return f"solve lambda*={ref.lambda_star!r}, water-filling oracle {want!r}"
        for (rc, text), diameter in zip(outputs[:2], diameters):
            if f"all agents agree: lambda_star={ref.lambda_star:.6g}\n" not in text \
                    or f"rounds={diameter} " not in text:
                return f"flood summary disagrees with solve: {text!r}"
        if len(self.runs) != 3:
            return None  # run_distributed no longer bound where it can be captured
        for run, diameter in zip(self.runs[:2], diameters):
            if run.rounds_used != diameter:
                return f"flood used {run.rounds_used} rounds, diameter is {diameter}"
            if any(r.lambda_star != ref.lambda_star or r.x_star != ref.x_star for r in run.results):
                return "flood result differs bitwise from solve on the same instance"
        run = self.runs[2]
        a, b, m = (self.arrays[f"average_{f}{v}"] for f in "abm")
        if run.rounds_used != sizes["rounds"]:
            return f"average used {run.rounds_used} rounds"
        estimates = np.asarray(run.trace.estimates[-1], dtype=float)
        if not oracles.close(float(np.mean(estimates)), float(np.mean(a))):
            return "averaging did not preserve the network mean"
        local = oracles.quadratic_prices(b, m, estimates * len(a))
        got = np.array([r.lambda_star for r in run.results])
        if np.any(np.abs(got - local) > oracles.REL_TOL * np.maximum(1.0, np.abs(local))):
            return "local prices differ from water-filling at the agents' capacity estimates"
        return None


WORKLOADS = {
    "experiment_quad": ExperimentQuad,
    "solve_file_pwl_st": SolveFilePwlSt,
    "solve_mixed_custom": SolveMixedCustom,
    "consensus_session": ConsensusSession,
}


def generate(name: str, seed: int, workdir: str, sizes: dict) -> None:
    """Write the workload's inputs, arrays and manifest into ``workdir``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed % 2**64, sorted(WORKLOADS).index(name)]))
    params, arrays = WORKLOADS[name].generate(rng, workdir, sizes)
    params.update({"workload": name, "seed": seed, "sizes": sizes})
    np.savez(os.path.join(workdir, "arrays.npz"), **arrays)
    with open(os.path.join(workdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(params, fh)


def load(workdir: str) -> Workload:
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        params = json.load(fh)
    with np.load(os.path.join(workdir, "arrays.npz")) as data:
        arrays = {key: data[key] for key in data.files}
    return WORKLOADS[params["workload"]](workdir, params, arrays)
