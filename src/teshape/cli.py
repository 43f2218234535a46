"""Command-line entry point: solve, shape-check, experiment, sweep, consensus.

Exit codes: 0 success (shape-check: admissible), 1 shape-check not
admissible, 2 validation or usage error, 3 solver failure. Human summaries go
to stdout, machine-readable artifacts to files, errors to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .consensus import CommGraph, DisconnectedGraph, NotConverged, run_distributed
from .experiments import (
    ExperimentSpec,
    run_monte_carlo,
    run_satiation_sweep,
    sweep_to_csv,
)
from .model import (
    Custom,
    ModelKind,
    Quadratic,
    ShapingQuery,
    ValidationError,
    instance_to_dict,
    load_instance,
)
from .shaping import check_homogeneous, check_pwl_set, check_quadratic_set
from .solver import SolverError, solve

EXIT_OK = 0
EXIT_NOT_ADMISSIBLE = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _default_threads() -> int:
    env = os.environ.get("TE_SHAPE_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            print(f"ignoring non-integer TE_SHAPE_THREADS={env!r}", file=sys.stderr)
    return os.cpu_count() or 1


def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        instance = load_instance(args.instance)
        if args.model is not None:
            instance = replace(instance, model=ModelKind(args.model))
        result = solve(instance, method=args.method)
    except ValidationError as exc:
        return _fail(EXIT_VALIDATION, f"validation error: {exc}")
    except OSError as exc:
        return _fail(EXIT_VALIDATION, f"cannot read instance: {exc}")
    except SolverError as exc:
        return _fail(EXIT_SOLVER, f"solver failure: {exc}")
    if args.out:
        # self-describing document: the instance fields extended by the result
        document = {**instance_to_dict(instance), **result.to_dict()}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")
    print(f"lambda_star={result.lambda_star:.6g}")
    print(f"method={result.method.value}")
    print(f"balance_residual={result.balance_residual:.3e}")
    return EXIT_OK


def _cmd_shape_check(args: argparse.Namespace) -> int:
    # per family: the box-bound options it requires and the check they feed
    boxes = {
        "quad": (("b_max", "m_max"), check_quadratic_set),
        "pwl": (("beta_max", "phi_max"), check_pwl_set),
    }
    try:
        if args.family in boxes:
            fields, check = boxes[args.family]
            bounds = {field: getattr(args, field) for field in fields}
            if None in bounds.values():
                options = " and ".join("--" + field.replace("_", "-") for field in fields)
                raise ValidationError([f"{options} required for {args.family}"])
            verdict = check(
                ShapingQuery(threshold=args.lambda_dagger, n=args.n, capacity=args.capacity, **bounds)
            )
        else:  # homog
            if args.b is None or args.m is None:
                raise ValidationError(["--b and --m required for homog"])
            theta = Quadratic(b=args.b, m=args.m)
            verdict = check_homogeneous(theta, args.n, args.capacity, args.lambda_dagger)
    except ValidationError as exc:
        return _fail(EXIT_VALIDATION, f"validation error: {exc}")
    print(f"admissible={str(verdict.admissible).lower()}")
    print(f"worst_case_lambda={verdict.worst_case_lambda:.6g}")
    print(f"binding_condition={verdict.binding_condition.value}")
    return EXIT_OK if verdict.admissible else EXIT_NOT_ADMISSIBLE


def _cmd_experiment(args: argparse.Namespace) -> int:
    try:
        spec = ExperimentSpec.load(args.spec)
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
        result = run_monte_carlo(spec, out_dir=args.out, threads=args.threads)
    except (ValidationError, OSError, KeyError, json.JSONDecodeError) as exc:
        return _fail(EXIT_VALIDATION, f"invalid experiment spec: {exc}")
    except SolverError as exc:
        return _fail(EXIT_SOLVER, f"solver failure: {exc}")
    for cell in result.cells:
        worst = max(cell.prices)
        print(f"{cell.key}: trials={len(cell.prices)} max_lambda_star={worst:.6g}")
    print(f"artifacts written to {args.out}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        if args.step < 1:
            raise ValidationError([f"--step must be a positive integer, got {args.step}"])
        instance = load_instance(args.instance)
        values = [float(v) for v in range(args.start, args.stop + 1, args.step)]
        rows = run_satiation_sweep(instance, agent=args.agent, values=values)
    except ValidationError as exc:
        return _fail(EXIT_VALIDATION, f"validation error: {exc}")
    except OSError as exc:
        return _fail(EXIT_VALIDATION, f"cannot read instance: {exc}")
    except SolverError as exc:
        return _fail(EXIT_SOLVER, f"solver failure: {exc}")
    if args.out:
        sweep_to_csv(rows, args.out)
    first, last = rows[0], rows[-1]
    print(f"rows={len(rows)}")
    print(f"lambda_star[{first.value:g}]={first.lambda_star:.6g}")
    print(f"lambda_star[{last.value:g}]={last.lambda_star:.6g}")
    # a first market that clears at zero price leaves the ratio undefined
    ratio = f"{last.lambda_star / first.lambda_star:.4g}" if first.lambda_star != 0 else "undefined"
    print(f"ratio={ratio}")
    return EXIT_OK


def _cmd_consensus(args: argparse.Namespace) -> int:
    try:
        instance = load_instance(args.instance)
        graph = CommGraph.load(args.graph) if args.graph else CommGraph.complete(instance.n)
        run = run_distributed(
            instance,
            graph,
            rounds=args.rounds,
            mode=args.mode,
            tol=args.tol,
        )
    except (ValidationError, OSError) as exc:
        return _fail(EXIT_VALIDATION, f"validation error: {exc}")
    except (DisconnectedGraph, NotConverged, SolverError) as exc:
        return _fail(EXIT_SOLVER, f"consensus failure: {exc}")
    if args.out:
        run.trace.to_csv(args.out)
    prices = {r.lambda_star for r in run.results}
    if len(prices) == 1:
        print(f"all agents agree: lambda_star={run.results[0].lambda_star:.6g}")
    else:
        spread = max(prices) - min(prices)
        print(f"agents within {spread:.3e}: lambda_star~{run.results[0].lambda_star:.6g}")
    print(f"rounds={run.rounds_used} final_consensus_error={run.trace.final_error:.3e}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teshape",
        description="Equilibrium pricing, social shaping and experiments for transactive energy markets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--model", choices=["mtes", "mtes_st"], default=None)
    p_solve.add_argument("--method", choices=["auto", "closed", "bisect"], default="auto")
    p_solve.add_argument("--out", default=None, help="write result JSON here")
    p_solve.set_defaults(func=_cmd_solve)

    p_shape = sub.add_parser("shape-check", help="check a parameter box against a threshold")
    p_shape.add_argument("--family", choices=["quad", "pwl", "homog"], required=True)
    p_shape.add_argument("--n", type=int, required=True)
    p_shape.add_argument("--C", dest="capacity", type=float, required=True)
    p_shape.add_argument("--lambda-dagger", type=float, required=True)
    p_shape.add_argument("--b-max", type=float, default=None)
    p_shape.add_argument("--m-max", type=float, default=None)
    p_shape.add_argument("--beta-max", type=float, default=None)
    p_shape.add_argument("--phi-max", type=float, default=None)
    p_shape.add_argument("--b", type=float, default=None, help="homogeneous quadratic curvature")
    p_shape.add_argument("--m", type=float, default=None, help="homogeneous quadratic satiation")
    p_shape.set_defaults(func=_cmd_shape_check)

    p_exp = sub.add_parser("experiment", help="run a Monte Carlo experiment spec")
    p_exp.add_argument("spec")
    p_exp.add_argument("--seed", type=int, default=None, help="override the seed in the experiment file")
    p_exp.add_argument("--out", required=True, help="output directory for CSV/JSON artifacts")
    p_exp.add_argument("--threads", type=int, default=_default_threads())
    p_exp.set_defaults(func=_cmd_experiment)

    p_sweep = sub.add_parser("sweep", help="sweep one agent's satiation load")
    p_sweep.add_argument("instance")
    p_sweep.add_argument("--agent", type=int, default=-1)
    p_sweep.add_argument("--start", type=int, default=5)
    p_sweep.add_argument("--stop", type=int, default=30)
    p_sweep.add_argument("--step", type=int, default=1)
    p_sweep.add_argument("--out", default=None, help="write sweep CSV here")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cons = sub.add_parser("consensus", help="distributed clearing demo")
    p_cons.add_argument("instance")
    p_cons.add_argument("--graph", default=None, help="graph JSON; default complete graph")
    p_cons.add_argument("--rounds", type=int, default=1000)
    p_cons.add_argument("--mode", choices=["flood", "average"], default="flood")
    p_cons.add_argument("--tol", type=float, default=None)
    p_cons.add_argument("--out", default=None, help="write trace CSV here")
    p_cons.set_defaults(func=_cmd_consensus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching our validation code
        return int(exc.code) if exc.code is not None else EXIT_VALIDATION
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
