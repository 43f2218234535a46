"""Command-line entry point: solve, shape-check, experiment, sweep, consensus.

Exit codes: 0 success (shape-check: admissible, or a range printed), 1
shape-check not admissible, 2 validation, usage or file error, 3 solver
failure, 4 internal error (an unexpected exception: a fault in teshape, not
a verdict on the input). Human summaries go to stdout, machine-readable
artifacts to files, and each failure to stderr as one line.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace

from .consensus import CommGraph, DisconnectedGraph, EstimateOutOfRange, NotConverged, run_distributed
from .experiments import (
    ExperimentSpec,
    run_monte_carlo,
    run_satiation_sweep,
    sweep_to_csv,
)
from .model import (
    ModelKind,
    Quadratic,
    ValidationError,
    load_instance,
    save_result,
)
from .shaping import check_homogeneous, check_pwl_set, check_quadratic_set, pwl_beta_range, quadratic_b_range
from .solver import SolverError, solve

EXIT_OK = 0
EXIT_NOT_ADMISSIBLE = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_INTERNAL = 4

# The CLI's one failure map: (exception classes, exit code, stderr line
# template). The first row whose classes match the exception wins.
FAILURES = (
    (ValidationError, EXIT_VALIDATION, "validation error: {}"),
    (OSError, EXIT_VALIDATION, "file error: {}"),
    (SolverError, EXIT_SOLVER, "solver failure: {}"),
    ((DisconnectedGraph, NotConverged, EstimateOutOfRange), EXIT_SOLVER, "consensus failure: {}"),
    (Exception, EXIT_INTERNAL, "internal error: {!r}"),
)


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    if args.model is not None:
        instance = replace(instance, model=ModelKind(args.model))
    result = solve(instance)
    if args.out:
        save_result(instance, result, args.out)
    print(f"lambda_star={result.lambda_star:.6g}")
    print(f"method={result.method.value}")
    print(f"balance_residual={result.balance_residual:.3e}")
    return EXIT_OK


def _cmd_shape_check(args: argparse.Namespace) -> int:
    # per family: its options, their check and the range printed without the first; all end in (n, C, lambda_dagger)
    boxes = {
        "quad": (("b_max", "m_max"), check_quadratic_set, quadratic_b_range),
        "pwl": (("beta_max", "phi_max"), check_pwl_set, pwl_beta_range),
        "homog": (("b", "m"), lambda b, m, *market: check_homogeneous(Quadratic(b=b, m=m), *market), None),
    }
    fields, check, box_range = boxes[args.family]
    required = fields[1:] if box_range else fields
    if any(getattr(args, field) is None for field in required):
        options = " and ".join("--" + field.replace("_", "-") for field in required)
        raise ValidationError([f"{options} required for {args.family}"])
    bound, *rest = [getattr(args, field) for field in fields]
    if bound is None:
        print(f"{fields[0]}_range={box_range(*rest, args.n, args.capacity, args.lambda_dagger)!r}")
        return EXIT_OK
    verdict = check(bound, *rest, args.n, args.capacity, args.lambda_dagger)
    print(f"admissible={str(verdict.admissible).lower()}")
    print(f"worst_case_lambda={verdict.worst_case_lambda:.6g}")
    print(f"binding_condition={verdict.binding_condition.value}")
    return EXIT_OK if verdict.admissible else EXIT_NOT_ADMISSIBLE


def _cmd_experiment(args: argparse.Namespace) -> int:
    spec = ExperimentSpec.load(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    result = run_monte_carlo(spec, out_dir=args.out, threads=args.threads)
    for cell in result.cells:
        worst = max(cell.prices)
        print(f"{cell.key}: trials={len(cell.prices)} max_lambda_star={worst:.6g}")
    print(f"artifacts written to {args.out}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.step < 1:
        raise ValidationError([f"--step must be a positive integer, got {args.step}"])
    instance = load_instance(args.instance)
    values = [float(v) for v in range(args.start, args.stop + 1, args.step)]
    rows = run_satiation_sweep(instance, agent=args.agent, values=values)
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
    instance = load_instance(args.instance)
    try:  # without --graph, the complete graph: an n x n mask and n(n-1)/2 edges
        graph = CommGraph.load(args.graph) if args.graph else CommGraph.complete(instance.n)
    except MemoryError:
        raise ValidationError([f"no memory for the graph of n={instance.n} agents; pass a sparser --graph"]) from None
    run = run_distributed(instance, graph, rounds=args.rounds, mode=args.mode, tol=args.tol)
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
    p_solve.add_argument("--out", default=None, help="write result JSON here")
    p_solve.set_defaults(func=_cmd_solve)

    p_shape = sub.add_parser("shape-check", help="check a parameter box against a threshold")
    p_shape.add_argument("--family", choices=["quad", "pwl", "homog"], required=True)
    p_shape.add_argument("--n", type=int, required=True)
    p_shape.add_argument("--C", dest="capacity", type=float, required=True)
    p_shape.add_argument("--lambda-dagger", type=float, required=True)
    p_shape.add_argument("--b-max", type=float, default=None, help="omit to print the largest admitted value")
    p_shape.add_argument("--m-max", type=float, default=None)
    p_shape.add_argument("--beta-max", type=float, default=None, help="omit to print the largest admitted value")
    p_shape.add_argument("--phi-max", type=float, default=None)
    p_shape.add_argument("--b", type=float, default=None, help="homogeneous quadratic curvature")
    p_shape.add_argument("--m", type=float, default=None, help="homogeneous quadratic satiation")
    p_shape.set_defaults(func=_cmd_shape_check)

    p_exp = sub.add_parser("experiment", help="run a Monte Carlo experiment spec")
    p_exp.add_argument("spec")
    p_exp.add_argument("--seed", type=int, default=None, help="override the seed in the experiment file")
    p_exp.add_argument("--out", required=True, help="output directory for CSV/JSON artifacts")
    p_exp.add_argument("--threads", type=int, default=os.cpu_count() or 1)
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


_parser = functools.cache(build_parser)  # one parser for every main() call


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching our validation code
        return int(exc.code) if exc.code is not None else EXIT_VALIDATION
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - every failure goes through FAILURES
        code, template = next((code, template) for kinds, code, template in FAILURES if isinstance(exc, kinds))
        print(template.format(exc), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
