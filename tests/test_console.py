"""The console-script steps of ``.github/workflows/tests.yml``, run in tier-1.

Each test is one workflow step: it runs that step's commands through
``python -m teshape.cli``, one subprocess per command, with ``src`` on
``PYTHONPATH``, and checks what the step checks: the exit code, one stderr
line for a failure, and no ``Traceback`` or ``RuntimeWarning`` there. A
subprocess sees the interpreter's start-up and exit as the console script
does, which the in-process tests of ``test_cli.py`` do not.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
MAX = sys.float_info.max


def teshape(*argv, env: dict | None = None) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one ``python -m teshape.cli`` process."""
    done = subprocess.run([sys.executable, "-m", "teshape.cli", *map(str, argv)], capture_output=True, text=True,
                          env=env or ENV, timeout=120)
    return done.returncode, done.stdout, done.stderr


def refused(code: int, *argv, env: dict | None = None) -> str:
    """Run a command that must exit ``code`` with one stderr line and no traceback or warning; its stderr."""
    got, _, err = teshape(*argv, env=env)
    assert got == code, (argv, err)
    assert err.count("\n") == 1 and "Traceback" not in err and "RuntimeWarning" not in err, (argv, err)
    return err


def agents_file(path: Path, productions, utilities) -> Path:
    """An instance file whose agents pair ``productions`` with ``utilities`` (dicts or one dict for all)."""
    utilities = [utilities] * len(productions) if isinstance(utilities, dict) else utilities
    path.write_text(json.dumps({"agents": [{"a": a, "utility": u} for a, u in zip(productions, utilities)]}))
    return path


def quadratic(b: float, m: float) -> dict:
    return {"kind": "quadratic", "b": b, "m": m}


def pwl(beta: float, phi: float) -> dict:
    return {"kind": "pwl", "beta": beta, "phi": phi}


def test_malformed_file_fails_cleanly():
    got, _, err = teshape("solve", os.devnull)
    assert got == 2 and "Traceback" not in err


def test_non_positive_capacity_estimate_is_a_consensus_failure(tmp_path):
    # a zero producer's estimate is 0 until averaging reaches it
    zero = agents_file(tmp_path / "zero.json", [0, 5], [quadratic(1, 3), quadratic(2, 4)])
    refused(3, "consensus", zero, "--mode", "average", "--rounds", "0")


def test_disconnected_flood_graph_is_a_consensus_failure(tmp_path):
    # four agents in two components: flooding stops with agents missing data
    four = agents_file(tmp_path / "four.json", [1, 2, 3, 4], quadratic(1, 5))
    split = tmp_path / "split.json"
    split.write_text(json.dumps({"n": 4, "edges": [[0, 1], [2, 3]]}))
    refused(3, "consensus", four, "--graph", split, "--mode", "flood")


def test_capacity_estimate_past_the_float_limit_is_a_consensus_failure(tmp_path):
    # C is the largest 1000 agents may hold, so the file solves, but an averaged estimate summed over 1000 agents
    # rounds past it
    n = 1000
    limit = agents_file(tmp_path / "limit.json", [MAX / (1 + n * sys.float_info.epsilon)] + [0.0] * (n - 1),
                        quadratic(1, 3))
    assert teshape("solve", limit)[0] == 0
    refused(3, "consensus", limit, "--mode", "average", "--rounds", "50")


def test_tiny_pwl_rates_clear_and_a_huge_threshold_keeps_stderr_empty(tmp_path):
    # rates 1e-12 and 2e-12 clear at exactly 1e-12 in both models, not mistaken for the zero price
    tiny = agents_file(tmp_path / "tiny.json", [2, 2], [pwl(1e-12, 3), pwl(2e-12, 3)])
    for model in ("mtes", "mtes_st"):
        out = tmp_path / f"tiny_{model}.json"
        assert teshape("solve", tiny, "--model", model, "--out", out)[0] == 0
        assert json.loads(out.read_text())["lambda_star"] == 1e-12
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"family": "pwl", "n": 50, "trials": 20, "lambda_dagger": 1.7e308, "seed": 3}))
    got, _, err = teshape("experiment", huge, "--out", tmp_path / "huge")
    assert (got, err) == (0, "")


def test_pwl_capacity_past_the_float_sum_down_the_rates(tmp_path):
    # eleven agents whose phi, summed down the rates, reach 3.9999999999999996 < C = 4 < 4.000000000000001, their
    # pairwise sum: the last tier, at the lowest rate, takes the remainder
    beta = [2, 4, 1, 3, 4, 1, 3, 1, 4, 4, 3]
    phi = [0.3, 0.8, 0.4, 0.7, 0.4, 0.3, 0.3, 0.2, 0.2, 0.2, 0.2]
    knife = agents_file(tmp_path / "knife.json", [4] + [0] * 10, [pwl(r, p) for r, p in zip(beta, phi)])
    for model in ("mtes", "mtes_st"):
        out = tmp_path / f"knife_{model}.json"
        assert teshape("solve", knife, "--model", model, "--out", out)[0] == 0
        assert json.loads(out.read_text())["lambda_star"] == 1.0


def test_market_mixing_quadratic_and_pwl_agents_clears(tmp_path):
    # a quadratic agent (b 2, m 6) and a PWL one (beta 4, phi 3) with C = 8 clear at 2, the PWL agent saturated
    mixed = agents_file(tmp_path / "mixed.json", [5, 3], [quadratic(2, 6), pwl(4, 3)])
    for command in (["solve"], ["solve", "--model", "mtes_st"], ["consensus", "--mode", "average"]):
        got, out, err = teshape(command[0], mixed, *command[1:])
        assert (got, err) == (0, "") and "lambda_star=2\n" in out, (command, out, err)


@pytest.mark.parametrize("utility", [quadratic(1, 3), pwl(1, 3)], ids=["quadratic", "pwl"])
def test_total_production_that_overflows_is_refused(utility, tmp_path):
    # every a is finite, their sum is not, or it lies within n*eps of the float limit
    for productions in ([1e308, 1e308], [MAX, 0, 0]):
        overflow = agents_file(tmp_path / "overflow.json", productions, utility)
        for command in (["solve"], ["consensus"], ["consensus", "--mode", "average"]):
            refused(2, command[0], overflow, *command[1:])


def test_quadratic_curvatures_whose_reciprocals_overflow_are_refused(tmp_path):
    # two agents with b = 1e-308 (the sum of their 1/b overflows) or b = 5e-324 (1/b itself does), satiated
    # within C or not
    for utility in (quadratic(1e-308, 1), quadratic(5e-324, 3)):
        tiny_b = agents_file(tmp_path / "tiny_b.json", [1, 1], utility)
        for command in (["solve"], ["consensus", "--mode", "average"]):
            refused(2, command[0], tiny_b, *command[1:])


def test_quadratic_drop_out_price_that_overflows_is_refused(tmp_path):
    # one agent with b = m = 1e200, whose drop-out price m*b is past the float limit
    refused(2, "solve", agents_file(tmp_path / "huge_mb.json", [1], quadratic(1e200, 1e200)))


def test_shape_check_numbers_that_validation_rejects_are_refused():
    # a huge --n (past 2**63) and a NaN curvature
    refused(2, "shape-check", "--family", "quad", "--n", "1" + "0" * 400, "--C", "20", "--lambda-dagger", "10",
            "--b-max", "1", "--m-max", "6")
    refused(2, "shape-check", "--family", "homog", "--n", "4", "--C", "20", "--lambda-dagger", "10", "--b", "nan",
            "--m", "6")


MARKET = ["--n", "4", "--C", "20", "--lambda-dagger", "10"]


def test_shape_check_exits_by_verdict_for_every_family():
    # quad, pwl and homog exit 0 when admissible and 1 when not; a missing --phi-max or --m exits 2 with one stderr
    # line; m_max one ulp above C/n rounds n*m_max - C to 0 and exits 0; without --b-max or --beta-max the range
    # prints and exits 0; n*lambda_dagger or n*m_max past the float range is decided per agent
    expect = [
        (0, ["--family", "quad", *MARKET, "--b-max", "10", "--m-max", "6"]),
        (1, ["--family", "quad", *MARKET, "--b-max", "11", "--m-max", "6"]),
        (0, ["--family", "pwl", *MARKET, "--beta-max", "10", "--phi-max", "6"]),
        (1, ["--family", "pwl", *MARKET, "--beta-max", "11", "--phi-max", "6"]),
        (0, ["--family", "homog", *MARKET, "--b", "2", "--m", "7"]),
        (1, ["--family", "homog", *MARKET, "--b", "6", "--m", "7"]),
        (2, ["--family", "pwl", *MARKET, "--beta-max", "10"]),
        (2, ["--family", "homog", *MARKET, "--b", "2"]),
        (0, ["--family", "quad", "--n", "3", "--C", "1", "--lambda-dagger", "1", "--b-max", "1",
             "--m-max", "0.33333333333333337"]),
        (1, ["--family", "quad", "--n", "10", "--C", "50", "--lambda-dagger", "1e308", "--m-max", "1e299",
             "--b-max", "1e10"]),
        (0, ["--family", "quad", "--n", "3", "--C", "1e308", "--lambda-dagger", "1", "--m-max", "1e308",
             "--b-max", "1e-308"]),
    ]
    for code, argv in expect:
        if code == 2:
            refused(2, "shape-check", *argv)
        else:
            got, _, err = teshape("shape-check", *argv)
            assert (got, "Traceback" in err) == (code, False), argv
    for argv, out in ((["--family", "quad", *MARKET, "--m-max", "6"], "b_max_range=10.0\n"),
                      (["--family", "pwl", *MARKET, "--phi-max", "6"], "beta_max_range=10.0\n"),
                      (["--family", "quad", *MARKET, "--m-max", "5"], "b_max_range=inf\n")):
        assert teshape("shape-check", *argv) == (0, out, "")


def test_settings_come_from_argv_and_files_alone(tmp_path):
    # the exported variable that once set the thread count is not read; a non-positive --threads is refused; a NaN
    # literal in a spec or graph file is refused as it is parsed
    env = {**ENV, "TE_SHAPE_THREADS": "abc"}
    spec20 = tmp_path / "spec20.json"
    spec20.write_text(json.dumps({"family": "quadratic", "n": 20, "trials": 4, "lambda_dagger": 20, "seed": 3}))
    got, _, err = teshape("experiment", spec20, "--out", tmp_path / "spec20", env=env)
    assert (got, err) == (0, "")
    for threads in ("0", "-1"):
        refused(2, "experiment", spec20, "--out", tmp_path / "threads", "--threads", threads, env=env)
    nan_spec = tmp_path / "nan_spec.json"
    nan_spec.write_text('{"family": "quadratic", "n": 20, "trials": 4, "lambda_dagger": 20, "seed": NaN}')
    pair = agents_file(tmp_path / "pair.json", [1, 2], quadratic(1, 5))
    nan_graph = tmp_path / "nan_graph.json"
    nan_graph.write_text('{"n": NaN, "edges": [[0, 1]]}')
    for argv in (["experiment", nan_spec, "--out", tmp_path / "nan_out"], ["consensus", pair, "--graph", nan_graph]):
        assert "non-finite number not accepted" in refused(2, *argv, env=env)
