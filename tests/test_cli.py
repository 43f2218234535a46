from __future__ import annotations

import json
import os
import re
import sys
import threading
import warnings
from unittest import mock

import pytest

from teshape.cli import main

from oracles import exact_b_range, exact_worst_case, rounded


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_reports_price(quartet_path, capsys):
    code, out, err = run_cli(capsys, "solve", str(quartet_path))
    assert code == 0
    assert "lambda_star=1.76471" in out
    assert err == ""


def test_solve_writes_result_json(quartet_path, tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code, _, _ = run_cli(capsys, "solve", str(quartet_path), "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["lambda_star"] == pytest.approx(1.765, abs=1e-3)
    assert payload["method"] == "ClosedFormQuadratic"
    assert len(payload["x_star"]) == 4
    # the document embeds the instance it was solved from
    assert payload["model"] == "mtes"
    assert payload["agents"][0]["utility"]["b"] == 2.0
    assert "balance_residual" in payload["diagnostics"]


def test_solve_model_override_adds_trades(quartet_path, tmp_path, capsys):
    out_path = tmp_path / "st.json"
    code, _, _ = run_cli(
        capsys, "solve", str(quartet_path), "--model", "mtes_st", "--out", str(out_path)
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert "e_star" in payload
    assert sum(payload["e_star"]) == pytest.approx(0.0, abs=1e-9)


def test_solve_corrupt_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli(capsys, "solve", str(bad))
    assert code == 2
    assert "validation error" in err
    assert out == ""


def test_solve_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "solve", str(tmp_path / "nope.json"))
    assert code == 2
    assert err


def test_solve_method_option_is_a_usage_error(quartet_path, capsys):
    # the preferences alone pick the route: there is no option to choose it
    for method in ("auto", "closed", "bisect"):
        code, out, err = run_cli(capsys, "solve", str(quartet_path), "--method", method)
        assert code == 2 and not out
        assert "unrecognized arguments: --method" in err


def test_shape_check_boundary_admissible(capsys):
    n, capacity, threshold = 100, 500.0, 20.0
    m_max = 2.0 * capacity / n
    b_max = n * threshold / (n * m_max - capacity)
    code, out, _ = run_cli(
        capsys,
        "shape-check",
        "--family", "quad",
        "--n", str(n),
        "--C", str(capacity),
        "--lambda-dagger", str(threshold),
        "--b-max", repr(b_max),
        "--m-max", repr(m_max),
    )
    assert code == 0
    assert "admissible=true" in out
    assert "worst_case_lambda=20" in out


def test_shape_check_pwl_rejection_exits_1(capsys):
    code, out, _ = run_cli(
        capsys,
        "shape-check",
        "--family", "pwl",
        "--n", "10",
        "--C", "50",
        "--lambda-dagger", "20",
        "--beta-max", "25",
        "--phi-max", "10",
    )
    assert code == 1
    assert "admissible=false" in out


def test_shape_check_missing_capacity_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "shape-check", "--family", "quad", "--n", "4", "--lambda-dagger", "20"
    )
    assert code == 2


def test_shape_check_homogeneous(capsys):
    code, out, _ = run_cli(
        capsys,
        "shape-check",
        "--family", "homog",
        "--n", "4",
        "--C", "20",
        "--lambda-dagger", "10",
        "--b", "2",
        "--m", "7",
    )
    assert code == 0  # marginal value 2*(7-5)=4 <= 10
    assert "worst_case_lambda=4" in out


def test_shape_check_knife_edge_box_is_admissible(capsys):
    # m_max one ulp above C/n rounds n*m_max - C to 0: worst case 0, admissible, not a ZeroDivisionError
    code, out, err = run_cli(capsys, "shape-check", "--family", "quad", "--n", "3", "--C", "1", "--lambda-dagger", "1",
                             "--b-max", "1", "--m-max", "0.33333333333333337")
    assert (code, out, err) == (0, "admissible=true\nworst_case_lambda=0\nbinding_condition=BMaxBound\n", "")


@pytest.mark.parametrize("family, given, message", [
    ("quad", ["--b-max", "1"], "--m-max required for quad"),
    ("pwl", ["--beta-max", "1"], "--phi-max required for pwl"),
    ("homog", ["--b", "1"], "--b and --m required for homog"),
    ("homog", ["--b-max", "1", "--m-max", "6"], "--b and --m required for homog"),
])
def test_shape_check_missing_bound_exits_2(family, given, message, capsys):
    argv = ["shape-check", "--family", family, "--n", "4", "--C", "20", "--lambda-dagger", "10", *given]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"validation error: {message}\n")


MARKET = ["--n", "10", "--C", "50", "--lambda-dagger", "1"]


@pytest.mark.parametrize("argv, out", [
    (["--family", "quad", *MARKET, "--m-max", "6"], "b_max_range=1.0\n"),  # 10*1/(10*6 - 50)
    (["--family", "pwl", *MARKET, "--phi-max", "6"], "beta_max_range=1.0\n"),  # lambda_dagger
    (["--family", "pwl", *MARKET, "--phi-max", "5"], "beta_max_range=1.0\n"),  # phi_max = C/n: not strictly below
    (["--family", "quad", *MARKET, "--m-max", "5"], "b_max_range=inf\n"),  # inside the share condition
    (["--family", "pwl", *MARKET, "--phi-max", "4.5"], "beta_max_range=inf\n"),
    (["--family", "quad", "--n", "3", "--C", "1", "--lambda-dagger", "1", "--m-max", "0.33333333333333337"],
     "b_max_range=inf\n"),  # n*m_max - C rounds to 0
], ids=["quad", "pwl", "pwl-at-share", "quad-inside-share", "pwl-inside-share", "quad-knife-edge"])
def test_shape_check_without_the_bound_prints_its_range(argv, out, capsys):
    assert run_cli(capsys, "shape-check", *argv) == (0, out, "")


@pytest.mark.parametrize("b_max, code", [("1.0", 0), ("1.0000000000000002", 1)])
def test_shape_check_admits_the_printed_range_and_refuses_the_next_float(b_max, code, capsys):
    got, out, _ = run_cli(capsys, "shape-check", "--family", "quad", *MARKET, "--m-max", "6", "--b-max", b_max)
    assert (got, out.splitlines()[0]) == (code, f"admissible={str(code == 0).lower()}")


@pytest.mark.parametrize("b_max, m_max, n, capacity, threshold", [
    (1e10, 1e299, 10, 50.0, 1e308),  # n*threshold overflows; the worst case, ~1e309, is past the float range: exit 1
    (1e-308, 1e308, 3, 1e308, 1.0),  # n*m_max overflows; the worst case is 2/3: exit 0
], ids=["n-threshold-overflows", "n-m-overflows"])
def test_shape_check_decides_boxes_whose_n_fold_products_overflow(b_max, m_max, n, capacity, threshold, capsys):
    admissible = b_max <= exact_b_range(m_max, n, capacity, threshold)
    worst = rounded(exact_worst_case(b_max, m_max, n, capacity))
    argv = ["--family", "quad", "--n", str(n), "--C", repr(capacity), "--lambda-dagger", repr(threshold),
            "--m-max", repr(m_max), "--b-max", repr(b_max)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "shape-check", *argv)
    assert (code, err, caught) == (0 if admissible else 1, "", [])
    assert out == f"admissible={str(admissible).lower()}\nworst_case_lambda={worst:.6g}\nbinding_condition=BMaxBound\n"


HOMOG = ["--family", "homog", "--n", "4", "--C", "20", "--lambda-dagger", "10"]
HUGE_N = str(10**400)


@pytest.mark.parametrize("argv, reason", [
    (HOMOG + ["--b", "nan", "--m", "6"], "b must be positive and finite"),
    (HOMOG + ["--b", "inf", "--m", "5"], "b must be positive and finite"),
    (HOMOG + ["--b", "-1", "--m", "6"], "b must be positive and finite"),
    (["--family", "quad", "--n", "4", "--C", "inf", "--lambda-dagger", "10", "--b-max", "1", "--m-max", "6"],
     "capacity must be positive and finite"),
    (["--family", "pwl", "--n", "4", "--C", "20", "--lambda-dagger", "inf", "--beta-max", "1", "--phi-max", "6"],
     "threshold must be positive and finite"),
    (["--family", "quad", "--n", HUGE_N, "--C", "20", "--lambda-dagger", "10", "--b-max", "1", "--m-max", "6"],
     "n must be in 1..2**63-1"),
    (["--family", "pwl", "--n", HUGE_N, "--C", "20", "--lambda-dagger", "10", "--beta-max", "1", "--phi-max", "6"],
     "n must be in 1..2**63-1"),
    (["--family", "homog", "--n", HUGE_N, "--C", "20", "--lambda-dagger", "10", "--b", "2", "--m", "6"],
     "n must be in 1..2**63-1"),
], ids=["homog-b-nan", "homog-b-inf", "homog-b-negative", "quad-C-inf", "pwl-lambda-inf",
        "quad-huge-n", "pwl-huge-n", "homog-huge-n"])
def test_shape_check_rejects_what_validation_rejects(argv, reason, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "shape-check", *argv)
    assert (code, out, caught) == (2, "", [])
    assert err == f"validation error: {reason}\n"


def test_experiment_artifacts_and_determinism(tmp_path, capsys):
    spec = {
        "family": "quadratic",
        "n": 30,
        "trials": 6,
        "lambda_dagger": [20, 22, 24, 26, 28, 30],
        "seed": 1234,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code, out, _ = run_cli(
        capsys, "experiment", str(spec_path), "--out", str(out_a), "--threads", "1"
    )
    assert code == 0
    stats_lines = (out_a / "stats.csv").read_text().strip().splitlines()
    assert len(stats_lines) == 1 + 6  # header + one row per threshold
    code, _, _ = run_cli(
        capsys, "experiment", str(spec_path), "--out", str(out_b), "--threads", "2"
    )
    assert code == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()


def test_experiment_seed_option_overrides_the_file(tmp_path, capsys):
    spec = {"family": "quadratic", "n": 20, "trials": 3, "lambda_dagger": [20, 25]}
    for seed in (3, 5):
        (tmp_path / f"seed{seed}.json").write_text(json.dumps({**spec, "seed": seed}))
    assert run_cli(capsys, "experiment", str(tmp_path / "seed3.json"), "--seed", "5", "--out", str(tmp_path / "a"))[0] == 0
    assert run_cli(capsys, "experiment", str(tmp_path / "seed5.json"), "--out", str(tmp_path / "b"))[0] == 0
    for name in ("results.csv", "stats.csv", "metadata.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    metadata = json.loads((tmp_path / "a" / "metadata.json").read_text())
    assert metadata["seed"] == metadata["spec"]["seed"] == 5


def test_experiment_bad_spec_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"family": "cubic", "n": 1, "trials": 1, "lambda_dagger": 1, "seed": 0}')
    code, _, err = run_cli(capsys, "experiment", str(spec_path), "--out", str(tmp_path / "o"))
    assert code == 2
    assert err.startswith("validation error: ") and "family" in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("trials", "abc"),
        ("trials", True),
        ("n", 3.7),
        ("n", False),
        ("seed", 1.5),
        ("seed", "7"),
        ("lambda_dagger", "20"),
        ("lambda_dagger", [20, None]),
        ("lambda_dagger", []),
        ("scale_list", [10, 2.5]),
        ("scale_list", [True]),
        ("scale_list", 10),
        ("thresholds", [20]),  # not a spec field
    ],
)
def test_experiment_malformed_spec_field_exits_2(field, value, tmp_path, capsys):
    spec = {"family": "quadratic", "n": 10, "trials": 2, "lambda_dagger": 20, "seed": 0, field: value}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "experiment", str(spec_path), "--out", str(tmp_path / "o"))
    assert code == 2
    assert out == ""
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert field in err


def test_experiment_integral_float_fields_accepted(tmp_path, capsys):
    spec = {"family": "pwl", "n": 10.0, "trials": 2.0, "lambda_dagger": 20, "seed": 3.0}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "experiment", str(spec_path), "--out", str(tmp_path / "o"))
    assert code == 0
    assert "trials=2 " in out


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_experiment_nonpositive_threads_exits_2(threads, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"family": "quadratic", "n": 20, "trials": 4, "lambda_dagger": 20, "seed": 3}')
    running = threading.active_count()
    with mock.patch("teshape.experiments.ThreadPoolExecutor") as pool:
        code, out, err = run_cli(capsys, "experiment", str(spec_path), "--out", str(tmp_path / "o"), "--threads", threads)
    assert (code, out, err) == (2, "", f"validation error: threads must be a positive integer, got {threads}\n")
    assert not pool.called and threading.active_count() == running


@pytest.mark.parametrize("step", ["0", "-2"])
def test_sweep_nonpositive_step_exits_2(step, quartet_path, capsys):
    code, out, err = run_cli(capsys, "sweep", str(quartet_path), "--step", step)
    assert code == 2
    assert out == ""
    assert err.startswith("validation error") and err.count("\n") == 1
    assert "--step" in err


def test_sweep_zero_first_price_prints_undefined_ratio(quartet_path, capsys):
    # with the last agent's m=3 total satiation equals capacity: the price is 0
    code, out, err = run_cli(capsys, "sweep", str(quartet_path), "--start", "3", "--stop", "5")
    assert code == 0
    assert err == ""
    assert out == "rows=3\nlambda_star[3]=0\nlambda_star[5]=1.76471\nratio=undefined\n"


def test_sweep_26_rows(quartet_path, tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, "sweep", str(quartet_path), "--out", str(out_path))
    assert code == 0
    assert "rows=26" in out
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 1 + 26
    assert "ratio=56.67" in out


def test_consensus_flood_agreement(quartet_path, capsys):
    code, out, _ = run_cli(capsys, "consensus", str(quartet_path), "--mode", "flood")
    assert code == 0
    assert "all agents agree: lambda_star=1.76471" in out


def test_consensus_average_with_graph(quartet_path, tmp_path, capsys):
    graph_path = tmp_path / "graph.json"
    graph_path.write_text('{"n": 4, "edges": [[0,1],[1,2],[2,3]]}')
    trace_path = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys,
        "consensus", str(quartet_path),
        "--graph", str(graph_path),
        "--mode", "average",
        "--rounds", "2000",
        "--tol", "1e-10",
        "--out", str(trace_path),
    )
    assert code == 0
    assert trace_path.exists()
    assert "final_consensus_error" in out


@pytest.mark.parametrize("mode", ["flood", "average"])
def test_consensus_default_graph_out_of_memory_exits_2(mode, quartet_path, capsys):
    # the default complete graph's index arrays refused (as at n = 30000, ~8 GB): simulated, never allocated
    with mock.patch("numpy.triu_indices", side_effect=MemoryError):
        code, out, err = run_cli(capsys, "consensus", str(quartet_path), "--mode", mode)
    assert (code, out) == (2, "")
    assert err == "validation error: no memory for the graph of n=4 agents; pass a sparser --graph\n"


def test_consensus_disconnected_graph_fails(quartet_path, tmp_path, capsys):
    graph_path = tmp_path / "graph.json"
    graph_path.write_text('{"n": 4, "edges": [[0,1],[2,3]]}')
    code, _, err = run_cli(
        capsys, "consensus", str(quartet_path), "--graph", str(graph_path)
    )
    assert code == 3
    assert "not connected" in err


def test_consensus_non_positive_estimate_exits_3(tmp_path, capsys):
    # a valid market with a zero producer: solvable, but its estimate is 0 until averaging reaches it
    path = tmp_path / "zero.json"
    path.write_text('{"agents": [{"a": 0, "utility": {"kind": "quadratic", "b": 1, "m": 3}},'
                    ' {"a": 5, "utility": {"kind": "quadratic", "b": 2, "m": 4}}]}')
    assert run_cli(capsys, "solve", str(path))[0] == 0
    code, out, err = run_cli(capsys, "consensus", str(path), "--mode", "average", "--rounds", "0")
    assert (code, out) == (3, "")
    assert err == "consensus failure: agent 0: capacity estimate 0.000e+00 not positive after 0 rounds\n"


@pytest.mark.parametrize("utility", ['"kind": "quadratic", "b": 1, "m": 3', '"kind": "pwl", "beta": 1, "phi": 3'],
                         ids=["quadratic", "pwl"])
def test_consensus_estimate_past_float_limit_exits_3(utility, tmp_path, capsys):
    # C is the largest 1000 agents may hold, so the file solves; agent 0's averaged
    # estimate, summed over 1000 agents, rounds past that bound for its local market
    n = 1000
    limit = sys.float_info.max / (1 + n * sys.float_info.epsilon)
    path = tmp_path / "limit.json"
    path.write_text('{"agents": [%s]}' % ", ".join('{"a": %r, "utility": {%s}}' % (a, utility)
                                                   for a in [limit] + [0.0] * (n - 1)))
    assert run_cli(capsys, "solve", str(path))[0] == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "consensus", str(path), "--mode", "average", "--rounds", "50")
    assert (code, out, caught) == (3, "", [])
    estimate = re.fullmatch(r"consensus failure: agent 0: capacity estimate (\S+) past the float limit for 1000 agents "
                            r"after 50 rounds\n", err)
    assert float(estimate[1]) > limit


@pytest.mark.parametrize("command", [["solve"], ["sweep"], ["consensus"], ["consensus", "--mode", "average"]],
                         ids=["solve", "sweep", "consensus", "average"])
@pytest.mark.parametrize("utility", ['"kind": "quadratic", "b": 1, "m": 3', '"kind": "pwl", "beta": 1, "phi": 3'],
                         ids=["quadratic", "pwl"])
def test_overflowing_capacity_exits_2(command, utility, tmp_path, capsys):
    # each a is finite, their total is not: rejected before any arithmetic on it; so is a finite total
    # within n*eps of the float limit, whose allocations may sum past it
    path = tmp_path / "overflow.json"
    for productions, reason in [((1e308, 1e308), "C must be finite (total production overflows)"),
                                ((1.7976931348623157e308, 0, 0),
                                 "C must lie n*eps below the float limit (the allocations would sum past it)")]:
        agents = ", ".join('{"a": %r, "utility": {%s}}' % (a, utility) for a in productions)
        path.write_text('{"agents": [%s]}' % agents)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *command, str(path))
        assert (code, out, caught) == (2, "", [])
        assert err == f"validation error: {reason}\n"


@pytest.mark.parametrize("command", [["solve"], ["consensus", "--mode", "average"]], ids=["solve", "average"])
@pytest.mark.parametrize("b, m", [(1e-308, 1), (5e-324, 3)], ids=["sum-overflows", "reciprocal-overflows"])
def test_tiny_curvatures_exit_2(command, b, m, tmp_path, capsys):
    # two agents whose 1/b sum past the float limit, satiated within C = 2 or not: refused
    # by validation before any arithmetic on them, one stderr line, no warning
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"agents": [{"a": 1, "utility": {"kind": "quadratic", "b": b, "m": m}}] * 2}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *command, str(path))
    assert (code, out, caught) == (2, "", [])
    assert err == "validation error: sum of 1/b must lie n*eps below the float limit (the curvatures are too small)\n"


@pytest.mark.parametrize("model", ["mtes", "mtes_st"])
def test_pwl_knife_edge_clears_at_the_lowest_rate(model, tmp_path, capsys):
    # C = 4 exceeds the float sum of phi taken down the rates, 3.9999999999999996, but not their pairwise sum,
    # 4.000000000000001, nor the exact one (by 5.6e-17): the last tier, at the lowest rate, takes the remainder
    beta = [2, 4, 1, 3, 4, 1, 3, 1, 4, 4, 3]
    phi = [0.3, 0.8, 0.4, 0.7, 0.4, 0.3, 0.3, 0.2, 0.2, 0.2, 0.2]
    path, out_path = tmp_path / "knife.json", tmp_path / "result.json"
    path.write_text(json.dumps({"agents": [{"a": 4 if i == 0 else 0, "utility": {"kind": "pwl", "beta": r, "phi": p}}
                                           for i, (r, p) in enumerate(zip(beta, phi))]}))
    code, _, err = run_cli(capsys, "solve", str(path), "--model", model, "--out", str(out_path))
    assert (code, err) == (0, "")
    assert json.loads(out_path.read_text())["lambda_star"] == 1.0


def test_experiment_colliding_cell_keys_exit_2(tmp_path, capsys):
    # two cells would write rows under one key: refused before any sampling
    for extra, key in [({"lambda_dagger": [15.0, 15.000001]}, "lambda_dagger=15"), ({"scale_list": [10, 10]}, "n=10")]:
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"family": "quadratic", "n": 10, "trials": 2, "lambda_dagger": 20, "seed": 0,
                                         **extra}))
        code, out, err = run_cli(capsys, "experiment", str(spec_path), "--out", str(tmp_path / "o"))
        assert (code, out) == (2, "")
        assert err == f"validation error: two cells share the key {key!r}\n"
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "graph",
    [
        '{"n": "abc", "edges": [[0,1],[1,2],[2,3]]}',
        '{"n": 3.7, "edges": [[0,1],[1,2]]}',
        '{"n": true, "edges": []}',
        '{"n": 4, "edges": [[0]]}',
        '{"n": 4, "edges": [[0,1],[1,2,3]]}',
        '{"n": 4, "edges": [[0,1],[1,2],[2,3],[0,1.5]]}',
        '{"n": 4, "edges": [[0,1],[1,2],[2,3],[0,true]]}',
        '{"n": 4, "edges": [[0,1],[1,2],[2,99999999999999999999]]}',
        '{"n": 4, "edges": [[0,1],[1,2],[2,9223372036854775813]]}',
        '{"n": 4, "edges": 5}',
        '{"n": 4, "edges": [{"i": 0, "j": 1}]}',
    ],
)
def test_consensus_malformed_graph_exits_2(graph, quartet_path, tmp_path, capsys):
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(graph)
    code, out, err = run_cli(capsys, "consensus", str(quartet_path), "--graph", str(graph_path))
    assert code == 2
    assert out == ""
    assert err.startswith("validation error: ") and err.count("\n") == 1


def test_consensus_integral_float_graph_accepted(quartet_path, tmp_path, capsys):
    graph_path = tmp_path / "graph.json"
    graph_path.write_text('{"n": 4.0, "edges": [[0,1],[1.0,2],[2,3]]}')
    code, out, _ = run_cli(capsys, "consensus", str(quartet_path), "--graph", str(graph_path))
    assert code == 0
    assert "rounds=3 " in out


def test_threads_come_from_the_command_line(monkeypatch, tmp_path, capsys):
    """--threads defaults to the CPU count and is the one source of the
    thread count: the variable that once set it changes and prints nothing.
    The parser is built once per process."""
    from types import SimpleNamespace

    from teshape import cli

    seen = []
    monkeypatch.setattr(cli, "run_monte_carlo", lambda spec, out_dir, threads: seen.append(threads)
                        or SimpleNamespace(cells=[]))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"family": "quadratic", "n": 3, "trials": 1, "lambda_dagger": 20, "seed": 0}')
    argv = ["experiment", str(spec_path), "--out", str(tmp_path / "out")]
    assert run_cli(capsys, *argv) == (0, f"artifacts written to {tmp_path / 'out'}\n", "")
    monkeypatch.setenv("TE_SHAPE_THREADS", "3")
    for extra in ([], ["--threads", "2"]):
        assert run_cli(capsys, *argv, *extra)[::2] == (0, "")
    assert seen == [os.cpu_count() or 1] * 2 + [2]
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("command", ["solve", "experiment", "consensus"])
def test_undecodable_file_exits_2(command, quartet_path, tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"family": "quadratic", "note": "d\u00e9j\u00e0"}'.encode("latin-1"))
    argv = {
        "solve": ["solve", str(bad)],
        "experiment": ["experiment", str(bad), "--out", str(tmp_path / "o")],
        "consensus": ["consensus", str(quartet_path), "--graph", str(bad)],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "not UTF-8" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "experiment", "consensus"])
def test_non_finite_literal_exits_2(command, quartet_path, tmp_path, capsys):
    # every JSON input refuses NaN and Infinity as it is parsed, with one wording
    bad = tmp_path / "nan.json"
    bad.write_text({
        "solve": '{"agents": [{"a": NaN, "utility": {"kind": "quadratic", "b": 1, "m": 3}}]}',
        "experiment": '{"family": "quadratic", "n": 10, "trials": 2, "lambda_dagger": 20, "seed": NaN}',
        "consensus": '{"n": NaN, "edges": []}',
    }[command])
    argv = {
        "solve": ["solve", str(bad)],
        "experiment": ["experiment", str(bad), "--out", str(tmp_path / "o")],
        "consensus": ["consensus", str(quartet_path), "--graph", str(bad)],
    }[command]
    assert run_cli(capsys, *argv) == (2, "", "validation error: non-finite number not accepted: NaN\n")


HUGE = "1" + "0" * 400  # an integer literal beyond the float range


@pytest.mark.parametrize("command", ["solve", "sweep", "consensus"])
@pytest.mark.parametrize(
    "agents",
    [
        # one family: the column gather refuses the list and the per-agent loop words it
        '[{"a": %s, "utility": {"kind": "quadratic", "b": 1, "m": 2}}]' % HUGE,
        '[{"a": 1, "utility": {"kind": "quadratic", "b": 1, "m": 2}},'
        ' {"a": 1, "utility": {"kind": "quadratic", "b": 1, "m": %s}}]' % HUGE,
        # mixed families go through the per-agent loop directly
        '[{"a": 1, "utility": {"kind": "quadratic", "b": 1, "m": 2}},'
        ' {"a": 1, "utility": {"kind": "pwl", "beta": -%s, "phi": 2}}]' % HUGE,
    ],
    ids=["a", "m", "mixed-beta"],
)
def test_huge_integer_literal_exits_2(command, agents, tmp_path, capsys):
    market = tmp_path / "market.json"
    market.write_text('{"model": "mtes", "agents": %s}' % agents)
    code, out, err = run_cli(capsys, command, str(market))
    assert code == 2
    assert out == ""
    assert err.startswith("validation error: agent ") and err.count("\n") == 1
    assert "beyond the float range" in err


@pytest.mark.parametrize("lam", [HUGE, "[20, -%s]" % HUGE], ids=["scalar", "list"])
def test_experiment_huge_lambda_dagger_exits_2(lam, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"family": "quadratic", "n": 10, "trials": 2, "lambda_dagger": %s, "seed": 0}' % lam)
    code, out, err = run_cli(capsys, "experiment", str(spec_path), "--out", str(tmp_path / "o"))
    assert code == 2
    assert out == ""
    assert err == "validation error: lambda_dagger is beyond the float range\n"


@pytest.mark.parametrize("n, code, err", [
    (1, 0, ""),  # b_1 finite, the trial's tolerance past the float range: no overflow warning
    # n*threshold overflows: b_1 is the per-agent range, and m_1*b_1 past the float range is the spec's, not an agent's
    (50, 2, "validation error: cell 0: lambda_dagger 1.7e+308 at n=50 puts the corner's drop-out price m_1*b_1 past "
            "the float range\n"),
], ids=["one-agent", "fifty-agents"])
def test_quadratic_experiment_at_the_float_limit(n, code, err, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"family": "quadratic", "n": %d, "trials": 3, "lambda_dagger": 1.7e308, "seed": 3}' % n)
    got, _, stderr = run_cli(capsys, "experiment", str(spec_path), "--out", str(tmp_path / "o"), "--threads", "1")
    assert (got, stderr) == (code, err)
