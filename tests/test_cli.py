from __future__ import annotations

import json

import pytest

from teshape.cli import main


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


def test_solve_closed_method_on_mixed_exits_2(tmp_path, capsys):
    payload = {
        "agents": [
            {"a": 1.0, "utility": {"kind": "quadratic", "b": 1, "m": 2}},
            {"a": 1.0, "utility": {"kind": "pwl", "beta": 1, "phi": 2}},
        ]
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "solve", str(path), "--method", "closed")
    assert code == 2
    assert "closed form requires homogeneous family" in err


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


def test_experiment_bad_spec_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"family": "cubic", "n": 1, "trials": 1, "lambda_dagger": 1, "seed": 0}')
    code, _, err = run_cli(capsys, "experiment", str(spec_path), "--out", str(tmp_path / "o"))
    assert code == 2
    assert "invalid experiment spec" in err


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
    ],
)
def test_experiment_malformed_spec_field_exits_2(field, value, tmp_path, capsys):
    spec = {"family": "quadratic", "n": 10, "trials": 2, "lambda_dagger": 20, "seed": 0, field: value}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "experiment", str(spec_path), "--out", str(tmp_path / "o"))
    assert code == 2
    assert out == ""
    assert err.startswith("invalid experiment spec") and err.count("\n") == 1
    assert field in err


def test_experiment_integral_float_fields_accepted(tmp_path, capsys):
    spec = {"family": "pwl", "n": 10.0, "trials": 2.0, "lambda_dagger": 20, "seed": 3.0}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "experiment", str(spec_path), "--out", str(tmp_path / "o"))
    assert code == 0
    assert "trials=2 " in out


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


def test_consensus_disconnected_graph_fails(quartet_path, tmp_path, capsys):
    graph_path = tmp_path / "graph.json"
    graph_path.write_text('{"n": 4, "edges": [[0,1],[2,3]]}')
    code, _, err = run_cli(
        capsys, "consensus", str(quartet_path), "--graph", str(graph_path)
    )
    assert code == 3
    assert "not connected" in err


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


def test_threads_env_override(monkeypatch):
    from teshape.cli import _default_threads

    monkeypatch.setenv("TE_SHAPE_THREADS", "3")
    assert _default_threads() == 3
    monkeypatch.delenv("TE_SHAPE_THREADS")
    assert _default_threads() >= 1


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
    assert err == "invalid experiment spec: lambda_dagger is beyond the float range\n"
