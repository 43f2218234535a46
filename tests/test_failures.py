"""Every failure of the CLI on bad input or an unusable output path exits 2
with exactly one stderr line and nothing on stdout; an unexpected exception
exits 4, also with one line. A fixed table of malformed files stands in for
random fuzzing, so the test is derandomized."""

from __future__ import annotations

import json

import pytest

import teshape.cli
import teshape.experiments
from teshape.cli import main

HUGE = "1" + "0" * 400  # an integer literal beyond the float range
DEEP = "[" * 100_000 + "]" * 100_000
LATIN1 = '{"note": "déjà"}'.encode("latin-1")

INSTANCE = json.dumps(
    {"model": "mtes", "agents": [{"a": a, "utility": {"kind": "quadratic", "b": 2, "m": 6}} for a in (5, 3, 4)]}
)
SPEC = json.dumps({"family": "quadratic", "n": 10, "trials": 2, "lambda_dagger": 20, "seed": 0})
GRAPH = json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]})
# a well-formed file that no solver clears: quadratic and PWL agents mixed
MIXED = json.dumps({"model": "mtes", "agents": [
    {"a": 5, "utility": {"kind": "quadratic", "b": 2, "m": 6}},
    {"a": 3, "utility": {"kind": "pwl", "beta": 4, "phi": 3}},
]})


def _truncations(text: str) -> list[str]:
    return [text[:k] for k in (0, 1, 9, len(text) // 2, len(text) - 1)]


def _agent(a="5", utility='{"kind": "quadratic", "b": 2, "m": 6}') -> str:
    return '{"agents": [{"a": %s, "utility": %s}]}' % (a, utility)


def _spec(**fields) -> str:
    spec = {"family": '"quadratic"', "n": "10", "trials": "2", "lambda_dagger": "20", "seed": "0", **fields}
    return "{%s}" % ", ".join(f'"{k}": {v}' for k, v in spec.items() if v is not None)


BAD_INSTANCES = [
    *_truncations(INSTANCE),
    DEEP,
    '{"agents": %s}' % DEEP,
    _agent(a=DEEP[:1000] + DEEP[-1000:]),
    "[]",
    '{"agents": {}}',
    '{"model": ["mtes"], "agents": []}',
    _agent(a='"5"'),
    _agent(a="true"),
    _agent(a="null"),
    _agent(utility="[]"),
    _agent(utility='{"kind": 3, "b": 2, "m": 6}'),
    _agent(utility='{"kind": "quadratic", "b": {}, "m": 6}'),
    "{}",
    '{"agents": [{"a": 1}]}',
    _agent(utility='{"kind": "quadratic", "b": 2}'),
    _agent(a=HUGE),
    _agent(a="-" + HUGE),
    _agent(a="1e400"),
    _agent(a="NaN"),
    _agent(utility='{"kind": "quadratic", "b": 1e200, "m": 1e200}'),  # the drop-out price m*b overflows
]

BAD_SPECS = [
    *_truncations(SPEC),
    DEEP,
    _spec(lambda_dagger=DEEP),
    "[]",
    _spec(family="3"),
    _spec(n='"10"'),
    _spec(trials="[2]"),
    _spec(seed="-1"),
    *(_spec(**{field: None}) for field in ("family", "n", "trials", "lambda_dagger", "seed")),
    _spec(n=HUGE),
    _spec(trials=HUGE),
    _spec(seed=HUGE),
    _spec(lambda_dagger=HUGE),
    _spec(scale_list="[%s]" % HUGE),
    _spec(lambda_dagger="1e400"),
    _spec(n=str(2**56)),  # 2**59 bytes: beyond any 64-bit user address space, so malloc fails at once
    _spec(n=str(2**62)),  # 2**65 bytes: NumPy refuses the size before it calls malloc
]

BAD_GRAPHS = [
    *_truncations(GRAPH),
    DEEP,
    '{"n": 3, "edges": %s}' % DEEP,
    "[]",
    '{"n": "3", "edges": []}',
    '{"n": 3, "edges": [[0, "1"]]}',
    '{"n": 3}',
    '{"edges": []}',
    '{"n": %s, "edges": [[0, 1]]}' % HUGE,
    '{"n": 3, "edges": [[0, %s]]}' % HUGE,
    '{"n": 1e400, "edges": []}',
]


def _run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_one_line(code: int, out: str, err: str, expected: int = 2) -> None:
    assert code == expected, err
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def _write(path, content) -> str:
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {"instance": _write(tmp_path / "instance.json", INSTANCE), "spec": _write(tmp_path / "spec.json", SPEC)}


def test_malformed_files_exit_2(tmp_path, files, capsys):
    bad = tmp_path / "bad.json"
    out_dir = str(tmp_path / "o")
    cases = [(["solve", str(bad)], text) for text in [*BAD_INSTANCES, LATIN1]]
    cases += [(["sweep", str(bad)], text) for text in BAD_INSTANCES[:8]]
    cases += [(["consensus", str(bad)], text) for text in BAD_INSTANCES[:8]]
    cases += [(["experiment", str(bad), "--out", out_dir], text) for text in [*BAD_SPECS, LATIN1]]
    cases += [(["consensus", files["instance"], "--graph", str(bad)], text) for text in [*BAD_GRAPHS, LATIN1]]
    for argv, content in cases:
        _write(bad, content)
        code, out, err = _run(capsys, argv)
        assert err.startswith("validation error: "), (argv[0], content[:80], err)
        _assert_one_line(code, out, err)


def test_missing_input_exits_2(tmp_path, files, capsys):
    missing = str(tmp_path / "missing.json")
    for argv in (["solve", missing], ["experiment", missing, "--out", str(tmp_path / "o")],
                 ["consensus", files["instance"], "--graph", missing]):
        code, out, err = _run(capsys, argv)
        assert err.startswith("file error: ") and "missing.json" in err
        _assert_one_line(code, out, err)


@pytest.mark.parametrize(
    "argv",
    [["sweep", "{instance}", "--agent", "3"], ["sweep", "{instance}", "--agent", "-4"], ["solve", "{mixed}"]],
    ids=["sweep-agent-n", "sweep-agent-minus-n-1", "solve-mixed-quadratic-pwl"],
)
def test_unservable_requests_exit_2(argv, tmp_path, files, capsys):
    paths = {**files, "mixed": _write(tmp_path / "mixed.json", MIXED)}
    code, out, err = _run(capsys, [arg.format(**paths) for arg in argv])
    assert err.startswith("validation error: "), err
    _assert_one_line(code, out, err)


def test_unusable_out_targets_exit_2(tmp_path, files, capsys, monkeypatch):
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "a_file").write_text("kept")
    (tmp_path / "exp" / "results.csv").mkdir(parents=True)
    targets = {
        "no_parent": str(tmp_path / "no_parent" / "x"),
        "a_dir": str(tmp_path / "a_dir"),
        "under_a_file": str(tmp_path / "a_file" / "x"),
    }
    not_a_dir = [str(tmp_path / "a_file"), targets["under_a_file"]]  # fail before the first trial
    cases = [
        ([command, files["instance"], "--out", target], target)
        for command in ("solve", "sweep", "consensus")
        for target in targets.values()
    ] + [(["experiment", files["spec"], "--out", target], target) for target in not_a_dir] + [
        (["experiment", files["spec"], "--out", str(tmp_path / "exp")], str(tmp_path / "exp" / "results.csv")),
    ]
    for argv, target in cases:
        with monkeypatch.context() as patch:
            if argv[0] == "experiment":  # every experiment target fails before the first trial
                patch.setattr(teshape.experiments, "_run_trial", lambda *args, **kwargs: pytest.fail("a trial ran"))
            code, out, err = _run(capsys, argv)
        assert err.startswith("file error: ") and repr(target) in err, (argv, err)
        assert ".tmp" not in err
        _assert_one_line(code, out, err)
    assert (tmp_path / "a_file").read_text() == "kept"
    assert not list(tmp_path.rglob("*.tmp"))  # no temporary sibling is left behind


@pytest.mark.parametrize(
    "options",
    [("--rounds", "-1"), ("--tol", "nan"), ("--tol", "-1")],
    ids=["negative-rounds", "nan-tol", "negative-tol"],
)
def test_bad_consensus_options_exit_2(options, files, capsys):
    code, out, err = _run(capsys, ["consensus", files["instance"], "--mode", "average", *options])
    assert err.startswith("validation error: ") and options[0][2:] in err
    _assert_one_line(code, out, err)


def test_unexpected_exception_exits_4(files, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("planted fault")

    monkeypatch.setattr(teshape.cli, "solve", broken)
    code, out, err = _run(capsys, ["solve", files["instance"]])
    assert err == "internal error: RuntimeError('planted fault')\n"
    _assert_one_line(code, out, err, expected=4)
