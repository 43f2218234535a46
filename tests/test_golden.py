"""Golden-bytes regression: seeded artifacts must not change by a single byte.

The digests below were produced by the pre-array-core implementation
(per-agent objects throughout) and pin the exact bytes of the experiment
artifacts and of a trading-model result document. Any change to sampling,
summation order, solver arithmetic or serialization shows up here. The
metadata digests also pin ``library_version``; a version bump must
regenerate them.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from teshape.cli import main

QUADRATIC_SPEC = {"family": "quadratic", "n": 50, "trials": 7, "lambda_dagger": [15.0, 25.0], "seed": 11}
PWL_SPEC = {"family": "pwl", "n": 40, "trials": 6, "lambda_dagger": 24.0, "seed": 7, "scale_list": [10, 60]}

EXPERIMENT_DIGESTS = {
    "quadratic": (
        QUADRATIC_SPEC,
        {
            "results.csv": "e4140dee0a612583c681105c08dc318b5af6b4b392fa1047e75f4a2dd6e45252",
            "stats.csv": "af70cf8cb88bd1d55988e880422731d434ddcc908fd152cfa681db142a8be5a2",
            "metadata.json": "9f6c3f2e0c0b0fc4b9a7761e4dfe8acb78bb54f229527eb2cc8c0aeb34efe389",
        },
    ),
    "pwl": (
        PWL_SPEC,
        {
            "results.csv": "6ff3567d15a052099334dbc51b9ee33d04eed587a536181e344d2cb2315e31c2",
            "stats.csv": "ef1be008624021be9f42b50273dce4e15bd77bb8da38f82921b4629390a9da13",
            "metadata.json": "742684f9fe46879037fa4b6f1a59c2509bad8453cc6e38b26190bab09970b265",
        },
    ),
}

QUARTET_ST_RESULT_DIGEST = "43f58b407fcce84c8594db9b57f22edd255c535ff94237917a89345086ea3328"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(EXPERIMENT_DIGESTS))
def test_experiment_artifacts_byte_identical(name, tmp_path, capsys):
    spec, digests = EXPERIMENT_DIGESTS[name]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["experiment", str(spec_path), "--out", str(out), "--threads", "1"]) == 0
    capsys.readouterr()
    assert {f: _sha256(out / f) for f in digests} == digests


def test_quartet_trading_result_document_byte_identical(quartet_path, tmp_path, capsys):
    out = tmp_path / "result.json"
    assert main(["solve", str(quartet_path), "--model", "mtes_st", "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out) == QUARTET_ST_RESULT_DIGEST
