"""Golden CLI output: every verb on the example specs, byte for byte.

Each line of ``cli_golden.jsonl`` is one record ``{"argv", "exit", "stdout"}``.
stdout echoes argv, so the spec paths are repo-relative and the test runs
from the repository root.  After an intended output change, regenerate the
fixture with ``PYTHONPATH=src python tests/test_cli_golden.py`` and review
the diff.
"""

import contextlib
import io
import json
import os
from pathlib import Path

from fililoop.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "cli_golden.jsonl"

SPECS = ["f3_square", "f3_linear", "f3_cubic_mix", "f4_commutative", "f4_mixed"]
N1_SPECS = ["f3_square", "f3_linear", "f3_cubic_mix"]


def golden_argvs() -> list[list[str]]:
    out = []
    for name in SPECS:
        spec = f"specs/{name}.json"
        out += [
            ["validate", spec],
            ["comm", spec],
            ["mult-group", spec],
            ["mul", spec, "--a", "1,0", "--b", "2,-1"],
            ["div", spec, "--a", "1,0", "--b", "2,-1", "--side", "left"],
            ["div", spec, "--a", "1,0", "--b", "2,-1", "--side", "right"],
        ]
    for name in N1_SPECS:
        spec = f"specs/{name}.json"
        out += [["thm3", spec], ["thm3", spec, "--grid=1,1,1|0"], ["thm3", spec, "--grid=0|0"]]
    out += [
        ["algebra-bracket", "--x", "1,0,0", "--y", "0,1,0"],
        ["classify-subalgebra", "--basis", "1,0,0,0;0,0,1,0;0,0,0,1"],
        ["core-ideal", "--basis", "0,1,0;0,0,1"],
        ["inn-check", "--a", "1,2"],
    ]
    return out


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def load_fixture() -> list[dict]:
    with open(FIXTURE, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_cli_output_matches_golden(monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = load_fixture()
    assert [r["argv"] for r in expected] == golden_argvs()
    for record in expected:
        assert run(record["argv"]) == record


if __name__ == "__main__":
    os.chdir(ROOT)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        for argv in golden_argvs():
            fh.write(json.dumps(run(argv), sort_keys=True) + "\n")
