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
N1_SPECS = ["f3_square", "f3_linear", "f3_cubic_mix", "f3_octic"]


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
        # input not in RREF, spanning the same space as the line above
        ["core-ideal", "--basis", "0,0,1;0,2,0"],
        ["inn-check", "--a", "1,2"],
        # the sizes the benchmark runs: the m = 8 stabilizer span{e_2..e_9} and a
        # tail span{e_5..e_10} in dimension 10, and dense fractional input at n = 6
        ["core-ideal", "--basis", unit_rows(10, range(2, 10))],
        ["core-ideal", "--basis", unit_rows(10, range(5, 11))],
        ["algebra-bracket", "--x", "1/2,-3,2/3,0,5/4,-1/7,2,-9/5",
         "--y", "-2/3,1/5,4,-3/2,1,0,7/3,1/6"],
        ["classify-subalgebra", "--basis",
         "1,1/2,-2/3,3/4,5/7,-1/3,2/5,7/4;0,0,0,0,3/2,-1/2,4/3,-5/6;"
         "0,0,0,0,0,2/3,-1,1/4;0,0,0,0,1,1,1,1;0,0,0,0,-1/2,0,3,2/7"],
        # the same five rows reversed
        ["classify-subalgebra", "--basis",
         "0,0,0,0,-1/2,0,3,2/7;0,0,0,0,1,1,1,1;0,0,0,0,0,2/3,-1,1/4;"
         "0,0,0,0,3/2,-1/2,4/3,-5/6;1,1/2,-2/3,3/4,5/7,-1/3,2/5,7/4"],
        # inn-check at the benchmark's smallest and largest n, and a zero a
        ["inn-check", "--a", "1/2,-3,2/3"],
        ["inn-check", "--a", "-7/3,1/2,0,5/4,-1/7,2,-9/5,6,-1/6,3/8"],
        ["inn-check", "--a", "0,0,0"],
    ]
    # the benchmark's loop-arith sizes: n = 6, degrees up to 8, fractional
    # coefficients, and fractional, negative and zero coordinates
    spec = "specs/f8_mixed.json"
    points = ["--a", "0,-2/3", "--b", "5/7,1/2"]
    out += [
        ["validate", spec],
        ["comm", spec],
        ["mult-group", spec],
        ["mul", spec, *points],
        ["mul", spec, "--a", "-9/4,13/6", "--b", "-2/3,0"],
        ["div", spec, *points, "--side", "left"],
        ["div", spec, *points, "--side", "right"],
        ["div", spec, "--a", "-9/4,13/6", "--b", "3/11,-5", "--side", "left"],
        ["div", spec, "--a", "-9/4,13/6", "--b", "3/11,-5", "--side", "right"],
    ]
    return out


def unit_rows(size: int, indices) -> str:
    """The --basis text of the unit vectors e_i, i in indices, of length size."""
    return ";".join(",".join(str(int(j == i)) for j in range(1, size + 1)) for i in indices)


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
