"""CLI verbs, exit codes, determinism, wire formats."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fililoop.cli import load_spec, main

SPECS = Path(__file__).resolve().parent.parent / "specs"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def spec_path(name):
    return str(SPECS / name)


# -- loading -----------------------------------------------------------------------

def test_load_spec_ok():
    spec = load_spec(spec_path("f4_commutative.json"))
    assert spec.n == 2
    assert spec.v[0].to_strings() == ["0", "0", "1"]


def test_load_spec_errors(tmp_path):
    from fililoop.cli import CliError

    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1, "v": [["1", "0", "1"]]}')
    with pytest.raises(CliError, match="v1"):
        load_spec(str(bad))

    bad.write_text('{"n": 1, "v": [["0", "1.5"]]}')
    with pytest.raises(CliError, match=r"v\[0\]\[1\]"):
        load_spec(str(bad))

    bad.write_text('{"n": 2, "v": [["0", "1"]]}')
    with pytest.raises(CliError, match="'v'"):
        load_spec(str(bad))

    bad.write_text('{"n": true, "v": [["0", "0", "1"]]}')
    with pytest.raises(CliError, match="field 'n'"):
        load_spec(str(bad))

    bad.write_bytes(b'\xff{"n": 1}')
    with pytest.raises(CliError, match="invalid JSON"):
        load_spec(str(bad))

    with pytest.raises(CliError, match="cannot read"):
        load_spec(str(tmp_path / "missing.json"))


# -- verbs -------------------------------------------------------------------------

def test_validate_proper_spec(capsys):
    code, data = run_json(capsys, "validate", spec_path("f3_square.json"))
    assert code == 0
    assert data["result"] == {"identity_ok": True, "proper": True, "reasons": []}
    assert [c["name"] for c in data["certificates"]] == ["identity", "proper"]


def test_validate_improper_spec_exits_1(capsys):
    code, data = run_json(capsys, "validate", spec_path("f3_linear.json"))
    assert code == 1
    assert data["result"]["identity_ok"] is True
    assert data["result"]["proper"] is False


def test_validate_identity_violation_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1, "v": [["1", "0", "1"]]}')
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert out == ""
    assert "error" in err


def test_mul_example(capsys):
    code, data = run_json(capsys, "mul", spec_path("f3_square.json"), "--a", "1,0", "--b", "1,0")
    assert code == 0
    assert data["result"]["result"] == {"u": "2", "z": "-1"}


def test_div_round_trips_mul(capsys):
    spec = spec_path("f3_square.json")
    _, data = run_json(capsys, "mul", spec, "--a", "1,0", "--b", "3,1/2")
    product = data["result"]["result"]
    prod_arg = f"{product['u']},{product['z']}"

    code, data = run_json(capsys, "div", spec, "--a", "1,0", "--b", prod_arg, "--side", "left")
    assert code == 0
    assert data["result"]["result"] == {"u": "3", "z": "1/2"}

    code, data = run_json(capsys, "div", spec, "--a", "3,1/2", "--b", prod_arg, "--side", "right")
    assert code == 0
    assert data["result"]["result"] == {"u": "1", "z": "0"}


def test_comm_verb(capsys):
    code, data = run_json(capsys, "comm", spec_path("f4_commutative.json"))
    assert code == 0
    assert data["result"]["commutative"] is True

    code, data = run_json(capsys, "comm", spec_path("f3_square.json"))
    assert code == 0
    assert data["result"]["commutative"] is False
    assert data["result"]["defect"] == [[], ["0", "0", "1"], ["0", "-1"]]


def test_mult_group_verb(capsys):
    code, data = run_json(capsys, "mult-group", spec_path("f4_commutative.json"))
    assert code == 0
    assert data["result"]["mult_equals_g"] is True
    assert data["result"]["companions"] == [[], []]

    code, data = run_json(capsys, "mult-group", spec_path("f3_square.json"))
    assert code == 1
    assert data["result"]["mult_equals_g"] is False
    assert data["result"]["companions"] is None


def test_thm3_verb(capsys):
    code, data = run_json(capsys, "thm3", spec_path("f3_square.json"))
    assert code == 0
    assert data["result"]["mult_dimension"] == 4
    assert all(c["pass"] for c in data["certificates"])

    code, data = run_json(capsys, "thm3", spec_path("f3_cubic_mix.json"))
    assert code == 0
    assert data["result"]["mult_dimension"] == 5


def test_thm3_rejects_wrong_n_or_linear(capsys):
    code, out, err = run_cli(capsys, "thm3", spec_path("f4_commutative.json"))
    assert code == 2 and out == ""

    code, out, err = run_cli(capsys, "thm3", spec_path("f3_linear.json"))
    assert code == 2 and out == ""


def test_thm3_grid_override(capsys):
    code, data = run_json(capsys, "thm3", spec_path("f3_square.json"),
                          "--grid=-1,1,2,3,4,5|0,1")
    assert code == 0
    assert all(c["pass"] for c in data["certificates"])


def test_thm3_degenerate_grids_report_closure_dimension(capsys):
    # A grid holding only the identity fails generation with closure 0; a
    # grid with u = 0 only reaches the central direction.
    for grid, dim in (("0|0", 0), ("0|1,2", 1)):
        code, data = run_json(capsys, "thm3", spec_path("f3_square.json"), f"--grid={grid}")
        assert code == 1
        certs = {c["name"]: c for c in data["certificates"]}
        assert certs["generation"] == {"name": "generation", "pass": False,
                                       "witness": {"closure_dimension": dim}}


def test_thm3_h_connected_witness_counts_the_sample(capsys):
    code, data = run_json(capsys, "thm3", spec_path("f3_square.json"), "--grid=1,1,1|0")
    assert code == 0
    certs = {c["name"]: c for c in data["certificates"]}
    assert certs["h-connected"]["witness"] == {"sampled_pairs": 9, "distinct_u": 1}


def test_algebra_bracket_verb(capsys):
    code, data = run_json(capsys, "algebra-bracket", "--x", "1,0,0", "--y", "0,1,0")
    assert code == 0
    assert data["result"]["result"] == {"n": 1, "coeffs": ["0", "0", "1"]}


def test_classify_subalgebra_verb(capsys):
    code, data = run_json(capsys, "classify-subalgebra", "--basis", "1,0,0,0;0,0,1,0;0,0,0,1")
    assert code == 0
    assert data["result"]["index"] == 3
    assert data["result"]["t1"]["coeffs"] == ["0", "0", "0", "0"]

    code, data = run_json(capsys, "classify-subalgebra", "--basis", "0,1,0,0;0,0,1,0")
    assert code == 0
    assert data["result"] == {"commutative": True}

    code, out, err = run_cli(capsys, "classify-subalgebra", "--basis", "1,0,0,0;0,1,0,0")
    assert code == 2 and out == ""


def test_core_ideal_verb(capsys):
    code, data = run_json(capsys, "core-ideal", "--basis", "0,1,0;0,0,1")
    assert code == 0
    assert data["result"]["dimension"] == 2

    code, data = run_json(capsys, "core-ideal", "--basis", "0,1,0")
    assert code == 0
    assert data["result"]["dimension"] == 0


def test_inn_check_verb(capsys):
    code, data = run_json(capsys, "inn-check", "--a", "1,2")
    assert code == 0
    assert data["result"] == {"holds": True}


@pytest.mark.parametrize("argv", [
    ("mul", "f3_square.json", "--a", "-1,0", "--b", "-2,1"),
    ("div", "f3_square.json", "--a", "-1,0", "--b", "-2,3", "--side", "right"),
    ("algebra-bracket", "--x", "-1,0,0", "--y", "0,-1,0"),
    ("classify-subalgebra", "--basis", "-1,0,0,0;0,0,1,0;0,0,0,1"),
    ("core-ideal", "--basis", "-1,1,0;0,0,1"),
    ("inn-check", "--a", "-1,3"),
    ("thm3", "f3_square.json", "--grid", "-1,1,2,3|0,1"),
])
def test_negative_values_in_the_space_form(capsys, argv):
    # "--opt -1,0" gives what "--opt=-1,0" gives, and the command echo keeps
    # the arguments as typed
    argv = [spec_path(a) if a.endswith(".json") else a for a in argv]
    joined = []
    for arg in argv:
        if arg[:1] == "-" and arg[:2] != "--":
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    code, data = run_json(capsys, *argv)
    assert code == 0
    assert data["command"] == argv
    assert run_json(capsys, *joined) == (0, {**data, "command": joined})


def test_bad_arguments_exit_2(capsys):
    assert run_cli(capsys, "mul", spec_path("f3_square.json"), "--a", "1", "--b", "1,0")[0] == 2
    assert run_cli(capsys, "mul", spec_path("f3_square.json"), "--a", "--b", "1,0")[0] == 2
    assert run_cli(capsys, "no-such-verb")[0] == 2
    assert run_cli(capsys)[0] == 2


def test_non_ascii_digits_exit_2(tmp_path, capsys):
    # Unicode decimal digits are not wire digits, wherever they sit
    bad = tmp_path / "arabic_indic.json"
    bad.write_text(json.dumps({"n": 1, "v": [["0", "0", "\u0662"]]}), encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert (code, out) == (2, "") and "field 'v[0][2]'" in err
    for value in ("\u0663,0", "\uff13,0", "1/1\u0663,0"):
        code, out, err = run_cli(capsys, "mul", spec_path("f3_square.json"), "--a", value,
                                 "--b", "1,0")
        assert (code, out) == (2, "") and err.startswith("error: --a")


@pytest.mark.parametrize("option, middle, trailing", [
    ("--a", ("inn-check", "--a", "1,,2"), ("inn-check", "--a", "1,2,")),
    ("--b", ("mul", "f3_square.json", "--a", "1,0", "--b", "1,,0"),
     ("mul", "f3_square.json", "--a", "1,0", "--b", "1,")),
    ("--x", ("algebra-bracket", "--x", "1,0,,0", "--y", "0,1,0"),
     ("algebra-bracket", "--x", "1,0,0,", "--y", "0,1,0,0")),
    ("--y", ("algebra-bracket", "--x", "1,0,0", "--y", "0,,1,0"),
     ("algebra-bracket", "--x", "1,0,0,0", "--y", "0,1,0,")),
    ("--basis", ("core-ideal", "--basis", "0,1,0;;0,0,1"),
     ("classify-subalgebra", "--basis", "1,0,0,0;0,0,1,0;0,0,0,1;")),
    ("--grid", ("thm3", "f3_square.json", "--grid=1,,2,3|0,1"),
     ("thm3", "f3_square.json", "--grid=1,2,3|0,")),
])
def test_empty_list_items_exit_2(capsys, option, middle, trailing):
    # an empty item is a malformed rational, never a shorter list
    for argv in (middle, trailing):
        argv = [spec_path(a) if a.endswith(".json") else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {option}")


def test_usage_error_does_not_change_the_next_call(capsys):
    argv = ("thm3", spec_path("f3_square.json"))
    alone = run_cli(capsys, *argv)
    assert run_cli(capsys, "thm3", "--grid")[0] == 2
    assert run_cli(capsys, *argv) == alone


def test_thm3_call_leaves_no_reference_cycles(capsys):
    argv = ["thm3", spec_path("f3_square.json")]
    main(argv)
    gc.collect()
    gc.disable()
    try:
        main(argv)
        unreachable = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert unreachable == 0


def test_pretty_flag_writes_stderr_only(capsys):
    code, out, err = run_cli(capsys, "--pretty", "validate", spec_path("f3_square.json"))
    assert code == 0
    json.loads(out)
    assert "validate" in err


def test_pretty_env_var(capsys, monkeypatch):
    monkeypatch.setenv("FILILOOP_PRETTY", "1")
    code, out, err = run_cli(capsys, "validate", spec_path("f3_square.json"))
    assert code == 0
    json.loads(out)
    assert "validate" in err


def test_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "thm3", spec_path("f3_square.json"))
        runs.append(out)
    assert runs[0] == runs[1]


def test_import_loads_neither_dataclasses_nor_inspect():
    # -I ignores PYTHONPATH and the user site, so the path goes in by hand
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import fililoop.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point_subprocess():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "fililoop.cli", "validate", spec_path("f3_square.json")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["result"]["proper"] is True
