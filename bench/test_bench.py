"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import fililoop  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fililoop import cli, exact, loop, mult  # noqa: E402


def _inputs(name: str, seed: int, workdir, count: int = 12):
    inputs = workloads.Inputs(workloads.WORKLOADS[name], seed, str(workdir))
    for i in range(count):
        inputs.get(i)
    files = [(f, (workdir / f).read_bytes()) for f in sorted(os.listdir(workdir))]
    return inputs, files


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first, first_files = _inputs(name, 7, tmp_path / "a")
    second, second_files = _inputs(name, 7, tmp_path / "b")
    assert first.texts == second.texts
    assert first_files == second_files
    assert bool(first_files) == workloads.WORKLOADS[name].writes_files
    assert len(set(first.texts)) == len(first.texts)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_other_seed_keeps_the_schedule(tmp_path, name):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    one, _ = _inputs(name, 1, tmp_path / "a", 24)
    two, _ = _inputs(name, 2, tmp_path / "b", 24)
    records = [(one.get(i), two.get(i)) for i in range(24)]
    assert all(a["size"] == b["size"] for a, b in records)
    if name == "loop-arith":
        assert all(a["data"]["kind"] == b["data"]["kind"] for a, b in records)
    assert one.texts != two.texts


def test_injected_wrong_verdict_is_failed(monkeypatch):
    def wrong_report(v1, grid=mult.DEFAULT_GRID):
        return mult.MultReport("Mult(L) isomorphic to F_3", (), 3)

    monkeypatch.setattr(cli, "mult_group_report", wrong_report)
    result, detail = run.run("thm3", seed=1, seconds=0.1, trace=False)
    assert result["failed"] > 0 and not result["correct"]
    assert detail["failed_share"] > 0


def test_injected_commutative_defect_is_failed(monkeypatch):
    monkeypatch.setattr(loop, "comm_defect", lambda spec: exact.Poly())
    result, detail = run.run("loop-arith", seed=1, seconds=0.3, trace=False)
    assert result["failed"] > 0 and detail["failed_share"] > 0
    assert detail["controls"]["noncommutative_c_refuted"] < detail["controls"]["noncommutative_c"]


def _namespaces():
    modules = [m for key, m in sorted(sys.modules.items())
               if key == "fililoop" or key.startswith("fililoop.")]
    owners = modules + [exact.Poly, exact.RatMatrix, fililoop.algebra.SubalgebraBasis]
    return {id(owner): dict(vars(owner)) for owner in owners}


def test_traced_run_restores_the_originals():
    before = _namespaces()
    result, detail = run.run("subalgebra", seed=3, seconds=0.3, trace=True)
    after = _namespaces()
    assert result["correct"], detail["failures"]
    assert before.keys() == after.keys()
    for key, names in before.items():
        assert all(after[key][name] is value for name, value in names.items())

    # An untraced run afterwards times no wrapper.
    plain, _ = run.run("subalgebra", seed=3, seconds=0.1, trace=False)
    assert set(plain["metrics"]) == set(run.END_TO_END)
    assert _namespaces() == after


def test_thm3_trace_reports_every_layer():
    result, detail = run.run("thm3", seed=2, seconds=0.1, trace=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"], detail["failures"]
    assert set(metrics) == set(run.per_layer_units())
    assert metrics["mult.h_connected.distinct_ratio"] == 0.25
    assert metrics["group.commutator.calls"] > 0 and metrics["loop.lmul.calls"] == 0
    assert metrics["group.gmul.us_per_call.n2"] > 0
    assert detail["controls"]["degenerate_transversal_refuted"] >= 1


def test_layer_table_breaches_are_reported():
    tracer = tracing.Tracer()
    for name in tracing.USED["thm3"][1:]:
        tracer.calls[name] = 1
    tracer.calls["loop.lmul"] = 2
    breaches = tracer.table_violations("thm3")
    assert len(breaches) == 2
    assert any(tracing.USED["thm3"][0] in b for b in breaches)
    assert any("loop.lmul" in b for b in breaches)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
