"""fililoop benchmark: one client, one thread, closed loop.

    python3 bench/run.py --workload {thm3,loop-arith,subalgebra} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  Each operation starts only after the previous one returned.
Every result is checked against an answer derived independently of fililoop
(see ``workloads.py``).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds run context and details that are not gated.

``--trace 0`` reports the end-to-end metrics with no wrappers installed.
``--trace 1`` first runs the workload untraced for a third of ``--seconds``,
then replays the same operations with every layer wrapped, and reports the
per-layer metrics plus the tracing overhead between the two passes.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

SETUP_ROUNDS = 5

# Host-speed reference.  On a shared host the same work can run twice as slow
# for spells of many seconds, in CPU time as much as in wall time.  A fixed
# exact-arithmetic kernel that does not touch fililoop is timed between
# operations, and every gated time is scaled by REFERENCE_S / (kernel time
# around it): the time the operation would take on a host where the kernel
# takes REFERENCE_S.  REFERENCE_S is the kernel's time on the 2-core Xeon
# host the benchmark was defined on, in its fast spells.  The unscaled
# figures are in the detail line.
REFERENCE_S = 0.00035
_REFERENCE_COEFFS = [Fraction(k % 7 - 3, k % 5 + 1) for k in range(9)]
_REFERENCE_POINTS = [Fraction(p, q) for p in (1, -2, 7, -5) for q in (3, 5, 8)]

END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units() -> dict:
    import tracing

    units = {}
    for name in tracing.REPORTED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units["algebra.closure.useful_ratio"] = "ratio"
    for name in tracing.PER_CALL:
        for n in tracing.SIZES:
            units[f"{name}.us_per_call.n{n}"] = "us"
    units.update({
        "group.max_bits": "bits",
        "loop.max_bits": "bits",
        "mult.h_connected.commutators": "count",
        "mult.h_connected.distinct_ratio": "ratio",
        "cli.self_ms": "ms",
        "cli.import_ms": "ms",
    })
    for m in tracing.SIZES:
        units[f"thm3.latency_ms.m{m}"] = "ms"
    units["trace.overhead_pct"] = "%"
    return units


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------


def _reference_kernel() -> Fraction:
    total = Fraction(0)
    for x in _REFERENCE_POINTS:
        value = Fraction(0)
        for c in reversed(_REFERENCE_COEFFS):
            value = value * x + c
        total += value
    return total


def probe() -> float:
    """Mean time of three runs of the reference kernel, with the collector off
    so that the program's heap does not slow the kernel.  The mean, not the
    best, because the operations around it pay the host's mean speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(3):
            _reference_kernel()
        return (time.perf_counter() - t0) / 3
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

_IMPORT_PROBE = """
import json, sys, time
sys.path[:0] = sys.argv[1:3]
import run
run.probe()
before = run.probe()
t0 = time.perf_counter()
import fililoop.cli
elapsed = time.perf_counter() - t0
print(json.dumps({"import": elapsed, "reference": (before + run.probe()) / 2}))
"""


def import_seconds() -> tuple[float, float]:
    """Time to import fililoop.cli in a fresh interpreter, and the reference
    kernel's time around it, both measured inside that interpreter."""
    done = subprocess.run([sys.executable, "-I", "-c", _IMPORT_PROBE, SRC, BENCH_DIR],
                          cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    out = json.loads(done.stdout)
    return out["import"], out["reference"]


def measure_setup(workload, seed: int) -> dict:
    """Median over rounds of import time plus generating and writing the
    first schedule cycle of inputs, scaled and unscaled; also the median
    import time alone."""
    import workloads

    import_seconds()  # compile bytecode once; users do not pay that per run
    totals, scaled, imports = [], [], []
    for _ in range(SETUP_ROUNDS):
        imp, child_reference = import_seconds()
        before = probe()
        workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
        try:
            t0 = time.perf_counter()
            inputs = workloads.Inputs(workload, seed, workdir)
            for i in range(workload.cycle):
                inputs.get(i)
            gen = time.perf_counter() - t0
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        totals.append(imp + gen)
        scaled.append(imp * REFERENCE_S / child_reference
                      + gen * 2 * REFERENCE_S / (before + probe()))
        imports.append(imp)
    return {"scaled": statistics.median(scaled), "raw": statistics.median(totals),
            "import": statistics.median(imports)}


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


def run_one(workload, record: dict, tally: Counter, tracer=None) -> tuple[float, list[str]]:
    """Execute one operation; return its latency and its check failures."""
    op = workload.prepare(record)
    if tracer is not None:
        tracer.begin_op(record["index"])
    t0 = time.perf_counter()
    try:
        output = workload.execute(op)
    except Exception as exc:  # a raising operation is a failed operation
        return time.perf_counter() - t0, [f"raised {exc!r}"]
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
    try:
        return elapsed, workload.check(op, output, tally)
    except Exception as exc:  # output the check cannot read is a wrong answer
        return elapsed, [f"unreadable output: {exc!r}"]


def closed_loop(workload, inputs, seconds: float, tally: Counter, indices=None, tracer=None,
                deadline: float | None = None) -> list[dict]:
    """Run operations back to back until ``seconds`` have passed and the
    current schedule cycle is complete, so every run holds the same mix of
    sizes; or run the given indices until they are done or ``deadline``
    passes."""
    results = []
    stop = time.perf_counter() + seconds
    i = 0
    before = probe()
    while True:
        now = time.perf_counter()
        if indices is None:
            if now >= stop and i % workload.cycle == 0:
                break
            index = i
        else:
            if i >= len(indices) or (deadline is not None and now >= deadline):
                break
            index = indices[i]
        record = inputs.get(index)
        latency, failures = run_one(workload, record, tally, tracer)
        after = probe()
        results.append({"index": index, "size": record["size"], "raw": latency,
                        "latency": latency * 2 * REFERENCE_S / (before + after),
                        "failures": failures})
        before = after
        i += 1
    return results


def latency_summary(results: list[dict], percentile: int, key: str = "latency") -> dict:
    """Throughput, median and tail of one pass.

    The tail percentile is fixed per workload: the highest that keeps about
    ten samples beyond it at the run length in BENCHMARK.json.  It does not
    move with the sample count, because thm3's degrees form well-separated
    latency groups and a percentile that moved with the count would jump
    between them from run to run.
    """
    lat = sorted(r[key] for r in results)
    tail = (statistics.quantiles(lat, n=100, method="inclusive")[percentile - 1]
            if len(lat) > 1 else lat[0])
    correct = sum(not r["failures"] for r in results)
    return {
        "ops": len(lat),
        "throughput_ops_s": correct / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "tail_samples_beyond": sum(x > tail for x in lat),
    }


def by_size(results: list[dict]) -> dict:
    groups = defaultdict(list)
    for r in results:
        groups[r["size"]].append(r["latency"] * 1e3)
    return {size: statistics.median(v) for size, v in sorted(groups.items())}


def run_controls(workload, inputs, results: list[dict]) -> list[list[str]]:
    """Degenerate-transversal controls, once per size seen in the run."""
    if not hasattr(workload, "control"):
        return []
    first = {}
    for r in results:
        first.setdefault(r["size"], r["index"])
    out = []
    for index in first.values():
        try:
            out.append(workload.control(inputs.get(index)))
        except Exception as exc:  # a control that raises is not refuted
            out.append([f"control raised {exc!r}"])
    return out


# ---------------------------------------------------------------------------
# Context and output
# ---------------------------------------------------------------------------


def commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "fililoop", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def context(seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit(),
            "seed": seed, "src_lines": source_lines()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one benchmark pass; return the result object and the detail line."""
    started = time.perf_counter()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    setup = measure_setup(workload, seed)

    tally: Counter = Counter()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        inputs = workloads.Inputs(workload, seed, workdir)
        plain = closed_loop(workload, inputs, seconds / 3 if trace else seconds, tally)
        traced, violations, tracer = [], [], None
        if trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                traced = closed_loop(workload, inputs, 0, tally,
                                     indices=[r["index"] for r in plain], tracer=tracer,
                                     deadline=time.perf_counter() + 3 * seconds)
            violations = tracer.table_violations(workload_name)
        controls = run_controls(workload, inputs, plain)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = plain + traced
    failures = [f for r in ops for f in r["failures"]] + [f for c in controls for f in c] + violations
    failed = sum(bool(r["failures"]) for r in ops) + sum(bool(c) for c in controls) + len(violations)
    attempted = len(ops) + len(controls) + (len(tracing.USED[workload_name]) +
                                            len(tracing.ZERO[workload_name]) if trace else 0)
    summary = latency_summary(plain, workload.tail_percentile)
    raw = latency_summary(plain, workload.tail_percentile, "raw")
    sizes = by_size(plain)

    if trace:
        values = tracer.metrics()
        values["cli.import_ms"] = setup["import"] * 1e3
        for m in tracing.SIZES:
            values[f"thm3.latency_ms.m{m}"] = sizes.get(m, 0.0) if workload_name == "thm3" else 0.0
        base = sum(r["latency"] for r in plain[:len(traced)])
        values["trace.overhead_pct"] = (sum(r["latency"] for r in traced) / base - 1) * 100
        units = per_layer_units()
    else:
        values = {name: summary[name] for name in ("throughput_ops_s", "latency_p50_ms",
                                                   "latency_tail_ms")}
        values["peak_rss_mb"] = peak_rss_mb()
        values["setup_s"] = setup["scaled"]
        units = END_TO_END

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    detail = {
        "context": context(seed),
        "workload": workload_name,
        "trace": trace,
        "failed_share": failed / attempted,
        "ops": summary["ops"],
        "traced_ops": len(traced),
        "tail_percentile": workload.tail_percentile,
        "tail_samples_beyond": summary["tail_samples_beyond"],
        "latency_p50_ms_by_size": sizes,
        "unscaled": {"throughput_ops_s": raw["throughput_ops_s"],
                     "latency_p50_ms": raw["latency_p50_ms"],
                     "latency_tail_ms": raw["latency_tail_ms"], "setup_s": setup["raw"]},
        "host_slowdown": statistics.median(r["raw"] / r["latency"] for r in plain),
        "controls": {"degenerate_transversal": len(controls),
                     "degenerate_transversal_refuted": sum(not c for c in controls),
                     **tally},
        "failures": failures[:20],
        "wall_s": time.perf_counter() - started,
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("thm3", "loop-arith", "subalgebra"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fililoop", "__init__.py")):
        print(f"error: no fililoop sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
