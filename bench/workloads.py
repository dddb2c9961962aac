"""Seeded inputs, timed operations and independent answer checks for each workload.

Every workload turns an operation index into one input, drawn from a random
generator seeded by the workload name, the run seed and the index, so a run's
inputs do not depend on how long it ran and a different seed changes the
coefficients but never the size schedule.  The program only receives the
generated inputs.  Each check derives the expected answer from the mathematics
of the paper with this file's own rational arithmetic, not from fililoop.

Operations call fililoop through module attributes (``loop.lmul``, not an
imported name) so that the wrappers installed by ``tracing`` see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

from fililoop import algebra, cli, exact, loop, mult


# ---------------------------------------------------------------------------
# The benchmark's own rational helpers
# ---------------------------------------------------------------------------


def rand_fraction(rng: random.Random, lo: int = -9, hi: int = 9, max_den: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_coeffs(rng: random.Random, degree: int) -> list[Fraction]:
    """Coefficients of a degree-``degree`` polynomial with p(0) = 0, drawn as
    the test suite's ``rand_poly(..., zero_constant=True)`` draws them."""
    coeffs = [rand_fraction(rng, -5, 5, 5) for _ in range(degree + 1)]
    coeffs[0] = Fraction(0)
    while not coeffs[degree]:
        coeffs[degree] = rand_fraction(rng, -5, 5, 5)
    return coeffs


def horner(coeffs, x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def strs(values) -> list[str]:
    return [str(v) for v in values]


def fracs(texts) -> list[Fraction]:
    return [Fraction(t) for t in texts]


def unit_rows(size: int, first: int, last: int) -> tuple[tuple[Fraction, ...], ...]:
    """Rows e_first, ..., e_last (1-based) of the identity of order ``size``."""
    return tuple(tuple(Fraction(int(c == j - 1)) for c in range(size))
                 for j in range(first, last + 1))


class Inputs:
    """The inputs of one run, generated in index order on first use.

    Inputs are kept distinct: a draw that repeats an earlier input is drawn
    again from the same generator.  Only the serialized inputs are kept, so
    the benchmark's own memory stays small next to the program's.  Workloads
    whose program reads files get each input written to ``workdir`` as
    ``opNNNNN.json``.
    """

    def __init__(self, workload, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.texts: list[str] = []
        self._seen: set[str] = set()

    def path(self, index: int) -> str:
        return os.path.join(self.workdir, f"op{index:05d}.json")

    def get(self, index: int) -> dict:
        while len(self.texts) <= index:
            i = len(self.texts)
            rng = random.Random(f"{self.workload.name}:{self.seed}:{i}")
            while True:
                text = json.dumps(self.workload.make(rng, i), sort_keys=True, separators=(",", ":"))
                if text not in self._seen:
                    break
            self._seen.add(text)
            if self.workload.writes_files:
                with open(self.path(i), "w", encoding="utf-8") as fh:
                    fh.write(text)
            self.texts.append(text)
        return {"index": index, "size": self.workload.size(index),
                "data": json.loads(self.texts[index]),
                "path": self.path(index) if self.workload.writes_files else None}


# ---------------------------------------------------------------------------
# thm3: one `fililoop thm3 <spec>` verdict per operation
# ---------------------------------------------------------------------------


class Thm3:
    """The paper's headline verdict, Mult(L) = F_{m+2}, through the CLI."""

    name = "thm3"
    writes_files = True
    DEGREES = (2, 3, 4, 6, 8)
    cycle = len(DEGREES)
    tail_percentile = 70
    CERTIFICATES = ["core-trivial", "generation", "h-connected", "transversal-identity"]

    def size(self, i: int) -> int:
        return self.DEGREES[i % len(self.DEGREES)]

    def make(self, rng: random.Random, i: int) -> dict:
        return {"n": 1, "v": [strs(rand_coeffs(rng, self.size(i)))]}

    def prepare(self, record: dict) -> dict:
        return record

    def execute(self, record: dict):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["thm3", record["path"]])
        return code, out.getvalue()

    def check(self, record: dict, output, tally: dict) -> list[str]:
        code, text = output
        m = record["size"]
        if code != 0:
            return [f"exit code {code}, expected 0"]
        envelope = json.loads(text)
        result, certs = envelope["result"], envelope["certificates"]
        failures = []
        if result.get("mult_dimension") != m + 2:
            failures.append(f"mult_dimension {result.get('mult_dimension')}, expected {m + 2}")
        if result.get("claim") != f"Mult(L) isomorphic to F_{m + 2}":
            failures.append(f"claim {result.get('claim')!r}")
        if [c["name"] for c in certs] != self.CERTIFICATES:
            failures.append(f"certificates {[c['name'] for c in certs]}")
        failures += [f"certificate {c['name']} failed" for c in certs if c["pass"] is not True]
        return failures

    def control(self, record: dict) -> list[str]:
        """Degenerate transversal (last a_k set to 0): h-connectedness must
        fail and the log closure must stay below dimension m+2."""
        m = record["size"]
        v1 = exact.Poly(fracs(record["data"]["v"][0]))
        trans = mult.h_connected_transversal(v1)
        points = mult.grid_points(mult.DEFAULT_GRID)
        lam = mult.left_translation_elements(mult.LeftTranslationFamily(m, v1), points)
        degenerate = mult.TransversalSpec(m, trans.a[:-1] + (Fraction(0),))
        t_bad = mult.transversal_elements(degenerate, points)
        failures = []
        if mult.check_h_connected(lam, t_bad).ok:
            failures.append(f"degenerate transversal passed h-connected at m={m}")
        dim = mult.generated_subalgebra_of(lam + t_bad).dimension
        if dim >= m + 2:
            failures.append(f"degenerate log closure reached dimension {dim} at m={m}")
        return failures


# ---------------------------------------------------------------------------
# loop-arith: loop products and divisions, commutativity and companions
# ---------------------------------------------------------------------------


def _coeff(v, power: int) -> Fraction:
    return v[power] if power < len(v) else Fraction(0)


def _twist(vs, u1: Fraction, u2: Fraction) -> Fraction:
    return sum(((-1) ** k * u2 ** k * horner(v, u1) for k, v in enumerate(vs, start=1)),
               Fraction(0))


def _eval_nested(p, x: Fraction, y: Fraction) -> Fraction:
    """Value of a two-variable fililoop polynomial (outer x, inner y)."""
    return horner([horner(c.coeffs, y) if isinstance(c, exact.Poly) else c for c in p.coeffs], x)


class LoopArith:
    """Spec kinds rotate: (a) random proper, (b) signed-symmetric A, whose loop
    is commutative with all-zero companions, (c) that A perturbed off the
    diagonal, which is not commutative."""

    name = "loop-arith"
    writes_files = False
    cycle = 6
    tail_percentile = 99
    PAIRS = 20
    PROBES = 3
    MAX_DEGREE = 8

    def size(self, i: int) -> int:
        return 1 + i % 6

    def kind(self, i: int) -> str:
        return "abc"[i % 3]

    def make(self, rng: random.Random, i: int) -> dict:
        n, kind = self.size(i), self.kind(i)
        data: dict = {"kind": kind, "n": n}
        if kind == "a":
            data["v"] = [strs(rand_coeffs(rng, rng.randint(2 if j == n else 1, self.MAX_DEGREE)))
                         for j in range(1, n + 1)]
        else:
            a = [[Fraction(0)] * n for _ in range(n)]
            for r in range(n):
                a[r][r] = rand_fraction(rng, -5, 5, 5)
                for c in range(r + 1, n):
                    a[r][c] = rand_fraction(rng, -5, 5, 5)
                    a[c][r] = (-1) ** (r + c) * a[r][c]
            if kind == "c":
                r, c = rng.sample(range(n), 2)
                delta = Fraction(0)
                while not delta:
                    delta = rand_fraction(rng, -5, 5, 5)
                a[r][c] += delta
            data["A"] = [strs(row) for row in a]
        data["pairs"] = [strs(rand_fraction(rng) for _ in range(4)) for _ in range(self.PAIRS)]
        data["probes"] = [strs(rand_fraction(rng) for _ in range(2)) for _ in range(self.PROBES)]
        return data

    def prepare(self, record: dict) -> dict:
        data = record["data"]
        n = data["n"]
        if "A" in data:
            a = [fracs(row) for row in data["A"]]
            vs = [[Fraction(0)] + row for row in a]
        else:
            a = None
            vs = [fracs(v) for v in data["v"]]
        high = any(any(v[n + 1:]) for v in vs)
        signed_symmetric = all(
            _coeff(vs[i], j + 1) == (-1) ** (i + j) * _coeff(vs[j], i + 1)
            for i in range(n) for j in range(n))
        return {"kind": data["kind"], "n": n, "a": a, "vs": vs,
                "pairs": [tuple(fracs(p)) for p in data["pairs"]],
                "probes": [tuple(fracs(p)) for p in data["probes"]],
                "high": high,
                "commutative": not high and signed_symmetric}

    def execute(self, op: dict):
        n = op["n"]
        if op["kind"] == "b":
            spec = loop.spec_from_comm_matrix(loop.CommMatrix(n, exact.RatMatrix(op["a"])))
        else:
            spec = loop.LoopSpec(n, tuple(exact.Poly(v) for v in op["vs"]))
        e = loop.LoopPoint(0, 0)
        rows = []
        for u1, z1, u2, z2 in op["pairs"]:
            a, b = loop.LoopPoint(u1, z1), loop.LoopPoint(u2, z2)
            p = loop.lmul(spec, a, b)
            rows.append((p, loop.ldiv(spec, a, p), loop.rdiv(spec, p, b),
                         loop.lmul(spec, e, a), loop.lmul(spec, a, e)))
        return rows, loop.comm_defect(spec), mult.solve_companions(spec)

    def check(self, op: dict, output, tally: dict) -> list[str]:
        rows, defect, companions = output
        vs = op["vs"]
        failures = []
        for (u1, z1, u2, z2), (p, left, right, ea, ae) in zip(op["pairs"], rows):
            if (p.u, p.z) != (u1 + u2, z1 + z2 + _twist(vs, u1, u2)):
                failures.append("lmul differs from the loop formula")
            if (left.u, left.z) != (u2, z2) or (right.u, right.z) != (u1, z1):
                failures.append("division round trip is not exact")
            if (ea.u, ea.z) != (u1, z1) or (ae.u, ae.z) != (u1, z1):
                failures.append("identity law fails")
        if defect.is_zero != op["commutative"]:
            failures.append(f"comm_defect zero={defect.is_zero}, expected {op['commutative']}")
        for x, y in op["probes"]:
            want = sum(((-1) ** k * (y ** k * horner(v, x) - x ** k * horner(v, y))
                        for k, v in enumerate(vs, start=1)), Fraction(0))
            if _eval_nested(defect, x, y) != want:
                failures.append("comm_defect value differs at a probe point")
        if op["kind"] == "c":
            tally["noncommutative_c"] += 1
            tally["noncommutative_c_refuted"] += not defect.is_zero
        if op["high"]:
            tally["no_companions"] += 1
            tally["no_companions_refuted"] += companions is None
            if companions is not None:
                failures.append("companions returned for a spec with a coefficient above degree n")
        elif companions is None:
            failures.append("no companions for a spec without coefficients above degree n")
        else:
            s = [p.coeffs for p in companions.s]
            if op["kind"] == "b" and any(s):
                failures.append("a signed-symmetric spec has nonzero companions")
            for x, u in op["probes"]:
                lhs = sum(((-1) ** k * x ** k * (horner(sk, u) + horner(v, u))
                           for k, (sk, v) in enumerate(zip(s, vs), start=1)), Fraction(0))
                rhs = sum(((-1) ** j * u ** j * horner(v, x) for j, v in enumerate(vs, start=1)),
                          Fraction(0))
                if lhs != rhs:
                    failures.append("companions fail the companion identity at a probe point")
        return failures


# ---------------------------------------------------------------------------
# subalgebra: closure, normal form, core ideals, straightening automorphism
# ---------------------------------------------------------------------------


class Subalgebra:
    """Closure of {e_1 + t, y} with y led by e_k, the inner-mapping subalgebra
    and the tail ideal span{e_k, ..., e_{n+2}}."""

    name = "subalgebra"
    writes_files = False
    cycle = 8
    tail_percentile = 97

    def size(self, i: int) -> int:
        return 3 + i % 8

    def make(self, rng: random.Random, i: int) -> dict:
        n = self.size(i)
        k = rng.randint(2, n + 2)
        x = [Fraction(1)] + [rand_fraction(rng) if j < k else Fraction(0) for j in range(2, n + 3)]
        y = [Fraction(0)] * (n + 2)
        y[k - 1] = Fraction(1)
        for j in range(k + 1, n + 3):
            y[j - 1] = rand_fraction(rng)
        return {"n": n, "k": k, "x": strs(x), "y": strs(y),
                "a": strs(rand_fraction(rng) for _ in range(n))}

    def prepare(self, record: dict) -> dict:
        data = record["data"]
        n, k = data["n"], data["k"]
        x = tuple(fracs(data["x"]))
        return {"n": n, "k": k, "x": x, "y": tuple(fracs(data["y"])), "a": fracs(data["a"]),
                "closure": (x,) + unit_rows(n + 2, k, n + 2),
                "straight": unit_rows(n + 2, 2, n + 1),
                "tail": unit_rows(n + 2, k, n + 2)}

    def execute(self, op: dict):
        n, k, a = op["n"], op["k"], op["a"]
        closure = algebra.subalgebra_closure(
            [algebra.AlgebraElement(n, op["x"]), algebra.AlgebraElement(n, op["y"])])
        form = algebra.classify_subalgebra(closure)
        inn = algebra.inn_subalgebra(a)
        inn_core = algebra.core_ideal(inn)
        straight = algebra.phi_automorphism(a).map_span(inn)
        tail = algebra.SubalgebraBasis.span(n, [algebra.basis_element(n, j) for j in range(k, n + 3)])
        return closure, form, inn_core, straight, algebra.core_ideal(tail)

    def check(self, op: dict, output, tally: dict) -> list[str]:
        closure, form, inn_core, straight, tail_core = output
        n, k = op["n"], op["k"]
        failures = []
        if closure.coord_rows() != op["closure"] or closure.dimension != n + 4 - k:
            failures.append(f"closure is not span(e_1 + t, e_{k}..e_{n + 2})")
        if k == n + 2:
            if form is not None:
                failures.append("commutative closure was given a normal form")
        elif form is None or form.index != k or form.offset.coeffs != (Fraction(0),) + op["x"][1:]:
            failures.append(f"normal form is not index {k} with offset t")
        if inn_core.dimension != 0:
            failures.append("core of the inner-mapping subalgebra is not zero")
        if straight.coord_rows() != op["straight"]:
            failures.append("phi does not straighten the inner-mapping subalgebra")
        if tail_core.coord_rows() != op["tail"]:
            failures.append(f"core of span(e_{k}..e_{n + 2}) is not itself")
        return failures


WORKLOADS = {w.name: w for w in (Thm3(), LoopArith(), Subalgebra())}
