"""Command-line front end: load loop specs, run checks, emit JSON reports.

Every invocation prints a single JSON object to stdout of the form
{"command": [...], "result": {...}, "certificates": [...]} and exits with
0 when all certificates pass, 1 when some certificate fails, and 2 on
argument, parse or domain errors.  Output is deterministic: certificate
lists are sorted by name and no timestamps appear.  Setting --pretty (or
the FILILOOP_PRETTY environment variable) adds a human-readable summary on
stderr without touching the stdout bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import (
    AlgebraElement,
    NotClosedError,
    SubalgebraBasis,
    bracket,
    classify_subalgebra,
    core_ideal,
)
from .exact import Poly, rational_from_str
from .loop import (
    LoopPoint,
    LoopSpec,
    SpecError,
    comm_defect,
    ldiv,
    lmul,
    rdiv,
)
from .mult import (
    DEFAULT_GRID,
    Certificate,
    SampleGrid,
    inn_correspondence_check,
    mult_group_report,
    solve_companions,
)


class CliError(Exception):
    """Argument or domain error; carries the process exit code (2)."""

    def __init__(self, message: str):
        super().__init__(message)
        self.code = 2


# ---------------------------------------------------------------------------
# Argument parsing helpers
# ---------------------------------------------------------------------------


def _parse_rational(text: str, where: str) -> Fraction:
    try:
        return rational_from_str(text)
    except ValueError as exc:
        raise CliError(f"{where}: {exc}") from None


def _parse_point(text: str, where: str) -> LoopPoint:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"{where}: expected 'u,z' with two rationals, got {text!r}")
    return LoopPoint(_parse_rational(parts[0], where), _parse_rational(parts[1], where))


def _parse_coords(text: str, where: str) -> tuple[Fraction, ...]:
    return tuple(_parse_rational(p, where) for p in text.split(","))


def _parse_element(text: str, where: str) -> AlgebraElement:
    coords = _parse_coords(text, where)
    if len(coords) < 3:
        raise CliError(f"{where}: need at least 3 coordinates (n >= 1)")
    return AlgebraElement(len(coords) - 2, coords)


def _parse_basis(text: str, where: str) -> SubalgebraBasis:
    elements = [_parse_element(r, f"{where}[{i}]") for i, r in enumerate(text.split(";"))]
    n = elements[0].n
    if any(e.n != n for e in elements):
        raise CliError(f"{where}: vectors have inconsistent lengths")
    return SubalgebraBasis.span(n, elements)


def _parse_grid(text: str) -> SampleGrid:
    parts = text.split("|")
    if len(parts) != 2:
        raise CliError("--grid: expected 'u1,u2,...|z1,z2,...'")
    return SampleGrid(_parse_coords(parts[0], "--grid"), _parse_coords(parts[1], "--grid"))


def load_spec(path: str) -> LoopSpec:
    """Read a LoopSpec JSON file; LoopSpec.from_json reports field paths."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise CliError(f"{path}: invalid JSON ({exc})") from None
    try:
        return LoopSpec.from_json(data)
    except SpecError as exc:
        raise CliError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Verb handlers: each returns (result payload, list of Certificate)
# ---------------------------------------------------------------------------


def _cmd_validate(ns) -> tuple[dict, list[Certificate]]:
    spec = load_spec(ns.spec)
    # identity violations already exit 2 inside load_spec
    reasons = list(spec.proper_reasons)
    result = {"identity_ok": True, "proper": spec.proper, "reasons": reasons}
    return result, [Certificate("identity", True),
                    Certificate("proper", spec.proper, reasons or None)]


def _cmd_mul(ns) -> tuple[dict, list[Certificate]]:
    spec = load_spec(ns.spec)
    a = _parse_point(ns.a, "--a")
    b = _parse_point(ns.b, "--b")
    return {"result": lmul(spec, a, b).to_json()}, []


def _cmd_div(ns) -> tuple[dict, list[Certificate]]:
    spec = load_spec(ns.spec)
    a = _parse_point(ns.a, "--a")
    b = _parse_point(ns.b, "--b")
    if ns.side == "left":
        result = ldiv(spec, a, b)
    else:
        result = rdiv(spec, b, a)
    return {"result": result.to_json(), "side": ns.side}, []


def _nested_strings(defect) -> list[list[str]]:
    out = []
    for c in defect.coeffs:
        if isinstance(c, Poly):
            out.append(c.to_strings())
        else:
            out.append([str(c)] if c else [])
    return out


def _cmd_comm(ns) -> tuple[dict, list[Certificate]]:
    spec = load_spec(ns.spec)
    defect = comm_defect(spec)
    return {"commutative": defect.is_zero, "defect": _nested_strings(defect)}, []


def _cmd_mult_group(ns) -> tuple[dict, list[Certificate]]:
    spec = load_spec(ns.spec)
    solution = solve_companions(spec)
    result = {
        "mult_equals_g": solution is not None,
        "companions": solution.to_json() if solution is not None else None,
    }
    return result, [Certificate("companions-exist", solution is not None)]


def _cmd_thm3(ns) -> tuple[dict, list[Certificate]]:
    spec = load_spec(ns.spec)
    if spec.n != 1:
        raise CliError(f"{ns.spec}: thm3 needs a spec with n = 1, got n = {spec.n}")
    grid = _parse_grid(ns.grid) if ns.grid else DEFAULT_GRID
    try:
        report = mult_group_report(spec.v[0], grid)
    except ValueError as exc:
        raise CliError(f"{ns.spec}: {exc}") from None
    payload = {"claim": report.claim, "mult_dimension": report.mult_dimension}
    return payload, list(report.certificates)


def _cmd_algebra_bracket(ns) -> tuple[dict, list[Certificate]]:
    x = _parse_element(ns.x, "--x")
    y = _parse_element(ns.y, "--y")
    if x.n != y.n:
        raise CliError("--x and --y must have the same length")
    return {"result": bracket(x, y).to_json()}, []


def _cmd_classify_subalgebra(ns) -> tuple[dict, list[Certificate]]:
    basis = _parse_basis(ns.basis, "--basis")
    try:
        form = classify_subalgebra(basis)
    except NotClosedError as exc:
        raise CliError(f"--basis: {exc}") from None
    if form is None:
        return {"commutative": True}, []
    return {"commutative": False, "index": form.index, "t1": form.offset.to_json()}, []


def _cmd_core_ideal(ns) -> tuple[dict, list[Certificate]]:
    basis = _parse_basis(ns.basis, "--basis")
    try:
        ideal = core_ideal(basis)
    except NotClosedError as exc:
        raise CliError(f"--basis: {exc}") from None
    return {"basis": ideal.to_json(), "dimension": ideal.dimension}, []


def _cmd_inn_check(ns) -> tuple[dict, list[Certificate]]:
    a = _parse_coords(ns.a, "--a")
    holds = inn_correspondence_check(a)
    return {"holds": holds}, [Certificate("inn-correspondence", holds)]


_HANDLERS = {
    "validate": _cmd_validate,
    "mul": _cmd_mul,
    "div": _cmd_div,
    "comm": _cmd_comm,
    "mult-group": _cmd_mult_group,
    "thm3": _cmd_thm3,
    "algebra-bracket": _cmd_algebra_bracket,
    "classify-subalgebra": _cmd_classify_subalgebra,
    "core-ideal": _cmd_core_ideal,
    "inn-check": _cmd_inn_check,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fililoop",
        description="Exact verification of 2-dimensional loops over filiform Lie groups.")
    parser.add_argument("--pretty", action="store_true",
                        help="also print a human-readable summary to stderr")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="check identity condition and properness of a spec")
    p.add_argument("spec", help="path to a LoopSpec JSON file")

    p = sub.add_parser("mul", help="multiply two loop points")
    p.add_argument("spec")
    p.add_argument("--a", required=True, help="left factor 'u,z'")
    p.add_argument("--b", required=True, help="right factor 'u,z'")

    p = sub.add_parser("div", help="left division a\\b or right division b/a")
    p.add_argument("spec")
    p.add_argument("--a", required=True, help="known factor 'u,z'")
    p.add_argument("--b", required=True, help="product 'u,z'")
    p.add_argument("--side", choices=("left", "right"), default="left",
                   help="left: solve a*y=b for y; right: solve x*a=b for x")

    p = sub.add_parser("comm", help="commutativity defect of a spec")
    p.add_argument("spec")

    p = sub.add_parser("mult-group", help="decide whether Mult(L) collapses onto G")
    p.add_argument("spec")

    p = sub.add_parser("thm3", help="certify the multiplication group of an n=1 loop")
    p.add_argument("spec")
    p.add_argument("--grid", help="sample grid 'u1,u2,...|z1,z2,...'")

    p = sub.add_parser("algebra-bracket", help="Lie bracket of two algebra elements")
    p.add_argument("--x", required=True, help="coordinates 'c1,...,c_{n+2}'")
    p.add_argument("--y", required=True, help="coordinates 'c1,...,c_{n+2}'")

    p = sub.add_parser("classify-subalgebra", help="normal form of a bracket-closed subspace")
    p.add_argument("--basis", required=True, help="';'-separated coordinate vectors")

    p = sub.add_parser("core-ideal", help="largest ideal contained in a subalgebra")
    p.add_argument("--basis", required=True, help="';'-separated coordinate vectors")

    p = sub.add_parser("inn-check", help="check the inner-mapping subalgebra straightening")
    p.add_argument("--a", required=True, help="parameters 'a1,...,an'")

    return parser


_VALUE_OPTIONS = frozenset(("--a", "--b", "--x", "--y", "--basis", "--grid"))


def _attach_dash_values(argv: list[str]) -> list[str]:
    """argv with "--opt -VALUE" as "--opt=-VALUE", which argparse would read as two
    options; "--opt --name" stays as it is, so a missing value is still reported."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _VALUE_OPTIONS and arg[:1] == "-" and arg[:2] != "--":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _pretty_summary(verb: str, certs: list[Certificate]) -> str:
    status = ", ".join(f"{c.name}={'ok' if c.passed else 'FAIL'}" for c in certs)
    return f"{verb}: {status or 'ok'}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(_attach_dash_values(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    pretty = ns.pretty or bool(os.environ.get("FILILOOP_PRETTY"))
    try:
        result, certs = _HANDLERS[ns.verb](ns)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    certs = sorted(certs, key=lambda c: c.name)
    envelope = {"command": argv, "result": result, "certificates": [c.to_json() for c in certs]}
    print(json.dumps(envelope, sort_keys=True, separators=(",", ":")))
    if pretty:
        print(_pretty_summary(ns.verb, certs), file=sys.stderr)
    return 0 if all(c.passed for c in certs) else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
