"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
All checks are exact (zero tolerance); the two long-running criteria also
enforce their wall-clock budgets.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from fililoop.exact import Poly, RatMatrix
from fililoop.algebra import (
    SubalgebraBasis,
    basis_element,
    bracket,
    core_ideal,
    inn_subalgebra,
    phi_automorphism,
)
from fililoop.group import gmul, to_matrix
from fililoop.loop import (
    CommMatrix,
    LoopPoint,
    LoopSpec,
    comm_defect,
    ldiv,
    lmul,
    rdiv,
    spec_from_comm_matrix,
)
from fililoop.mult import (
    DEFAULT_GRID,
    LeftTranslationFamily,
    TransversalSpec,
    check_h_connected,
    generated_subalgebra_of,
    grid_points,
    h_connected_transversal,
    left_translation_elements,
    mult_group_report,
    solve_companions,
    transversal_elements,
)
from fililoop.cli import main as cli_main

from helpers import rand_fraction, rand_group_element, rand_algebra_element, rand_point, rand_proper_spec
from oracles import (
    coset_representative,
    decompose,
    is_bracket_automorphism,
    left_translation,
    lower_central_series,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"


def run_criterion(label, body):
    start = time.monotonic()
    try:
        body()
    except BaseException as exc:
        print(f"[acceptance] {label}: FAIL ({exc})")
        raise
    print(f"[acceptance] {label}: PASS ({time.monotonic() - start:.1f}s)")


def test_criterion_1_matrix_oracle_equivalence():
    def body():
        rng = random.Random(201)
        start = time.monotonic()
        for n in range(1, 6):
            for _ in range(100):
                x = rand_group_element(rng, n)
                y = rand_group_element(rng, n)
                product = gmul(x, y)
                assert to_matrix(product) == to_matrix(x) @ to_matrix(y)
                assert product.c == x.c + y.c
            for _ in range(100):
                x, y, z = (rand_group_element(rng, n) for _ in range(3))
                assert gmul(gmul(x, y), z) == gmul(x, gmul(y, z))
        assert time.monotonic() - start < 10.0

    run_criterion("criterion 1 (matrix-oracle equivalence, n<=5)", body)


def test_criterion_2_lie_algebra_suite():
    def body():
        rng = random.Random(202)
        for n in range(1, 7):
            for _ in range(20):
                x = rand_algebra_element(rng, n)
                y = rand_algebra_element(rng, n)
                z = rand_algebra_element(rng, n)
                s = rand_fraction(rng)
                assert bracket(x, y) == -bracket(y, x)
                assert bracket(x + s * y, z) == bracket(x, z) + s * bracket(y, z)
            elems = [basis_element(n, i) for i in range(1, n + 3)]
            for x in elems:
                for y in elems:
                    for z in elems:
                        jac = (bracket(x, bracket(y, z))
                               + bracket(y, bracket(z, x))
                               + bracket(z, bracket(x, y)))
                        assert jac.is_zero
            dims = [s.dimension for s in lower_central_series(n)]
            assert dims == [n + 2] + list(range(n, -1, -1))

    run_criterion("criterion 2 (Lie algebra suite, n<=6)", body)


def test_criterion_3_loop_axiom_suite():
    def body():
        rng = random.Random(203)
        for _ in range(10):
            spec = rand_proper_spec(rng)
            e = LoopPoint(0, 0)
            for _ in range(50):
                a, b = rand_point(rng), rand_point(rng)
                assert lmul(spec, e, a) == a and lmul(spec, a, e) == a
                assert lmul(spec, a, ldiv(spec, a, b)) == b
                assert ldiv(spec, a, lmul(spec, a, b)) == b
                assert lmul(spec, rdiv(spec, b, a), a) == b
                assert rdiv(spec, lmul(spec, b, a), a) == b
                moved = gmul(left_translation(spec, a), coset_representative(spec.n, b))
                slice_part, _ = decompose(moved)
                assert LoopPoint(slice_part.c, slice_part.b) == lmul(spec, a, b)

    run_criterion("criterion 3 (loop axioms + coset action, 10 specs x 50 pairs)", body)


def test_criterion_4_companion_criterion():
    def body():
        spec = LoopSpec(2, (Poly([0, 0, 1]), Poly([0, -1, 1])))
        solution = solve_companions(spec)
        assert solution is not None
        assert all(p.is_zero for p in solution.s)
        assert comm_defect(spec).is_zero
        assert spec.proper

        square = LoopSpec(1, (Poly([0, 0, 1]),))
        assert solve_companions(square) is None

    run_criterion("criterion 4 (companion-function criterion)", body)


def test_criterion_5_mult_group_reproduction():
    def body():
        start = time.monotonic()
        cases = {
            Poly([0, 0, 1]): 4,            # u^2
            Poly([0, 0, 0, 1]): 5,         # u^3
            Poly([0, 0, -1, 1]): 5,        # u^3 - u^2
            Poly([0, 0, 1, 0, 1]): 6,      # u^4 + u^2
        }
        for v1, dim in cases.items():
            report = mult_group_report(v1)
            assert report.mult_dimension == dim
            assert report.all_pass, [c.name for c in report.certificates if not c.passed]

            m = v1.degree
            fam = LeftTranslationFamily(m, v1)
            trans = h_connected_transversal(v1)
            lam = left_translation_elements(fam, grid_points(DEFAULT_GRID))
            t = transversal_elements(trans, grid_points(DEFAULT_GRID))
            assert len(lam) * len(t) >= 25
            assert check_h_connected(lam, t).ok

            degenerate = TransversalSpec(m, trans.a[:-1] + (Fraction(0),))
            t_bad = transversal_elements(degenerate, grid_points(DEFAULT_GRID))
            closure = generated_subalgebra_of(lam + t_bad)
            assert closure.dimension < m + 2
        assert time.monotonic() - start < 30.0

    run_criterion("criterion 5 (multiplication-group pipeline, 4 polynomials)", body)


def test_criterion_6_structural_checks():
    def body():
        rng = random.Random(206)
        for _ in range(20):
            n = rng.randint(1, 5)
            a = tuple(rand_fraction(rng) for _ in range(n))
            phi = phi_automorphism(a)
            assert is_bracket_automorphism(phi)
            inn = inn_subalgebra(a)
            target_rows = [basis_element(n, i) for i in range(2, n + 2)]
            assert phi.map_span(inn) == SubalgebraBasis.span(n, target_rows)
            assert core_ideal(inn).dimension == 0

    run_criterion("criterion 6 (automorphism + inner subalgebra checks, 20 samples)", body)


def test_criterion_7_commutativity_criterion():
    def body():
        rng = random.Random(207)
        for _ in range(20):
            n = rng.randint(1, 4)
            entries = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                entries[i][i] = rand_fraction(rng, -4, 4, 3)
                for j in range(i + 1, n):
                    entries[i][j] = rand_fraction(rng, -4, 4, 3)
                    entries[j][i] = Fraction((-1) ** (i + j)) * entries[i][j]
            cm = CommMatrix(n, RatMatrix(tuple(tuple(r) for r in entries)))
            spec = spec_from_comm_matrix(cm)
            assert comm_defect(spec).is_zero
            solution = solve_companions(spec)
            assert solution is not None
            assert all(p.is_zero for p in solution.s)

        for _ in range(20):
            n = rng.randint(2, 4)
            entries = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                entries[i][i] = rand_fraction(rng, -4, 4, 3)
                for j in range(i + 1, n):
                    entries[i][j] = rand_fraction(rng, -4, 4, 3)
                    entries[j][i] = Fraction((-1) ** (i + j)) * entries[i][j]
            i = rng.randint(0, n - 2)
            j = rng.randint(i + 1, n - 1)
            entries[i][j] += Fraction(rng.randint(1, 3))
            polys = tuple(Poly([Fraction(0)] + row) for row in entries)
            spec = LoopSpec(n, polys)
            assert not comm_defect(spec).is_zero

    run_criterion("criterion 7 (signed-symmetry commutativity criterion, 20+20 matrices)", body)


def test_criterion_8_cli_determinism(capsys):
    def body():
        cases = [
            (0, ["validate", str(SPECS / "f3_square.json")]),
            (1, ["validate", str(SPECS / "f3_linear.json")]),
            (0, ["mul", str(SPECS / "f3_square.json"), "--a", "1,0", "--b", "1,0"]),
            (0, ["div", str(SPECS / "f3_square.json"), "--a", "1,0", "--b", "2,-1"]),
            (0, ["div", str(SPECS / "f3_square.json"), "--a", "1,0", "--b", "2,-1",
                 "--side", "right"]),
            (0, ["comm", str(SPECS / "f4_commutative.json")]),
            (0, ["comm", str(SPECS / "f3_square.json")]),
            (0, ["mult-group", str(SPECS / "f4_commutative.json")]),
            (0, ["mult-group", str(SPECS / "f4_mixed.json")]),
            (1, ["mult-group", str(SPECS / "f3_square.json")]),
            (0, ["thm3", str(SPECS / "f3_square.json")]),
            (0, ["thm3", str(SPECS / "f3_cubic_mix.json")]),
            (0, ["algebra-bracket", "--x", "1,0,0", "--y", "0,1,0"]),
            (0, ["classify-subalgebra", "--basis", "1,0,0,0;0,0,1,0;0,0,0,1"]),
            (0, ["core-ideal", "--basis", "0,1,0;0,0,1"]),
            (0, ["inn-check", "--a", "1,2"]),
        ]
        for expected_code, argv in cases:
            outputs = []
            for _ in range(2):
                code = cli_main(argv)
                out = capsys.readouterr().out
                assert code == expected_code, (argv, code)
                json.loads(out)
                outputs.append(out)
            assert outputs[0] == outputs[1], argv

    run_criterion("criterion 8 (CLI determinism, all verbs twice)", body)
