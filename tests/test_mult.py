"""Companion solver, transversals, generation certificates, pipeline."""

import random
from fractions import Fraction

import pytest

from fililoop import mult
from fililoop.exact import Poly, RatMatrix
from fililoop.algebra import LinearMap, SubalgebraBasis, basis_element, core_ideal, phi_automorphism
from fililoop.group import GroupElement, commutator, glog, in_H
from fililoop.loop import CommMatrix, LoopSpec, SpecError, spec_from_comm_matrix, twist_table
from fililoop.mult import (
    DEFAULT_GRID,
    LeftTranslationFamily,
    TransversalSpec,
    check_h_connected,
    generated_subalgebra_of,
    grid_points,
    h_connected_transversal,
    inn_correspondence_check,
    left_translation_elements,
    mult_group_report,
    solve_companions,
    transversal_elements,
    transversal_identity_holds,
)

from helpers import rand_fraction, rand_poly, rand_proper_spec, twist_specs
from oracles import monomial, nest_inner, nest_outer, nested_companion_residual


def F(num, den=1):
    return Fraction(num, den)


SQUARE_POLY = Poly([0, 0, 1])    # u^2
CUBE_POLY = Poly([0, 0, 0, 1])   # u^3


# -- companion polynomials ---------------------------------------------------------

def test_solve_companions_none_for_square():
    assert solve_companions(LoopSpec(1, (SQUARE_POLY,))) is None


def test_solve_companions_commutative_example():
    spec = LoopSpec(2, (Poly([0, 0, 1]), Poly([0, -1, 1])))
    solution = solve_companions(spec)
    assert solution is not None
    assert all(p.is_zero for p in solution.s)


def test_solve_companions_verified_by_substitution():
    spec = LoopSpec(2, (Poly([0, 0, 1]), Poly([0, 0, 1])))
    solution = solve_companions(spec)
    assert solution is not None
    assert nested_companion_residual(spec, solution.s).is_zero
    # hand expansion: s_1 = -u^2, s_2 = -u
    assert solution.s[0] == Poly([0, 0, -1])
    assert solution.s[1] == Poly([0, -1])


def test_companion_residual_detects_wrong_candidates():
    spec = LoopSpec(2, (Poly([0, 0, 1]), Poly([0, -1, 1])))
    assert not nested_companion_residual(spec, (Poly([0, 1]), Poly())).is_zero


def table_companion_residual(spec, s):
    """The companion residual read off the twist table: the x^k row is
    (-1)^k (s_k + v_k) for 1 <= k <= n, minus row k of twist_table."""
    table = twist_table(spec)
    left = [Poly()] + [Fraction((-1) ** k) * (s_k + v_k)
                       for k, (s_k, v_k) in enumerate(zip(s, spec.v), 1)]
    left += [Poly()] * (len(table) - len(left))
    return Poly(row - Poly(t_row) for row, t_row in zip(left, table))


def test_companion_residual_matches_the_nested_product_oracle():
    # 320 seeded specs (n 1..6, degree <= 8, random, above degree n,
    # signed-symmetric, perturbed); the candidates are the solution when one
    # exists, that solution with one s_k moved, zero polynomials and random
    # polynomials of degree up to 9; the moved and random ones never solve
    rng = random.Random(101)
    wrong = 0
    for spec in twist_specs(101):
        n = spec.n
        solution = solve_companions(spec)
        off = [tuple(rand_poly(rng, rng.randint(0, 9)) for _ in range(n))]
        candidates = [(Poly(),) * n]
        if solution is not None:
            k = rng.randrange(n)
            moved = list(solution.s)
            moved[k] = moved[k] + rand_poly(rng, rng.randint(0, 9))
            off.append(tuple(moved))
            candidates.append(solution.s)
        for s in candidates + off:
            residual = nested_companion_residual(spec, s)
            assert residual == table_companion_residual(spec, s)
            assert all(type(c) is Poly if c else type(c) is Fraction for c in residual.coeffs)
            assert s not in off or not residual.is_zero
            wrong += not residual.is_zero
    assert wrong > 600


def test_solve_companions_random_specs_verify():
    rng = random.Random(83)
    for _ in range(15):
        spec = rand_proper_spec(rng)
        solution = solve_companions(spec)
        if solution is not None:
            assert nested_companion_residual(spec, solution.s).is_zero


def test_solve_companions_none_iff_a_table_row_above_n():
    none = 0
    for spec in twist_specs(103):
        solution = solve_companions(spec)
        assert (solution is None) == (len(twist_table(spec)) > spec.n + 1)
        if solution is None:
            none += 1
        else:
            assert nested_companion_residual(spec, solution.s).is_zero
    assert 80 <= none < 320


def test_comm_matrix_specs_have_zero_companions():
    rng = random.Random(89)
    for _ in range(10):
        n = rng.randint(1, 4)
        entries = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            entries[i][i] = F(rng.randint(-3, 3))
            for j in range(i + 1, n):
                entries[i][j] = F(rng.randint(-3, 3))
                entries[j][i] = F((-1) ** (i + j)) * entries[i][j]
        spec = spec_from_comm_matrix(CommMatrix(n, RatMatrix(tuple(tuple(r) for r in entries))))
        solution = solve_companions(spec)
        assert solution is not None
        assert all(p.is_zero for p in solution.s)


def test_single_poly_spec_padded_to_its_degree():
    # v = (v1, 0, ..., 0) in dimension deg(v1)+2: improper, yet companions exist
    rng = random.Random(97)
    for _ in range(8):
        m = rng.randint(2, 5)
        coeffs = [F(0)] + [rand_fraction(rng, -4, 4, 3) for _ in range(m)]
        while not coeffs[m]:
            coeffs[m] = rand_fraction(rng, -4, 4, 3)
        v1 = Poly(coeffs)
        spec = LoopSpec(m, (v1,) + (Poly(),) * (m - 1))
        assert not spec.proper
        assert solve_companions(spec) is not None


# -- transversal construction -------------------------------------------------------

def test_transversal_examples():
    t = h_connected_transversal(SQUARE_POLY)
    assert (t.m, t.a) == (2, (F(0), F(-1)))

    t = h_connected_transversal(CUBE_POLY)
    assert (t.m, t.a) == (3, (F(0), F(0), F(1)))


def test_transversal_leading_coefficient_nonzero():
    rng = random.Random(101)
    for _ in range(10):
        m = rng.randint(2, 5)
        coeffs = [F(0)] + [rand_fraction(rng, -4, 4, 3) for _ in range(m)]
        while not coeffs[m]:
            coeffs[m] = rand_fraction(rng, -4, 4, 3)
        t = h_connected_transversal(Poly(coeffs))
        assert t.a[t.m - 1] != 0


def test_transversal_rejects_linear():
    # v1 is validated as the spec LoopSpec(1, (v1,)) and reports its first reason
    with pytest.raises(ValueError, match="^v1 must be non-linear$"):
        h_connected_transversal(Poly([0, 5]))
    with pytest.raises(ValueError, match="^v1 must be non-constant$"):
        h_connected_transversal(Poly())
    with pytest.raises(SpecError, match="loop identity requires 0"):
        h_connected_transversal(Poly([1, 0, 1]))


def nested_transversal_identity(v1, trans):
    """x*v1(u) = sum_k (-1)^(k+1) u^k a_k x built as nested two-variable
    products (outer x, inner u) and compared as a whole."""
    x = monomial(1)
    left = nest_outer(x) * nest_inner(v1)
    right = Poly()
    for k in range(1, trans.m + 1):
        right = right + F((-1) ** (k + 1)) * nest_outer(trans.a[k - 1] * x) * nest_inner(monomial(k))
    return (left - right).is_zero


def test_transversal_identity_matches_nested_product_oracle():
    rng = random.Random(113)
    verdicts = []
    for i in range(330):
        m = rng.randint(2, 10)
        v1 = rand_poly(rng, m, zero_constant=True)
        a = h_connected_transversal(v1).a
        # 0: the h_connected_transversal spec; 1: one a_k perturbed; 2: a_m = 0;
        # 3: v1 with a constant term; 4: deg v1 above m; 5: a padded with zeros
        kind = i % 6
        if kind == 1:
            k = rng.randrange(m)
            a = a[:k] + (a[k] + rand_fraction(rng, 1, 9),) + a[k + 1:]
        elif kind == 2:
            a = a[:-1] + (F(0),)
        elif kind == 3:
            v1 = v1 + Poly([rand_fraction(rng, 1, 9)])
        elif kind == 4:
            a = a[:-1]
        elif kind == 5:
            a = a + (F(0),) * rng.randint(1, 3)
        trans = TransversalSpec(len(a), a)
        got = transversal_identity_holds(v1, trans)
        assert got == nested_transversal_identity(v1, trans)
        assert got == (kind in (0, 5))
        verdicts.append(got)
    assert True in verdicts and False in verdicts


# -- embedded left translations -------------------------------------------------------

def test_left_translation_family_examples():
    fam = LeftTranslationFamily(2, SQUARE_POLY)
    els = left_translation_elements(fam, [(F(0), F(0)), (F(1), F(0)), (F(0), F(5))])
    assert els[0] == GroupElement.identity(2)
    assert els[1] == GroupElement(2, F(1), (F(1), F(0)), F(-1, 2))
    assert els[2] == GroupElement(2, F(0), (F(0), F(0)), F(5))


def test_builders_make_fraction_fields_from_int_samples():
    # the builders skip GroupElement's checks, so their own conversion must
    # leave every field a Fraction
    points = [(0, 0), (1, 0), (-2, 5), (F(1, 3), -1)]
    trans = TransversalSpec(3, (F(1), F(0), F(-2, 3)))
    els = (left_translation_elements(LeftTranslationFamily(3, SQUARE_POLY), points)
           + transversal_elements(trans, points))
    for g in els:
        assert len(g.a) == g.n == 3
        assert all(type(v) is Fraction for v in (g.c, *g.a, g.b))
        assert g == GroupElement(g.n, g.c, g.a, g.b)
    with pytest.raises(ValueError):
        LeftTranslationFamily(0, Poly())
    with pytest.raises(ValueError):
        TransversalSpec(0, ())


@pytest.mark.parametrize("m", [True, 2.0, Fraction(2)])
def test_dimension_fields_reject_bool_and_non_int(m):
    with pytest.raises(TypeError):
        LeftTranslationFamily(m, SQUARE_POLY)
    with pytest.raises(TypeError):
        TransversalSpec(m, (F(1), F(-1)))


def test_left_translation_elements_evaluate_v1_once_per_u(monkeypatch):
    # grids that repeat u values with several z values give the per-sample
    # elements g(u, v1(u), 0, ..., 0, -v1(u) u / 2 + z), with one v1 call per u
    rng = random.Random(59)
    calls = []
    horner = Poly.__call__
    monkeypatch.setattr(Poly, "__call__", lambda p, x: calls.append(x) or horner(p, x))
    for _ in range(40):
        m = rng.randint(1, 8)
        fam = LeftTranslationFamily(m, rand_poly(rng, rng.randint(1, m), zero_constant=True))
        pool = (0, -1, 2, F(-1, 2), rand_fraction(rng))
        us = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        zs = [rand_fraction(rng) for _ in range(rng.randint(2, 4))]
        samples = [(u, z) for u in us + us[:1] for z in zs] + [(us[0], zs[0])]
        calls.clear()
        els = left_translation_elements(fam, samples)
        assert sorted(calls) == sorted(set(map(F, us)))
        assert els == [GroupElement(m, F(u), (horner(fam.v1, F(u)), *[F(0)] * (m - 1)),
                                    -horner(fam.v1, F(u)) * u / 2 + z) for u, z in samples]
    calls.clear()
    grid = mult.SampleGrid((F(1), F(1), F(-2)), (F(0), F(1), F(5, 2)))
    assert left_translation_elements(LeftTranslationFamily(2, SQUARE_POLY), grid_points(grid)) \
        == [GroupElement(2, u, (u * u, F(0)), -u ** 3 / 2 + z) for u, z in grid_points(grid)]
    assert sorted(calls) == [F(-2), F(1)]


# -- H-connectedness --------------------------------------------------------------------

def test_h_connected_true_case():
    fam = LeftTranslationFamily(2, SQUARE_POLY)
    trans = h_connected_transversal(SQUARE_POLY)
    lam = left_translation_elements(fam, grid_points(DEFAULT_GRID))
    t = transversal_elements(trans, grid_points(DEFAULT_GRID))
    assert len(lam) * len(t) >= 25
    assert check_h_connected(lam, t).ok


def test_h_connected_false_with_witness():
    fam = LeftTranslationFamily(2, SQUARE_POLY)
    degenerate = TransversalSpec(2, (F(0), F(0)))
    lam = left_translation_elements(fam, grid_points(DEFAULT_GRID))
    t = transversal_elements(degenerate, grid_points(DEFAULT_GRID))
    result = check_h_connected(lam, t)
    assert not result.ok
    x, y, k = result.witness
    assert commutator(x, y) == k
    assert not in_H(k)


def test_h_connected_cross_check_refuses_a_wrong_commutator(monkeypatch):
    # a commutator that always lands in H would pass every pair unchecked, and
    # a product that forgets the shift makes (y x)^(-1) (x y) the identity
    def abelian(x, y):
        return GroupElement(x.n, x.c + y.c, tuple(p + q for p, q in zip(x.a, y.a)), x.b + y.b)

    fam = LeftTranslationFamily(2, SQUARE_POLY)
    trans = h_connected_transversal(SQUARE_POLY)
    lam = left_translation_elements(fam, grid_points(DEFAULT_GRID))
    t = transversal_elements(trans, grid_points(DEFAULT_GRID))
    for name, wrong in (("commutator", lambda x, y: GroupElement.identity(x.n)), ("gmul", abelian)):
        with monkeypatch.context() as patch:
            patch.setattr(mult, name, wrong)
            with pytest.raises(RuntimeError):
                check_h_connected(lam, t)
    assert check_h_connected(lam, t).ok


def test_h_connected_against_identity():
    fam = LeftTranslationFamily(2, SQUARE_POLY)
    lam = left_translation_elements(fam, grid_points(DEFAULT_GRID))
    assert check_h_connected(lam, [GroupElement.identity(2)]).ok


def test_h_membership_symmetric_in_commutator_order():
    rng = random.Random(103)
    fam = LeftTranslationFamily(2, SQUARE_POLY)
    trans = h_connected_transversal(SQUARE_POLY)
    lam = left_translation_elements(fam, [(rand_fraction(rng), rand_fraction(rng)) for _ in range(5)])
    t = transversal_elements(trans, [(rand_fraction(rng), rand_fraction(rng)) for _ in range(5)])
    for x in lam:
        for y in t:
            assert in_H(commutator(x, y)) == in_H(commutator(y, x))


# -- generation through log closure ------------------------------------------------------

def test_generated_subalgebra_full_for_lambda_and_t():
    fam = LeftTranslationFamily(2, SQUARE_POLY)
    trans = h_connected_transversal(SQUARE_POLY)
    elements = (left_translation_elements(fam, grid_points(DEFAULT_GRID))
                + transversal_elements(trans, grid_points(DEFAULT_GRID)))
    closure = generated_subalgebra_of(elements)
    assert closure.dimension == 4


def test_generated_subalgebra_lambda_alone_is_proper():
    fam = LeftTranslationFamily(2, SQUARE_POLY)
    elements = left_translation_elements(fam, grid_points(DEFAULT_GRID))
    closure = generated_subalgebra_of(elements)
    assert closure.dimension == 3
    assert not closure.contains(basis_element(2, 2))


def test_generated_subalgebra_identity_only():
    assert generated_subalgebra_of([GroupElement.identity(3)]).dimension == 0


# -- full pipeline -------------------------------------------------------------------------

def test_pipeline_square():
    report = mult_group_report(SQUARE_POLY)
    assert report.mult_dimension == 4
    assert report.all_pass
    assert [c.name for c in report.certificates] == sorted(c.name for c in report.certificates)


def test_pipeline_cube():
    report = mult_group_report(CUBE_POLY)
    assert report.mult_dimension == 5
    assert report.all_pass


def test_pipeline_rejects_linear():
    with pytest.raises(ValueError):
        mult_group_report(Poly([0, 2]))


def test_pipeline_random_nonlinear_polys():
    rng = random.Random(107)
    for _ in range(10):
        m = rng.randint(2, 5)
        coeffs = [F(0)] + [rand_fraction(rng, -3, 3, 2) for _ in range(m)]
        while not coeffs[m]:
            coeffs[m] = rand_fraction(rng, -3, 3, 2)
        report = mult_group_report(Poly(coeffs))
        assert report.all_pass
        assert report.mult_dimension == m + 2


def test_core_trivial_checks_the_lie_algebra_of_the_stabilizer(monkeypatch):
    # The stabilizer of the identity coset is H = {c = 0, b = 0}; its Lie
    # algebra is the log-image of the one-parameter subgroups through the unit
    # a-vectors, built here from the group law and not from basis_element.
    seen = []

    def recording_core_ideal(h):
        seen.append(h)
        return core_ideal(h)

    monkeypatch.setattr(mult, "core_ideal", recording_core_ideal)
    rng = random.Random(113)
    for m in range(2, 9):
        seen.clear()
        assert mult_group_report(rand_poly(rng, m, zero_constant=True)).all_pass
        units = [tuple(F(int(j == k)) for j in range(1, m + 1)) for k in range(1, m + 1)]
        lie_h = SubalgebraBasis.span(m, [glog(GroupElement(m, 0, unit, 0)) for unit in units])
        assert seen == [lie_h] and lie_h.dimension == m


def test_degenerate_transversal_fails_generation():
    trans = h_connected_transversal(SQUARE_POLY)
    zeroed = TransversalSpec(trans.m, trans.a[:-1] + (F(0),))
    fam = LeftTranslationFamily(2, SQUARE_POLY)
    elements = (left_translation_elements(fam, grid_points(DEFAULT_GRID))
                + transversal_elements(zeroed, grid_points(DEFAULT_GRID)))
    closure = generated_subalgebra_of(elements)
    assert closure.dimension < 4


# -- inner mapping correspondence ------------------------------------------------------------

def test_inn_correspondence_examples():
    assert inn_correspondence_check((F(0), F(0)))
    assert inn_correspondence_check((F(1), F(2)))


def test_inn_correspondence_random():
    rng = random.Random(109)
    for _ in range(15):
        n = rng.randint(1, 5)
        assert inn_correspondence_check(tuple(rand_fraction(rng) for _ in range(n)))


def test_inn_correspondence_fails_for_a_perturbed_phi(monkeypatch):
    # one changed e_{n+2} entry in a column e_2..e_{n+1} leaves an e_{n+2}
    # component in the image, so the check is not vacuous
    a = (F(1, 2), F(-3), F(0), F(2, 3))
    n = len(a)
    phi = phi_automorphism(a)
    for col in range(1, n + 1):
        rows = [list(row) for row in phi.matrix.entries]
        rows[n + 1][col] += 1
        perturbed = LinearMap(n, RatMatrix(tuple(map(tuple, rows))))
        monkeypatch.setattr(mult, "phi_automorphism", lambda _a, m=perturbed: m)
        assert not inn_correspondence_check(a), col
    monkeypatch.undo()
    assert inn_correspondence_check(a)


def test_report_json_shape():
    report = mult_group_report(SQUARE_POLY)
    data = report.to_json()
    assert set(data) == {"claim", "certificates", "mult_dimension"}
    assert all(set(c) == {"name", "pass", "witness"} for c in data["certificates"])
    names = [c["name"] for c in data["certificates"]]
    assert names == sorted(names)
