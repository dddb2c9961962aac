"""Loop construction, axioms, coset-action oracle, commutativity criterion."""

import inspect
import random
from fractions import Fraction

import pytest

from fililoop import loop, mult
from fililoop.exact import Poly, RatMatrix
from fililoop.group import GroupElement, gmul
from fililoop.loop import (
    CommMatrix,
    LoopPoint,
    LoopSpec,
    SpecError,
    comm_defect,
    ldiv,
    lmul,
    rdiv,
    spec_from_comm_matrix,
    twist_table,
)

from helpers import assert_same_as_checked, rand_fraction, rand_point, rand_proper_spec, twist_specs
from oracles import (
    coset_representative,
    decompose,
    left_translation,
    nested_comm_defect,
    section_solve,
)


def F(num, den=1):
    return Fraction(num, den)


SQUARE = LoopSpec(1, (Poly([0, 0, 1]),))                       # v1 = x^2
COMM4 = LoopSpec(2, (Poly([0, 0, 1]), Poly([0, -1, 1])))       # commutative, n = 2


def action(spec, a, b):
    """Coset-action product: the master oracle for lmul."""
    moved = gmul(left_translation(spec, a), coset_representative(spec.n, b))
    slice_part, _ = decompose(moved)
    return LoopPoint(slice_part.c, slice_part.b)


# -- validation -----------------------------------------------------------------

def test_validate_examples():
    ok = LoopSpec(1, (Poly([0, 0, 1]),))
    assert ok.proper and not ok.proper_reasons

    linear = LoopSpec(1, (Poly([0, 3]),))
    assert not linear.proper
    assert any("non-linear" in r for r in linear.proper_reasons)

    zeros = LoopSpec(2, (Poly(), Poly([0, 0, 1])))
    assert not zeros.proper
    assert zeros.proper_reasons == ("v1 must be non-constant",)

    with pytest.raises(SpecError, match=r"v\[0\]"):
        LoopSpec(1, (Poly([1, 0, 1]),))

    # only the library path reaches these checks: from_json always builds
    # Polys with Fraction coefficients
    with pytest.raises(SpecError, match=r"field 'v\[1\]' is not a polynomial"):
        LoopSpec(2, (Poly([0, 1]), "x"))
    with pytest.raises(SpecError, match=r"field 'v\[0\]\[1\]' is not a rational"):
        LoopSpec(1, (Poly([0, Poly([0, 1])]),))
    with pytest.raises(SpecError, match=r"field 'v\[1\]\[2\]' is not a rational"):
        LoopSpec(2, (Poly([0, 1]), Poly([0, 1, Poly([1])])))


def test_proper_reasons_follow_the_degree_rule():
    # 360 seeded specs, n 1..6; each v_i is zero, constant, linear or of degree
    # 2..5, given with trailing zero coefficients; the expected reasons come
    # from the raw coefficient lists, not from Poly
    rng = random.Random(59)
    seen = {"improper": 0, "proper": 0, "linear last": 0, "identity": 0}
    for i in range(360):
        n = 1 + i % 6
        raw = []
        for _ in range(n):
            kind = rng.choice(("zero", "constant", "linear", "higher", "higher"))
            top = {"zero": 0, "constant": 0, "linear": 1, "higher": rng.randint(2, 5)}[kind]
            coeffs = [F(0)] + [rand_fraction(rng) for _ in range(top)] + [F(0)] * rng.randint(0, 2)
            if top:
                coeffs[top] = coeffs[top] or F(1)
            if kind == "constant" and rng.random() < 0.2:
                coeffs[0] = rand_fraction(rng, 1, 9)
            raw.append(coeffs)
        bad = [k for k, c in enumerate(raw) if c[0]]
        if bad:
            with pytest.raises(SpecError, match=rf"field 'v\[{bad[0]}\]'"):
                LoopSpec(n, tuple(Poly(c) for c in raw))
            seen["identity"] += 1
            continue
        expected = []
        for idx, c in enumerate(raw, start=1):
            if not any(c[1:]):
                expected.append(f"v{idx} must be non-constant")
            elif idx == n and not any(c[2:]):
                expected.append(f"v{idx} must be non-linear")
        spec = LoopSpec(n, tuple(Poly(c) for c in raw))
        assert spec.proper_reasons == tuple(expected), raw
        assert spec.proper == (not expected)
        seen["improper" if expected else "proper"] += 1
        seen["linear last"] += f"v{n} must be non-linear" in expected
    assert min(seen.values()) >= 20, seen


def test_spec_construction_rejects_identity_violation():
    with pytest.raises(SpecError):
        LoopSpec(1, (Poly([1, 0, 1]),))


def test_spec_flags_computed_at_construction():
    assert SQUARE.proper and SQUARE.proper_reasons == ()
    linear = LoopSpec(1, (Poly([0, 1]),))
    assert not linear.proper
    assert linear.proper_reasons == ("v1 must be non-linear",)


def test_spec_equality_ignores_the_properness_attributes():
    same = LoopSpec(1, (Poly([0, 0, 1]),))
    assert same == SQUARE and hash(same) == hash(SQUARE)
    assert repr(SQUARE) == "LoopSpec(n=1, v=(Poly([0, 0, 1]),))"
    with pytest.raises(TypeError):
        LoopSpec(1, (Poly([0, 0, 1]),), True)
    with pytest.raises(AttributeError):
        SQUARE.proper_reasons = ()


def test_loop_point_keeps_fractions_and_rejects_float_and_bool():
    third = F(1, 3)
    p = LoopPoint(third, 2)
    assert p.u is third and p.z == 2 and type(p.z) is Fraction
    for args in ((0.1, 0), (0, 2.5), (True, 0)):
        with pytest.raises(TypeError):
            LoopPoint(*args)


def test_spec_json_round_trip():
    assert LoopSpec.from_json(COMM4.to_json()) == COMM4
    # unknown top-level keys are ignored
    assert LoopSpec.from_json({**SQUARE.to_json(), "note": "x^2"}) == SQUARE


@pytest.mark.parametrize("data, path", [
    ({"n": 1}, "'v'"),
    ({"n": "1", "v": [["0", "0", "1"]]}, "'n'"),
    ({"n": True, "v": [["0", "0", "1"]]}, "'n'"),
    ({"v": [["0", "0", "1"]]}, "'n'"),
    ({"n": 1, "v": "01"}, "'v'"),
    ({"n": 2, "v": [["0", "0", "1"]]}, "'v'"),
    ({"n": 1, "v": ["01"]}, r"'v\[0\]'"),
    ({"n": 1, "v": [["0", 1]]}, r"'v\[0\]\[1\]'"),
    ({"n": 1, "v": [["1", "0", "1"]]}, r"'v\[0\]'"),
    ([1, [["0", "0", "1"]]], "top level"),
    ("{}", "top level"),
])
def test_spec_from_json_rejects_malformed_input(data, path):
    with pytest.raises(SpecError, match=path):
        LoopSpec.from_json(data)


# -- multiplication and divisions --------------------------------------------------

def test_identity_point():
    e = LoopPoint(0, 0)
    p = LoopPoint(F(3), F(-2))
    assert lmul(SQUARE, e, p) == p
    assert lmul(SQUARE, p, e) == p


def test_lmul_examples():
    assert lmul(SQUARE, LoopPoint(1, 0), LoopPoint(1, 0)) == LoopPoint(2, -1)
    assert lmul(COMM4, LoopPoint(1, 0), LoopPoint(2, 0)) == LoopPoint(3, -2)


def test_division_examples():
    e = LoopPoint(0, 0)
    assert ldiv(SQUARE, e, e) == e
    assert ldiv(SQUARE, LoopPoint(1, 0), LoopPoint(2, -1)) == LoopPoint(1, 0)
    b = LoopPoint(F(5), F(7))
    assert rdiv(SQUARE, b, e) == b


def test_loop_axioms_random():
    rng = random.Random(61)
    for _ in range(10):
        spec = rand_proper_spec(rng)
        for _ in range(20):
            a, b = rand_point(rng), rand_point(rng)
            assert lmul(spec, a, ldiv(spec, a, b)) == b
            assert ldiv(spec, a, lmul(spec, a, b)) == b
            assert lmul(spec, rdiv(spec, b, a), a) == b
            assert rdiv(spec, lmul(spec, b, a), a) == b


def explicit_twist(spec, u1, u2):
    """sum_k (-1)^k u2^k v_k(u1), with each v_k expanded from its coefficients."""
    return sum(((-1) ** k * u2 ** k * sum(c * u1 ** i for i, c in enumerate(v.coeffs))
                for k, v in enumerate(spec.v, start=1)), Fraction(0))


def test_products_and_divisions_match_the_explicit_twist():
    rng = random.Random(67)
    special = [F(0), F(1), F(-1), F(-3), F(1, 2), F(-2, 3), F(7, 5)]
    # denominators near 10**12, negative numerators among them
    large = [F(-1, 10**12 + 39), F(-7 * 10**11 - 3, 10**12 - 11), F(5 * 10**12 + 1, 10**12 + 3),
             F(-999_999_999_989, 999_999_999_961)]

    def coordinate():
        pick = rng.random()
        if pick < 0.6:
            return rng.choice(special if pick < 0.4 else large)
        return rand_fraction(rng)

    def exact_point(p):
        # Record equality alone would take an int z; the checked constructor
        # must give an equal point with the same hash
        assert type(p.u) is Fraction and type(p.z) is Fraction
        checked = LoopPoint(p.u, p.z)
        assert p == checked and hash(p) == hash(checked)
        assert_same_as_checked(p)
        return p

    for spec in twist_specs(71):
        for _ in range(4):
            a, b = LoopPoint(coordinate(), coordinate()), LoopPoint(coordinate(), coordinate())
            u = b.u - a.u
            z = a.z + b.z + explicit_twist(spec, a.u, b.u)
            left_z = b.z - a.z - explicit_twist(spec, a.u, u)
            right_z = b.z - a.z - explicit_twist(spec, u, a.u)
            assert exact_point(lmul(spec, a, b)) == LoopPoint(a.u + b.u, z)
            assert exact_point(ldiv(spec, a, b)) == LoopPoint(u, left_z)
            assert exact_point(rdiv(spec, b, a)) == LoopPoint(u, right_z)
            assert exact_point(LoopPoint._exact(a.u, b.z)) == LoopPoint(a.u, b.z)
            assert lmul(spec, a, ldiv(spec, a, b)) == b and ldiv(spec, a, lmul(spec, a, b)) == b
            assert lmul(spec, rdiv(spec, b, a), a) == b and rdiv(spec, lmul(spec, b, a), a) == b
            # the twist vanishes when either u is 0, since every v_k(0) = 0
            assert lmul(spec, LoopPoint(0, a.z), b).z == a.z + b.z
            assert lmul(spec, a, LoopPoint(0, b.z)).z == a.z + b.z


# -- coset action (master oracle) ----------------------------------------------------

def test_left_translation_examples():
    assert left_translation(SQUARE, LoopPoint(0, 0)) == GroupElement.identity(1)
    assert left_translation(SQUARE, LoopPoint(1, 5)) == GroupElement(1, F(1), (F(1),), F(5))


def test_action_check_example():
    assert action(SQUARE, LoopPoint(1, 0), LoopPoint(1, 0)) == LoopPoint(2, -1)


def test_coset_action_equals_lmul():
    rng = random.Random(67)
    for _ in range(8):
        spec = rand_proper_spec(rng)
        for _ in range(15):
            a, b = rand_point(rng), rand_point(rng)
            assert action(spec, a, b) == lmul(spec, a, b)


# -- sharply transitive section -------------------------------------------------------

def test_section_solve_example():
    solution, t = section_solve(SQUARE, LoopPoint(1, 0), LoopPoint(2, -1))
    assert solution == LoopPoint(1, 0)
    assert len(t) == 1


def test_section_solve_identity_pair():
    solution, _ = section_solve(COMM4, LoopPoint(0, 0), LoopPoint(0, 0))
    assert solution == LoopPoint(0, 0)


def test_section_stabilizer_params_match_closed_form():
    # the H-component from the group decomposition must agree with the
    # parametric solution t_j = sum_m (-1)^(m-j) C(m, m-j) u1^(m-j) v_m(u)
    from math import comb

    rng = random.Random(77)
    for _ in range(8):
        spec = rand_proper_spec(rng)
        n = spec.n
        source, target = rand_point(rng), rand_point(rng)
        point, t = section_solve(spec, source, target)
        u1 = source.u
        for j in range(1, n + 1):
            expected = sum(
                (Fraction((-1) ** (m - j) * comb(m, m - j)) * u1 ** (m - j)
                 * spec.v[m - 1](point.u))
                for m in range(j, n + 1))
            assert t[j - 1] == expected


# -- commutativity ---------------------------------------------------------------------

def test_comm_defect_examples():
    assert comm_defect(COMM4).is_zero

    defect = comm_defect(SQUARE)
    # -u2*u1^2 + u2^2*u1, outer variable u1 with inner-polynomial coefficients
    assert defect.coefficient(1) == Poly([0, 0, 1])
    assert defect.coefficient(2) == Poly([0, -1])
    assert defect.degree == 2

    zeros = LoopSpec(2, (Poly(), Poly()))
    assert comm_defect(zeros).is_zero


def test_twist_table_is_the_twist():
    # sum_ij T[i][j] u1^i u2^j is the z-correction of lmul, and the table's
    # side is max(n, deg v_j) + 1
    rng = random.Random(83)
    for spec in twist_specs(83, 60):
        t = twist_table(spec)
        assert len(t) == max(spec.n, *(p.degree for p in spec.v)) + 1
        assert all(len(row) == len(t) and all(type(c) is Fraction for c in row) for row in t)
        a, b = rand_point(rng), rand_point(rng)
        value = sum(c * a.u ** i * b.u ** j for i, row in enumerate(t) for j, c in enumerate(row))
        assert lmul(spec, a, b).z == a.z + b.z + value


def test_comm_defect_matches_the_nested_product_oracle():
    # 320 seeded specs, n 1..6, degree <= 8: random (zero and constant-free
    # polynomials of any degree), above degree n, signed-symmetric and
    # perturbed; the table form must equal the nested products, with zero
    # rows as Fraction(0) exactly like the products leave them
    specs = twist_specs(89)
    commutative = 0
    for spec in specs:
        defect = comm_defect(spec)
        assert defect == nested_comm_defect(spec)
        assert all(type(c) is Poly if c else type(c) is Fraction for c in defect.coeffs)
        commutative += defect.is_zero
    assert 80 <= commutative < len(specs)


def test_comm_matrix_construction():
    cm = CommMatrix(2, RatMatrix(((0, 1), (-1, 1))))
    assert cm.signed_symmetric
    spec = spec_from_comm_matrix(cm)
    assert spec.v[0] == Poly([0, 0, 1])
    assert spec.v[1] == Poly([0, -1, 1])
    assert comm_defect(spec).is_zero


def test_comm_matrix_zero_and_scalar():
    zero = spec_from_comm_matrix(CommMatrix(2, RatMatrix(((0, 0), (0, 0)))))
    assert all(p.is_zero for p in zero.v)
    assert not zero.proper

    scalar = spec_from_comm_matrix(CommMatrix(1, RatMatrix(((5,),))))
    assert scalar.v[0] == Poly([0, 5])
    assert not scalar.proper


def test_comm_matrix_rejects_unsigned():
    bad = CommMatrix(2, RatMatrix(((0, 1), (1, 1))))
    assert not bad.signed_symmetric
    with pytest.raises(ValueError):
        spec_from_comm_matrix(bad)


def test_defect_matches_pointwise_commutativity():
    rng = random.Random(73)
    for _ in range(10):
        spec = rand_proper_spec(rng)
        defect = comm_defect(spec)
        pairs = [(rand_point(rng), rand_point(rng)) for _ in range(20)]
        if defect.is_zero:
            assert all(lmul(spec, a, b) == lmul(spec, b, a) for a, b in pairs)
        else:
            witness = None
            for u1 in range(-5, 6):
                for u2 in range(-5, 6):
                    a, b = LoopPoint(F(u1), F(0)), LoopPoint(F(u2), F(0))
                    if lmul(spec, a, b) != lmul(spec, b, a):
                        witness = (a, b)
                        break
                if witness:
                    break
            assert witness is not None


def test_signed_symmetric_always_commutative():
    rng = random.Random(79)
    for _ in range(15):
        n = rng.randint(1, 4)
        entries = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            entries[i][i] = F(rng.randint(-4, 4))
            for j in range(i + 1, n):
                entries[i][j] = F(rng.randint(-4, 4), rng.randint(1, 3))
                entries[j][i] = F((-1) ** (i + j)) * entries[i][j]
        cm = CommMatrix(n, RatMatrix(tuple(tuple(r) for r in entries)))
        spec = spec_from_comm_matrix(cm)
        assert comm_defect(spec).is_zero


@pytest.mark.parametrize("module", [loop, mult])
def test_all_lists_every_public_definition(module):
    defined = {name for name, obj in vars(module).items()
               if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
               and (inspect.isfunction(obj) or inspect.isclass(obj))}
    assert defined and defined <= set(module.__all__)
