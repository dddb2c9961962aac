"""Rational wire format, polynomials and exact linear algebra."""

import random
from fractions import Fraction

import pytest

from fililoop.exact import (
    Poly,
    RatMatrix,
    _rref_inplace,
    nullspace,
    rational_from_str,
    row_space_basis,
    span_residual,
)
from fililoop.algebra import phi_automorphism
from fililoop.loop import LoopPoint
from fililoop.mult import Certificate, SampleGrid

from helpers import rand_fraction
from oracles import (
    fraction_matvec,
    fraction_rref,
    identity,
    matmul,
    monomial,
    nest_inner,
    nest_outer,
    rank,
)


def F(num, den=1):
    return Fraction(num, den)


# -- rational wire format ----------------------------------------------------

def test_rational_round_trip():
    for s in ["3", "-3", "1/2", "-7/3", "0"]:
        assert str(rational_from_str(s)) == s


def test_rational_to_str_reduces():
    # the wire form is str of the reduced Fraction, in Poly and LoopPoint alike
    assert Poly([Fraction(4, 2), Fraction(-6, 4)]).to_strings() == ["2", "-3/2"]
    assert LoopPoint(Fraction(4, 2), Fraction(-6, 4)).to_json() == {"u": "2", "z": "-3/2"}


@pytest.mark.parametrize("bad", ["1.5", "1/0", "1/-2", "a", "", "1/2/3", "0x3",
                                 "\u0663", "\uff11", "1/1\u0663", "-\u0662/3",
                                 "1\xa0", "\u20031", "\u3000-2/3"])
def test_rational_rejects_non_wire_forms(bad):
    with pytest.raises(ValueError):
        rational_from_str(bad)


def test_rational_ignores_ascii_whitespace_only():
    assert rational_from_str(" 1") == 1
    assert rational_from_str("\t3/4\n") == F(3, 4)


def test_rational_field_axioms():
    rng = random.Random(11)
    for _ in range(50):
        a, b, c = (rand_fraction(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * (1 / a) == 1


# -- polynomials ---------------------------------------------------------------

def test_poly_eval_examples():
    assert Poly([0, 0, 1])(F(3)) == 9
    assert Poly()(F(5, 7)) == 0
    assert Poly([0, 1, -1])(F(2)) == -2


def test_poly_eval_is_ring_homomorphism():
    rng = random.Random(23)
    for _ in range(30):
        p = Poly([rand_fraction(rng) for _ in range(rng.randint(0, 5))])
        q = Poly([rand_fraction(rng) for _ in range(rng.randint(0, 5))])
        x = rand_fraction(rng)
        assert (p * q)(x) == p(x) * q(x)
        assert (p + q)(x) == p(x) + q(x)


def naive_eval(p, x):
    """sum_i c_i x^i with powers of x built by repeated products, not Horner."""
    total, power = Fraction(0), Fraction(1)
    for c in p.coeffs:
        total = total + c * power
        power = power * x
    return total


def plain_horner(p, x):
    """Horner from the leading coefficient with a product and a sum at every step."""
    result = p.coeffs[-1] if p.coeffs else Fraction(0)
    for c in p.coeffs[-2::-1]:
        result = result * x + c
    return result


def test_poly_eval_matches_the_naive_sum():
    # The zero polynomial, constants, flat and nested polynomials, dense and
    # sparse (u^2 + u^8, interior zeros), at int, Fraction and Poly points:
    # int and Fraction 0, Poly() and constant Poly points included.  A scalar
    # 0 gives the constant term and a Horner step skips a zero coefficient,
    # so the value and hash must be the naive sum's and the plain scheme's,
    # and the type the plain scheme's: a Fraction for a flat polynomial at a
    # scalar.  A nested polynomial at a scalar 0 gives its constant term
    # itself, which the plain scheme gives as an equal Poly.
    rng = random.Random(131)

    def flat(max_degree):
        return Poly([rand_fraction(rng) for _ in range(rng.randint(0, max_degree + 1))])

    def nonzero():
        return rng.choice((-1, 1)) * F(rng.randint(1, 9), rng.randint(1, 9))

    def sparse(max_degree, coeff=nonzero):
        return Poly([coeff() if rng.random() < 0.4 else 0
                     for _ in range(rng.randint(0, max_degree))] + [coeff()])

    polys = [Poly(), Poly([F(-3, 4)]), Poly([0, 1]), Poly([0, 0, 1, 0, 0, 0, 0, 0, 1]),
             Poly([F(2, 3), 0, 0, -1]), Poly([0, F(1, 2), 0, 0, F(-5, 3)]),
             Poly([0, Poly([0, 1]), 0, Poly([F(1, 2), 0, 3])]),
             Poly([Poly([1, 1]), 0, Poly([0, 0, 2])])]
    polys += [flat(6) for _ in range(120)]
    polys += [Poly([flat(3) for _ in range(rng.randint(1, 4))]) for _ in range(60)]
    polys += [sparse(8) for _ in range(100)]
    polys += [sparse(4, lambda: sparse(3)) for _ in range(40)]
    points = [0, 1, -2, 3, F(0), F(-5, 3), F(1, 2), Poly(), Poly([F(2, 7)]), Poly([1, 1]),
              Poly([1, 0, 1])]
    for p in polys:
        nested = any(isinstance(c, Poly) for c in p.coeffs)
        for x in points + [rng.randint(-9, 9), rand_fraction(rng), flat(3)]:
            got, plain, naive = p(x), plain_horner(p, x), naive_eval(p, x)
            assert got == plain == naive and hash(got) == hash(plain) == hash(naive)
            if nested and not isinstance(x, Poly) and x == 0:
                assert got is p.coeffs[0]
            else:
                assert type(got) is type(plain)
            if p.is_zero or (not nested and not isinstance(x, Poly)):
                assert type(got) is Fraction
        for bad in (0.0, -0.0, 1.5, True, False):
            with pytest.raises(TypeError):
                p(bad)


def test_poly_trims_trailing_zeros():
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])
    assert Poly([0]).is_zero
    assert Poly([F(1, 2)]).degree == 0


def test_poly_rejects_bool_and_float_coefficients():
    for coeffs in ([0, True], [False], [0, 0.5]):
        with pytest.raises(TypeError):
            Poly(coeffs)


def test_poly_refuses_float_and_bool_points_and_scalars():
    x = Poly([0, 1])
    for bad in (0.1, 0.5, True, False):
        with pytest.raises(TypeError):
            x(bad)
        with pytest.raises(TypeError):
            x * bad
        with pytest.raises(TypeError):
            bad * x
    assert x(F(1, 2)) == F(1, 2) and x(3) == 3 and 2 * x == x * F(2) == Poly([0, 2])


def test_poly_equality_with_bool_answers_instead_of_raising():
    for p in (Poly([1]), Poly(), Poly([0, 1])):
        for b in (True, False):
            assert (p == b) is False and (b == p) is False
            assert (p != b) is True and (b != p) is True
    assert Poly([1]) == 1 and Poly() == 0 and Poly([F(1, 2)]) == F(1, 2)
    assert (Poly([1]) == 1.0) is False


def test_equal_polys_and_scalars_hash_alike():
    rng = random.Random(29)

    def draw():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.choice([0, 1, -2, F(0), rand_fraction(rng)])
        if kind == 1:
            return Poly([rand_fraction(rng, -2, 2, 2) for _ in range(rng.randint(0, 2))])
        if kind == 2:
            return Poly([Poly([rand_fraction(rng, -2, 2, 2)]) for _ in range(rng.randint(0, 2))])
        return Poly.const(rng.choice([0, 1, -2, F(1, 2)]))

    values = [draw() for _ in range(400)]
    equal_pairs = 0
    for a in values:
        for b in values[:60]:
            if (isinstance(a, Poly) or isinstance(b, Poly)) and a == b:
                assert hash(a) == hash(b), (a, b)
                equal_pairs += 1
    assert equal_pairs > 1000
    assert len({Poly([2]), 2, F(2), Poly([Poly([2])])}) == 1 and hash(Poly()) == hash(0)


def test_poly_strings_round_trip():
    p = Poly(map(rational_from_str, ["0", "-1/2", "3"]))
    assert p.to_strings() == ["0", "-1/2", "3"]
    assert p(F(2)) == -1 + 12


def test_poly_composition():
    p = Poly([0, 0, 1])
    q = Poly([1, 1])
    assert p(q) == Poly([1, 2, 1])


def test_nested_poly_arithmetic():
    # (u1 + u2)^2 = u1^2 + 2 u1 u2 + u2^2 in nested form
    s = nest_outer(monomial(1)) + nest_inner(monomial(1))
    sq = s * s
    assert sq.coefficient(0) == Poly([0, 0, 1])
    assert sq.coefficient(1) == Poly([0, 2])
    assert sq.coefficient(2) == Poly([1])
    assert (sq - sq).is_zero


# -- linear algebra ------------------------------------------------------------

def test_row_space_basis_examples():
    assert row_space_basis([(F(1), F(0)), (F(0), F(1))]) == ((F(1), F(0)), (F(0), F(1)))
    assert row_space_basis([(F(1), F(1)), (F(2), F(2))]) == ((F(1), F(1)),)
    assert len(row_space_basis([(F(1), F(2), F(3)), (F(0), F(1), F(1)), (F(1), F(3), F(4))])) == 2


def test_row_space_basis_idempotent():
    rng = random.Random(41)
    for _ in range(20):
        vectors = [tuple(rand_fraction(rng) for _ in range(4)) for _ in range(rng.randint(1, 5))]
        basis = row_space_basis(vectors)
        assert row_space_basis(basis) == basis
        for v in vectors:
            assert not any(span_residual(v, basis))


def test_nullspace_of_full_rank_is_trivial():
    assert nullspace(identity(3), 3) == ()


def test_nullspace_annihilates_and_has_corank_dimension():
    rng = random.Random(37)
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = RatMatrix(tuple(tuple(rand_fraction(rng, -5, 5, 3) for _ in range(cols))
                            for _ in range(rows)))
        basis = nullspace(a.entries, cols)
        assert len(basis) == cols - rank(a.entries)
        for v in basis:
            assert not any(a.apply(v))


def rand_elimination_matrix(rng):
    """A tall, wide or square matrix, often rank-deficient, with zero rows,
    repeated rows, multiples of rows and denominators up to 10**6."""
    rows, cols = rng.randint(1, 9), rng.randint(1, 9)

    def entry():
        kind = rng.random()
        if kind < 0.35:
            return F(0)
        if kind < 0.55:
            return F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        return rand_fraction(rng)

    rank = rng.randint(0, min(rows, cols))
    base = [[entry() for _ in range(cols)] for _ in range(max(rank, 1))]
    mat = []
    for _ in range(rows):
        kind = rng.random()
        if kind < 0.15 or not rank:
            mat.append([F(0)] * cols)
        elif kind < 0.3 and mat:
            mat.append(list(rng.choice(mat)))
        elif kind < 0.6:
            u, v = rng.choice(base), rng.choice(base)
            a, b = rand_fraction(rng), rand_fraction(rng)
            mat.append([a * x + b * y for x, y in zip(u, v)])
        else:
            mat.append([entry() for _ in range(cols)])
    return mat


def test_elimination_matches_fraction_gauss_jordan():
    rng = random.Random(909)
    shapes = set()
    for _ in range(400):
        mat = rand_elimination_matrix(rng)
        rows, cols = len(mat), len(mat[0])
        expected = [row[:] for row in mat]
        got = [row[:] for row in mat]
        pivots = _rref_inplace(got)
        assert pivots == fraction_rref(expected)
        assert got == expected
        assert all(type(e) is Fraction for row in got for e in row)
        basis = row_space_basis(mat)
        assert basis == tuple(map(tuple, expected[:len(pivots)]))
        assert all(type(e) is Fraction for row in basis for e in row)
        kernel = nullspace(mat, cols)
        assert len(kernel) == cols - len(pivots)
        assert all(type(e) is Fraction for v in kernel for e in v)
        for v in kernel:
            assert all(sum((a * x for a, x in zip(row, v)), F(0)) == 0 for row in mat)
        shapes.add("tall" if rows > cols else "wide" if rows < cols else "square")
        if len(pivots) < min(rows, cols):
            shapes.add("deficient")
    assert shapes == {"tall", "wide", "square", "deficient"}


def rand_rref(rng, cols, rank, integral):
    """rank rows of width cols in RREF, and their pivot columns; the entries
    right of a pivot outside the pivot columns are integers when integral."""
    pivots = sorted(rng.sample(range(cols), rank))
    rows = []
    for p in pivots:
        row = [F(0)] * cols
        row[p] = F(1)
        for c in range(p + 1, cols):
            if c not in pivots and rng.random() < 0.6:
                row[c] = F(rng.randint(-5, 5)) if integral else rand_fraction(rng)
        rows.append(row)
    return rows, pivots


def rref_near_miss(rng, rows, pivots, kind):
    """A copy of RREF rows, changed in the given way into rows that are not RREF."""
    rows = [row[:] for row in rows]
    i = rng.randrange(len(rows) - 1) if len(rows) > 1 else 0
    if kind == "pivot 2":
        rows[i] = [2 * e for e in rows[i]]
    elif kind == "nonzero above a later pivot":
        rows[i][pivots[rng.randrange(i + 1, len(rows))]] = F(rng.choice((-3, -1, 1, 2)))
    elif kind == "zero row":
        rows.insert(rng.randint(0, len(rows)), [F(0)] * len(rows[0]))
    elif kind == "repeated row":
        rows.insert(i + 1, rows[i][:])
    else:
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
    return rows


def test_row_space_basis_matches_gauss_jordan_on_rref_and_near_misses():
    # rows already in RREF come back as they are; every near miss must be
    # reduced, and each must agree with the Fraction Gauss-Jordan oracle
    rng = random.Random(1818)
    kinds = ("rref", "pivot 2", "zero row", "repeated row",
             "nonzero above a later pivot", "pivots out of order")
    seen = set()
    assert row_space_basis([]) == ()
    for case in range(900):
        cols = rng.randint(1, 10)
        rank = rng.randint(1, cols)
        integral = case % 3 == 0
        rows, pivots = rand_rref(rng, cols, rank, integral)
        kind = rng.choice(kinds if rank > 1 else kinds[:4])
        mat = rows if kind == "rref" else rref_near_miss(rng, rows, pivots, kind)
        if integral:
            mat = [[int(e) for e in row] for row in mat]
        expected = [[F(e) for e in row] for row in mat]
        rank_expected = len(fraction_rref(expected))
        basis = row_space_basis(mat)
        assert basis == tuple(map(tuple, expected[:rank_expected])), (kind, mat)
        assert all(type(e) is Fraction for row in basis for e in row)
        if kind != "nonzero above a later pivot":  # the others keep the span
            assert basis == tuple(map(tuple, rows)), (kind, mat)
        seen.add((kind, integral))
    assert len(seen) == 2 * len(kinds)


def test_elimination_keeps_fractions_and_rejects_floats():
    half = F(1, 2)
    assert row_space_basis([(half, F(0))])[0][0] == 1
    assert span_residual((half, 3), ())[0] is half
    for call in (lambda: row_space_basis([(0.5, 1)]), lambda: span_residual((1, 0.5), ()),
                 lambda: nullspace([(True, 1)], 2),
                 # rows that would be RREF but for a float or a bool entry
                 lambda: row_space_basis([(F(1), 0.0)]), lambda: row_space_basis([(1.0,)]),
                 lambda: row_space_basis([(1, 0, 2.5), (0, 1, 0)]),
                 lambda: row_space_basis([(True, 0), (0, 1)])):
        with pytest.raises(TypeError):
            call()


# -- frozen records ----------------------------------------------------------------------

def test_record_fields_defaults_and_repr():
    cert = Certificate("h-connected", True)
    assert (cert.name, cert.passed, cert.witness) == ("h-connected", True, None)
    assert cert == Certificate(name="h-connected", passed=True, witness=None)
    assert repr(cert) == "Certificate(name='h-connected', passed=True, witness=None)"
    grid = SampleGrid()
    assert grid.u_values == (F(-2), F(-1), F(1), F(2), F(3)) and grid.z_values == (F(0), F(1))
    assert SampleGrid((F(1),)) == SampleGrid(u_values=(F(1),), z_values=grid.z_values)
    assert repr(SampleGrid((F(1),), (F(0),))) == (
        "SampleGrid(u_values=(Fraction(1, 1),), z_values=(Fraction(0, 1),))")
    for bad in (lambda: Certificate("x"), lambda: Certificate("x", True, None, 1),
                lambda: Certificate("x", True, colour=1), lambda: Certificate("x", True, name="y")):
        with pytest.raises(TypeError):
            bad()


def test_record_equality_hash_and_frozen():
    cert = Certificate("generation", True, {"closure_dimension": 4})
    assert cert == Certificate("generation", True, {"closure_dimension": 4})
    assert cert != Certificate("generation", False, {"closure_dimension": 4})
    grid = SampleGrid((F(1), F(2)), (F(0),))
    assert hash(grid) == hash(SampleGrid((F(1), F(2)), (F(0),)))
    assert len({grid, SampleGrid((F(1), F(2)), (F(0),)), SampleGrid()}) == 2
    # equality holds only between records of the same type
    assert grid != (grid.u_values, grid.z_values)
    assert Certificate("a", True) != RatMatrix(((1,),))
    for record, field in ((cert, "passed"), (grid, "u_values"), (grid, "other")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)


def test_matrix_product_and_rank():
    a = RatMatrix(((1, 2), (3, 4)))
    b = RatMatrix(((0, 1), (1, 0)))
    assert (a @ b).entries == ((F(2), F(1)), (F(4), F(3)))
    assert len(row_space_basis(a.entries)) == 2
    assert len(row_space_basis(((1, 2), (2, 4)))) == 1


def test_ratmatrix_entries_are_fractions_and_keep_fraction_objects():
    half = F(1, 2)
    m = RatMatrix(((1, "-3/4"), (half, 1)))
    assert m.entries == ((F(1), F(-3, 4)), (F(1, 2), F(1)))
    assert all(type(e) is Fraction for row in m.entries for e in row)
    assert m.entries[1][0] is half


def test_ratmatrix_rejects_ragged_rows_and_non_numbers():
    with pytest.raises(ValueError):
        RatMatrix(((1, 2), (3,)))
    with pytest.raises(ValueError):
        RatMatrix((("x",),))
    for entries in (((None,),), ((0.1,),), ((1, 2.0),), ((True,),), ((1, 2), (3, False))):
        with pytest.raises(TypeError):
            RatMatrix(entries)


def test_matmul_matches_naive_fraction_product():
    rng = random.Random(41)
    primes = (7919, 104729, 1299709, 2**61 - 1)

    def entry():
        kind = rng.random()
        if kind < 0.3:
            return F(0)
        if kind < 0.5:
            return F(rng.randint(-10**12, 10**12), rng.choice(primes))
        return rand_fraction(rng)

    for _ in range(60):
        rows, inner, cols = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a = [[entry() for _ in range(inner)] for _ in range(rows)]
        a[rng.randrange(rows)] = [F(0)] * inner
        a = RatMatrix(tuple(map(tuple, a)))
        b = RatMatrix(tuple(tuple(entry() for _ in range(cols)) for _ in range(inner)))
        product = a @ b
        assert product.entries == matmul(a.entries, b.entries)
        assert all(type(e) is Fraction for row in product.entries for e in row)
    with pytest.raises(ValueError):
        RatMatrix(((1, 2),)) @ RatMatrix(((1, 2),))


def test_apply_matches_fraction_dot_products():
    # 600 seeded cases, sizes 3..12, cycling through six kinds of input
    rng = random.Random(1919)

    def big():
        return F(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))

    def sparse(size, draw):
        return [draw() if rng.random() < 0.4 else F(0) for _ in range(size)]

    for case in range(600):
        size, kind = 3 + case // 6 % 10, case % 6
        matrix = [[big() for _ in range(size)] for _ in range(size)]
        vector = [big() for _ in range(size)]
        if kind == 0:
            vector = [F(0)] * size
        elif kind == 1:
            for r in rng.sample(range(size), rng.randint(1, size)):
                matrix[r] = [F(0)] * size
            vector = sparse(size, big)
        elif kind == 2:
            matrix = [[rng.randint(-50, 50) for _ in range(size)] for _ in range(size)]
            vector = [rng.randint(-50, 50) for _ in range(size)]
        elif kind == 3:
            vector = [rng.choice((0, rng.randint(-9, 9), big())) for _ in range(size)]
        elif kind == 4:
            matrix = [sparse(size, lambda: rand_fraction(rng)) for _ in range(size)]
            vector = sparse(size, lambda: rand_fraction(rng))
        else:
            a = [rng.choice((F(0), rand_fraction(rng), big())) for _ in range(size - 2)]
            matrix = phi_automorphism(a).matrix.entries
            vector = sparse(size, big) if case % 12 < 6 else [F(0), *[F(1)] * (size - 2), F(0)]
        result = RatMatrix(tuple(map(tuple, matrix))).apply(vector)
        assert result == fraction_matvec(matrix, vector), case
        assert type(result) is tuple and all(type(e) is Fraction for e in result)
    with pytest.raises(ValueError):
        RatMatrix(((1, 2),)).apply((F(1),))


def test_apply_refuses_float_and_bool_entries():
    m = RatMatrix(((1, 0), (0, 1)))
    for vector in ((0.5, F(1)), (True, F(1)), (F(1), False), (0.0, 0), (1, 2.0)):
        with pytest.raises(TypeError):
            m.apply(vector)
