"""Bracket table, subalgebra machinery, normal forms, ideals, automorphisms."""

import random
from fractions import Fraction
from math import comb

import pytest

from fililoop.exact import RatMatrix, row_space_basis, span_residual
from fililoop.algebra import (
    AlgebraElement,
    LinearMap,
    NotClosedError,
    SubalgebraBasis,
    basis_element,
    bracket,
    classify_subalgebra,
    core_ideal,
    full_algebra,
    inn_subalgebra,
    is_bracket_automorphism,
    lower_central_series,
    phi_automorphism,
    subalgebra_closure,
    zero_element,
)
from fililoop.group import glog

from helpers import rand_algebra_element, rand_fraction, rand_group_element


def e(n, i):
    return basis_element(n, i)


# -- bracket table -------------------------------------------------------------

def test_bracket_table_examples():
    assert bracket(e(1, 1), e(1, 2)) == e(1, 3)
    assert bracket(e(2, 1), e(2, 2)) == 2 * e(2, 3)
    assert bracket(e(2, 2), e(2, 3)).is_zero
    assert bracket(e(2, 1), e(2, 4)).is_zero


def test_bracket_dimension_mismatch():
    with pytest.raises(ValueError):
        bracket(e(1, 1), e(2, 1))


def test_bracket_antisymmetry_and_bilinearity():
    rng = random.Random(5)
    for n in range(1, 7):
        for _ in range(10):
            x = rand_algebra_element(rng, n)
            y = rand_algebra_element(rng, n)
            z = rand_algebra_element(rng, n)
            s = rand_fraction(rng)
            assert bracket(x, y) == -bracket(y, x)
            assert bracket(x + s * y, z) == bracket(x, z) + s * bracket(y, z)


def test_jacobi_identity_all_basis_triples():
    for n in range(1, 7):
        basis = [e(n, i) for i in range(1, n + 3)]
        for x in basis:
            for y in basis:
                for z in basis:
                    total = (bracket(x, bracket(y, z))
                             + bracket(y, bracket(z, x))
                             + bracket(z, bracket(x, y)))
                    assert total.is_zero


def test_lower_central_series_dimensions():
    assert [s.dimension for s in lower_central_series(1)] == [3, 1, 0]
    assert [s.dimension for s in lower_central_series(2)] == [4, 2, 1, 0]
    for n in range(1, 7):
        dims = [s.dimension for s in lower_central_series(n)]
        assert dims == [n + 2] + list(range(n, -1, -1))
        assert dims[-1] == 0


# -- closure -------------------------------------------------------------------

def test_subalgebra_closure_examples():
    assert subalgebra_closure([e(1, 1), e(1, 2)]) == full_algebra(1)
    single = subalgebra_closure([e(2, 3)])
    assert single.dimension == 1 and single.contains(e(2, 3))
    assert subalgebra_closure([e(2, 1) + e(2, 2), e(2, 2)]) == full_algebra(2)


def test_closure_is_bracket_closed():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(1, 5)
        gens = [rand_algebra_element(rng, n) for _ in range(rng.randint(1, 3))]
        closed = subalgebra_closure(gens)
        assert closed.is_bracket_closed()
        assert pairwise_is_bracket_closed(closed)
        for g in gens:
            assert closed.contains(g)


def pairwise_closure(generators):
    """Closure by brute force: bracket every pair of basis vectors and add
    what falls outside the span, until nothing new appears."""
    n = generators[0].n
    current = SubalgebraBasis.span(n, generators)
    while True:
        items = current.basis
        fresh = [b for i in range(len(items)) for j in range(i + 1, len(items))
                 if not (b := bracket(items[i], items[j])).is_zero and not current.contains(b)]
        if not fresh:
            return current
        current = SubalgebraBasis.span(n, list(items) + fresh)


def closure_generators(rng, n, kind):
    """Generator sets of one kind: sparse ones, ones with no e_1 component,
    a single generator, sets with a zero generator, or with duplicates."""
    count = 1 if kind == "single" else rng.randint(1, 4)
    gens = [sparse_algebra_element(rng, n) for _ in range(count)]
    if kind == "no-e1":
        gens = [AlgebraElement(n, (Fraction(0),) + g.coeffs[1:]) for g in gens]
    elif kind == "zero":
        gens.insert(rng.randint(0, len(gens)), zero_element(n))
    elif kind == "duplicate":
        g = rng.choice(gens)
        gens.insert(rng.randint(0, len(gens)), rng.choice([g, rand_fraction(rng) * g]))
    return gens


def test_closure_matches_pairwise_oracle():
    rng = random.Random(17)
    kinds = ("sparse", "no-e1", "single", "zero", "duplicate")
    seen = set()
    for case in range(1200):
        n = 1 + case % 10
        kind = kinds[case // 10 % len(kinds)]
        gens = closure_generators(rng, n, kind)
        closed = subalgebra_closure(gens)
        assert closed == pairwise_closure(gens), (kind, gens)
        assert closed.is_bracket_closed()
        assert pairwise_is_bracket_closed(closed)
        rows = closed.coord_rows()
        if rows and rows[0][0] and len(SubalgebraBasis.span(n, gens).basis) > 2:
            seen.add("three or more rows with e_1")
        seen.add("commutative" if closed.is_commutative() else "non-commutative")
    assert seen == {"three or more rows with e_1", "commutative", "non-commutative"}


def pairwise_is_bracket_closed(v):
    """Closedness by brute force: every bracket of two basis vectors lies in v."""
    items = v.basis
    return all(v.contains(bracket(items[i], items[j]))
               for i in range(len(items)) for j in range(i + 1, len(items)))


def pairwise_is_commutative(v):
    """Commutativity by brute force: every bracket of two basis vectors is zero."""
    items = v.basis
    return all(bracket(items[i], items[j]).is_zero
               for i in range(len(items)) for j in range(i + 1, len(items)))


def pairwise_classify(v):
    """The normal form checked row by row against span{e_1 + t, e_index, ..., e_{n+2}}."""
    if not pairwise_is_bracket_closed(v):
        raise NotClosedError("subspace is not closed under the bracket")
    if pairwise_is_commutative(v):
        return None
    size = v.n + 2
    first, *tail = v.coord_rows()
    if not first[0]:
        raise RuntimeError("non-commutative subspace with no e_1 component")
    start_col = size - len(tail)
    for offset_col, row in enumerate(tail):
        if row != tuple(Fraction(int(c == start_col + offset_col)) for c in range(size)):
            raise RuntimeError("bracket-closed subspace is not in tail normal form")
    if start_col + 1 > v.n + 1:
        raise RuntimeError("non-commutative subspace cannot have an empty bracket range")
    return start_col + 1, AlgebraElement(v.n, (Fraction(0),) + first[1:])


def lattice_subspace(rng, n, kind):
    """A subspace of one kind: a closure, a random span with or without an e_1
    row, a subspace of A = span{e_2, ..., e_{n+2}}, span{e_1 + t, e_{n+2}}
    (closed and commutative) or the zero subspace."""
    if kind == "closure":
        return subalgebra_closure(closure_generators(rng, n, rng.choice(("sparse", "single", "zero"))))
    if kind == "zero":
        return SubalgebraBasis.span(n, [zero_element(n)] * rng.randint(0, 2))
    gens = [rng.choice([sparse_algebra_element, rand_algebra_element])(rng, n) for _ in range(rng.randint(1, 4))]
    if kind == "span-e1":
        gens.append(e(n, 1) + sparse_algebra_element(rng, n))
    elif kind == "span-in-A":
        gens = [AlgebraElement(n, (Fraction(0),) + g.coeffs[1:]) for g in gens]
    elif kind == "e1-and-top":
        t = AlgebraElement(n, (Fraction(0),) + sparse_algebra_element(rng, n).coeffs[1:])
        gens = [e(n, 1) + t, rand_fraction(rng, 1) * e(n, n + 2)]
    return SubalgebraBasis.span(n, gens)


def test_lattice_reading_matches_the_pairwise_oracles():
    rng = random.Random(1407)
    kinds = ("closure", "span-e1", "span-in-A", "e1-and-top", "zero")
    seen = set()
    for case in range(1500):
        n = 1 + case % 10
        kind = kinds[case // 10 % len(kinds)]
        v = lattice_subspace(rng, n, kind)
        closed = pairwise_is_bracket_closed(v)
        assert v.is_bracket_closed() == closed, (kind, v)
        assert v.is_commutative() == pairwise_is_commutative(v), (kind, v)
        if not closed:
            for classify in (classify_subalgebra, pairwise_classify):
                with pytest.raises(NotClosedError):
                    classify(v)
            seen.add("not closed")
            continue
        form, expected = classify_subalgebra(v), pairwise_classify(v)
        assert (form and (form.index, form.offset)) == expected, (kind, v)
        seen.add("commutative" if form is None else "normal form")
        seen.add(f"{kind} closed")
    assert seen == {"not closed", "commutative", "normal form",
                    *(f"{kind} closed" for kind in kinds)}


def test_constructor_reduces_any_basis():
    # SubalgebraBasis(n, basis) reduces its basis to RREF as span does, so the
    # methods that read the rows answer alike for every basis of a subspace
    v = SubalgebraBasis(2, (e(2, 2), e(2, 1)))
    assert v == SubalgebraBasis.span(2, [e(2, 1), e(2, 2)])
    assert v.basis == (e(2, 1), e(2, 2))
    assert not v.is_commutative() and not pairwise_is_commutative(v)
    assert not v.is_bracket_closed()
    with pytest.raises(NotClosedError):
        classify_subalgebra(v)
    with pytest.raises(NotClosedError):
        core_ideal(v)
    closed = SubalgebraBasis(2, (e(2, 4), e(2, 3) + e(2, 4), e(2, 1) + e(2, 2) + e(2, 3)))
    assert closed.is_bracket_closed() and not closed.is_commutative()
    form = classify_subalgebra(closed)
    assert form.index == 3 and form.offset == e(2, 2)
    with pytest.raises(ValueError):
        SubalgebraBasis(2, (e(3, 1),))
    rng = random.Random(1409)
    kinds = ("closure", "span-e1", "span-in-A", "e1-and-top", "zero")
    for case in range(300):
        n = 1 + case % 10
        v = lattice_subspace(rng, n, kinds[case % len(kinds)])
        # a unitriangular, so invertible, recombination of the rows, shuffled
        rows = [b + rand_fraction(rng) * c for b, c in zip(v.basis, v.basis[1:])] + list(v.basis[-1:])
        rng.shuffle(rows)
        w = SubalgebraBasis(n, tuple(rows))
        assert w == v
        assert w.is_bracket_closed() == pairwise_is_bracket_closed(v)
        assert w.is_commutative() == pairwise_is_commutative(v)


# -- normal form ---------------------------------------------------------------

def test_classify_examples():
    v = SubalgebraBasis.span(2, [e(2, 1), e(2, 3), e(2, 4)])
    form = classify_subalgebra(v)
    assert form.index == 3 and form.offset.is_zero

    v = SubalgebraBasis.span(2, [e(2, 1) + e(2, 2), e(2, 3), e(2, 4)])
    form = classify_subalgebra(v)
    assert form.index == 3 and form.offset == e(2, 2)

    assert classify_subalgebra(SubalgebraBasis.span(2, [e(2, 2), e(2, 3)])) is None


def test_classify_rejects_non_closed():
    v = SubalgebraBasis.span(2, [e(2, 1), e(2, 2)])
    with pytest.raises(NotClosedError):
        classify_subalgebra(v)


def test_classify_round_trip_random():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 5)
        i = rng.randint(2, n + 1)
        t1 = zero_element(n)
        for j in range(2, i):
            t1 = t1 + rand_fraction(rng) * e(n, j)
        v = SubalgebraBasis.span(
            n, [e(n, 1) + t1] + [e(n, k) for k in range(i, n + 3)])
        form = classify_subalgebra(v)
        assert form is not None
        assert form.index == i
        assert form.offset == t1
        assert SubalgebraBasis.span(
            n, [e(n, 1) + form.offset] + [e(n, k) for k in range(form.index, n + 3)]) == v


def test_degenerate_tail_is_commutative():
    # span{e_1 + t_1, e_{n+2}} brackets to zero, so it reports commutative
    n = 3
    v = SubalgebraBasis.span(n, [e(n, 1) + e(n, 2), e(n, n + 2)])
    assert v.is_bracket_closed()
    assert classify_subalgebra(v) is None


# -- core ideal ------------------------------------------------------------------

def test_core_ideal_examples():
    assert core_ideal(SubalgebraBasis.span(1, [e(1, 2)])).dimension == 0
    centre = SubalgebraBasis.span(1, [e(1, 3)])
    assert core_ideal(centre) == centre
    h = SubalgebraBasis.span(1, [e(1, 2), e(1, 3)])
    assert core_ideal(h) == h
    zero = SubalgebraBasis.span(3, [])
    assert core_ideal(zero) == zero


def test_core_ideal_is_an_ideal_inside_h():
    rng = random.Random(19)
    for _ in range(15):
        n = rng.randint(1, 5)
        gens = [rand_algebra_element(rng, n) for _ in range(rng.randint(1, 2))]
        h = subalgebra_closure(gens)
        core = core_ideal(h)
        for b in core.basis:
            assert h.contains(b)
            for j in range(1, n + 3):
                assert core.contains(bracket(e(n, j), b))


def sparse_algebra_element(rng, n):
    """A random element with about half its coefficients zero, often
    supported on a tail e_k, ..., e_{n+2}, so closures are often proper."""
    lo = rng.choice([1, 1, 2, 3, rng.randint(1, n + 2)])
    return AlgebraElement(n, tuple(rand_fraction(rng) if i >= lo and rng.random() < 0.5 else Fraction(0)
                                   for i in range(1, n + 3)))


def core_oracle(h):
    """The largest ideal inside h, read off the ideal lattice.

    e_1 acts on the abelian ideal span{e_2, ..., e_{n+2}} as one shift, so a
    subspace is an ideal iff it contains the derived algebra
    span{e_3, ..., e_{n+2}} or is a tail span{e_k, ..., e_{n+2}}.
    """
    n = h.n
    k = 3
    while not all(h.contains(e(n, j)) for j in range(k, n + 3)):
        k += 1
    return h if k == 3 else SubalgebraBasis.span(n, [e(n, j) for j in range(k, n + 3)])


def test_core_ideal_matches_the_ideal_lattice():
    rng = random.Random(41)
    kinds = set()
    for _ in range(200):
        n = rng.randint(1, 8)
        gens = [sparse_algebra_element(rng, n) for _ in range(rng.randint(1, 3))]
        if all(g.is_zero for g in gens):
            continue
        h = subalgebra_closure(gens)
        core = core_oracle(h)
        assert core_ideal(h) == core
        kinds.add("zero" if not core.dimension else "h" if core == h else "tail")
    assert kinds == {"zero", "h", "tail"}


# -- the zero-skipping kernels against dense oracles -----------------------------
#
# bracket, span_residual and AlgebraElement's +, - and scalar * skip zero
# coefficients; the oracles below touch every coefficient.

def table_bracket(x, y):
    """[x, y] = sum over all i, j of x_i y_j [e_i, e_j], read off the table
    [e_1, e_i] = (n+2-i) e_{i+1} = -[e_i, e_1] for 2 <= i <= n+1."""
    n = x.n
    out = [Fraction(0)] * (n + 2)
    for i in range(1, n + 3):
        for j in range(1, n + 3):
            product = x.coeffs[i - 1] * y.coeffs[j - 1]
            if i == 1 and 2 <= j <= n + 1:
                out[j] += (n + 2 - j) * product
            elif j == 1 and 2 <= i <= n + 1:
                out[i] -= (n + 2 - i) * product
    return tuple(out)


def dense_residual(vector, basis):
    """Eliminate the pivot coordinate of each RREF row from every coordinate."""
    res = list(vector)
    for row in basis:
        f = res[next(i for i, b in enumerate(row) if b)]
        res = [a - f * b for a, b in zip(res, row)]
    return tuple(res)


def mixed_element(rng, n):
    """A dense, sparse, unit, scaled unit or zero element."""
    kind = rng.randrange(5)
    if kind == 0:
        return rand_algebra_element(rng, n)
    if kind == 1:
        return sparse_algebra_element(rng, n)
    if kind == 2:
        return e(n, rng.randint(1, n + 2))
    if kind == 3:
        return rand_fraction(rng) * e(n, rng.randint(1, n + 2))
    return zero_element(n)


def all_fractions(coeffs):
    return all(type(c) is Fraction for c in coeffs)


def test_kernels_match_dense_oracles():
    rng = random.Random(1616)
    seen = set()
    for case in range(600):
        n = 1 + case % 10
        x, y = mixed_element(rng, n), mixed_element(rng, n)
        s = rng.choice([Fraction(0), 0, rng.randint(-3, 3), rand_fraction(rng)])
        results = {
            "bracket": (bracket(x, y).coeffs, table_bracket(x, y)),
            "+": ((x + y).coeffs, tuple(a + b for a, b in zip(x.coeffs, y.coeffs))),
            "-": ((x - y).coeffs, tuple(a - b for a, b in zip(x.coeffs, y.coeffs))),
            "s*": ((s * x).coeffs, tuple(Fraction(s) * a for a in x.coeffs)),
            "*s": ((x * s).coeffs, tuple(a * Fraction(s) for a in x.coeffs)),
        }
        rows = row_space_basis([mixed_element(rng, n).coeffs for _ in range(rng.randint(0, n + 2))])
        v = mixed_element(rng, n).coeffs
        results["span_residual"] = (span_residual(v, rows), dense_residual(v, rows))
        for name, (got, expected) in results.items():
            assert got == expected, (name, x, y, s)
            assert len(got) == n + 2 and all_fractions(got), name
        res = results["span_residual"][0]
        assert not any(res[next(i for i, b in enumerate(r) if b)] for r in rows)
        seen.add((not s, bool(rows), not any(table_bracket(x, y))))
    assert len(seen) == 8


def test_public_constructors_check_their_input():
    for call, error in ((lambda: zero_element(0), ValueError),
                        (lambda: zero_element(True), TypeError),
                        (lambda: basis_element(True, 1), TypeError),
                        (lambda: basis_element(0, 1), ValueError)):
        with pytest.raises(error):
            call()


def test_unchecked_results_equal_checked_ones():
    # results built without the constructor's checks are the values it builds
    rng = random.Random(1817)
    for case in range(400):
        n = 1 + case % 8
        x, y = mixed_element(rng, n), mixed_element(rng, n)
        results = [bracket(x, y), bracket(y, x), x + y, x - y, -x,
                   glog(rand_group_element(rng, n)),
                   phi_automorphism([rand_fraction(rng) for _ in range(n)]).apply(x)]
        for s in (rng.randint(-3, 3), rand_fraction(rng)):
            results += [s * x, x * s]
        matrix = RatMatrix(tuple(tuple(rand_fraction(rng) for _ in range(n + 2))
                                 for _ in range(n + 2)))
        results.append(LinearMap(n, matrix).apply(x))
        v = SubalgebraBasis.span(n, [mixed_element(rng, n) for _ in range(rng.randint(1, n + 2))])
        closure = subalgebra_closure(v.basis or (x,))
        form = classify_subalgebra(closure)
        results += [*v.basis, *SubalgebraBasis.span(n, v.basis).basis, *closure.basis,
                    *((form.offset,) if form else ())]
        for r in results:
            assert r == AlgebraElement(r.n, r.coeffs) and type(r.coeffs) is tuple
            assert all_fractions(r.coeffs), r


def test_core_of_the_stabilizer_and_of_inn_subalgebras_is_zero():
    rng = random.Random(1617)
    for m in range(1, 11):
        stabilizer = SubalgebraBasis.span(m, [e(m, i) for i in range(2, m + 2)])
        a = tuple(rng.choice([Fraction(0), rand_fraction(rng)]) for _ in range(m))
        for h in (stabilizer, inn_subalgebra(a)):
            core = core_ideal(h)
            assert core.dimension == 0 and core == core_oracle(h)


# -- inn subalgebra and the straightening automorphism ----------------------------

def test_inn_subalgebra_examples():
    assert inn_subalgebra((0, 0)) == SubalgebraBasis.span(2, [e(2, 2), e(2, 3)])
    v = inn_subalgebra((1, 2))
    assert v == SubalgebraBasis.span(2, [e(2, 2) + e(2, 4), e(2, 3) + 2 * e(2, 4)])
    assert v.is_commutative()


def test_inn_subalgebra_is_abelian_random():
    rng = random.Random(29)
    for _ in range(10):
        n = rng.randint(1, 5)
        v = inn_subalgebra(tuple(rand_fraction(rng) for _ in range(n)))
        assert v.dimension == n
        assert v.is_commutative()


def test_inn_subalgebra_equals_the_checked_construction():
    rng = random.Random(1922)
    for n in range(1, 11):
        for _ in range(4):
            a = [rng.choice((0, Fraction(0), rng.randint(-5, 5), rand_fraction(rng)))
                 for _ in range(n)]
            a[rng.randrange(n)] = Fraction(0)
            top = basis_element(n, n + 2)
            checked = SubalgebraBasis.span(
                n, [basis_element(n, 1 + i) + Fraction(a[i - 1]) * top for i in range(1, n + 1)])
            v = inn_subalgebra(a)
            assert v == checked and v.dimension == n
            assert all(all_fractions(x.coeffs) for x in v.basis)
    for a in ((0.5,), (1, True)):
        with pytest.raises(TypeError):
            inn_subalgebra(a)


def test_phi_entries_follow_the_binomial_formula():
    # column j is phi(e_j): 1 at e_j, and for 2 <= j <= n+1 the entry at
    # e_{j+d} is -C(n+2-j, d) a_{n+1-d}, d = 1..n+2-j; every other entry is 0
    rng = random.Random(1923)
    for n in range(1, 11):
        a = [rng.choice((Fraction(0), rng.randint(-5, 5), rand_fraction(rng))) for _ in range(n)]
        entries = phi_automorphism(a).matrix.entries
        for i in range(1, n + 3):
            for j in range(1, n + 3):
                d = i - j
                if d == 0:
                    expected = Fraction(1)
                elif 2 <= j <= n + 1 and d >= 1:
                    expected = -comb(n + 2 - j, d) * Fraction(a[n - d])
                else:
                    expected = Fraction(0)
                assert entries[i - 1][j - 1] == expected, (n, i, j)
        assert all(all_fractions(row) for row in entries)


def test_phi_formulas_n2():
    a1, a2 = Fraction(3, 2), Fraction(-5)
    phi = phi_automorphism((a1, a2))
    assert phi.apply(e(2, 2)) == e(2, 2) - 2 * a2 * e(2, 3) - a1 * e(2, 4)
    assert phi.apply(e(2, 3)) == e(2, 3) - a2 * e(2, 4)
    assert phi.apply(e(2, 1)) == e(2, 1)
    assert phi.apply(e(2, 4)) == e(2, 4)


def test_phi_zero_is_identity():
    phi = phi_automorphism((Fraction(0),) * 3)
    assert phi == LinearMap(3, RatMatrix.identity(5))


def test_phi_is_bracket_automorphism():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(1, 5)
        phi = phi_automorphism(tuple(rand_fraction(rng) for _ in range(n)))
        assert is_bracket_automorphism(phi)


def test_identity_is_bracket_automorphism():
    assert is_bracket_automorphism(LinearMap(2, RatMatrix.identity(4)))


def test_swap_map_is_not_bracket_automorphism():
    # e1 -> e1, e2 -> e3, e3 -> e2 breaks [e1, e3] = 0
    m = LinearMap(1, RatMatrix(((1, 0, 0), (0, 0, 1), (0, 1, 0))))
    assert not is_bracket_automorphism(m)


def test_phi_straightens_inn_subalgebra():
    rng = random.Random(43)
    for _ in range(15):
        n = rng.randint(1, 5)
        a = tuple(rand_fraction(rng) for _ in range(n))
        phi = phi_automorphism(a)
        target = SubalgebraBasis.span(n, [e(n, i) for i in range(2, n + 2)])
        assert phi.map_span(inn_subalgebra(a)) == target


def test_core_of_inn_subalgebra_is_trivial():
    rng = random.Random(47)
    for _ in range(15):
        n = rng.randint(1, 5)
        a = tuple(rand_fraction(rng) for _ in range(n))
        assert core_ideal(inn_subalgebra(a)).dimension == 0


# -- serialization ----------------------------------------------------------------

def test_algebra_element_json_round_trip():
    x = AlgebraElement(2, (Fraction(1, 2), Fraction(0), Fraction(-3), Fraction(7, 5)))
    wire = x.to_json()
    assert wire == {"n": 2, "coeffs": ["1/2", "0", "-3", "7/5"]}
    assert AlgebraElement(wire["n"], tuple(map(Fraction, wire["coeffs"]))) == x


def test_algebra_element_keeps_fractions_and_rejects_float_and_bool():
    half = Fraction(1, 2)
    x = AlgebraElement(1, (half, 2, Fraction(0)))
    assert x.coeffs[0] is half and type(x.coeffs[1]) is Fraction
    for coeffs in ((0.1, 0, 0), (0, True, 0)):
        with pytest.raises(TypeError):
            AlgebraElement(1, coeffs)
    for n in (True, 1.0, Fraction(1)):
        with pytest.raises(TypeError):
            AlgebraElement(n, (1, 2, 3))


def test_algebra_element_scalar_must_be_exact():
    x = AlgebraElement(1, (1, 2, 3))
    for bad in (0.5, True, False):
        with pytest.raises(TypeError):
            x * bad
        with pytest.raises(TypeError):
            bad * x
    assert 2 * x == x * Fraction(2) == AlgebraElement(1, (2, 4, 6))


def test_subalgebra_json_round_trip():
    v = SubalgebraBasis.span(2, [e(2, 1) + e(2, 2), e(2, 4)])
    wire = v.to_json()
    assert wire == [{"n": 2, "coeffs": ["1", "1", "0", "0"]},
                    {"n": 2, "coeffs": ["0", "0", "0", "1"]}]
    assert SubalgebraBasis(2, tuple(AlgebraElement(2, tuple(map(Fraction, d["coeffs"])))
                                    for d in wire)) == v
