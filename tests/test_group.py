"""Matrix realization, group law, decomposition, logarithm and exponential."""

import random
from fractions import Fraction
from math import comb

import pytest

from fililoop.exact import RatMatrix
from fililoop.algebra import AlgebraElement, basis_element, bracket
from fililoop.group import (
    GroupElement,
    _log_weights,
    _shift,
    commutator,
    from_matrix,
    ginv,
    glog,
    gmul,
    in_H,
    to_matrix,
)

from helpers import assert_same_as_checked, rand_fraction, rand_group_element
from oracles import add, decompose, group_identity, identity, scaled, sub


def F(num, den=1):
    return Fraction(num, den)


def g1(c, a, b):
    return GroupElement(1, F(c), (F(a),), F(b))


def h_element(n, a):
    """Element g(0, a_1, ..., a_n, 0) of the stabilizer subgroup H."""
    return GroupElement(n, F(0), tuple(a), F(0))


def rand_non_integral(rng):
    """A random rational whose denominator is greater than 1."""
    while True:
        x = rand_fraction(rng)
        if x.denominator > 1:
            return x


def rand_shifting_element(rng, n):
    """A random g(c, a, b) with non-integral c, so every binomial term of the
    shift by c has a denominator."""
    return GroupElement(n, rand_non_integral(rng), tuple(rand_fraction(rng) for _ in range(n)),
                        rand_fraction(rng))


# -- matrix-series oracles ---------------------------------------------------------

def algebra_to_matrix(x):
    """Matrix realization of an algebra element, per the tangent identification."""
    n = x.n
    size = n + 2
    rows = [[F(0)] * size for _ in range(size)]
    for i in range(1, n + 1):
        rows[0][i] = x.coeffs[n + 1 - i]
    rows[0][size - 1] = x.coeffs[size - 1]
    rows[1][size - 1] = -x.coeffs[0]
    for k in range(2, n + 1):
        rows[k][k - 1] = -k * x.coeffs[0]
    return RatMatrix(tuple(tuple(r) for r in rows))


def series_log(g):
    """log(I + N) = sum over k of (-1)^(k+1) N^k / k, which stops because N is
    nilpotent, read back into e_1..e_{n+2} coordinates."""
    n, size = g.n, g.n + 2
    nil = RatMatrix(sub(to_matrix(g).entries, identity(size)))
    total = power = nil
    for k in range(2, size):
        power = power @ nil
        total = RatMatrix(add(total.entries, scaled(power.entries, F((-1) ** (k + 1), k))))
    row0 = total.entries[0]
    x = AlgebraElement(n, (-total.entries[1][size - 1], *row0[n:0:-1], row0[size - 1]))
    assert algebra_to_matrix(x) == total, "the matrix log left the modeled algebra"
    return x


def series_exp(x):
    """exp(M) = sum over k of M^k / k!, which stops because M is nilpotent."""
    size = x.n + 2
    m = algebra_to_matrix(x)
    total = power = RatMatrix(identity(size))
    factorial = 1
    for k in range(1, size):
        power = power @ m
        factorial *= k
        total = RatMatrix(add(total.entries, scaled(power.entries, F(1, factorial))))
    return from_matrix(total)


# -- matrix realization ----------------------------------------------------------

def test_to_matrix_n1():
    m = to_matrix(g1(5, 2, 3))
    assert m.entries == ((F(1), F(2), F(3)), (F(0), F(1), F(-5)), (F(0), F(0), F(1)))


def test_to_matrix_identity():
    for n in range(1, 5):
        assert to_matrix(group_identity(n)).entries == identity(n + 2)


def test_to_matrix_n2_band_row():
    m = to_matrix(GroupElement(2, F(1), (F(0), F(0)), F(0)))
    assert m.entries[2] == (F(0), F(-2), F(1), F(1))


def test_one_parameter_closure_in_c():
    # products of pure-c elements must stay pure-c with added parameters
    rng = random.Random(3)
    for n in range(1, 7):
        zeros = (F(0),) * n
        for _ in range(10):
            c1, c2 = rand_fraction(rng), rand_fraction(rng)
            prod = gmul(GroupElement(n, c1, zeros, F(0)), GroupElement(n, c2, zeros, F(0)))
            assert prod == GroupElement(n, c1 + c2, zeros, F(0))


def test_to_matrix_matches_band_formula():
    # the band entries (-1)^(k-j) C(k, k-j) c^(k-j) and (-c)^k, built with
    # Fraction arithmetic straight from the module docstring
    rng = random.Random(5)
    for n in range(1, 11):
        for _ in range(3):
            g = rand_shifting_element(rng, n)
            size = n + 2
            rows = [[F(0)] * size for _ in range(size)]
            rows[0] = [F(1), *g.a, g.b]
            for k in range(1, n + 1):
                for j in range(1, k):
                    rows[k][j] = (-1) ** (k - j) * comb(k, k - j) * g.c ** (k - j)
                rows[k][k] = F(1)
                rows[k][size - 1] = (-g.c) ** k
            rows[size - 1][size - 1] = F(1)
            m = to_matrix(g)
            assert m.entries == tuple(map(tuple, rows))
            assert all(type(e) is Fraction for row in m.entries for e in row)


# -- group law ---------------------------------------------------------------------

def test_gmul_hand_examples():
    assert gmul(g1(0, 1, 0), g1(1, 0, 0)) == g1(1, 1, -1)
    assert gmul(g1(1, 0, 0), g1(0, 1, 0)) == g1(1, 1, 0)
    g = g1(2, 3, 4)
    assert gmul(g, group_identity(1)) == g
    assert gmul(group_identity(1), g) == g


def test_gmul_matches_matrix_product():
    # the closed-form shift law against the matrix realization, with
    # non-integral c on both sides
    rng = random.Random(7)
    for n in range(1, 11):
        for _ in range(8):
            x, y = rand_shifting_element(rng, n), rand_shifting_element(rng, n)
            assert to_matrix(gmul(x, y)) == to_matrix(x) @ to_matrix(y)


def test_gmul_associativity():
    rng = random.Random(9)
    for n in range(1, 6):
        for _ in range(10):
            x, y, z = (rand_group_element(rng, n) for _ in range(3))
            assert gmul(gmul(x, y), z) == gmul(x, gmul(y, z))


def test_centre_commutes():
    rng = random.Random(15)
    for n in range(1, 6):
        central = GroupElement(n, F(0), (F(0),) * n, rand_fraction(rng))
        for _ in range(5):
            x = rand_group_element(rng, n)
            assert gmul(central, x) == gmul(x, central)


def test_ginv_closed_form_n1():
    rng = random.Random(21)
    for _ in range(20):
        c, a, b = (rand_fraction(rng) for _ in range(3))
        inv = ginv(GroupElement(1, c, (a,), b))
        assert inv == GroupElement(1, -c, (-a,), -b - a * c)


def series_inverse(g):
    """(I + N)^(-1) = sum over k of (-N)^k, which stops because N is nilpotent."""
    size = g.n + 2
    minus_nil = RatMatrix(sub(identity(size), to_matrix(g).entries))
    total = term = RatMatrix(identity(size))
    for _ in range(1, size):
        term = term @ minus_nil
        total = RatMatrix(add(total.entries, term.entries))
    return total


def test_ginv_matches_series_oracle():
    rng = random.Random(23)
    cases = [group_identity(n) for n in (1, 4, 10)]
    cases += [rand_group_element(rng, n) for n in range(1, 11) for _ in range(6)]
    for g in cases:
        oracle = series_inverse(g)
        inv = ginv(g)
        assert to_matrix(inv) == oracle
        assert inv == from_matrix(oracle)


def test_ginv_properties():
    rng = random.Random(25)
    for n in range(1, 6):
        for _ in range(10):
            g = rand_group_element(rng, n)
            assert gmul(g, ginv(g)) == group_identity(n)
            assert ginv(ginv(g)) == g
    assert ginv(group_identity(3)) == group_identity(3)


def test_commutator_examples():
    assert commutator(g1(1, 0, 0), g1(0, 1, 0)) == g1(0, 0, 1)
    g = g1(2, -1, 3)
    assert commutator(g, g) == group_identity(1)
    assert commutator(g, group_identity(1)) == group_identity(1)


def lambda_shaped(rng, n, u):
    """g(u, (w, 0, ..., 0), b): f = b + w t has degree 1, as a left translation's."""
    return GroupElement(n, u, (rand_fraction(rng),) + (F(0),) * (n - 1), rand_fraction(rng))


def t_shaped(rng, n, x):
    """g(x, (x a_1, ..., x a_n), y): f = y + x sum_k a_k t^k, as a transversal element's."""
    return GroupElement(n, x, tuple(x * rand_fraction(rng) for _ in range(n)), rand_fraction(rng))


def test_commutator_is_the_four_product_definition():
    # X^(-1) Y^(-1) X Y from to_matrix, the series inverse and RatMatrix
    # products only, so no part of the closed-form shift law is on the
    # oracle side
    rng = random.Random(27)
    for n in range(1, 11):
        pairs = [(rand_shifting_element(rng, n), rand_shifting_element(rng, n)) for _ in range(4)]
        for u, x in ((rand_fraction(rng), rand_non_integral(rng)), (F(0), F(rng.randint(1, 9))),
                     (F(rng.randint(-9, -1)), F(0)), (F(0), F(0))):
            lam, t = lambda_shaped(rng, n, u), t_shaped(rng, n, x)
            pairs += [(lam, t), (t, lam)]
        # the degree-1 closed form of the shift on either side, and on both
        lam = lambda_shaped(rng, n, rand_non_integral(rng))
        other = rand_shifting_element(rng, n)
        pairs += [(lam, other), (other, lam), (lam, lambda_shaped(rng, n, rand_non_integral(rng)))]
        for x, y in pairs:
            k = commutator(x, y)
            assert k.c == 0
            assert to_matrix(k) == series_inverse(x) @ series_inverse(y) @ to_matrix(x) @ to_matrix(y)


def law_case(rng, n):
    """A seeded operand with zero coefficients, c = 0, integer or fractional c,
    or the shape of a left translation or a transversal element."""
    c = rng.choice((F(0), F(rng.randint(-9, 9)), rand_non_integral(rng)))
    kind = rng.randrange(4)
    if kind == 0:
        return lambda_shaped(rng, n, c)
    if kind == 1:
        return t_shaped(rng, n, c)
    a = tuple(rand_fraction(rng) if kind == 2 and rng.random() < 0.6 else F(0) for _ in range(n))
    return GroupElement(n, c, a, rng.choice((F(0), rand_fraction(rng))))


def test_law_results_are_fractions_and_the_commutator_ignores_b():
    # gmul, ginv and commutator build their results with Record._exact, without
    # the constructor's checks, so each field must come out a Fraction on its
    # own and each result must equal the checked one; b is central, so
    # changing either operand's b leaves the commutator as it is
    rng = random.Random(71)
    for n in range(1, 11):
        for _ in range(32):
            x, y = law_case(rng, n), law_case(rng, n)
            k = commutator(x, y)
            for g in (gmul(x, y), gmul(y, x), ginv(x), ginv(y), k,
                      GroupElement._exact(n, x.c, x.a, x.b)):
                assert g.n == n and len(g.a) == n
                assert all(type(v) is Fraction for v in (g.c, *g.a, g.b))
                assert_same_as_checked(g)
            x_b = GroupElement(n, x.c, x.a, x.b + rand_fraction(rng))
            y_b = GroupElement(n, y.c, y.a, rand_fraction(rng))
            assert commutator(x_b, y) == k
            assert commutator(x, y_b) == k
            assert commutator(x_b, y_b) == k


def test_in_H_examples():
    assert in_H(h_element(2, (F(1), F(2))))
    assert not in_H(g1(1, 0, 0))
    assert not in_H(commutator(g1(1, 0, 0), g1(0, 1, 0)))


def test_H_is_a_subgroup():
    rng = random.Random(33)
    for n in range(1, 5):
        for _ in range(10):
            x = h_element(n, tuple(rand_fraction(rng) for _ in range(n)))
            y = h_element(n, tuple(rand_fraction(rng) for _ in range(n)))
            assert in_H(gmul(x, y))
            assert in_H(ginv(x))


# -- decomposition -----------------------------------------------------------------

def test_decompose_examples():
    g = GroupElement(2, F(3), (F(1), F(2)), F(-4))
    s, h = decompose(g)
    assert s == GroupElement(2, F(3), (F(0), F(0)), F(-4))
    assert h == h_element(2, (F(1), F(2)))
    assert gmul(s, h) == g

    i = group_identity(2)
    assert decompose(i) == (i, i)

    hh = h_element(2, (F(5), F(7)))
    assert decompose(hh) == (group_identity(2), hh)


def test_decompose_uniqueness_by_confrontation():
    rng = random.Random(39)
    for _ in range(20):
        n = rng.randint(1, 5)
        s1 = GroupElement(n, rand_fraction(rng), (F(0),) * n, rand_fraction(rng))
        h1 = h_element(n, tuple(rand_fraction(rng) for _ in range(n)))
        s2, h2 = decompose(gmul(s1, h1))
        assert (s2, h2) == (s1, h1)


# -- logarithm and exponential --------------------------------------------------------

def test_glog_identity_is_zero():
    for n in range(1, 5):
        assert glog(group_identity(n)).is_zero


def test_glog_of_central_element():
    b = F(7, 3)
    x = glog(GroupElement(1, F(0), (F(0),), b))
    assert x == b * basis_element(1, 3)


def test_glog_matches_series_oracle():
    rng = random.Random(55)
    cases = [group_identity(n) for n in (1, 4, 10)]
    for n in range(1, 11):
        for _ in range(6):
            a = tuple(rand_fraction(rng) for _ in range(n))
            cases.append(GroupElement(n, rand_non_integral(rng), a, rand_fraction(rng)))
        big = F(rng.randint(-10**6, 10**6), rng.randint(2, 10**6))
        for c in (F(rng.randint(-9, 9)), F(0), big):
            a = tuple(rand_fraction(rng, max_den=10**4) for _ in range(n))
            cases.append(GroupElement(n, c, a, rand_fraction(rng)))
    for g in cases:
        assert glog(g) == series_log(g)


def test_bernoulli_table():
    w, rows = _log_weights(10)
    assert [F(x, w) for x in rows[0]] == [F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0),
                                          F(1, 42), F(0), F(-1, 30), F(0), F(5, 66)]
    assert all(rows[j] == tuple(x * comb(j + k, k) for k, x in enumerate(rows[0][:11 - j]))
               for j in range(11))
    assert _log_weights(3) == (6, ((6, -3, 1, 0), (6, -6, 3), (6, -9), (6,)))


def shift_difference(f, s):
    """_shift of the a-part f[1:] read as the t^0..t^n Fractions x_j q^j / V, after
    checking its integer contract: V a positive int divisible by q^j for every
    j < len(x), q the denominator of s, every x_j an int, and len(x) the degree of
    f when s is nonzero (t^(d-1) gets -d s a_d, never 0), else 0."""
    v, q, xs = _shift(f[1:], s)
    degree = max((k for k, e in enumerate(f) if e), default=0)
    assert type(v) is int and v > 0 and type(q) is int
    assert all(type(x) is int for x in xs)
    assert len(xs) == (degree if s else 0)
    if xs:
        assert q == s.denominator and xs[-1] != 0
        assert all(v % q ** j == 0 for j in range(len(xs)))
    return [F(x * q ** j, v) for j, x in enumerate(xs)] + [F(0)] * (len(f) - len(xs))


def test_shift_difference_matches_the_direct_sum():
    rng = random.Random(57)
    for n in range(0, 11):
        for s in (F(0), F(rng.randint(-9, 9)), rand_non_integral(rng),
                  F(rng.randint(-10**6, 10**6), rng.randint(2, 10**6))):
            cases = [[rand_fraction(rng) if rng.random() < 0.7 else F(0) for _ in range(n + 1)]
                     for _ in range(3)]
            cases += [[F(0)] * (n + 1), [rand_non_integral(rng)] + [F(0)] * n]
            if n >= 1:
                # degree 1 padded to n, and a random lower degree with trailing zeros
                cases.append([rand_fraction(rng), rand_non_integral(rng)] + [F(0)] * (n - 1))
                d = rng.randint(1, n)
                cases.append([rand_fraction(rng) for _ in range(d)] + [rand_non_integral(rng)]
                             + [F(0)] * (n - d))
            for f in cases:
                direct = [sum((comb(k, j) * (-s) ** (k - j) * f[k] for k in range(j + 1, n + 1)), F(0))
                          for j in range(n + 1)]
                assert shift_difference(f, s) == direct
                assert shift_difference(tuple(f), s) == direct
    # f = 2t padded to n = 10, shifted by 3: the constant -6 over V = 1, q = 1
    assert _shift([F(2)] + [F(0)] * 9, F(3)) == (1, 1, [-6])


def test_exp_log_round_trip():
    rng = random.Random(51)
    for n in range(1, 5):
        for _ in range(15):
            g = rand_group_element(rng, n)
            assert series_exp(glog(g)) == g


def test_log_exp_round_trip_on_algebra():
    rng = random.Random(53)
    for n in range(1, 5):
        for _ in range(10):
            x = basis_element(n, 1) * rand_fraction(rng)
            for i in range(2, n + 3):
                x = x + rand_fraction(rng) * basis_element(n, i)
            assert glog(series_exp(x)) == x


def test_log_of_parameter_families():
    # each parameter direction is a one-parameter subgroup, so its logarithm
    # is the bare tangent coordinate: c -> e_1, a_i -> e_{n+2-i}, b -> e_{n+2}
    rng = random.Random(57)
    for n in range(1, 6):
        c = rand_fraction(rng)
        assert glog(GroupElement(n, c, (F(0),) * n, F(0))) == c * basis_element(n, 1)
        b = rand_fraction(rng)
        assert glog(GroupElement(n, F(0), (F(0),) * n, b)) == b * basis_element(n, n + 2)
        for i in range(1, n + 1):
            a = [F(0)] * n
            a[i - 1] = rand_fraction(rng)
            got = glog(h_element(n, a))
            assert got == a[i - 1] * basis_element(n, n + 2 - i)


def test_exp_of_basis_directions():
    for n in range(1, 5):
        c = F(3, 2)
        assert series_exp(c * basis_element(n, 1)) == GroupElement(n, c, (F(0),) * n, F(0))
        assert series_exp(c * basis_element(n, n + 2)) == GroupElement(n, F(0), (F(0),) * n, c)


def test_tangent_matrices_satisfy_bracket_table():
    # matrix commutators of the tangent basis must reproduce the algebra table
    for n in range(1, 7):
        mats = [algebra_to_matrix(basis_element(n, i)) for i in range(1, n + 3)]
        for i in range(n + 2):
            for j in range(n + 2):
                lie = algebra_to_matrix(bracket(basis_element(n, i + 1), basis_element(n, j + 1)))
                assert sub((mats[i] @ mats[j]).entries, (mats[j] @ mats[i]).entries) == lie.entries


def test_group_element_keeps_fractions_and_converts_ints():
    c, a1, b = F(1, 3), F(-2, 5), F(7)
    g = GroupElement(2, c, (a1, 4), b)
    assert g.c is c and g.a[0] is a1 and g.b is b
    assert g.a[1] == F(4) and type(g.a[1]) is Fraction


@pytest.mark.parametrize("args", [
    (1, 0.1, (0,), 0),
    (1, 0, (0.5,), 0),
    (1, 0, (0,), 2.0),
    (1, True, (0,), 0),
    (1, 0, (False,), 0),
    (1, 0, (0,), True),
    # the dimension n as well: a bool would reach to_json as true, a float the
    # list sizes of the group law
    (True, 1, (2,), 3),
    (2.0, 1, (2, 3), 3),
    ("2", 1, (2, 3), 3),
])
def test_group_element_rejects_float_and_bool(args):
    with pytest.raises(TypeError):
        GroupElement(*args)


def test_group_element_json_round_trip():
    g = GroupElement(2, F(1, 2), (F(-3), F(5, 7)), F(0))
    wire = g.to_json()
    assert wire == {"n": 2, "c": "1/2", "a": ["-3", "5/7"], "b": "0"}
    parsed = GroupElement(wire["n"], Fraction(wire["c"]), tuple(map(Fraction, wire["a"])),
                          Fraction(wire["b"]))
    assert parsed == g


def test_gmul_dimension_mismatch():
    with pytest.raises(ValueError):
        gmul(group_identity(1), group_identity(2))
