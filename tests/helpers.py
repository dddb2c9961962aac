"""Shared random generators (all deterministic seeds), a Fraction
Gauss-Jordan elimination, a Fraction matrix-vector product and
nested-product oracles for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from fililoop.exact import Poly
from fililoop.algebra import AlgebraElement
from fililoop.group import GroupElement
from fililoop.loop import LoopPoint, LoopSpec


def rand_fraction(rng: random.Random, lo: int = -9, hi: int = 9, max_den: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_group_element(rng: random.Random, n: int) -> GroupElement:
    return GroupElement(n, rand_fraction(rng),
                        tuple(rand_fraction(rng) for _ in range(n)),
                        rand_fraction(rng))


def rand_algebra_element(rng: random.Random, n: int) -> AlgebraElement:
    return AlgebraElement(n, tuple(rand_fraction(rng) for _ in range(n + 2)))


def rand_point(rng: random.Random) -> LoopPoint:
    return LoopPoint(rand_fraction(rng), rand_fraction(rng))


def rand_poly(rng: random.Random, degree: int, zero_constant: bool = False) -> Poly:
    coeffs = [rand_fraction(rng, -5, 5, 5) for _ in range(degree + 1)]
    if zero_constant:
        coeffs[0] = Fraction(0)
    while not coeffs[degree]:
        coeffs[degree] = rand_fraction(rng, -5, 5, 5)
    return Poly(coeffs)


def rand_proper_spec(rng: random.Random, n: int | None = None, max_deg: int = 4) -> LoopSpec:
    """A random spec with every v_i nonconstant and v_n nonlinear."""
    if n is None:
        n = rng.randint(1, 4)
    polys = []
    for i in range(1, n + 1):
        low = 2 if i == n else 1
        polys.append(rand_poly(rng, rng.randint(low, max_deg), zero_constant=True))
    return LoopSpec(n, tuple(polys))


def rand_twist_spec(rng: random.Random, kind: str, n: int, max_deg: int = 8) -> LoopSpec:
    """A spec of the given kind for the twist-table oracles.

    'random': v_j of random degree 0..max_deg (zero polynomials included);
    'high': like 'random' with some v_j of degree above n; 'symmetric': the
    signed-symmetric a_ij = (-1)^(i+j) a_ji, so degree <= n and commutative;
    'perturbed': that matrix with one off-diagonal entry changed when n > 1.
    """
    if kind in ("random", "high"):
        degrees = [rng.randint(0, max_deg) for _ in range(n)]
        if kind == "high":
            degrees[rng.randrange(n)] = rng.randint(n + 1, max(n + 1, max_deg))
        return LoopSpec(n, tuple(rand_poly(rng, d, zero_constant=True) if d else Poly()
                                 for d in degrees))
    a = [[Fraction(0)] * n for _ in range(n)]
    for r in range(n):
        for c in range(r, n):
            a[r][c] = rand_fraction(rng, -5, 5, 5)
            a[c][r] = (-1) ** (r + c) * a[r][c]
    if kind == "perturbed" and n > 1:
        r, c = rng.sample(range(n), 2)
        a[r][c] += rng.choice((-1, 1)) * rand_fraction(rng, 1, 5, 5)
    return LoopSpec(n, tuple(Poly([0, *row]) for row in a))


def twist_specs(seed: int, count: int = 320) -> list[LoopSpec]:
    """count seeded specs cycling through the four kinds and n = 1..6."""
    rng = random.Random(seed)
    kinds = ("random", "high", "symmetric", "perturbed")
    return [rand_twist_spec(rng, kinds[i % 4], 1 + i // 4 % 6) for i in range(count)]


def fraction_rref(mat: list[list[Fraction]]) -> list[int]:
    """Gauss-Jordan elimination with Fraction arithmetic, row by row, in place;
    returns the pivot columns.  The reference for exact.row_space_basis and
    its elimination routine, sharing no code with them."""
    pivots: list[int] = []
    if not mat:
        return pivots
    n_rows, n_cols = len(mat), len(mat[0])
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [e * inv for e in mat[r]]
        for i in range(n_rows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots


def fraction_matvec(rows, vector) -> tuple[Fraction, ...]:
    """Matrix-vector product as plain Fraction dot products over every column.
    The reference for exact.RatMatrix.apply, sharing no code with it."""
    return tuple(sum((Fraction(e) * Fraction(v) for e, v in zip(row, vector)), Fraction(0))
                 for row in rows)


def nest_outer(p: Poly) -> Poly:
    """Reinterpret a scalar polynomial in the outer variable of a pair."""
    return Poly(tuple(Poly.const(c) for c in p.coeffs))


def nest_inner(p: Poly) -> Poly:
    """Embed a scalar polynomial as an inner-variable constant of a pair."""
    return Poly((p,))


def nested_comm_defect(spec: LoopSpec) -> Poly:
    """comm_defect built from nested two-variable products (outer u1, inner u2)."""
    total = Poly()
    for k in range(1, spec.n + 1):
        vk = spec.v[k - 1]
        term1 = nest_outer(vk) * nest_inner(Poly.monomial(k))
        term2 = nest_outer(Poly.monomial(k)) * nest_inner(vk)
        total = total + Fraction((-1) ** k) * (term1 - term2)
    return total


def nested_companion_residual(spec: LoopSpec, s) -> Poly:
    """Left minus right side of the companion identity
    sum_k (-1)^k x^k (s_k(u) + v_k(u)) = sum_j (-1)^j u^j v_j(x), built from
    nested two-variable products (outer x, inner u); s solves it iff the
    result is the zero polynomial."""
    left = Poly()
    right = Poly()
    for k in range(1, spec.n + 1):
        sign = Fraction((-1) ** k)
        left = left + sign * nest_outer(Poly.monomial(k)) * nest_inner(s[k - 1] + spec.v[k - 1])
        right = right + sign * nest_inner(Poly.monomial(k)) * nest_outer(spec.v[k - 1])
    return left - right
