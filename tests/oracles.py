"""Reference implementations that the tests check fililoop against.

The linear algebra and the Lie bracket here work on plain tuples of
Fractions and share no code with the package.  Each oracle imports from
fililoop only the types and functions whose behaviour its tests check: the
lower central series, for one, is built with fililoop's bracket and reduced
by this module's elimination.
"""

from __future__ import annotations

from fractions import Fraction

from fililoop.algebra import AlgebraElement, SubalgebraBasis, bracket
from fililoop.exact import Poly
from fililoop.group import GroupElement, gmul
from fililoop.loop import LoopPoint, LoopSpec, rdiv

_ZERO = Fraction(0)


# -- matrices as tuples of rows ----------------------------------------------------

def identity(size: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(int(i == j)) for j in range(size)) for i in range(size))


def add(x, y) -> tuple[tuple[Fraction, ...], ...]:
    """Entrywise sum; ValueError when the shapes differ."""
    return tuple(tuple(a + b for a, b in zip(r, s, strict=True)) for r, s in zip(x, y, strict=True))


def sub(x, y) -> tuple[tuple[Fraction, ...], ...]:
    """Entrywise difference; ValueError when the shapes differ."""
    return tuple(tuple(a - b for a, b in zip(r, s, strict=True)) for r, s in zip(x, y, strict=True))


def scaled(x, factor) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(factor * e for e in row) for row in x)


def matmul(x, y) -> tuple[tuple[Fraction, ...], ...]:
    """Row-by-column product with Fraction arithmetic, entry by entry.
    The reference for exact.RatMatrix @."""
    return tuple(tuple(sum((a * b for a, b in zip(row, col, strict=True)), _ZERO)
                       for col in zip(*y))
                 for row in x)


def fraction_matvec(rows, vector) -> tuple[Fraction, ...]:
    """Matrix-vector product as plain Fraction dot products over every column.
    The reference for exact.RatMatrix.apply."""
    return tuple(sum((Fraction(e) * Fraction(v) for e, v in zip(row, vector)), _ZERO)
                 for row in rows)


def fraction_rref(mat: list[list[Fraction]]) -> list[int]:
    """Gauss-Jordan elimination with Fraction arithmetic, row by row, in place;
    returns the pivot columns.  The reference for exact.row_space_basis and
    its elimination routine."""
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


def rank(rows) -> int:
    return len(fraction_rref([list(row) for row in rows]))


# -- the filiform Lie algebra ------------------------------------------------------

def table_bracket(n: int, x, y) -> tuple[Fraction, ...]:
    """[x, y] for coefficient tuples over e_1..e_{n+2}, from the structure
    constants [e_1, e_i] = (n+2-i) e_{i+1}, 2 <= i <= n+1, alone."""
    out = [_ZERO] * (n + 2)
    for i in range(2, n + 2):
        out[i] = (n + 2 - i) * (x[0] * y[i - 1] - y[0] * x[i - 1])
    return tuple(out)


class Span(tuple):
    """The rows of a reduced row echelon basis; its dimension is their number."""

    dimension = property(len)


def span(rows) -> Span:
    mat = [list(row) for row in rows]
    return Span(tuple(row) for row in mat[:len(fraction_rref(mat))])


def full_algebra(n: int) -> SubalgebraBasis:
    return SubalgebraBasis(n, tuple(AlgebraElement(n, row) for row in identity(n + 2)))


def lower_central_series(n: int) -> list[Span]:
    """The descending series g, [g, g], [g, [g, g]], ... down to zero, each
    term spanned by the brackets fililoop.algebra.bracket gives."""
    g = [AlgebraElement(n, row) for row in identity(n + 2)]
    series = [span(x.coeffs for x in g)]
    while series[-1]:
        series.append(span([bracket(x, AlgebraElement(n, y)).coeffs
                            for x in g for y in series[-1]]))
    return series


def is_bracket_automorphism(m) -> bool:
    """True iff the matrix of the linear map m is invertible and carries the
    bracket of every two basis vectors to the bracket of their images."""
    rows = m.matrix.entries
    size = len(rows)
    if rank(rows) != size:
        return False
    n, e, images = size - 2, identity(size), tuple(zip(*rows))
    return all(fraction_matvec(rows, table_bracket(n, e[i], e[j]))
               == table_bracket(n, images[i], images[j])
               for i in range(size) for j in range(i + 1, size))


# -- the group, the loop and its section -------------------------------------------

def group_identity(n: int) -> GroupElement:
    """The identity g(0, 0, ..., 0, 0) of the group of dimension n + 2."""
    return GroupElement(n, _ZERO, (_ZERO,) * n, _ZERO)


def decompose(g: GroupElement) -> tuple[GroupElement, GroupElement]:
    """The factorization g = slice * h with slice = g(c, 0, b) and h = g(0, a, 0) in H."""
    return (GroupElement(g.n, g.c, (_ZERO,) * g.n, g.b),
            GroupElement(g.n, _ZERO, g.a, _ZERO))


def coset_representative(n: int, p: LoopPoint) -> GroupElement:
    """The group element g(u, 0, ..., 0, z) representing the coset of p."""
    return GroupElement(n, p.u, (_ZERO,) * n, p.z)


def left_translation(spec: LoopSpec, a: LoopPoint) -> GroupElement:
    """The section image g(u, v_1(u), ..., v_n(u), z) of a, each v_k(u) summed
    from its coefficients.  Multiplied onto a coset representative and
    decomposed, it gives lmul: the coset-action oracle."""
    values = tuple(sum((c * a.u ** k for k, c in enumerate(p.coeffs)), _ZERO) for p in spec.v)
    return GroupElement(spec.n, a.u, values, a.z)


def section_solve(spec: LoopSpec, source: LoopPoint,
                  target: LoopPoint) -> tuple[LoopPoint, tuple[Fraction, ...]]:
    """The point (u, z) with sigma(u, z) * rep(source) = rep(target) * h, and the
    parameters a of h = g(0, a, 0).  The point is rdiv(target, source), and the
    factorization in the group confirms it."""
    point = rdiv(spec, target, source)
    moved = gmul(left_translation(spec, point), coset_representative(spec.n, source))
    slice_part, h_part = decompose(moved)
    assert (slice_part.c, slice_part.b) == (target.u, target.z), "the section missed the target"
    return point, h_part.a


# -- two-variable polynomials as nested Polys --------------------------------------

def monomial(power: int) -> Poly:
    """x ** power."""
    return Poly((0,) * power + (1,))


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
        term1 = nest_outer(vk) * nest_inner(monomial(k))
        term2 = nest_outer(monomial(k)) * nest_inner(vk)
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
        left = left + sign * nest_outer(monomial(k)) * nest_inner(s[k - 1] + spec.v[k - 1])
        right = right + sign * nest_inner(monomial(k)) * nest_outer(spec.v[k - 1])
    return left - right
