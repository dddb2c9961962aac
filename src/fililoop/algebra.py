"""The elementary filiform Lie algebra of dimension n+2 over Q.

Basis e_1, ..., e_{n+2}; the only nonzero products of basis vectors are
[e_1, e_i] = (n+2-i) e_{i+1} for 2 <= i <= n+1, extended bilinearly and
antisymmetrically.  Besides the bracket, this module carries the span and
closure machinery for subalgebras, the normal form of non-commutative
subalgebras, the largest ideal contained in a subalgebra, the abelian
subalgebras spanned by e_{1+i} + a_i e_{n+2}, and the automorphism that
straightens those onto span{e_2, ..., e_{n+1}}.

subalgebra_closure is the one place that knows the subalgebra lattice: every
bracket-closed subspace lies in the abelian ideal A = span{e_2, ..., e_{n+2}}
or equals span{e_1 + t} + span{e_j, ..., e_{n+2}}.  Closedness,
commutativity and the normal form are read off the RREF rows with no
pairwise brackets.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Optional, Sequence

from .exact import (
    _ZERO,
    RatMatrix,
    Record,
    as_fraction,
    check_dimension,
    nullspace,
    row_space_basis,
    span_residual,
)


class NotClosedError(ValueError):
    """Raised when an operation requires a bracket-closed subspace."""


class AlgebraElement(Record):
    """Element of the algebra, as coefficients over e_1, ..., e_{n+2}.

    ``coeffs[i-1]`` is the e_i coefficient.  The constructor passes them
    through exact.as_fraction (Fraction objects kept, floats and bools raise
    TypeError); results built from checked values skip it through
    ``Record._exact``.  ``+``, ``-`` and scalar ``*`` pass zeros through.
    """

    n: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        check_dimension("n", self.n)
        coeffs = tuple(map(as_fraction, self.coeffs))
        if len(coeffs) != self.n + 2:
            raise ValueError(f"expected {self.n + 2} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        _same_n(self, other)
        return AlgebraElement._exact(self.n, tuple(a + b if a and b else a or b
                                                   for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        _same_n(self, other)
        return AlgebraElement._exact(self.n, tuple(a - b if b else a
                                                   for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> AlgebraElement:
        return AlgebraElement._exact(self.n, tuple(-c for c in self.coeffs))

    def __mul__(self, scalar: object) -> AlgebraElement:
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        f = as_fraction(scalar)
        return AlgebraElement._exact(self.n, tuple(f * c if c else c for c in self.coeffs))

    __rmul__ = __mul__

    def to_json(self) -> dict:
        return {"n": self.n, "coeffs": [str(c) for c in self.coeffs]}


def _same_n(x: AlgebraElement, y: AlgebraElement) -> None:
    if x.n != y.n:
        raise ValueError(f"dimension mismatch: n={x.n} vs n={y.n}")


def zero_element(n: int) -> AlgebraElement:
    return AlgebraElement(n, (Fraction(0),) * (n + 2))


def basis_element(n: int, i: int) -> AlgebraElement:
    """The basis vector e_i, 1 <= i <= n+2."""
    if not 1 <= i <= n + 2:
        raise ValueError(f"basis index {i} out of range 1..{n + 2}")
    return AlgebraElement(n, tuple(Fraction(int(j == i - 1)) for j in range(n + 2)))


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Lie bracket [x, y]; zero at once when neither has an e_1 component,
    because span{e_2, ..., e_{n+2}} is abelian.  A product x_1 y_i or y_1 x_i
    is formed only when both factors are nonzero."""
    _same_n(x, y)
    n = x.n
    x1, y1 = x.coeffs[0], y.coeffs[0]
    if not x1 and not y1:
        return AlgebraElement._exact(n, (_ZERO,) * (n + 2))
    out = [_ZERO] * (n + 2)
    for i in range(1, n + 1):
        xi, yi = x.coeffs[i], y.coeffs[i]
        w = x1 * yi if x1 and yi else _ZERO
        if y1 and xi:
            w = w - y1 * xi if w else -(y1 * xi)
        if w:
            out[i + 1] = (n + 1 - i) * w
    return AlgebraElement._exact(n, tuple(out))


class SubalgebraBasis(Record):
    """Subspace of the algebra held as a reduced row echelon basis.

    The constructor reduces any basis it is given, and the methods read the
    rows as RREF.  The form is canonical: equal values span equal subspaces.
    """

    n: int
    basis: tuple[AlgebraElement, ...]

    def __post_init__(self) -> None:
        if any(e.n != self.n for e in self.basis):
            raise ValueError("element dimension does not match subalgebra dimension")
        rows = row_space_basis([e.coeffs for e in self.basis]) if self.basis else ()
        object.__setattr__(self, "basis", tuple(AlgebraElement._exact(self.n, row) for row in rows))

    @classmethod
    def span(cls, n: int, elements: Iterable[AlgebraElement]) -> SubalgebraBasis:
        return cls(n, tuple(elements))

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def coord_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(e.coeffs for e in self.basis)

    def contains(self, element: AlgebraElement) -> bool:
        if element.n != self.n:
            return False
        return not any(span_residual(element.coeffs, self.coord_rows()))

    def is_bracket_closed(self) -> bool:
        """True iff the subspace is zero or equals its subalgebra_closure."""
        return not self.basis or subalgebra_closure(self.basis) == self

    def is_commutative(self) -> bool:
        """True iff no row has an e_1 component or every row after the first
        lies in span{e_{n+2}}: the RREF has at most one e_1 row, e_1 + a, and
        ad(e_1 + a) acts on A as ad e_1, whose kernel in A is span{e_{n+2}}."""
        rows = self.coord_rows()
        return not rows or not rows[0][0] or not any(any(r[:-1]) for r in rows[1:])

    def to_json(self) -> list:
        return [e.to_json() for e in self.basis]


def subalgebra_closure(generators: Sequence[AlgebraElement]) -> SubalgebraBasis:
    """Smallest bracket-closed subspace containing the generators, in closed form.

    A = span{e_2, ..., e_{n+2}} is an abelian ideal, and for x0 = e_1 + a with
    a in A, ad x0 acts on A as ad e_1, sending e_i to (n+2-i) e_{i+1} != 0.  If
    no generator has an e_1 component, their span V lies in A and is closed.
    Otherwise V has RREF rows x0 = e_1 + a, then r_1, r_2, ... in A with
    increasing pivots, e_j first.  [x0, r_1], [x0, [x0, r_1]], ... have pivots
    e_{j+1}, ..., e_{n+2}, so the closure holds T = span{e_j, ..., e_{n+2}} and
    with it every r_i; and span{x0} + T is closed, as ad x0 maps T into T and
    T is abelian.  So the closure is span{x0} + T, with no pairwise brackets.
    """
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].n
    v = SubalgebraBasis.span(n, generators)
    rows = v.coord_rows()
    if not rows or not rows[0][0]:
        return v
    j = next(i for i, x in enumerate(rows[1]) if x) if len(rows) > 1 else n + 2
    x0 = AlgebraElement._exact(n, rows[0][:j] + (_ZERO,) * (n + 2 - j))
    return SubalgebraBasis(n, (x0, *(basis_element(n, i) for i in range(j + 1, n + 3))))


class SubalgebraForm(Record):
    """Normal form of a non-commutative subalgebra.

    The subspace equals span{e_1 + offset, e_index, ..., e_{n+2}} with the
    offset supported on e_2, ..., e_{index-1}.
    """

    n: int
    index: int
    offset: AlgebraElement


def classify_subalgebra(v: SubalgebraBasis) -> Optional[SubalgebraForm]:
    """Normal form of a bracket-closed subspace; None when commutative.

    A closed, non-commutative subspace is span{x0} + span{e_index, ..., e_{n+2}}
    (subalgebra_closure), so its RREF rows are x0 = e_1 + offset and the unit
    rows of the tail: index is the pivot of the second row, and the offset is
    the first row without its e_1 entry.
    """
    if not v.is_bracket_closed():
        raise NotClosedError("subspace is not closed under the bracket")
    if v.is_commutative():
        return None
    first, second = v.coord_rows()[:2]
    index = next(i for i, x in enumerate(second, 1) if x)
    return SubalgebraForm(v.n, index, AlgebraElement._exact(v.n, (_ZERO,) + first[1:]))


def core_ideal(h: SubalgebraBasis) -> SubalgebraBasis:
    """Largest ideal of the full algebra contained in the subspace h.

    Each round keeps the x with [e_1, x] and [e_2, x] in the current subspace.
    Every ideal inside h survives, and the fixed point I is an ideal: the y
    with [y, I] inside I form a subalgebra holding e_1 and e_2, which generate
    the algebra because [e_1, e_i] = (n+2-i) e_{i+1}.
    """
    if not h.is_bracket_closed():
        raise NotClosedError("subspace is not closed under the bracket")
    n = h.n
    generators = [basis_element(n, 1), basis_element(n, 2)]
    zero = zero_element(n)
    current = h
    while current.dimension > 0:
        rows = current.coord_rows()
        d = current.dimension
        constraints: list[list[Fraction]] = []
        for g in generators:
            brackets = [bracket(g, b).coeffs for b in current.basis]
            residuals = [span_residual(v, rows) if any(v) else v for v in brackets]
            for coord in range(n + 2):
                row = [res[coord] for res in residuals]
                if any(row):
                    constraints.append(row)
        if not constraints:
            return current
        lam = nullspace(constraints, d)
        if len(lam) == d:
            return current
        kept = [sum((c * b for c, b in zip(coeffs, current.basis) if c), zero)
                for coeffs in lam]
        current = SubalgebraBasis.span(n, kept)
    return current


def inn_subalgebra(a: Sequence[Fraction]) -> SubalgebraBasis:
    """The abelian subalgebra spanned by e_{1+i} + a_i e_{n+2}, i = 1..n.

    Those rows are already RREF (row i has pivot e_{1+i}, and e_{n+2} is no
    pivot), so they are built directly and the span keeps them as they are.
    """
    n = len(a)
    if n < 1:
        raise ValueError("parameter vector must be nonempty")
    one = Fraction(1)
    return SubalgebraBasis.span(n, [
        AlgebraElement._exact(n, (_ZERO,) * i + (one,) + (_ZERO,) * (n - i) + (as_fraction(x),))
        for i, x in enumerate(a, 1)])


class LinearMap(Record):
    """Linear self-map of the algebra, acting on basis coordinates."""

    n: int
    matrix: RatMatrix

    def __post_init__(self) -> None:
        size = self.n + 2
        if (self.matrix.rows, self.matrix.cols) != (size, size):
            raise ValueError(f"matrix must be {size}x{size}")

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        if x.n != self.n:
            raise ValueError("element dimension does not match map dimension")
        return AlgebraElement._exact(self.n, self.matrix.apply(x.coeffs))

    def map_span(self, v: SubalgebraBasis) -> SubalgebraBasis:
        return SubalgebraBasis.span(self.n, [self.apply(b) for b in v.basis])


def phi_automorphism(a: Sequence[Fraction]) -> LinearMap:
    """The straightening automorphism attached to the parameter vector a.

    It fixes e_1 and e_{n+2}; for 2 <= j <= n+1 it sends e_j to

        e_j - sum_{d=1}^{n+2-j} C(n+2-j, d) a_{n+1-d} e_{j+d}.

    The binomial coefficients are forced: matching
    [e_1, phi(e_j)] = phi([e_1, e_j]) propagates each e_{n+2}-column entry
    -a_{j-1} down the diagonals, and the resulting cascade is the unique
    bracket automorphism with these last-column entries.  Its image of
    inn_subalgebra(a) is span{e_2, ..., e_{n+1}}, because the e_{n+2}
    component of phi(e_{1+i}) is exactly -a_i.
    """
    n = len(a)
    if n < 1:
        raise ValueError("parameter vector must be nonempty")
    vals = [as_fraction(x) for x in a]
    size = n + 2
    columns: list[list[Fraction]] = []
    for j in range(1, size + 1):
        col = [_ZERO] * size
        col[j - 1] = Fraction(1)
        if 2 <= j <= n + 1:
            for d in range(1, size - j + 1):
                if v := vals[n - d]:
                    col[j + d - 1] = Fraction(-comb(size - j, d) * v.numerator, v.denominator)
        columns.append(col)
    rows = tuple(tuple(columns[c][r] for c in range(size)) for r in range(size))
    return LinearMap(n, RatMatrix(rows))
