"""The simply connected filiform group as exact unipotent matrices.

An element g(c, a_1, ..., a_n, b) is the (n+2) x (n+2) matrix whose row 0 is
(1, a_1, ..., a_n, b), whose row k for 1 <= k <= n has 1 on the diagonal,
band entries (-1)^(k-j) C(k, k-j) c^(k-j) in column j for 1 <= j < k and
(-c)^k in the last column, and whose bottom row is (0, ..., 0, 1).  The rows
1..n+1 restricted to columns 1..n+1 form the substitution matrix
p(t) -> p(t - c) on the basis (t, t^2, ..., t^n, 1), which is why the c
parameter adds under multiplication; test_group checks this one-parameter
closure for n <= 6 before anything else relies on the band formula.

Tangent coordinates: differentiating the one-parameter families through the
identity gives matrices C (the c direction), A_i (the a_i directions) and B
(the b direction) satisfying [C, A_1] = B and [C, A_i] = i A_{i-1}.
Matching against the abstract table [e_1, e_i] = (n+2-i) e_{i+1} forces the
identification

    e_1 = C,   e_{1+j} = A_{n+1-j} for j = 1..n,   e_{n+2} = B,

with no scaling factors.  This is the single place where group coordinates
and algebra coordinates are tied together; glog and gexp below convert
through it, and the test suite verifies the tangent brackets against the
algebra's structure table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .algebra import AlgebraElement
from .exact import RatMatrix, rational_from_str


class PatternMatchError(RuntimeError):
    """A product or series left the parametric matrix family.

    This cannot happen for well-formed inputs; it signals an implementation
    bug in the matrix layout.
    """


@dataclass(frozen=True)
class GroupElement:
    """Group element g(c, a_1, ..., a_n, b)."""

    n: int
    c: Fraction
    a: tuple[Fraction, ...]
    b: Fraction

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        a = tuple(Fraction(x) for x in self.a)
        if len(a) != self.n:
            raise ValueError(f"expected {self.n} middle parameters, got {len(a)}")
        object.__setattr__(self, "c", Fraction(self.c))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", Fraction(self.b))

    @classmethod
    def identity(cls, n: int) -> GroupElement:
        return cls(n, Fraction(0), (Fraction(0),) * n, Fraction(0))

    def to_json(self) -> dict:
        return {"n": self.n, "c": str(self.c), "a": [str(x) for x in self.a], "b": str(self.b)}

    @classmethod
    def from_json(cls, data: dict) -> GroupElement:
        return cls(int(data["n"]), rational_from_str(data["c"]),
                   tuple(rational_from_str(s) for s in data["a"]),
                   rational_from_str(data["b"]))


def h_element(n: int, a: Sequence[Fraction]) -> GroupElement:
    """Element of the stabilizer subgroup H = {g(0, a_1, ..., a_n, 0)}."""
    return GroupElement(n, Fraction(0), tuple(Fraction(x) for x in a), Fraction(0))


def in_H(g: GroupElement) -> bool:
    """True iff g lies in the stabilizer subgroup (c = 0 and b = 0)."""
    return not g.c and not g.b


def _same_n(x: GroupElement, y: GroupElement) -> None:
    if x.n != y.n:
        raise ValueError(f"dimension mismatch: n={x.n} vs n={y.n}")


def to_matrix(g: GroupElement) -> RatMatrix:
    """The unipotent matrix realization of g."""
    n = g.n
    size = n + 2
    neg_c = [(-g.c) ** k for k in range(n + 1)]
    rows = [[Fraction(0)] * size for _ in range(size)]
    rows[0][0] = Fraction(1)
    for i, ai in enumerate(g.a, start=1):
        rows[0][i] = ai
    rows[0][size - 1] = g.b
    for k in range(1, n + 1):
        rows[k][k] = Fraction(1)
        for j in range(1, k):
            rows[k][j] = comb(k, k - j) * neg_c[k - j]
        rows[k][size - 1] = neg_c[k]
    rows[size - 1][size - 1] = Fraction(1)
    return RatMatrix(tuple(tuple(r) for r in rows))


def from_matrix(m: RatMatrix) -> GroupElement:
    """Pattern-match a matrix back onto the parametric family.

    Raises PatternMatchError when the matrix does not have the exact shape
    of some g(c, a, b); matching doubles as a closure check for products.
    """
    size = m.rows
    if m.cols != size or size < 3:
        raise PatternMatchError(f"matrix shape {m.rows}x{m.cols} is not in the family")
    n = size - 2
    c = -m.entries[1][size - 1]
    a = m.entries[0][1:size - 1]
    b = m.entries[0][size - 1]
    candidate = GroupElement(n, c, a, b)
    if to_matrix(candidate) != m:
        raise PatternMatchError("matrix does not match the parametric family")
    return candidate


def gmul(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Group product, computed as a matrix product plus pattern match."""
    _same_n(g1, g2)
    return from_matrix(to_matrix(g1) @ to_matrix(g2))


def ginv(g: GroupElement) -> GroupElement:
    """Group inverse, read off row 0 of g g' = 1 (a indexed from 1).

        c' = -c,
        a'_j = -(sum over k >= j of C(k, k-j) c^(k-j) a_k),
        b' = -(b + sum over k >= 1 of a_k c^k).
    """
    n, a = g.n, g.a
    c_pow = [g.c ** k for k in range(n + 1)]
    inv_a = tuple(-sum(comb(k, k - j) * c_pow[k - j] * a[k - 1] for k in range(j, n + 1))
                  for j in range(1, n + 1))
    b = -sum((ak * c_pow[k] for k, ak in enumerate(a, start=1)), g.b)
    return GroupElement(n, -g.c, inv_a, b)


def commutator(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """g1^(-1) g2^(-1) g1 g2."""
    _same_n(g1, g2)
    return gmul(gmul(ginv(g1), ginv(g2)), gmul(g1, g2))


def decompose(g: GroupElement) -> tuple[GroupElement, GroupElement]:
    """Unique factorization g = slice * h with slice = g(c, 0, b), h in H."""
    n = g.n
    zeros = (Fraction(0),) * n
    slice_part = GroupElement(n, g.c, zeros, g.b)
    h_part = GroupElement(n, Fraction(0), g.a, Fraction(0))
    if gmul(slice_part, h_part) != g:
        raise PatternMatchError("decomposition failed to reproduce the element")
    return slice_part, h_part


# ---------------------------------------------------------------------------
# Logarithm and exponential between the group and its Lie algebra
# ---------------------------------------------------------------------------


class CoordinateError(RuntimeError):
    """A matrix logarithm left the modeled Lie algebra (must never occur)."""


def algebra_to_matrix(x: AlgebraElement) -> RatMatrix:
    """Matrix realization of an algebra element, per the tangent identification."""
    n = x.n
    size = n + 2
    c = x.coeffs[0]
    b = x.coeffs[size - 1]
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(1, n + 1):
        rows[0][i] = x.coeffs[n + 1 - i]
    rows[0][size - 1] = b
    rows[1][size - 1] = -c
    for k in range(2, n + 1):
        rows[k][k - 1] = Fraction(-k) * c
    return RatMatrix(tuple(tuple(r) for r in rows))


def matrix_to_algebra(m: RatMatrix, n: int) -> AlgebraElement:
    size = n + 2
    c = -m.entries[1][size - 1]
    a = m.entries[0][1:size - 1]
    b = m.entries[0][size - 1]
    coeffs = (c,) + tuple(a[n - j] for j in range(1, n + 1)) + (b,)
    candidate = AlgebraElement(n, coeffs)
    if algebra_to_matrix(candidate) != m:
        raise CoordinateError("matrix is not in the modeled Lie algebra")
    return candidate


def glog(g: GroupElement) -> AlgebraElement:
    """Matrix logarithm of g, expressed in e_1, ..., e_{n+2} coordinates."""
    size = g.n + 2
    nil = to_matrix(g) - RatMatrix.identity(size)
    total = RatMatrix.zero(size, size)
    power = nil
    k = 1
    while not power.is_zero:
        total = total + power.scaled(Fraction((-1) ** (k + 1), k))
        power = power @ nil
        k += 1
    return matrix_to_algebra(total, g.n)


def gexp(x: AlgebraElement) -> GroupElement:
    """Matrix exponential of an algebra element, back in the group."""
    size = x.n + 2
    m = algebra_to_matrix(x)
    total = RatMatrix.identity(size)
    power = RatMatrix.identity(size)
    factorial = 1
    for k in range(1, size):
        power = power @ m
        if power.is_zero:
            break
        factorial *= k
        total = total + power.scaled(Fraction(1, factorial))
    return from_matrix(total)
