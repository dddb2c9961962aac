"""Exact arithmetic kernel: rationals, polynomials and matrices over Q.

Every construction in this package reduces to identities between polynomials
with rational coefficients, so all arithmetic here is exact.  Rationals are
``fractions.Fraction`` values (always reduced, positive denominator,
arbitrary-precision integers underneath).  Polynomials store coefficients in
ascending power order with no trailing zeros.  A nested ``Poly``, a
polynomial in an outer variable whose coefficients are ``Poly`` values in an
inner variable, is only the return form of two-variable results; they are
computed by coefficient matching, never by multiplying nested polynomials.
Matrices are dense tuples of Fractions, and row reduction and nullspaces
are fraction-free Gaussian elimination; row_space_basis returns
rows already in reduced row echelon form as they are, without eliminating.
RatMatrix @ and RatMatrix.apply are fraction-free too, one Fraction per output
entry, and apply refuses float and bool vector entries with TypeError.

Wire formats: a rational serializes as the string ``"p/q"``, or ``"p"`` when
the denominator is 1; a polynomial serializes as a JSON array of such strings
in ascending power order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

Coeff = Union[Fraction, "Poly"]

_ZERO = Fraction(0)
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")


class Record:
    """Base of the package's frozen value classes.

    A subclass lists its fields as class annotations, in constructor order;
    a class attribute of the same name is that field's default.  The
    constructor takes the fields by position or keyword, then runs
    ``__post_init__``, which may normalise a field with
    ``object.__setattr__``.  A record equals only a record of the same type
    with equal fields, hashes over its fields, prints as
    ``Name(field=value, ...)``, and refuses assignment with AttributeError.
    ``_exact`` builds a record with no ``__post_init__``, for values the
    checks would keep as they are.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        if len(args) > len(cls._fields) or not set(kwargs) <= set(cls._fields[len(args):]):
            raise TypeError(f"{cls.__qualname__}() got too many or unexpected arguments")
        values = {**cls._defaults, **dict(zip(cls._fields, args)), **kwargs}
        missing = [f for f in cls._fields if f not in values]
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing arguments: {', '.join(missing)}")
        return tuple(values[f] for f in cls._fields)

    def __post_init__(self) -> None:
        pass

    @classmethod
    def _exact(cls, *values):
        """The record of these field values, in field order, unchecked."""
        r = object.__new__(cls)
        r.__dict__.update(zip(cls._fields, values))
        return r

    def _values(self) -> tuple:
        return tuple([self.__dict__[f] for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        items = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({items})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def rational_from_str(text: str) -> Fraction:
    """Parse the wire form ``"p"`` or ``"p/q"`` (ASCII digits, q > 0) into a
    Fraction; only ASCII whitespace around it is ignored."""
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {type(text).__name__}")
    s = text.strip(" \t\n\r\f\v")
    if not _RATIONAL_RE.fullmatch(s):
        raise ValueError(f"not a rational string (expected 'p' or 'p/q'): {text!r}")
    return Fraction(s)


def as_fraction(value: object) -> Fraction:
    """An exact rational: Fraction objects are kept as they are, float and
    bool are refused with TypeError, and anything else goes through Fraction."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise TypeError(f"cannot use {type(value).__name__} as an exact rational")
    return Fraction(value)


def check_dimension(name: str, value: object) -> None:
    """A dimension is an int >= 1: TypeError for a bool, float or other non-int."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


def _coeff(value: object) -> Coeff:
    if isinstance(value, Poly):
        return Fraction(0) if value.is_zero else value
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as a polynomial coefficient")


class Poly:
    """Univariate polynomial with exact coefficients, ascending powers.

    Coefficients are Fractions, or Poly values themselves when the object
    stands for a two-variable polynomial.  The zero polynomial has an empty
    coefficient tuple.  Instances are immutable; all operations return new
    polynomials and never round.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Coeff, ...]

    def __init__(self, coeffs: Iterable[object] = ()):
        items = [_coeff(c) for c in coeffs]
        while items and items[-1] == 0:
            items.pop()
        object.__setattr__(self, "coeffs", tuple(items))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, value: object) -> Poly:
        return cls((value,))

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, power: int) -> Coeff:
        """Coefficient of x**power (zero beyond the stored degree)."""
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def to_strings(self) -> list[str]:
        if any(isinstance(c, Poly) for c in self.coeffs):
            raise TypeError("nested polynomial has no flat string form")
        return [str(c) for c in self.coeffs]

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: object) -> Poly:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: object) -> Poly:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> Poly:
        if isinstance(other, (int, Fraction)):
            return Poly.const(other) + (-self)
        return NotImplemented

    def __mul__(self, other: object) -> Poly:
        if isinstance(other, (int, Fraction)):
            other = _coeff(other)
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        out: list[object] = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def __rmul__(self, other: object) -> Poly:
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __call__(self, point: object):
        """Horner evaluation at an int, Fraction or Poly point; float and bool raise TypeError.

        Horner starts from the leading coefficient, so a scalar point gives a
        Fraction; the zero polynomial gives Fraction(0) at any point.
        """
        if isinstance(point, (float, bool)):
            raise TypeError(f"cannot evaluate at a {type(point).__name__}")
        result = self.coeffs[-1] if self.coeffs else Fraction(0)
        for c in self.coeffs[-2::-1]:
            result = result * point + c
        return result

    # -- comparison / display ------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, bool):
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        """A constant hashes as its value, as it compares equal to it."""
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else _ZERO)
        return hash(("Poly", self.coeffs))

    def __repr__(self) -> str:
        return f"Poly([{', '.join(str(c) for c in self.coeffs)}])"


# ---------------------------------------------------------------------------
# Matrices and linear algebra over Q
# ---------------------------------------------------------------------------


class RatMatrix(Record):
    """Dense rectangular matrix of Fractions; entries go through as_fraction."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(map(as_fraction, row)) for row in self.entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must have positive dimensions")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("matrix rows must all have the same length")
        object.__setattr__(self, "entries", rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def __matmul__(self, other: RatMatrix) -> RatMatrix:
        """Fraction-free product: each row of self and each column of other
        is scaled to integers by the lcm of its denominators, so an output
        entry is one integer dot product over one denominator, reduced once."""
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        rows = [_integer_scaled(row) for row in self.entries]
        cols = [_integer_scaled(col) for col in zip(*other.entries)]
        return RatMatrix(tuple(
            tuple(Fraction(num, den_r * den_c) if (num := sum(map(mul, row, col))) else _ZERO
                  for den_c, col in cols)
            for den_r, row in rows))

    def apply(self, vector: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Fraction-free matrix-vector product.  Vector entries go through
        as_fraction (float and bool raise TypeError) and are scaled to integers
        once; each row sums its nonzero entries on the vector's support as one
        integer over their lcm denominator, one Fraction per output coordinate."""
        if len(vector) != self.cols:
            raise ValueError("vector length does not match matrix width")
        den_v, scaled = _integer_scaled([as_fraction(v) for v in vector])
        support = [(c, v) for c, v in enumerate(scaled) if v]
        out = []
        for row in self.entries:
            terms = [(e, v) for c, v in support if (e := row[c])]
            d = lcm(*(e.denominator for e, _ in terms))
            num = sum(e.numerator * (d // e.denominator) * v for e, v in terms)
            out.append(Fraction(num, d * den_v) if num else _ZERO)
        return tuple(out)


def _integer_scaled(vector: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(d, d * vector) with d the lcm of the denominators, so d * vector is integral."""
    d = lcm(*(e.denominator for e in vector))
    return d, [e.numerator * (d // e.denominator) for e in vector]


def _primitive(row: list[int]) -> list[int]:
    """The integer row divided by its content, the gcd of its entries."""
    g = gcd(*row)
    return row if g <= 1 else [e // g for e in row]


def _rref_inplace(mat: list[list[Fraction]]) -> list[int]:
    """Reduce to reduced row echelon form in place; return pivot columns.

    Fraction-free (after Bareiss 1968): each row is scaled to integers by the
    lcm of its denominators, a row is eliminated against the pivot row by
    cross-multiplication and then divided by its content, and each pivot row
    is divided by its pivot once at the end, one Fraction per entry.
    """
    pivots: list[int] = []
    if not mat:
        return pivots
    n_rows, n_cols = len(mat), len(mat[0])
    rows = [_primitive(_integer_scaled(row)[1]) for row in mat]
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        top, p = rows[r], rows[r][c]
        for i in range(n_rows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = _primitive([p * a - f * b for a, b in zip(rows[i], top)])
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    for i, c in enumerate(pivots):
        p = rows[i][c]
        mat[i] = [Fraction(e, p) if e else _ZERO for e in rows[i]]
    mat[len(pivots):] = ([_ZERO] * n_cols for _ in range(n_rows - len(pivots)))
    return pivots


def _is_rref(mat: list[list[Fraction]]) -> bool:
    """True iff the rows are RREF: every row is nonzero with pivot 1, the pivots
    strictly increase, and each row is 0 in the pivot columns right of its own."""
    pivots: list[int] = []
    for row in mat:
        p = next((c for c, e in enumerate(row) if e), None)
        if p is None or row[p] != 1 or pivots and pivots[-1] >= p:
            return False
        pivots.append(p)
    return not any(row[c] for p, row in zip(pivots, mat) for c in pivots if c > p)


def row_space_basis(vectors: Iterable[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    """Reduced row echelon basis of the span of the given vectors.

    The output is canonical: two spans are equal iff their bases are equal
    tuples.  Rows already in RREF are that basis, since the RREF of a span is
    unique, so they are returned as they are, with no elimination.
    """
    mat = [[as_fraction(e) for e in v] for v in vectors]
    widths = {len(row) for row in mat}
    if len(widths) > 1:
        raise ValueError("vectors must all have the same length")
    if _is_rref(mat):
        return tuple(map(tuple, mat))
    pivots = _rref_inplace(mat)
    return tuple(tuple(row) for row in mat[: len(pivots)])


def span_residual(vector: Sequence[Fraction],
                  basis: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...]:
    """Residual of a vector after elimination against an RREF basis; each
    row updates only the coordinates where it is nonzero."""
    res = [as_fraction(e) for e in vector]
    for row in basis:
        pivot = next(i for i, e in enumerate(row) if e)
        f = res[pivot]
        if f:
            for i in range(pivot, len(row)):
                if row[i]:
                    res[i] -= f * row[i]
    return tuple(res)


def nullspace(rows: Sequence[Sequence[Fraction]], n_cols: int) -> tuple[tuple[Fraction, ...], ...]:
    """Basis of the solution space of the homogeneous system rows * x = 0."""
    mat = [[as_fraction(e) for e in row] for row in rows]
    pivots = _rref_inplace(mat)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -mat[r][fc]
        basis.append(tuple(v))
    return tuple(basis)
