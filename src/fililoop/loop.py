"""Two-dimensional loops constructed from polynomial data.

A loop is specified by n polynomials v_1, ..., v_n with v_i(0) = 0.  Points
are pairs (u, z) multiplied by

    (u1, z1) * (u2, z2) = (u1 + u2, z1 + z2 + sum_k (-1)^k u2^k v_k(u1)),

which is the coset multiplication induced on G/H by the section sending
(u, z) to g(u, v_1(u), ..., v_n(u), z) in the filiform group.  The spec is
proper (the loop is not a group) iff every v_i is nonconstant and v_n is
nonlinear.  Divisions are closed-form because the z-component above is
affine in z1 and z2.  Products and divisions sum the twist as one integer
over one denominator and build one Fraction per result z.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .exact import Poly, RatMatrix, Record, as_fraction, rational_from_str

__all__ = [
    "CommMatrix",
    "LoopPoint",
    "LoopSpec",
    "SpecError",
    "comm_defect",
    "ldiv",
    "lmul",
    "rdiv",
    "spec_from_comm_matrix",
    "twist_table",
]


class SpecError(ValueError):
    """Loop specification violates a structural requirement.

    Messages name the offending field path: 'n', 'v', 'v[i]' or 'v[i][j]'.
    """


class LoopSpec(Record):
    """n polynomials v_1..v_n with v_i(0) = 0, defining the multiplication.

    This class is the one place that knows what a valid spec is: n is an int
    >= 1 (never a bool), v holds exactly n polynomials with Fraction
    coefficients, and each satisfies the identity condition.  The properness flag and its reasons are
    computed once here; they are attributes, not fields, so they take no
    part in the constructor, equality or repr.
    """

    n: int
    v: tuple[Poly, ...]

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise SpecError(f"field 'n' must be a positive integer, got {self.n!r}")
        polys = tuple(self.v)
        if len(polys) != self.n:
            raise SpecError(f"field 'v' must hold {self.n} polynomials, got {len(polys)}")
        reasons: list[str] = []
        for idx, p in enumerate(polys, start=1):
            if not isinstance(p, Poly):
                raise SpecError(f"field 'v[{idx - 1}]' is not a polynomial")
            for j, c in enumerate(p.coeffs):
                if not isinstance(c, Fraction):
                    raise SpecError(f"field 'v[{idx - 1}][{j}]' is not a rational")
            if p.coefficient(0) != 0:
                raise SpecError(f"field 'v[{idx - 1}]': v{idx}(0) = {p.coefficient(0)}, "
                                "loop identity requires 0")
            if p.degree < 1:
                reasons.append(f"v{idx} must be non-constant")
            elif idx == self.n and p.degree == 1:
                reasons.append(f"v{idx} must be non-linear")
        object.__setattr__(self, "v", polys)
        object.__setattr__(self, "proper_reasons", tuple(reasons))

    @property
    def proper(self) -> bool:
        return not self.proper_reasons

    def to_json(self) -> dict:
        return {"n": self.n, "v": [p.to_strings() for p in self.v]}

    @classmethod
    def from_json(cls, data: object) -> LoopSpec:
        """Parse the wire form {"n": int, "v": [[coefficient strings], ...]}.

        The only spec parser: malformed data raises SpecError with a field
        path, and unknown top-level keys are ignored.
        """
        if not isinstance(data, dict):
            raise SpecError("top level must be an object")
        v = data.get("v")
        if not isinstance(v, list):
            raise SpecError("field 'v' must be a list of coefficient lists")
        polys = []
        for i, item in enumerate(v):
            if not isinstance(item, list):
                raise SpecError(f"field 'v[{i}]' must be a list of rational strings")
            coeffs = []
            for j, s in enumerate(item):
                try:
                    coeffs.append(rational_from_str(s))
                except ValueError as exc:
                    raise SpecError(f"field 'v[{i}][{j}]': {exc}") from None
            polys.append(Poly(coeffs))
        return cls(data.get("n"), tuple(polys))


class LoopPoint(Record):
    """A point (u, z); both go through exact.as_fraction, so floats and bools
    raise TypeError."""

    u: Fraction
    z: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", as_fraction(self.u))
        object.__setattr__(self, "z", as_fraction(self.z))

    def to_json(self) -> dict:
        return {"u": str(self.u), "z": str(self.z)}


def _twist(spec: LoopSpec, u1: Fraction, u2: Fraction) -> tuple[int, int]:
    """sum_k (-1)^k u2^k v_k(u1) as N / D.  The values v_k(u1) come from Poly.__call__;
    with u2 = r/s and d the lcm of their denominators, N = sum_k d v_k(u1) (-r)^k s^(n-k),
    one Horner scheme in -r over integers, and D = d s^n > 0."""
    values = [p(u1) for p in spec.v]
    d = lcm(*[v.denominator for v in values])
    r, s = -u2.numerator, u2.denominator
    total, s_power = 0, 1
    for v in reversed(values):
        total = (total + v.numerator * (d // v.denominator) * s_power) * r
        s_power *= s
    return total, d * s_power


def _z(w: Fraction, sign: int, x: Fraction, twist: tuple[int, int]) -> Fraction:
    """w + sign * (x + N / D) for twist = (N, D), as one Fraction."""
    (n, d), q, t = twist, w.denominator, x.denominator
    return Fraction(w.numerator * t * d + sign * (x.numerator * q * d + n * q * t), q * t * d)


def lmul(spec: LoopSpec, a: LoopPoint, b: LoopPoint) -> LoopPoint:
    """Loop product a * b."""
    return LoopPoint._exact(a.u + b.u, _z(b.z, 1, a.z, _twist(spec, a.u, b.u)))


def ldiv(spec: LoopSpec, a: LoopPoint, b: LoopPoint) -> LoopPoint:
    """The unique y with a * y = b."""
    u = b.u - a.u
    return LoopPoint._exact(u, _z(b.z, -1, a.z, _twist(spec, a.u, u)))


def rdiv(spec: LoopSpec, b: LoopPoint, a: LoopPoint) -> LoopPoint:
    """The unique x with x * a = b."""
    u = b.u - a.u
    return LoopPoint._exact(u, _z(b.z, -1, a.z, _twist(spec, u, a.u)))


class CommMatrix(Record):
    """Coefficient matrix A with v_i(x) = sum_j A[i][j] x^j."""

    n: int
    a: RatMatrix

    def __post_init__(self) -> None:
        if (self.a.rows, self.a.cols) != (self.n, self.n):
            raise ValueError(f"matrix must be {self.n}x{self.n}")

    @property
    def signed_symmetric(self) -> bool:
        """True iff a_ij = (-1)^(i+j) a_ji for all i, j."""
        e = self.a.entries
        return all(e[i][j] == (-e[j][i] if (i + j) % 2 else e[j][i])
                   for i in range(self.n) for j in range(i + 1, self.n))


def spec_from_comm_matrix(cm: CommMatrix) -> LoopSpec:
    """Build the loop spec v_i(x) = sum_j a_ij x^j from a signed-symmetric A.

    Signed symmetry makes the resulting loop commutative (comm_defect is the
    zero polynomial); matrices without it are rejected.
    """
    if not cm.signed_symmetric:
        raise ValueError("matrix is not signed-symmetric (a_ij = (-1)^(i+j) a_ji)")
    polys = tuple(Poly((Fraction(0),) + row) for row in cm.a.entries)
    return LoopSpec(cm.n, polys)


def twist_table(spec: LoopSpec) -> tuple[tuple[Fraction, ...], ...]:
    """Coefficients of the z-twist sum_k (-1)^k u2^k v_k(u1) as a square table.

    T[i][j] is the coefficient of u1^i u2^j, that is (-1)^j [v_j]_i for
    1 <= j <= n and 0 otherwise; the side is max(n, deg v_1..v_n) + 1, so a
    row above n is nonzero exactly when some v_j has a term of degree > n.
    """
    n = spec.n
    side = max(n, *(p.degree for p in spec.v)) + 1
    zero = Fraction(0)
    return tuple(tuple((-c if j % 2 else c) if 1 <= j <= n and (c := spec.v[j - 1].coefficient(i))
                       else zero for j in range(side))
                 for i in range(side))


def comm_defect(spec: LoopSpec) -> Poly:
    """The formal difference of the z-components of a*b and b*a.

    Returned as a polynomial in the first argument's u whose coefficients
    are polynomials in the second argument's u: the u1^i u2^j coefficient is
    T[i][j] - T[j][i] for the twist table T.  The loop is commutative iff
    the result is the zero polynomial.
    """
    t = twist_table(spec)
    return Poly(Poly((a - b if a else -b) if b else a for a, b in zip(row, column))
                for row, column in zip(t, zip(*t)))
