"""The simply connected filiform group G_n = R x| P_{<=n} in closed form.

An element g(c, a_1, ..., a_n, b) is the pair (c, f) with
f(t) = b + sum_k a_k t^k.  The group law is the shift law of the model
filiform group (Vergne 1970):

    (c1, f1)(c2, f2) = (c1 + c2, f1(t - c2) + f2(t)),

so g^(-1) = (-c, -f(t + c)) and the commutator g1^(-1) g2^(-1) g1 g2 is

    (0, f1(t - c2) - f1(t) - f2(t - c1) + f2(t)).

gmul, ginv and commutator compute these through one helper, an integer
Taylor shift of a alone (b cancels in f(t - s) - f(t)) bounded by deg f, in
closed form at degree 1.  It gives the difference as one integer scale, the
denominator of s and integer numerators, and each caller builds one Fraction
per coefficient that the shift moves, with no second pass over its fields.

to_matrix is the unipotent (n+2) x (n+2) realization: row 0 is
(1, a_1, ..., a_n, b), row k for 1 <= k <= n has 1 on the diagonal, band
entries (-1)^(k-j) C(k, k-j) c^(k-j) in column j for 1 <= j < k and (-c)^k
in the last column, and the bottom row is (0, ..., 0, 1).  Rows 1..n+1
restricted to columns 1..n+1 form the substitution matrix p(t) -> p(t - c)
on the basis (t, t^2, ..., t^n, 1).  It and from_matrix are the reference
the shift law is checked against: by acceptance criterion 1, by the test
oracles, and once per check_h_connected call.

Tangent coordinates: differentiating the one-parameter families through the
identity gives matrices C (the c direction), A_i (the a_i directions) and B
(the b direction) satisfying [C, A_1] = B and [C, A_i] = i A_{i-1}.
Matching against the abstract table [e_1, e_i] = (n+2-i) e_{i+1} forces the
identification

    e_1 = C,   e_{1+j} = A_{n+1-j} for j = 1..n,   e_{n+2} = B,

with no scaling factors.  This is the single place where group coordinates
and algebra coordinates are tied together; the test suite verifies the
tangent brackets against the algebra's structure table.

The logarithm is in closed form, with no matrices.  Write an algebra element
as (c, phi) with phi(t) = sum_k phi_k t^k, phi_k its A_k coordinate and
phi_0 its B coordinate.  Then exp(c, phi) = (c, ((e^x - 1) / x) phi) with
x = -c D, D = d/dt, a finite series because D is nilpotent on polynomials of
degree <= n.  glog inverts it with the Bernoulli series x / (e^x - 1), as one
integer sum per coefficient over a cached table of scaled Bernoulli numbers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import count, zip_longest
from math import comb, lcm
from operator import add, mul, neg, sub
from typing import Sequence

from .algebra import AlgebraElement
from .exact import RatMatrix, Record, _integer_scaled, as_fraction, check_dimension

_ZERO = Fraction(0)
_ONE = Fraction(1)


class PatternMatchError(RuntimeError):
    """from_matrix was given a matrix outside the parametric family."""


class GroupElement(Record):
    """Group element g(c, a_1, ..., a_n, b).

    Parameters go through exact.as_fraction: Fraction objects are kept,
    floats and bools raise TypeError.
    """

    n: int
    c: Fraction
    a: tuple[Fraction, ...]
    b: Fraction

    def __post_init__(self) -> None:
        check_dimension("n", self.n)
        a = tuple(map(as_fraction, self.a))
        if len(a) != self.n:
            raise ValueError(f"expected {self.n} middle parameters, got {len(a)}")
        object.__setattr__(self, "c", as_fraction(self.c))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", as_fraction(self.b))

    @classmethod
    def identity(cls, n: int) -> GroupElement:
        return cls(n, _ZERO, (_ZERO,) * n, _ZERO)

    def to_json(self) -> dict:
        return {"n": self.n, "c": str(self.c), "a": [str(x) for x in self.a], "b": str(self.b)}


def in_H(g: GroupElement) -> bool:
    """True iff g lies in the stabilizer subgroup (c = 0 and b = 0)."""
    return not g.c and not g.b


def _same_n(x: GroupElement, y: GroupElement) -> None:
    if x.n != y.n:
        raise ValueError(f"dimension mismatch: n={x.n} vs n={y.n}")


def to_matrix(g: GroupElement) -> RatMatrix:
    """The unipotent matrix realization of g.

    With c = p/q in lowest terms, the band entry C(k, m) (-c)^m is built as
    the one Fraction C(k, m) (-p)^m / q^m.
    """
    n = g.n
    size = n + 2
    p_pow = [(-g.c.numerator) ** m for m in range(n + 1)]
    q_pow = [g.c.denominator ** m for m in range(n + 1)]
    rows = [[_ZERO] * size for _ in range(size)]
    rows[0] = [_ONE, *g.a, g.b]
    for k in range(1, n + 1):
        row = rows[k]
        for j in range(1, k):
            row[j] = Fraction(comb(k, k - j) * p_pow[k - j], q_pow[k - j])
        row[k] = _ONE
        row[size - 1] = Fraction(p_pow[k], q_pow[k])
    rows[size - 1][size - 1] = _ONE
    return RatMatrix(tuple(map(tuple, rows)))


def from_matrix(m: RatMatrix) -> GroupElement:
    """Pattern-match a matrix back onto the parametric family.

    Raises PatternMatchError when the matrix does not have the exact shape
    of some g(c, a, b).
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


def _shift(a: Sequence[Fraction], s: Fraction) -> tuple[int, int, list[int]]:
    """f(t - s) - f(t) for f = b + sum_k a_k t^k as (V, q, x): V > 0, q the denominator
    of s, and the t^j coefficient x_j q^j / V for j < len(x), 0 above (b cancels).

    d is the degree of f.  At d = 1 the difference is -a_1 s.  Above, an integer
    Taylor shift (von zur Gathen & Gerhard 1997): with s = p/q, F = D a integral for
    the lcm D of the denominators of a_1..a_d and H(u) = sum_{k>=1} F_k q^(d-k) u^k,
    the loop h_j -= p h_(j+1) shifts H(u) to H(u - p) = D q^d (f(t - s) - b) at
    u = q t, so V = D q^d and x_j = h_j - H_j for j < d.
    """
    d = len(a)
    while d and not a[d - 1]:
        d -= 1
    if not d or not s:
        return 1, 1, []
    p, q = s.as_integer_ratio()
    if d == 1:
        num, den = a[0].as_integer_ratio()
        return den * q, q, [-num * p]
    nums, dens = zip(*map(Fraction.as_integer_ratio, a[:d]))
    den = lcm(*dens)
    start = [0, *(num * (den // m) * q ** (d - k) for k, num, m in zip(count(1), nums, dens))]
    h = start[:]
    for i in range(d):
        acc = h[d]
        for j in range(d - 1, i - 1, -1):
            acc = h[j] = h[j] - p * acc
    return den * q ** d, q, list(map(sub, h[:d], start))


def _plus_shift(f: list[Fraction], a: Sequence[Fraction], s: Fraction) -> list[Fraction]:
    """f + (g(t - s) - g(t)) for g = sum_k a_k t^k, f as its t^0..t^n coefficients,
    one Fraction per coefficient the shift moves."""
    v, q, xs = _shift(a, s)
    for j, x in enumerate(xs):
        if x:
            num, den = f[j].as_integer_ratio()
            f[j] = Fraction(num * v + x * den, den * v)
        v //= q
    return f


def gmul(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Group product in closed form: (c1 + c2, f1 + f2 + (f1(t - c2) - f1(t)))."""
    _same_n(g1, g2)
    f = _plus_shift(list(map(add, (g1.b, *g1.a), (g2.b, *g2.a))), g1.a, g2.c)
    return GroupElement._exact(g1.n, g1.c + g2.c, tuple(f[1:]), f[0])


def ginv(g: GroupElement) -> GroupElement:
    """Group inverse in closed form: g^(-1) = (-c, -f(t + c)), f = b + sum_k a_k t^k."""
    inv = list(map(neg, _plus_shift([g.b, *g.a], g.a, -g.c)))
    return GroupElement._exact(g.n, -g.c, tuple(inv[1:]), inv[0])


def commutator(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """g1^(-1) g2^(-1) g1 g2 in closed form, one Fraction per nonzero coefficient.

    With g_i = (c_i, f_i) the shift law gives
    (0, (f1(t - c2) - f1(t)) - (f2(t - c1) - f2(t))): c is 0 and no b enters.  With
    the two differences x_j / v and y_j / w (v = V / q^j, w = W / r^j from _shift),
    t^j gets (x_j w - y_j v) / (v w), or x_j / v or -y_j / w where the other is 0.
    """
    _same_n(g1, g2)
    v, q, xs = _shift(g1.a, g2.c)
    w, r, ys = _shift(g2.a, g1.c)
    d = [_ZERO] * (g1.n + 1)
    for j, (x, y) in enumerate(zip_longest(xs, ys, fillvalue=0)):
        if x and y:
            d[j] = Fraction(num, v * w) if (num := x * w - y * v) else _ZERO
        elif x or y:
            d[j] = Fraction(x, v) if x else Fraction(-y, w)
        v //= q
        w //= r
    return GroupElement._exact(g1.n, _ZERO, tuple(d[1:]), d[0])


@cache
def _log_weights(n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(W, rows) with rows[j][k] = W B_k C(j+k, k) for j + k <= n: B_k the Bernoulli
    numbers with B_1 = -1/2, the coefficients of x / (e^x - 1), and W the lcm of
    their denominators, so rows[0] is (W B_0, ..., W B_n)."""
    b = [_ONE]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    w, wb = _integer_scaled(b)
    return w, tuple(tuple(x * comb(j + k, k) for k, x in enumerate(wb[:n - j + 1]))
                    for j in range(n + 1))


def glog(g: GroupElement) -> AlgebraElement:
    """Logarithm of g as (c, phi_n, ..., phi_1, phi_0) in e_1..e_{n+2} coordinates.

    With f(t) = b + sum_k a_k t^k, phi = (x / (e^x - 1)) f for x = -c d/dt, so
    phi_j = sum_k B_k (-c)^k C(j+k, k) f_(j+k).  With c = -p/q and F = D f
    integral, phi_j is the sum of the cached W B_k C(j+k, k) times
    p^k q^(n-k) F_(j+k), over W D q^n.
    """
    n = g.n
    w, rows = _log_weights(n)
    p, q = -g.c.numerator, g.c.denominator
    den, ints = _integer_scaled((g.b, *g.a))
    den *= w * q ** n
    pq = [p ** k * q ** (n - k) for k in range(n + 1)]
    phi = [Fraction(num, den) if (num := sum(map(mul, map(mul, rows[j], pq), ints[j:]))) else _ZERO
           for j in range(n, -1, -1)]
    return AlgebraElement._exact(n, (g.c, *phi))
