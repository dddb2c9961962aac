"""Shared random generators (all deterministic seeds) and the comparison of
unchecked records with checked ones for the test suite; the reference
implementations are in oracles.py."""

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


def _types(value):
    return tuple(map(_types, value)) if isinstance(value, tuple) else type(value)


def assert_same_as_checked(record) -> None:
    """A record built without its constructor's checks (Record._exact) equals
    the one the checked constructor builds from its fields, with the same
    record type, the same field types and the same hash."""
    checked = type(record)(*record._values())
    assert type(checked) is type(record), record
    assert _types(checked._values()) == _types(record._values()), record
    assert checked == record and hash(checked) == hash(record), record
