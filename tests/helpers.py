"""Shared random generators for the test suite (all deterministic seeds)."""

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
