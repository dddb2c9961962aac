"""Property tests for the loop axioms on random proper specs and points."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fililoop.exact import Poly  # noqa: E402
from fililoop.group import gmul  # noqa: E402
from fililoop.loop import LoopPoint, LoopSpec, ldiv, lmul, rdiv  # noqa: E402
from oracles import coset_representative, decompose, left_translation  # noqa: E402

RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
NONZERO = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 9))
POINTS = st.builds(LoopPoint, RATIONALS, RATIONALS)


@st.composite
def proper_specs(draw) -> LoopSpec:
    """n in 1..4, every v_i nonconstant of degree <= 6, v_n nonlinear."""
    n = draw(st.integers(1, 4))
    polys = []
    for i in range(1, n + 1):
        degree = draw(st.integers(2 if i == n else 1, 6))
        coeffs = draw(st.lists(RATIONALS, min_size=degree - 1, max_size=degree - 1))
        polys.append(Poly([Fraction(0), *coeffs, draw(NONZERO)]))
    return LoopSpec(n, tuple(polys))


SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(proper_specs(), POINTS, POINTS)
def test_identity_and_division_round_trips(spec, a, b):
    e = LoopPoint(0, 0)
    assert lmul(spec, e, a) == a == lmul(spec, a, e)
    assert lmul(spec, a, ldiv(spec, a, b)) == b
    assert ldiv(spec, a, lmul(spec, a, b)) == b
    assert lmul(spec, rdiv(spec, b, a), a) == b
    assert rdiv(spec, lmul(spec, b, a), a) == b


@SETTINGS
@given(proper_specs(), POINTS, POINTS)
def test_lmul_is_the_coset_action(spec, a, b):
    moved = gmul(left_translation(spec, a), coset_representative(spec.n, b))
    slice_part, _ = decompose(moved)
    assert LoopPoint(slice_part.c, slice_part.b) == lmul(spec, a, b)
