"""Multiplication-group certificates for the polynomial loops.

Two independent questions are decided here.  First, for a loop spec on the
group of dimension n+2: do the right translations stay inside the group
generated by the left translations?  That holds iff companion polynomials
s_1, ..., s_n exist solving the two-variable identity

    sum_k (-1)^k x^k (s_k(u) + v_k(u)) = sum_j (-1)^j u^j v_j(x),

whose right side is the loop's twist table (:func:`fililoop.loop.twist_table`)
read by rows, so matching its rows decides the question exactly
(:func:`solve_companions`): companions exist iff no row above n is nonzero.

Second, for a loop with a single nonlinear polynomial v_1 (degree m >= 2):
the multiplication group is the filiform group of dimension m+2.  The
verification is constructive: the family of left translations embeds into
that group, the unique linear transversal connected to it is computed from
the coefficients of v_1, the commutator condition is checked on a sample
grid (a sample check, whose witness says how many pairs and distinct u
values it covered), generation is proved once the Lie algebra closure of the
grid elements' logarithms reaches dimension m+2 (a closure read off the RREF
basis of the logarithms, with no pairwise brackets), and the candidate
stabilizer subalgebra is checked to contain no nonzero ideal.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .algebra import (
    SubalgebraBasis,
    basis_element,
    core_ideal,
    inn_subalgebra,
    phi_automorphism,
    subalgebra_closure,
)
from .exact import Poly, Record, as_fraction, check_dimension
from .group import GroupElement, commutator, from_matrix, ginv, glog, gmul, in_H, to_matrix
from .loop import LoopSpec, twist_table

__all__ = [
    "Certificate",
    "CompanionSolution",
    "DEFAULT_GRID",
    "HConnectedness",
    "LeftTranslationFamily",
    "MultReport",
    "SampleGrid",
    "TransversalSpec",
    "check_h_connected",
    "generated_subalgebra_of",
    "grid_points",
    "h_connected_transversal",
    "inn_correspondence_check",
    "left_translation_elements",
    "mult_group_report",
    "solve_companions",
    "transversal_elements",
    "transversal_identity_holds",
]


# ---------------------------------------------------------------------------
# Companion polynomials (does the multiplication group collapse onto G?)
# ---------------------------------------------------------------------------


class CompanionSolution(Record):
    s: tuple[Poly, ...]

    def to_json(self) -> list:
        return [p.to_strings() for p in self.s]


def solve_companions(spec: LoopSpec) -> Optional[CompanionSolution]:
    """Companion polynomials s_1..s_n, or None when none exist.

    The identity's x^k row reads (-1)^k (s_k + v_k) = T_k for row k of the
    twist table T, which determines each s_k for k = 1..n.  The left side
    has no row above n, so a nonzero row of T above n (some v_j with a term
    of degree > n) leaves no solution.
    """
    table = twist_table(spec)
    if any(map(any, table[spec.n + 1:])):
        return None
    return CompanionSolution(tuple(Fraction((-1) ** k) * Poly(table[k]) - v_k
                                   for k, v_k in enumerate(spec.v, 1)))


# ---------------------------------------------------------------------------
# Transversals and left-translation families inside the bigger group
# ---------------------------------------------------------------------------


class TransversalSpec(Record):
    """The linear transversal T = {g(x, a_1 x, ..., a_m x, y)}."""

    m: int
    a: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        check_dimension("m", self.m)
        vals = tuple(map(as_fraction, self.a))
        if len(vals) != self.m:
            raise ValueError(f"expected {self.m} coefficients, got {len(vals)}")
        object.__setattr__(self, "a", vals)


class LeftTranslationFamily(Record):
    """Left translations of the degree-m loop, embedded in dimension m+2.

    Elements are g(u, v1(u), 0, ..., 0, -v1(u)*u/2 + z).
    """

    m: int
    v1: Poly

    def __post_init__(self) -> None:
        check_dimension("m", self.m)
        if self.m < self.v1.degree:
            raise ValueError("ambient dimension is smaller than the polynomial degree")


def h_connected_transversal(v1: Poly) -> TransversalSpec:
    """The unique linear transversal whose commutators with the left
    translations of the v1-loop land in the stabilizer subgroup.

    For v1(u) = sum_k c_k u^k of degree m the coefficients are
    a_k = (-1)^(k+1) c_k, making x*v1(u) = sum_k (-1)^(k+1) u^k (a_k x) a
    formal identity by construction; a_m is automatically nonzero.  v1 is
    validated as the spec LoopSpec(1, (v1,)): SpecError when v1(0) != 0, and
    ValueError with its first properness reason when the loop is not proper.
    """
    reasons = LoopSpec(1, (v1,)).proper_reasons
    if reasons:
        raise ValueError(reasons[0])
    m = v1.degree
    return TransversalSpec(m, tuple(Fraction((-1) ** (k + 1)) * v1.coefficient(k)
                                    for k in range(1, m + 1)))


def transversal_identity_holds(v1: Poly, trans: TransversalSpec) -> bool:
    """Formal check of x*v1(u) = sum_k (-1)^(k+1) u^k a_k x (outer x, inner u).

    Both sides are x times a polynomial in u, so by coefficient matching the
    identity holds iff v1 = sum_k (-1)^(k+1) a_k u^k.
    """
    return v1 == Poly((0, *(a if k % 2 else -a for k, a in enumerate(trans.a, 1))))


def left_translation_elements(family: LeftTranslationFamily,
                              samples: Sequence[tuple[Fraction, Fraction]]) -> list[GroupElement]:
    """Instantiate the left-translation family at (u, z) samples, evaluating v1 once per u."""
    m = family.m
    zeros = (Fraction(0),) * (m - 1)
    points = [(as_fraction(u), as_fraction(z)) for u, z in samples]
    values = {u: family.v1(u) for u in {u for u, _ in points}}
    shifts = {u: -value * u / 2 for u, value in values.items()}
    return [GroupElement._exact(m, u, (values[u], *zeros), shifts[u] + z) for u, z in points]


def transversal_elements(trans: TransversalSpec,
                         samples: Sequence[tuple[Fraction, Fraction]]) -> list[GroupElement]:
    """Instantiate the linear transversal at (x, y) samples."""
    out = []
    for x, y in samples:
        x, y = as_fraction(x), as_fraction(y)
        out.append(GroupElement._exact(trans.m, x, tuple([ak * x for ak in trans.a]), y))
    return out


class HConnectedness(Record):
    ok: bool
    witness: Optional[tuple[GroupElement, GroupElement, GroupElement]]


def check_h_connected(left: Sequence[GroupElement],
                      right: Sequence[GroupElement]) -> HConnectedness:
    """Whether every pairwise commutator lands in the stabilizer subgroup.

    Each pair costs one closed-form commutator.  The first pair's is also
    checked against (y x)^(-1) (x y) through the matrix realization, which
    tests gmul, ginv and commutator together and keeps the matrix layer on
    the thm3 path bench/tracing.py requires; a mismatch raises RuntimeError.
    On failure the witness carries the offending pair and its commutator.
    """
    for i, (x, y) in enumerate(product(left, right)):
        k = commutator(x, y)
        if i == 0 and k != from_matrix(to_matrix(ginv(gmul(y, x))) @ to_matrix(gmul(x, y))):
            raise RuntimeError("closed-form group law disagrees with the matrix realization")
        if not in_H(k):
            return HConnectedness(False, (x, y, k))
    return HConnectedness(True, None)


def generated_subalgebra_of(elements: Sequence[GroupElement]) -> SubalgebraBasis:
    """Lie algebra closure of the logarithms of the given elements.

    The group is simply connected and nilpotent, so exp maps the Lie algebra
    bijectively onto it and every connected Lie subgroup is closed and equal
    to exp of its own Lie algebra.  Hence exp of this closure is the smallest connected
    subgroup containing the elements.  When they are sampled from
    path-connected families through the identity (the left translations and
    a transversal), the group those families generate is a connected Lie
    subgroup (Yamabe 1950) containing every sample, so it contains exp of
    this closure.  The check is one-sided: a closure of full dimension n+2
    proves that the families generate the whole group, while a smaller
    closure only reports what the samples reached.
    """
    if not elements:
        raise ValueError("need at least one element")
    return subalgebra_closure([glog(g) for g in elements])


def inn_correspondence_check(a: Sequence[Fraction]) -> bool:
    """Whether the straightening automorphism carries inn_subalgebra(a) onto
    span{e_2, ..., e_{n+1}}."""
    n = len(a)
    phi = phi_automorphism(a)
    image = phi.map_span(inn_subalgebra(a))
    target = SubalgebraBasis.span(n, [basis_element(n, i) for i in range(2, n + 2)])
    return image == target


# ---------------------------------------------------------------------------
# The full certificate pipeline
# ---------------------------------------------------------------------------


class SampleGrid(Record):
    """Deterministic parameter grids for sampling group elements."""

    u_values: tuple[Fraction, ...] = tuple(Fraction(k) for k in (-2, -1, 1, 2, 3))
    z_values: tuple[Fraction, ...] = (Fraction(0), Fraction(1))


DEFAULT_GRID = SampleGrid()


def grid_points(grid: SampleGrid) -> list[tuple[Fraction, Fraction]]:
    return [(u, z) for u in grid.u_values for z in grid.z_values]


class Certificate(Record):
    name: str
    passed: bool
    witness: Optional[object] = None

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.passed, "witness": self.witness}


class MultReport(Record):
    claim: str
    certificates: tuple[Certificate, ...]
    mult_dimension: Optional[int]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.certificates)

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "certificates": [c.to_json() for c in self.certificates],
            "mult_dimension": self.mult_dimension,
        }


def mult_group_report(v1: Poly, grid: SampleGrid = DEFAULT_GRID) -> MultReport:
    """Certify the multiplication group of the loop defined by a single
    nonlinear polynomial v1.

    Runs the transversal construction, the pairwise commutator check on the
    grid (a sample check; its passing witness reports the pairs checked and
    the distinct u values), the generation check, which is proved when the
    log-closure of the grid elements reaches dimension m+2, and the
    core-triviality check of the stabilizer subalgebra.  Rejects linear or
    identity-violating v1 before any certificate runs.
    """
    trans = h_connected_transversal(v1)
    m = trans.m
    family = LeftTranslationFamily(m, v1)

    lam_elements = left_translation_elements(family, grid_points(grid))
    t_elements = transversal_elements(trans, grid_points(grid))

    certs = [Certificate("transversal-identity", transversal_identity_holds(v1, trans))]

    connect = check_h_connected(lam_elements, t_elements)
    if connect.ok:
        witness = {"sampled_pairs": len(lam_elements) * len(t_elements),
                   "distinct_u": len(set(grid.u_values))}
    else:
        x, y, k = connect.witness
        witness = {"pair": [x.to_json(), y.to_json()], "commutator": k.to_json()}
    certs.append(Certificate("h-connected", connect.ok, witness))

    closure = generated_subalgebra_of(lam_elements + t_elements)
    certs.append(Certificate("generation", closure.dimension == m + 2,
                             {"closure_dimension": closure.dimension}))

    stabilizer = SubalgebraBasis.span(m, [basis_element(m, i) for i in range(2, m + 2)])
    core = core_ideal(stabilizer)
    certs.append(Certificate("core-trivial", core.dimension == 0,
                             {"core_dimension": core.dimension}))

    certs.sort(key=lambda c: c.name)
    return MultReport(claim=f"Mult(L) isomorphic to F_{m + 2}",
                      certificates=tuple(certs),
                      mult_dimension=m + 2)
