"""Exact-arithmetic loops over elementary filiform Lie groups.

Construction and mechanical verification of 2-dimensional loops defined by
polynomial data: loop axioms, properness, commutativity, and identification
of the multiplication group through transversal and generation certificates.
All arithmetic is exact over the rationals.

The top level exports the names of the README library example; everything
else is imported from its submodule (exact, algebra, group, loop, mult, cli).
"""

from .exact import Poly
from .loop import LoopPoint, LoopSpec, lmul
from .mult import mult_group_report, solve_companions

__version__ = "0.1.0"
