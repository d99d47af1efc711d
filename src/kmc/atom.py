"""The atom of a diagram: cell counts, Euler characteristic, genus.

The atom is the closed surface built on a diagram's 4-valent graph by
attaching a disc along every circle of the all-A state (the white cells)
and along every circle of the all-B state (the black cells).  Crossings
are the vertices and arcs the edges, so

    chi = n - 2n + (a + b) = a + b - n.

Every arc lies on exactly one white and one black boundary walk; the
surface is orientable iff the cells can be oriented so that those two
walks run through each shared edge in opposite directions.  Direct each
arc as its white walk runs it.  A white walk enters a crossing by one
port of an A pair, (0,1) or (2,3), and leaves by the other; the black
walk, running each arc the other way, does the same for a B pair, (1,2)
or (3,0).  So ports 0 and 2 are both heads or both tails and ports 1 and
3 the opposite: two opposite edges point in and two out (a source-sink
orientation).  Give crossing c a bit x_c, carried by ports 0 and 2 while
ports 1 and 3 carry its complement; an arc (p, q) joins a head to a tail,
so x_c(p) + x_c(q) = 1 + p + q (mod 2).  Conversely such a 2-colouring
directs every cell's walk consistently.  ``diagram.crossing_components``
solves it per component in the search that numbers the components, so
the cells are only counted, by one directionless walk of each of the
all-A and all-B states (``diagram.port_cycles`` with turn 1 and 3).  A
component with no crossings (a free loop) is a sphere: one white and
one black cell, chi = 2.

A connected diagram has twice_genus = 2 - chi.  For a disconnected
diagram ``build_atom`` sums 2 - chi_i over the components (a free loop
adds 0) and the atom is orientable iff every component is, while chi
stays the honest Euler characteristic of the disjoint surface (the
quantity the bracket span bound wants).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diagram import Diagram, crossing_components, port_cycles

__all__ = [
    "Atom",
    "build_atom",
    "orientable",
]


@dataclass(frozen=True)
class Atom:
    """The atom of a diagram: n crossings, a white (all-A) and b black
    (all-B) cells, free loops included, and the genus summed over the
    components, kept as twice the genus to stay integral.  A
    non-orientable component may add a half-integer genus (odd
    twice_genus); an orientable atom always has even twice_genus.
    """

    n: int
    a: int
    b: int
    twice_genus: int
    orientable: bool

    @property
    def chi(self) -> int:
        return self.a + self.b - self.n

    @property
    def genus(self) -> Fraction:
        return Fraction(self.twice_genus, 2)


def build_atom(d: Diagram) -> Atom:
    """Count the cells and sum the genus over the diagram's components."""
    comp, count, flat = crossing_components(d)
    # one crossing on each white (all-A) and black (all-B) cell
    white = [cycle[0] >> 2 for cycle in port_cycles(d, 1)]
    black = [cycle[0] >> 2 for cycle in port_cycles(d, 3)]
    # chi of a component: its white and black cells minus its crossings
    chi = [0] * count
    for c in white + black:
        chi[comp[c]] += 1
    for k in comp:
        chi[k] -= 1
    for chi_k in chi:
        if chi_k > 2:
            raise AssertionError(f"component chi {chi_k} exceeds 2")
    loops = d.free_loops
    return Atom(d.n, len(white) + loops, len(black) + loops, 2 * count - sum(chi), not flat)


# kept for the benchmark, as statesum.circles_of_state is:
# perfbench/record.py reads it
def orientable(a: Atom) -> bool:
    return a.orientable
