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
diagram the genus reported here is the sum over components, while chi
stays the honest Euler characteristic of the disjoint surface (the
quantity the bracket span bound wants).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diagram import Diagram, crossing_components, port_cycles

__all__ = [
    "Atom",
    "GenusValue",
    "build_atom",
    "orientable",
    "genus",
]


@dataclass(frozen=True)
class Atom:
    """Cell counts of the atom of a diagram.

    a / b count the white (all-A) / black (all-B) cells, free loops
    included.  component_chis / component_orientable describe the
    connected components of the diagram (crossing components first, in
    order of least crossing, then one sphere per free loop).
    """

    n: int
    a: int
    b: int
    component_chis: tuple[int, ...]
    component_orientable: tuple[bool, ...]

    @property
    def chi(self) -> int:
        return self.a + self.b - self.n


@dataclass(frozen=True)
class GenusValue:
    """Genus of the atom, kept as twice the genus to stay integral.

    Non-orientable components may contribute half-integer genus (odd
    twice_genus); orientable atoms always have even twice_genus.
    """

    twice_genus: int
    orientable: bool

    @property
    def value(self) -> Fraction:
        return Fraction(self.twice_genus, 2)

    def __str__(self) -> str:
        return str(self.value)


def build_atom(d: Diagram) -> Atom:
    """Count the cells and classify each diagram component's surface."""
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
    loops = d.free_loops
    return Atom(
        n=d.n,
        a=len(white) + loops,
        b=len(black) + loops,
        component_chis=tuple(chi) + (2,) * loops,
        component_orientable=tuple(k not in flat for k in range(count)) + (True,) * loops,
    )


def orientable(a: Atom) -> bool:
    return all(a.component_orientable)


def genus(a: Atom) -> GenusValue:
    """Total genus, summed over components as twice_genus = sum(2 - chi_i)."""
    for chi in a.component_chis:
        if chi > 2:
            raise AssertionError(f"component chi {chi} exceeds 2")
    twice = sum(2 - chi for chi in a.component_chis)
    return GenusValue(twice, orientable(a))
