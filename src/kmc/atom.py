"""The atom of a diagram: cell structure, Euler characteristic, genus.

The atom is the closed surface built on a diagram's 4-valent graph by
attaching a disc along every circle of the all-A state (the white cells)
and along every circle of the all-B state (the black cells).  Crossings
are the vertices and arcs the edges, so

    chi = n - 2n + (a + b) = a + b - n.

Every arc lies on exactly one white and one black boundary walk; the
surface is orientable iff the cells can be oriented so that those two
walks run through each shared edge in opposite directions, a parity
constraint solved by union-find over cells.  A component with no
crossings (a free loop) is a sphere: one white and one black cell,
chi = 2.

A connected diagram has twice_genus = 2 - chi.  For a disconnected
diagram the genus reported here is the sum over components, while chi
stays the honest Euler characteristic of the disjoint surface (the
quantity the bracket span bound wants).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .diagram import Diagram, crossing_components

__all__ = [
    "Atom",
    "GenusValue",
    "build_atom",
    "orientable",
    "genus",
]

# One walk step: (arc index, True when the arc is traversed from its
# lower-numbered port to its higher-numbered one).
WalkStep = tuple[int, bool]
Walk = tuple[WalkStep, ...]


@dataclass(frozen=True)
class Atom:
    """Cell structure of the atom of a diagram.

    white_cells / black_cells hold one boundary walk per all-A / all-B
    circle; free-loop cells sit at the end of each list as empty walks.
    component_chis / component_orientable describe the connected
    components of the diagram (crossing components first, then one
    sphere per free loop).
    """

    n: int
    white_cells: tuple[Walk, ...]
    black_cells: tuple[Walk, ...]
    component_chis: tuple[int, ...]
    component_orientable: tuple[bool, ...]

    @property
    def a(self) -> int:
        return len(self.white_cells)

    @property
    def b(self) -> int:
        return len(self.black_cells)

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
        if self.twice_genus % 2 == 0:
            return str(self.twice_genus // 2)
        return f"{self.twice_genus}/2"


def _trace_walks(d: Diagram, b_side: bool) -> list[Walk]:
    """Boundary walks of the white (all-A) or black (all-B) cells: after
    the arc into port p, the A-smoothing leaves by port p ^ 1 (pairs 0-1,
    2-3), the B-smoothing by port p ^ 3 (pairs 1-2, 3-0)."""
    step = 3 if b_side else 1
    walks: list[Walk] = []
    arc_done = [False] * len(d.arcs)
    for i, (p0, _) in enumerate(d.arcs):
        if arc_done[i]:
            continue
        walk: list[WalkStep] = []
        frm = p0
        while True:
            ai = d.arc_index[frm]
            arc_done[ai] = True
            walk.append((ai, frm == d.arcs[ai][0]))
            frm = d.partner[frm] ^ step
            if frm == p0:
                break
        walks.append(tuple(walk))
    return walks


def build_atom(d: Diagram) -> Atom:
    """Trace all cells and classify each diagram component's surface."""
    white = _trace_walks(d, b_side=False)
    black = _trace_walks(d, b_side=True)

    comp_of_crossing, n_comps = crossing_components(d)

    # cells 0..a'-1 white, a'..a'+b'-1 black (port-backed cells only);
    # cell_of_arc[0] and [1]: the white and the black cell along each arc
    cells = len(white) + len(black)
    cell_of_arc: tuple[dict[int, tuple[int, bool]], ...] = ({}, {})
    for ci, walk in enumerate(white + black):
        for ai, direction in walk:
            cell_of_arc[ci >= len(white)][ai] = (ci, direction)

    # orientability: parity union-find over cells; flipping one cell of
    # a glued pair is forced whenever both walks run the arc the same way
    parent = list(range(cells))
    parity = [0] * cells

    def find(x: int) -> tuple[int, int]:
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        p = 0
        for y in reversed(path):
            p ^= parity[y]
            parity[y] = p
            parent[y] = x
        return x, parity[path[0]] if path else 0

    comp_orientable = [True] * (n_comps + d.free_loops)
    for ai in range(len(d.arcs)):
        wc, wd = cell_of_arc[0][ai]
        bc, bd = cell_of_arc[1][ai]
        want = 1 if wd == bd else 0
        rw, pw = find(wc)
        rb, pb = find(bc)
        if rw == rb:
            if pw ^ pb != want:
                comp_orientable[comp_of_crossing[d.arcs[ai][0] // 4]] = False
        else:
            parent[rw] = rb
            parity[rw] = pw ^ pb ^ want

    # chi of a component: its white and black cells minus its crossings
    chi = Counter(comp_of_crossing[d.arcs[w[0][0]][0] // 4] for w in white + black)
    chi.subtract(comp_of_crossing)
    comp_chi = [chi[k] for k in range(n_comps)] + [2] * d.free_loops

    empty: tuple[Walk, ...] = tuple(() for _ in range(d.free_loops))
    return Atom(
        n=d.n,
        white_cells=tuple(white) + empty,
        black_cells=tuple(black) + empty,
        component_chis=tuple(comp_chi),
        component_orientable=tuple(comp_orientable),
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
