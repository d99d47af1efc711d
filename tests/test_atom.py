import random

import pytest
from hypothesis import given, settings, strategies as st

import kmc.atom
from conftest import FIXTURES, load
from kmc.atom import Atom, build_atom
from kmc.cli import main
from kmc.diagram import (
    Diagram,
    is_connected,
    mirror,
    parse_gauss,
    r1_add,
    r2_add,
    split_components,
    virtualize,
)
from kmc.generate import random_classical_diagram, random_gauss_code, random_virtual_diagram
from kmc.statesum import circles_of_state

UNKNOT = Diagram(0, (), 1)


def test_unknot_atom_is_sphere():
    a = build_atom(UNKNOT)
    assert (a.a, a.b, a.chi) == (1, 1, 2)
    assert a.orientable and a.twice_genus == 0
    assert str(a.genus) == "0"


def test_trefoil_atom():
    a = build_atom(load("trefoil.pd"))
    assert a.a + a.b == 5
    assert a.chi == 2
    assert a.orientable
    assert a.twice_genus == 0


def test_virtual_trefoil_atom():
    a = build_atom(parse_gauss("O1+ O2+ U1+ U2+"))
    assert a.chi == 1  # projective plane
    assert not a.orientable
    assert a.twice_genus == 1
    assert str(a.genus) == "1/2"


def test_genus_strings():
    genera = [str(Atom(0, 0, 0, twice, True).genus) for twice in (0, 1, 3, 4)]
    assert genera == ["0", "1/2", "3/2", "2"]


def test_component_chi_above_two_is_caught(monkeypatch, capsys):
    """A component whose cells outnumber a sphere's is an internal error:
    reporting one white cell of the trefoil twice gives it chi 3."""
    real = kmc.atom.port_cycles

    def doubled(d, turn):
        cycles = real(d, turn)
        return cycles + cycles[:1] if turn == 1 else cycles

    monkeypatch.setattr(kmc.atom, "port_cycles", doubled)
    with pytest.raises(AssertionError, match="component chi 3 exceeds 2"):
        build_atom(load("trefoil.pd"))
    assert main(["atom", str(FIXTURES / "trefoil.pd")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "kmc: component chi 3 exceeds 2\n"


def test_clasped_unlink_atom_is_torus():
    # sliding one free loop over another is planar but the atom is a
    # torus: the all-A and all-B states are single circles
    d = r2_add(Diagram(0, (), 2), 0, 1)
    a = build_atom(d)
    assert (a.a, a.b, a.chi) == (1, 1, 0)
    assert a.orientable
    assert a.twice_genus == 2


# Reference: the atom by directed cell walks and a parity union-find
# over cells, which is how kmc decided orientability before it read it
# from a 2-colouring of the crossings.  The union-find also joins the
# two cells along every arc, so it finds the components on its own.


def _reference_walks(d: Diagram, step: int) -> list[list[tuple[int, bool]]]:
    """Boundary walks of the white (step 1) or black (step 3) cells as
    (arc index, True when the arc is run from its lower port) steps."""
    walks = []
    arc_done = [False] * len(d.arcs)
    for i, (p0, _) in enumerate(d.arcs):
        if arc_done[i]:
            continue
        walk = []
        frm = p0
        while True:
            ai = d.arc_index[frm]
            arc_done[ai] = True
            walk.append((ai, frm == d.arcs[ai][0]))
            frm = d.partner[frm] ^ step
            if frm == p0:
                break
        walks.append(walk)
    return walks


def reference_atom(d: Diagram):
    """(a, b, chis, orientable_, comp): the chi and the orientability of
    each component (crossing components first, in order of least
    crossing, then one sphere per free loop), and comp the component of
    every crossing."""
    white = _reference_walks(d, 1)
    black = _reference_walks(d, 3)
    cell_of_arc = ({}, {})
    for ci, walk in enumerate(white + black):
        for ai, forward in walk:
            cell_of_arc[ci >= len(white)][ai] = (ci, forward)

    cells = len(white) + len(black)
    parent = list(range(cells))
    parity = [0] * cells

    def find(x):
        p = 0
        while parent[x] != x:
            p ^= parity[x]
            x = parent[x]
        return x, p

    bad = set()
    for ai in range(len(d.arcs)):
        (wc, wd), (bc, bd) = cell_of_arc[0][ai], cell_of_arc[1][ai]
        want = 1 if wd == bd else 0  # same direction: flip one of the two
        (rw, pw), (rb, pb) = find(wc), find(bc)
        if rw == rb:
            if pw ^ pb != want:
                bad.add(wc)
        else:
            parent[rw] = rb
            parity[rw] = pw ^ pb ^ want

    index = {}
    comp = [
        index.setdefault(find(cell_of_arc[0][d.arc_index[4 * c]][0])[0], len(index))
        for c in range(d.n)
    ]
    chis = [0] * len(index)
    for walk in white + black:
        chis[comp[d.arcs[walk[0][0]][0] // 4]] += 1
    for k in comp:
        chis[k] -= 1
    orientable_ = [True] * len(index)
    for cell in bad:
        orientable_[index[find(cell)[0]]] = False
    loops = d.free_loops
    return (
        len(white) + loops,
        len(black) + loops,
        tuple(chis) + (2,) * loops,
        tuple(orientable_) + (True,) * loops,
        comp,
    )


def reference_split(d: Diagram, comp: list[int]) -> list[Diagram]:
    out = []
    for k in range(max(comp, default=-1) + 1):
        crossings = [c for c in range(d.n) if comp[c] == k]
        new = {c: i for i, c in enumerate(crossings)}
        arcs = [
            (4 * new[p // 4] + p % 4, 4 * new[q // 4] + q % 4)
            for p, q in d.arcs
            if comp[p // 4] == k
        ]
        out.append(Diagram(len(crossings), tuple(arcs), 0))
    return out + [UNKNOT] * d.free_loops


def assert_matches_reference(d: Diagram) -> None:
    a, b, chis, orientable_, comp = reference_atom(d)
    atom = build_atom(d)
    assert (atom.a, atom.b, atom.twice_genus, atom.orientable) == (
        a,
        b,
        sum(2 - chi for chi in chis),
        all(orientable_),
    )
    assert atom.chi == a + b - d.n
    assert is_connected(d) == (len(chis) == 1)
    assert split_components(d) == reference_split(d, comp)


def disjoint_union(d: Diagram, e: Diagram) -> Diagram:
    shift = 4 * d.n
    arcs = d.arcs + tuple((p + shift, q + shift) for p, q in e.arcs)
    return Diagram(d.n + e.n, arcs, d.free_loops + e.free_loops)


@st.composite
def moved_diagrams(draw) -> Diagram:
    """Classical or virtual knots and links with n <= 10 and 0-2 extra free
    loops, sometimes a disjoint union of two, then kink, slide, mirror and
    virtualization moves."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def one() -> Diagram:
        n = draw(st.integers(0, 10))
        kind = draw(st.sampled_from(("classical", "virtual", "link")))
        if kind == "classical":
            return random_classical_diagram(n, rng)
        if kind == "virtual":
            return random_virtual_diagram(n, rng)
        return parse_gauss(random_gauss_code(n, rng, components=2))

    d = one()
    if draw(st.booleans()):
        d = disjoint_union(d, one())
    d = Diagram(d.n, d.arcs, d.free_loops + draw(st.integers(0, 2)))
    for move in draw(st.lists(st.sampled_from("12mv"), max_size=3)):
        if move == "1":
            d = r1_add(d, rng.randrange(d.strand_count()), rng.choice((1, -1)))
        elif move == "2":
            over, under = (rng.randrange(d.strand_count()) for _ in range(2))
            d = r2_add(d, over, under, reverse=rng.random() < 0.5)
        elif move == "m":
            d = mirror(d)
        elif d.n:
            d = virtualize(d, rng.randrange(d.n))
    return d


@settings(max_examples=300, deadline=None)
@given(moved_diagrams())
def test_atom_matches_cell_walk_reference(d):
    assert_matches_reference(d)


def test_fixture_atoms_match_cell_walk_reference(fixtures_dir):
    names = sorted(
        p.name for p in fixtures_dir.iterdir() if p.suffix in (".pd", ".gauss")
    )
    assert names
    for name in names:
        assert_matches_reference(load(name))


def test_cell_counts_match_state_circles():
    rng = random.Random(31)
    for _ in range(60):
        d = random_virtual_diagram(7, rng)
        a = build_atom(d)
        x, y = circles_of_state(d, 0), circles_of_state(d, (1 << d.n) - 1)
        assert a.a == x
        assert a.b == y
        assert a.chi == x + y - d.n


def test_chi_at_most_two_per_component():
    rng = random.Random(32)
    for _ in range(60):
        d = random_virtual_diagram(8, rng)
        a = build_atom(d)
        assert all(chi <= 2 for chi in reference_atom(d)[2])
        assert a.twice_genus >= 0
        if a.orientable:
            assert a.twice_genus % 2 == 0


def test_classical_diagrams_orientable():
    rng = random.Random(33)
    for _ in range(60):
        d = random_classical_diagram(7, rng)
        a = build_atom(d)
        assert a.orientable
        assert a.twice_genus % 2 == 0


def test_atom_blind_to_virtualization():
    rng = random.Random(34)
    for _ in range(40):
        d = random_virtual_diagram(7, rng)
        if d.n == 0:
            continue
        dv = virtualize(d, rng.randrange(d.n))
        a, av = build_atom(d), build_atom(dv)
        assert (a.a, a.b, a.chi) == (av.a, av.b, av.chi)
        assert a.orientable == av.orientable
        assert a.genus == av.genus


def test_disconnected_genus_sums():
    two = Diagram(0, (), 2)
    a = build_atom(two)
    assert a.chi == 4  # two spheres
    assert a.twice_genus == 0
    # the virtual trefoil (a projective plane) and a sphere
    a = build_atom(parse_gauss("O1+ O2+ U1+ U2+ ; loop"))
    assert (a.a, a.b, a.chi) == (2, 3, 3)
    assert (a.twice_genus, a.orientable) == (1, False)


def test_fold_clasp_unknot_atom_is_sphere():
    d = r2_add(UNKNOT, 0, 0)
    a = build_atom(d)
    assert (a.a, a.b, a.chi) == (2, 2, 2)
    assert a.orientable
