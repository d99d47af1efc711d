import random

from hypothesis import given, settings, strategies as st

from conftest import load
from kmc.atom import GenusValue, build_atom, genus, orientable
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
from kmc.generate import random_classical_diagram, random_virtual_diagram
from kmc.statesum import circles_of_state

UNKNOT = Diagram(0, (), 1)


def test_unknot_atom_is_sphere():
    a = build_atom(UNKNOT)
    assert (a.a, a.b, a.chi) == (1, 1, 2)
    g = genus(a)
    assert g.orientable and g.twice_genus == 0
    assert str(g) == "0"


def test_trefoil_atom():
    a = build_atom(load("trefoil.pd"))
    assert a.a + a.b == 5
    assert a.chi == 2
    assert orientable(a)
    assert genus(a).twice_genus == 0


def test_virtual_trefoil_atom():
    a = build_atom(parse_gauss("O1+ O2+ U1+ U2+"))
    assert a.chi == 1  # projective plane
    assert not orientable(a)
    g = genus(a)
    assert g.twice_genus == 1
    assert str(g) == "1/2"


def test_genus_strings():
    assert [str(GenusValue(twice, True)) for twice in (0, 1, 3, 4)] == ["0", "1/2", "3/2", "2"]


def test_clasped_unlink_atom_is_torus():
    # sliding one free loop over another is planar but the atom is a
    # torus: the all-A and all-B states are single circles
    d = r2_add(Diagram(0, (), 2), 0, 1)
    a = build_atom(d)
    assert (a.a, a.b, a.chi) == (1, 1, 0)
    assert orientable(a)
    assert genus(a).twice_genus == 2


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
    """(a, b, component_chis, component_orientable, comp), with comp the
    component of every crossing, numbered in order of least crossing."""
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
    assert (atom.a, atom.b, atom.component_chis, atom.component_orientable) == (
        a,
        b,
        chis,
        orientable_,
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
        if draw(st.booleans()):
            return random_classical_diagram(draw(st.integers(0, 10)), rng)
        return random_virtual_diagram(
            draw(st.integers(0, 10)), rng, link_probability=0.5
        )

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
        assert all(chi <= 2 for chi in a.component_chis)
        g = genus(a)
        assert g.twice_genus >= 0
        if g.orientable:
            assert g.twice_genus % 2 == 0


def test_classical_diagrams_orientable():
    rng = random.Random(33)
    for _ in range(60):
        d = random_classical_diagram(7, rng)
        g = genus(build_atom(d))
        assert g.orientable
        assert g.twice_genus % 2 == 0


def test_atom_blind_to_virtualization():
    rng = random.Random(34)
    for _ in range(40):
        d = random_virtual_diagram(7, rng)
        if d.n == 0:
            continue
        dv = virtualize(d, rng.randrange(d.n))
        a, av = build_atom(d), build_atom(dv)
        assert (a.a, a.b, a.chi) == (av.a, av.b, av.chi)
        assert orientable(a) == orientable(av)
        assert genus(a) == genus(av)


def test_disconnected_genus_sums():
    two = Diagram(0, (), 2)
    a = build_atom(two)
    assert a.chi == 4  # two spheres
    assert genus(a).twice_genus == 0
    assert a.component_chis == (2, 2)


def test_fold_clasp_unknot_atom_is_sphere():
    d = r2_add(UNKNOT, 0, 0)
    a = build_atom(d)
    assert (a.a, a.b, a.chi) == (2, 2, 2)
    assert orientable(a)
