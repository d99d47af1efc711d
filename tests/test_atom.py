import random

from conftest import load
from kmc.atom import build_atom, genus, orientable
from kmc.diagram import Diagram, parse_gauss, r2_add, virtualize
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


def test_clasped_unlink_atom_is_torus():
    # sliding one free loop over another is planar but the atom is a
    # torus: the all-A and all-B states are single circles
    d = r2_add(Diagram(0, (), 2), 0, 1)
    a = build_atom(d)
    assert (a.a, a.b, a.chi) == (1, 1, 0)
    assert orientable(a)
    assert genus(a).twice_genus == 2


def test_walks_cover_each_arc_once():
    for name in ["trefoil.pd", "figure8.pd", "hopf.pd"]:
        d = load(name)
        a = build_atom(d)
        for cells in (a.white_cells, a.black_cells):
            seen = [ai for walk in cells for ai, _ in walk]
            assert sorted(seen) == list(range(len(d.arcs)))


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
