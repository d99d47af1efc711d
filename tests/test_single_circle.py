import random

import pytest

from conftest import load
from kmc.atom import build_atom, orientable
from kmc.diagram import Diagram, parse_gauss, r1_add
from kmc.errors import LimitError
from kmc.generate import random_gauss_code, random_virtual_diagram
from kmc.khovanov import GF2, kh_table
from kmc.single_circle import single_circle_census
from kmc.statesum import circles_of_state

UNKNOT = Diagram(0, (), 1)


def test_kinked_unknot_census():
    d = r1_add(UNKNOT, 0, 1)
    census = single_circle_census(d)
    assert census.size == 1  # one smoothing gives one circle, the other two
    d2 = r1_add(UNKNOT, 0, -1)
    census2 = single_circle_census(d2)
    assert census2.size == 1
    assert {census.b_values[0], census2.b_values[0]} == {0, 1}


def test_trefoil_census_constant_b():
    census = single_circle_census(load("trefoil.pd"))
    assert census.size == 3
    assert census.b_values == (2,)  # genus zero: one diagonal of generators
    assert census.window == (2, 2)
    assert census.amplitude == 0 == 2 - census.chi
    assert census.parity_consistent


def test_virtual_trefoil_census():
    d = parse_gauss("O1+ O2+ U1+ U2+")
    census = single_circle_census(d)
    assert census.b_histogram == {0: 1, 1: 2}
    assert census.window == (0, 1)
    assert census.within_window
    assert census.amplitude == 1 == 2 - census.chi
    assert not census.parity_consistent  # non-orientable atom mixes parity


def test_window_arithmetic():
    assert single_circle_census(load("trefoil.pd")).window == (2, 2)
    assert single_circle_census(parse_gauss("O1+ O2+ U1+ U2+")).window == (0, 1)
    # the window is (x - 1, n + 1 - y) and its width 2 - chi for any
    # diagram; x, y and chi are the atom's a, b and chi
    rng = random.Random(51)
    virtual = [random_virtual_diagram(9, rng) for _ in range(40)]
    links = [parse_gauss(random_gauss_code(n, rng, components=2)) for n in range(2, 8)]
    loops = [Diagram(0, (), k) for k in (1, 2, 3)]
    for d in virtual + links + loops:
        census = single_circle_census(d)
        atom = build_atom(d)
        lo, hi = census.window
        x, y = circles_of_state(d, 0), circles_of_state(d, (1 << d.n) - 1)
        assert (lo, hi) == (x - 1, d.n + 1 - y) == (atom.a - 1, d.n + 1 - atom.b)
        assert census.chi == atom.chi
        assert hi - lo == 2 - census.chi


def test_disconnected_census_empty():
    census = single_circle_census(Diagram(0, (), 2))
    assert census.is_empty


def test_census_limit():
    d = load("trefoil.pd")
    with pytest.raises(LimitError):
        single_circle_census(d, max_crossings=2)


def test_window_and_parity_random():
    rng = random.Random(52)
    for _ in range(60):
        d = random_virtual_diagram(9, rng)
        census = single_circle_census(d)
        if census.is_empty:
            continue
        assert census.within_window
        assert census.amplitude <= 2 - census.chi
        if orientable(build_atom(d)):
            assert census.parity_consistent


def test_diagonal_spread_bounded_by_census():
    # homology diagonals live within one step of the census b-range
    rng = random.Random(53)
    for _ in range(30):
        d = random_virtual_diagram(6, rng)
        census = single_circle_census(d)
        if census.is_empty:
            continue
        tab = kh_table(d, GF2)
        if tab.entries:
            assert tab.diagonal_spread() <= census.amplitude + 2
