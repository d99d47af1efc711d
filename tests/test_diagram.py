import contextlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import load
from kmc.diagram import (
    Diagram,
    components,
    crossing_signs,
    is_connected,
    mirror,
    orient,
    parse_gauss,
    parse_pd,
    r1_add,
    r2_add,
    render_pd,
    split_components,
    switch_crossing,
    virtualize,
)
from kmc.errors import DiagramError, KmcError, ParseError
from kmc.generate import random_classical_diagram, random_virtual_diagram

TREFOIL_PD = "X 1 4 2 5\nX 3 6 4 1\nX 5 2 6 3\n"


def test_parse_pd_clasp():
    d = parse_pd("X 1 4 2 3\nX 3 2 4 1\n")
    assert d.n == 2
    assert components(d) == 2  # two strands clasped over each other


def test_parse_pd_trefoil():
    d = parse_pd(TREFOIL_PD)
    assert d.n == 3
    assert components(d) == 1  # hand-traced: one strand through all six edges


def test_parse_pd_bad_label_count():
    with pytest.raises(ParseError):
        parse_pd("X 1 1 1 2\nX 2 3 3 4\n")


def test_parse_pd_virtual_dissolution():
    # trefoil with one strand detoured across another through two
    # virtual crossings: dissolving them recovers the plain diagram
    plain = parse_pd(TREFOIL_PD)
    detoured = parse_pd(
        "X 1 4 2 5\nX 3 6 4 7\nX 5 2 10 3\nV 7 6 9 8\nV 9 8 1 10\n"
    )
    assert detoured.n == 3
    assert detoured == plain


def test_parse_pd_fully_virtual_component():
    d = parse_pd("V 1 2 1 2\n")
    assert d.n == 0
    assert d.free_loops == 2


def test_parse_pd_loop_and_empty():
    assert parse_pd("loop\n").free_loops == 1
    assert parse_pd("# only a comment\nloop\n") == Diagram(0, (), 1)


def test_parse_gauss_virtual_trefoil():
    d = parse_gauss("O1+ O2+ U1+ U2+")
    assert d.n == 2
    assert components(d) == 1


def test_parse_gauss_kink():
    d = parse_gauss("O1+ U1+")
    assert d.n == 1
    assert components(d) == 1


def test_parse_gauss_unbalanced():
    with pytest.raises(ParseError):
        parse_gauss("O1+ U2+")
    with pytest.raises(ParseError):
        parse_gauss("O1+ U1-")
    with pytest.raises(ParseError):
        parse_gauss("O1+ O1+ U1+")
    with pytest.raises(ParseError):
        parse_gauss("X1+")


def test_empty_diagram_rejected():
    with pytest.raises(DiagramError):
        Diagram(0, (), 0)


@pytest.mark.parametrize(
    "args, message",
    [
        ((-1, ()), "crossing and loop counts must be non-negative"),
        ((0, (), -1), "crossing and loop counts must be non-negative"),
        ((1, ((0, 0), (1, 2), (3, 3))), "port 0 matched to itself"),
        ((1, ((0, 1), (2, 4))), "port 4 out of range"),
        ((1, ((0, 1), (1, 2), (2, 3))), "port 1 appears in two arcs"),
        ((1, ((0, 1),)), "port 2 not matched by any arc"),
        ((0, ()), "empty diagram; represent the unknot as a single free loop"),
    ],
    ids=[
        "negative_n", "negative_loops", "self_matched", "out_of_range", "two_arcs",
        "unmatched", "empty",
    ],
)
def test_diagram_validation_messages(args, message):
    with pytest.raises(DiagramError) as info:
        Diagram(*args)
    assert str(info.value) == message


def test_render_parse_roundtrip_fixtures():
    for name in ["trefoil.pd", "figure8.pd", "hopf.pd", "unknot.pd"]:
        d = load(name)
        assert parse_pd(render_pd(d)) == d


def test_render_parse_roundtrip_random():
    rng = random.Random(13)
    for _ in range(50):
        d = random_virtual_diagram(8, rng)
        assert parse_pd(render_pd(d)) == d


@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.integers(0, 10), st.integers(0, 10**6), st.integers(0, 2))
def test_render_parse_roundtrip_generated(virtual, n, seed, extra_loops):
    generate = random_virtual_diagram if virtual else random_classical_diagram
    d = generate(n, random.Random(seed))
    d = Diagram(d.n, d.arcs, d.free_loops + extra_loops)
    assert parse_pd(render_pd(d)) == d


# token soup reaches the parsers' later checks more often than plain text
PD_SOUP = st.lists(st.sampled_from(["X", "V", "loop", "1", "2", "3", "4", "a", "#", " ", "\n"]))
GAUSS_SOUP = st.lists(st.sampled_from(["O1+", "U1+", "O2-", "U2-", "O1-", "U3+", "loop", ";", " ", "#", "\n"]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), PD_SOUP.map("".join), GAUSS_SOUP.map("".join)))
def test_parsers_raise_only_kmc_errors(text):
    for parse in (parse_pd, parse_gauss):
        with contextlib.suppress(KmcError):
            parse(text)


def test_orient_component_counts():
    assert components(Diagram(0, (), 1)) == 1
    assert components(parse_pd(TREFOIL_PD)) == 1
    assert components(load("hopf.pd")) == 2


def test_crossing_signs_trefoil():
    d = parse_pd(TREFOIL_PD)
    assert crossing_signs(d, orient(d)) == (0, 3)  # this diagram is left-handed
    m = mirror(d)
    assert crossing_signs(m, orient(m)) == (3, 0)  # right trefoil


def test_crossing_signs_mirror_swaps():
    # exact swap for knots; links only up to re-orienting components,
    # since the canonical orientation is re-derived on the mirror
    rng = random.Random(5)
    for _ in range(30):
        d = random_virtual_diagram(7, rng)
        if components(d) != 1:
            continue
        np_, nm = crossing_signs(d, orient(d))
        m = mirror(d)
        assert crossing_signs(m, orient(m)) == (nm, np_)


def test_crossing_signs_unknot():
    assert crossing_signs(Diagram(0, (), 1), orient(Diagram(0, (), 1))) == (0, 0)


def test_mirror_involution():
    rng = random.Random(6)
    for _ in range(30):
        d = random_virtual_diagram(7, rng)
        assert mirror(mirror(d)) == d
        assert mirror(d).n == d.n


def test_virtualize_involution_and_counts():
    rng = random.Random(7)
    for _ in range(30):
        d = random_virtual_diagram(7, rng)
        if d.n == 0:
            continue
        c = rng.randrange(d.n)
        dv = virtualize(d, c)
        assert dv.n == d.n
        assert components(dv) == components(d)
        assert virtualize(dv, c) == d


def test_virtualize_twice_everywhere_is_identity():
    d = load("figure8.pd")
    out = d
    for c in range(d.n):
        out = virtualize(virtualize(out, c), c)
    assert out == d


def test_r1_r2_counts():
    unknot = Diagram(0, (), 1)
    k = r1_add(unknot, 0, 1)
    assert k.n == 1 and components(k) == 1
    clasp = r2_add(unknot, 0, 0)
    assert clasp.n == 2 and components(clasp) == 1
    rng = random.Random(8)
    for _ in range(30):
        d = random_virtual_diagram(6, rng)
        comps = components(d)
        s = rng.randrange(d.strand_count())
        assert r1_add(d, s, rng.choice((1, -1))).n == d.n + 1
        assert components(r1_add(d, s, 1)) == comps
        t = rng.randrange(d.strand_count())
        d2 = r2_add(d, s, t)
        assert d2.n == d.n + 2
        assert components(d2) == comps


def test_move_handles_validated():
    d = load("trefoil.pd")
    with pytest.raises(DiagramError):
        r1_add(d, 99, 1)
    with pytest.raises(DiagramError):
        r1_add(d, 0, 2)
    with pytest.raises(DiagramError):
        r2_add(d, 0, 99)
    with pytest.raises(DiagramError):
        virtualize(d, 3)
    with pytest.raises(DiagramError):
        switch_crossing(d, -1)


def test_switch_crossing_period_four():
    d = load("trefoil.pd")
    out = d
    for _ in range(4):
        out = switch_crossing(out, 1)
    assert out == d


def test_split_components():
    d = load("hopf.pd")
    assert is_connected(d)
    assert len(split_components(d)) == 1
    t = load("trefoil.pd")
    beside = tuple((p + 4 * t.n, q + 4 * t.n) for p, q in d.arcs)
    for two in (Diagram(0, (), 2), Diagram(t.n, t.arcs, 1), Diagram(t.n + d.n, t.arcs + beside)):
        assert len(split_components(two)) == 2
        assert not is_connected(two)


def test_random_classical_connected():
    rng = random.Random(9)
    for _ in range(30):
        d = random_classical_diagram(7, rng)
        assert is_connected(d)
        assert components(d) == 1


def test_parse_gauss_two_component_link():
    d = parse_gauss("O1+ U2+ ; U1+ O2+")
    assert d.n == 2
    assert components(d) == 2
    assert is_connected(d)


def test_parse_gauss_loop_component():
    d = parse_gauss("O1+ U1+ ; loop")
    assert d.n == 1
    assert d.free_loops == 1
    assert components(d) == 2


def test_parse_gauss_strips_comments_as_parse_pd_does():
    bare = "O1+ U2+ ; U1+ O2+ ; loop"
    commented = "# a two-component link\nO1+ U2+ ;  # first component\n\n   # \nU1+ O2+ ; loop # and a loop\n"
    assert parse_gauss(commented) == parse_gauss(bare)


def test_gauss_and_pd_trefoils_agree():
    # the all-negative trefoil code realizes the same knot as the PD
    # fixture: same bracket, sphere atom, same signs
    from kmc.atom import build_atom, orientable
    from kmc.statesum import kauffman_bracket

    g = parse_gauss("U1- O2- U3- O1- U2- O3-")
    p = load("trefoil.pd")
    assert kauffman_bracket(g) == kauffman_bracket(p)
    assert build_atom(g).chi == 2
    assert orientable(build_atom(g))
    assert crossing_signs(g, orient(g)) == (0, 3)
