"""Reidemeister I kink removal, and the tables and certificates built on
the kink-free diagram."""

import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

import kmc.diagram
import kmc.khovanov
from conftest import load
from kmc.atom import build_atom, orientable
from kmc.diagram import (
    Diagram,
    components,
    crossing_components,
    mirror,
    parse_gauss,
    r1_add,
    simplify,
)
from kmc.errors import InvariantError, LimitError
from kmc.generate import random_classical_diagram, random_virtual_diagram
from kmc.khovanov import GF2, Q, build_complex, homology, kh_table
from kmc.minimality import certify

UNKNOT = Diagram(0, (), 1)


def kinked_17() -> Diagram:
    """The trefoil with 14 kinks on one strand: a 17-crossing knot whose
    cube, once the kinks are gone, has 2^3 states."""
    d = load("trefoil.pd")
    while d.n < 17:
        d = r1_add(d, 0, 1 if d.n % 2 else -1)
    return d


def test_removing_an_added_kink_gives_the_knot_back():
    for name in ("trefoil.pd", "figure8.pd", "6_2.pd", "virtual_trefoil.gauss"):
        d = load(name)
        assert simplify(d) is d
        for strand in range(d.strand_count()):
            for chirality in (1, -1):
                assert simplify(r1_add(d, strand, chirality)) == d


def test_nested_kinks_on_one_strand():
    """Each kink sits on the loop of the one before, so each crossing is
    a kink only once the kinks inside it are gone."""
    trefoil = load("trefoil.pd")
    d, strand = trefoil, 0
    for chirality in (1, -1, -1, 1):
        base = 4 * d.n
        d = r1_add(d, strand, chirality)
        strand = d.arcs.index((base + 2, base + 3) if chirality == 1 else (base, base + 3))
    assert d.n == 7
    assert simplify(d) == trefoil


def test_the_one_crossing_curl_is_a_free_loop():
    for chirality in (1, -1):
        assert simplify(r1_add(UNKNOT, 0, chirality)) == UNKNOT
    assert simplify(r1_add(r1_add(UNKNOT, 0, 1), 1, -1)) == UNKNOT


def test_a_kinked_link_is_returned_unchanged():
    hopf = load("hopf.pd")
    for d in (r1_add(hopf, 0, 1), r1_add(parse_gauss("O1+ U2+ ; U1+ O2+"), 1, -1)):
        assert components(d) == 2
        assert simplify(d) is d


def test_kink_removal_keeps_the_atom_orientable_or_not():
    for name in ("kinked_trefoil.pd", "virtual_trefoil.gauss"):
        d = r1_add(load(name), 0, -1)
        assert orientable(build_atom(simplify(d))) == orientable(build_atom(d))


def _kinked_knots():
    """Classical and virtual knots with n <= 7, plus 1-3 kinks of either
    chirality on random strands."""
    return st.tuples(st.booleans(), st.integers(0, 10**6), st.integers(1, 3))


@settings(max_examples=30, deadline=None)
@given(_kinked_knots())
def test_tables_and_certificates_ignore_kinks(args):
    virtual, seed, kinks = args
    rng = random.Random(seed)
    d = (random_virtual_diagram if virtual else random_classical_diagram)(7, rng)
    assume(components(d) == 1)
    for _ in range(kinks):
        d = r1_add(d, rng.randrange(d.strand_count()), rng.choice((1, -1)))
    assert simplify(d).n < d.n
    fields = [GF2] + ([Q] if orientable(build_atom(d)) else [])
    for name in fields:
        assert kh_table(d, name).entries == homology(build_complex(d, name)).entries
    simplified = certify(d).to_json_dict()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kmc.khovanov, "simplify", lambda d: d)
        assert simplified == certify(d).to_json_dict()


@pytest.mark.parametrize(
    "change",
    [
        lambda d: Diagram(d.n, d.arcs, d.free_loops + 1),
        lambda d: mirror(simplify(d)),
    ],
    ids=["free_loop", "mirror"],
)
@pytest.mark.parametrize("name", ["trefoil.pd", "kinked_trefoil.pd"])
def test_a_wrong_simplification_is_caught(monkeypatch, change, name):
    """The tables of the simplified diagram must give the bracket of the
    diagram as given, for ``certify`` and ``kh_table`` alike: both reach
    their tables through ``kh_tables``.  The trefoil is chiral, so its
    mirror fails too."""
    monkeypatch.setattr(kmc.khovanov, "simplify", change)
    for run, arg in ((certify, None), (certify, [GF2]), (kh_table, GF2), (kh_table, Q)):
        with pytest.raises(InvariantError, match="Euler characteristic"):
            run(load(name), arg)


def test_limits_on_a_kinked_knot(no_cube_walk):
    """The census limit applies to the counting pass over the diagram as
    given, for ``certify`` and ``kh_table`` alike, and is checked before
    any pass."""
    for run in (certify, kh_table):
        with pytest.raises(LimitError, match="17 crossings; census limit is 16"):
            run(kinked_17(), max_crossings=16)


def test_a_kinked_knot_over_the_khovanov_limits_certifies(cube_walks):
    d = kinked_17()
    cert = certify(d)
    assert (cert.n, cert.twice_genus, cert.verdict) == (17, 0, "INCONCLUSIVE")
    assert [(kind, e.n) for kind, e in cube_walks] == [
        ("counting", 17), ("counting", 3), ("walker", 3)
    ]


def test_certify_searches_each_diagram_once(monkeypatch):
    searched = Counter()
    real = kmc.diagram._search_crossings

    def counted(d):
        searched[id(d)] += 1
        return real(d)

    monkeypatch.setattr(kmc.diagram, "_search_crossings", counted)
    for name in ("trefoil.pd", "kinked_trefoil.pd", "6_2.pd", "virtual_trefoil.gauss"):
        searched.clear()
        certify(load(name))
        assert searched and max(searched.values()) == 1


def test_the_cached_search_is_immutable():
    comp, count, flat = crossing_components(load("virtual_trefoil.gauss"))
    assert (comp, count, flat) == ((0, 0), 1, frozenset({0}))
    assert isinstance(comp, tuple) and isinstance(flat, frozenset)
