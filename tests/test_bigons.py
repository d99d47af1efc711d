"""Reidemeister II bigon removal by ``simplify``, the tables and
certificates built on the simplified diagram, and the known answers that
guard it: mirror duality and reduced alternating braid closures."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import kmc.khovanov
from conftest import FIXTURES, load
from kmc.atom import build_atom, orientable
from kmc.diagram import (
    Diagram,
    components,
    mirror,
    r1_add,
    r2_add,
    simplify,
    switch_crossing,
)
from kmc.errors import InvariantError, UnsupportedFieldError
from kmc.generate import braid_closure, random_classical_diagram, random_virtual_diagram
from kmc.khovanov import GF2, Q, build_complex, homology, kh_table
from kmc.minimality import MINIMAL, certify

UNKNOT = Diagram(0, (), 1)
KNOT_FIXTURES = sorted(
    path.name
    for path in FIXTURES.iterdir()
    if path.suffix in (".pd", ".gauss") and components(load(path.name)) == 1
)


def _fields(d: Diagram) -> list[str]:
    return [GF2] + ([Q] if orientable(build_atom(d)) else [])


def _hookups(d: Diagram):
    """Every r2_add of d: each ordered pair of handles, both hookups for
    distinct ones, the fold for equal ones."""
    for over in range(d.strand_count()):
        for under in range(d.strand_count()):
            for reverse in (False, True) if over != under else (False,):
                yield over, under, reverse


def test_knot_fixtures_are_found():
    assert {"trefoil.pd", "virtual_trefoil.gauss", "6_2.pd"} <= set(KNOT_FIXTURES)
    assert "hopf.pd" not in KNOT_FIXTURES


@pytest.mark.parametrize("name", KNOT_FIXTURES)
def test_removing_an_added_bigon_gives_the_knot_back(name):
    """Equal diagrams, so equal crossing counts and tables: the worklist
    finds the bigon r2_add laid down, whichever handles it took."""
    d = load(name)
    simple = simplify(d)
    assert simple is d or name == "kinked_trefoil.pd"
    for over, under, reverse in _hookups(d):
        assert simplify(r2_add(d, over, under, reverse=reverse)) == simple
    for reverse in (False, True):
        bigon = r2_add(d, 0, d.strand_count() - 1, reverse=reverse)
        for field in _fields(bigon):
            assert kh_table(bigon, field).entries == homology(build_complex(d, field)).entries


def test_a_bigon_whose_removal_leaves_a_free_loop():
    """Two crossings and no kink: the over-strand's join leaves two arcs
    that the under-strand's join closes into the unknot's free loop."""
    d = Diagram(2, ((1, 5), (2, 4), (3, 6), (0, 7)))
    assert components(d) == 1
    assert simplify(d) == UNKNOT
    assert simplify(r2_add(UNKNOT, 0, 0)) == UNKNOT


def test_a_bigon_on_a_link_is_kept():
    hopf = load("hopf.pd")
    d = r2_add(hopf, 0, 1)
    assert components(d) == 2
    assert simplify(d) is d


def test_the_rationals_are_decided_on_the_diagram_as_given():
    """The reverse hookup leaves the plane and makes the atom
    non-orientable; the simplified diagram, the trefoil, is orientable."""
    d = r2_add(load("trefoil.pd"), 0, 3, reverse=True)
    assert not orientable(build_atom(d)) and orientable(build_atom(simplify(d)))
    with pytest.raises(UnsupportedFieldError, match="orientable atom"):
        kh_table(d, Q)
    with pytest.raises(UnsupportedFieldError, match="orientable atom"):
        certify(d, [Q])
    assert set(certify(d).fields) == {GF2}


def _clasps(d: Diagram):
    """d with one crossing of an added bigon switched: the corners then
    turn the same way, a clasp."""
    for over, under, reverse in _hookups(d):
        if over != under:
            yield switch_crossing(r2_add(d, over, under, reverse=reverse), d.n + 1)


@pytest.mark.parametrize("name", ["trefoil.pd", "figure8.pd", "virtual_trefoil.gauss"])
def test_a_clasp_is_kept(name):
    """A clasp changes the knot (here every one changes the bracket), so
    the tables of the simplified diagram must be the full cube's."""
    d = load(name)
    kept = 0
    for clasped in _clasps(d):
        kept += simplify(clasped) is clasped
        for field in _fields(clasped):
            assert kh_table(clasped, field).entries == homology(
                build_complex(clasped, field)
            ).entries
    assert kept > 0
    clasped = switch_crossing(r2_add(d, 0, 2), d.n + 1)
    assert simplify(clasped) is clasped


def test_removing_a_clasp_is_caught(monkeypatch):
    """Unswitching the clasp and simplifying is what a rule without the
    turn condition would give: the trefoil's tables, which do not give
    the clasped knot's bracket."""
    clasped = switch_crossing(r2_add(load("trefoil.pd"), 0, 2), 4)
    monkeypatch.setattr(
        kmc.khovanov, "simplify", lambda d: simplify(switch_crossing(d, d.n - 1))
    )
    for fields in (None, [GF2]):
        with pytest.raises(InvariantError, match="Euler characteristic"):
            certify(clasped, fields)


def _moves(d: Diagram, rng: random.Random, count: int) -> Diagram:
    """count moves on random handles, the first a bigon: r2_add with a
    random hookup (a fold when the handles agree) or, one time in three,
    r1_add."""
    for i in range(count):
        if i and rng.random() < 1 / 3:
            d = r1_add(d, rng.randrange(d.strand_count()), rng.choice((1, -1)))
        else:
            over, under = (rng.randrange(d.strand_count()) for _ in range(2))
            d = r2_add(d, over, under, reverse=rng.random() < 0.5)
    return d


def _knot_with_moves(virtual: bool, seed: int, count: int) -> Diagram:
    """A classical or virtual knot with at most 7 crossings, fewer as
    more moves are added (at most 10 in all), then the moves."""
    rng = random.Random(seed)
    base = (random_virtual_diagram if virtual else random_classical_diagram)(
        min(7, 10 - 2 * count), rng
    )
    assume(components(base) == 1)
    return _moves(base, rng, count)


@settings(max_examples=30, deadline=None)
@given(st.booleans(), st.integers(0, 10**6), st.integers(1, 3))
def test_tables_and_certificates_ignore_bigons(virtual, seed, count):
    d = _knot_with_moves(virtual, seed, count)
    assert simplify(d).n < d.n
    for name in _fields(d):
        assert kh_table(d, name).entries == homology(build_complex(d, name)).entries
    simplified = certify(d).to_json_dict()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kmc.khovanov, "simplify", lambda d: d)
        assert simplified == certify(d).to_json_dict()


def _dual(entries: dict) -> dict:
    return {(-t, -q): dim for (t, q), dim in entries.items()}


@pytest.mark.parametrize("name", KNOT_FIXTURES)
def test_mirror_duality_on_knot_fixtures(name):
    d = load(name)
    for field in _fields(d):
        assert kh_table(mirror(d), field).entries == _dual(kh_table(d, field).entries)


@settings(max_examples=30, deadline=None)
@given(st.booleans(), st.integers(0, 10**6), st.integers(1, 3))
def test_mirror_duality_with_kinks_and_bigons(virtual, seed, count):
    """Kh^{t,q}(mirror D) = Kh^{-t,-q}(D); simplify runs on both sides."""
    d = _knot_with_moves(virtual, seed, count)
    assert simplify(mirror(d)).n < d.n
    for field in _fields(d):
        assert kh_table(mirror(d), field).entries == _dual(kh_table(d, field).entries)


@st.composite
def _alternating_words(draw):
    """A braid word on 2-5 strands, at most 10 letters, in which every
    sigma_i appears at least twice, always with the sign (-1)^i, or
    always with the opposite sign."""
    strands = draw(st.integers(2, 5))
    gens = list(range(1, strands))
    extra = draw(st.lists(st.sampled_from(gens), max_size=10 - 2 * len(gens)))
    order = draw(st.permutations(gens * 2 + extra))
    flip = draw(st.sampled_from((1, -1)))
    return strands, [flip * (-1) ** i * i for i in order]


@settings(max_examples=20, deadline=None)
@given(_alternating_words())
def test_reduced_alternating_closures_certify_minimal(word):
    """Reduced alternating diagrams: the bracket span is 4n (Kauffman-
    Murasugi-Thistlethwaite) and the table is thin over Q (Lee) and mod 2
    (Manolescu-Ozsvath), so both fields are 2-complete.  They have no
    kink, and no over-over arc, so no bigon: simplify keeps them."""
    d = braid_closure(*word)
    assert simplify(d) is d
    cert = certify(d)
    assert cert.verdict == MINIMAL and cert.strict_1_complete
    assert set(cert.fields) == {GF2, Q}
    assert all(rep.two_complete for rep in cert.fields.values())
