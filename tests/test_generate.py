"""The generators' own helpers: braid closures and the planarity test."""

import random

import pytest

from conftest import load
from kmc.diagram import Diagram, mirror, r1_add, r2_add, simplify, split_components
from kmc.errors import DiagramError
from kmc.generate import _is_flat_planar, braid_closure
from kmc.khovanov import GF2, Q, kh_table
from kmc.minimality import MINIMAL, certify


def reference_face_count(d: Diagram) -> int:
    """Faces of the flat 4-valent map with counterclockwise port
    rotations, one walk per face."""
    faces = 0
    seen: set[int] = set()
    for start in range(4 * d.n):
        if start in seen:
            continue
        faces += 1
        p = start
        while p not in seen:
            seen.add(p)
            arrive = d.partner[p]
            p = 4 * (arrive // 4) + (arrive % 4 + 1) % 4
    return faces


def reference_is_flat_planar(d: Diagram) -> bool:
    """chi of the flat projection surface is 2 per component, each
    component split off as a diagram of its own."""
    for comp in split_components(d):
        if comp.n and comp.n - 2 * comp.n + reference_face_count(comp) != 2:
            return False
    return True


def test_planarity_matches_the_reference_on_trial_diagrams():
    """Trials grown from one or two free loops by the generator's moves,
    with both slide hookups taken blindly, so many leave the plane."""
    rng = random.Random(2024)
    seen = {True: 0, False: 0}
    split = 0
    for _ in range(600):
        d = Diagram(0, (), rng.choice((1, 1, 2)))
        for _ in range(rng.randint(1, 6)):
            handle = rng.randrange(d.strand_count())
            if rng.random() < 0.4:
                d = r1_add(d, handle, rng.choice((1, -1)))
            else:
                other = rng.randrange(d.strand_count())
                d = r2_add(d, handle, other, reverse=rng.random() < 0.5)
        if rng.random() < 0.2:
            d = Diagram(d.n, d.arcs, d.free_loops + 1)
        planar = _is_flat_planar(d)
        assert planar == reference_is_flat_planar(d)
        seen[planar] += 1
        split += len(split_components(d)) > 1
    assert min(seen.values()) > 100 and split > 100


def test_braid_closures_are_planar_and_kink_free():
    for strands, word in ((2, [1] * 3), (2, [1] * 5), (2, [-1] * 7), (3, [1, -2] * 3)):
        d = braid_closure(strands, word)
        assert d.n == len(word) and _is_flat_planar(d)
        assert simplify(d) is d


def test_the_closure_of_sigma_cubed_is_a_trefoil():
    d = braid_closure(2, [1, 1, 1])
    trefoil = load("trefoil.pd")
    for field in (GF2, Q):
        assert kh_table(d, field).entries in (
            kh_table(trefoil, field).entries,
            kh_table(mirror(trefoil), field).entries,
        )


@pytest.mark.parametrize(
    "strands,word", [(2, [1] * 5), (2, [1] * 7), (3, [1, -2] * 3)], ids=["T25", "T27", "borromean"]
)
def test_reduced_alternating_closures_are_minimal(strands, word):
    cert = certify(braid_closure(strands, word))
    assert cert.verdict == MINIMAL
    assert cert.twice_genus == 0


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_torus_knots_t2n_match_khovanovs_closed_form(n):
    # Khovanov (arXiv:math/9908171, section 6.2): for odd n, T(2, n) has
    # rank one at (0, n - 2) and (0, n), and at (2j, n + 4j - 2) and
    # (2j + 1, n + 4j + 2) for 1 <= j <= (n - 1) / 2.  Over GF(2) the
    # Z/2 torsion at (2j + 1, n + 4j) adds a class there and one at
    # (2j, n + 4j): (t, n + 2t - 2) and (t, n + 2t) for 2 <= t <= n
    cert = certify(braid_closure(2, [1] * n))
    assert cert.verdict == MINIMAL
    q_table = {(0, n - 2), (0, n)}
    for j in range(1, (n - 1) // 2 + 1):
        q_table |= {(2 * j, n + 4 * j - 2), (2 * j + 1, n + 4 * j + 2)}
    gf2_table = {(0, n - 2), (0, n)}
    for t in range(2, n + 1):
        gf2_table |= {(t, n + 2 * t - 2), (t, n + 2 * t)}
    assert cert.fields[Q].entries == dict.fromkeys(q_table, 1)
    assert cert.fields[GF2].entries == dict.fromkeys(gf2_table, 1)


def test_untouched_strands_close_into_free_loops():
    assert braid_closure(3, []) == Diagram(0, (), 3)
    assert braid_closure(3, [1, 1]).free_loops == 1
    with pytest.raises(DiagramError):
        braid_closure(2, [2])
    with pytest.raises(DiagramError):
        braid_closure(2, [0])
