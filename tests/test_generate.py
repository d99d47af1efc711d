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


def test_untouched_strands_close_into_free_loops():
    assert braid_closure(3, []) == Diagram(0, (), 3)
    assert braid_closure(3, [1, 1]).free_loops == 1
    with pytest.raises(DiagramError):
        braid_closure(2, [2])
    with pytest.raises(DiagramError):
        braid_closure(2, [0])
