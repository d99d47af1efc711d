"""Seeded random diagram generators for property testing.

Virtual diagrams come from random signed Gauss codes (knots are
automatically connected; links are retried until connected).  Classical
diagrams are grown from the unknot by kink and slide moves, which
preserve planarity, then the over/under choice at each crossing is
randomized by crossing switches, which also preserve planarity.  The
classical corpus therefore consists of genuinely planar diagrams of
arbitrary knot types, while the Gauss corpus is mostly non-classical.
"""

from __future__ import annotations

import random

from .diagram import (
    Diagram,
    is_connected,
    parse_gauss,
    r1_add,
    r2_add,
    split_components,
    switch_crossing,
    virtualize,
)

__all__ = [
    "random_gauss_code",
    "random_virtual_diagram",
    "random_classical_diagram",
]


def random_gauss_code(n: int, rng: random.Random, components: int = 1) -> str:
    """A random signed Gauss code with n crossings.

    Every label appears once as O and once as U in a random order with a
    random shared sign; for several components the 2n tokens are cut
    into runs at random points.
    """
    if n == 0:
        return ";".join(["loop"] * max(1, components))
    signs = {k: rng.choice("+-") for k in range(1, n + 1)}
    tokens = [f"O{k}{signs[k]}" for k in range(1, n + 1)]
    tokens += [f"U{k}{signs[k]}" for k in range(1, n + 1)]
    rng.shuffle(tokens)
    if components <= 1:
        return " ".join(tokens)
    cuts = [0] + sorted(rng.sample(range(1, 2 * n), components - 1)) + [2 * n]
    return " ; ".join(" ".join(tokens[a:b]) for a, b in zip(cuts, cuts[1:]))


def random_virtual_diagram(
    max_n: int, rng: random.Random, *, link_probability: float = 0.2
) -> Diagram:
    """A connected virtual diagram with at most max_n crossings."""
    n = rng.randint(0, max_n)
    if n == 0:
        return Diagram(0, (), 1)
    want_link = n >= 2 and rng.random() < link_probability
    while True:
        code = random_gauss_code(n, rng, components=2 if want_link else 1)
        d = parse_gauss(code)
        if is_connected(d):
            break
        # a disconnected split happens only for links; reroll the cut
    for c in range(d.n):
        if rng.random() < 0.2:
            d = virtualize(d, c)
    return d


def _flat_face_count(d: Diagram) -> int:
    """Faces of the underlying flat 4-valent map with counterclockwise
    port rotations (over/under ignored); used only to keep the classical
    generator planar."""
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


def _is_flat_planar(d: Diagram) -> bool:
    """chi of the flat projection surface is 2 per component."""
    for comp in split_components(d):
        if comp.n and comp.n - 2 * comp.n + _flat_face_count(comp) != 2:
            return False
    return True


def random_classical_diagram(max_n: int, rng: random.Random) -> Diagram:
    """A connected planar diagram with at most max_n crossings.

    Grown from the unknot by kinks (+1 crossing) and slides
    (+2 crossings), rejecting any slide hookup that would leave the
    plane, then each crossing is switched with probability 1/2
    (switches preserve planarity).
    """
    target = rng.randint(0, max_n)
    d = Diagram(0, (), 1)
    while d.n < target:
        if target - d.n == 1 or rng.random() < 0.4:
            strand = rng.randrange(d.strand_count())
            d = r1_add(d, strand, rng.choice((1, -1)))
        else:
            candidate = None
            for _ in range(8):
                over = rng.randrange(d.strand_count())
                under = rng.randrange(d.strand_count())
                if over == under:
                    candidate = r2_add(d, over, under)
                    break
                for rev in rng.sample((False, True), 2):
                    trial = r2_add(d, over, under, reverse=rev)
                    if _is_flat_planar(trial):
                        candidate = trial
                        break
                if candidate is not None:
                    break
            if candidate is None:
                candidate = r1_add(d, rng.randrange(d.strand_count()), rng.choice((1, -1)))
            d = candidate
        assert _is_flat_planar(d)
    for c in range(d.n):
        if rng.random() < 0.5:
            d = switch_crossing(d, c)
    return d
