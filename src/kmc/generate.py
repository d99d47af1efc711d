"""Seeded random diagram generators for property testing.

Virtual diagrams come from random signed Gauss codes (knots are
automatically connected; links are retried until connected).  Classical
diagrams are grown from the unknot by kink and slide moves, which
preserve planarity, then the over/under choice at each crossing is
randomized by crossing switches, which also preserve planarity.  The
classical draws are therefore planar but made of kinks, bigons and
clasps on the unknot, and ``diagram.simplify`` removes most of them;
``braid_closure`` gives kink-free classical inputs.  The Gauss corpus is
mostly non-classical.
"""

from __future__ import annotations

import random

from .diagram import (
    Diagram,
    crossing_components,
    is_connected,
    parse_gauss,
    r1_add,
    r2_add,
    switch_crossing,
    virtualize,
)
from .errors import DiagramError

__all__ = [
    "random_gauss_code",
    "random_virtual_diagram",
    "random_classical_diagram",
    "braid_closure",
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


def random_virtual_diagram(max_n: int, rng: random.Random) -> Diagram:
    """A connected virtual diagram with at most max_n crossings: a
    two-component link with probability 0.2 (when n >= 2), else a knot."""
    n = rng.randint(0, max_n)
    if n == 0:
        return Diagram(0, (), 1)
    want_link = n >= 2 and rng.random() < 0.2
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


def _is_flat_planar(d: Diagram) -> bool:
    """Whether every component of the flat projection (over/under
    ignored, counterclockwise port rotations) is drawn on a sphere: one
    with c crossings has 2c edges, so chi = 2 needs c + 2 faces.  One
    face walk over all ports; a face stays in its component."""
    comp, count, _ = crossing_components(d)
    excess = [-2] * count  # faces - crossings - 2, per component
    for k in comp:
        excess[k] -= 1
    partner = d.partner
    seen = [False] * (4 * d.n)
    for start in range(4 * d.n):
        if seen[start]:
            continue
        excess[comp[start >> 2]] += 1
        p = start
        while not seen[p]:
            seen[p] = True
            arrive = partner[p]
            p = arrive & ~3 | (arrive + 1) & 3
    return not any(excess)


def random_classical_diagram(max_n: int, rng: random.Random) -> Diagram:
    """A connected planar diagram with at most max_n crossings.

    Grown from the unknot by kinks (+1 crossing) and slides
    (+2 crossings), rejecting any slide hookup that would leave the
    plane, then each crossing is switched with probability 1/2
    (switches preserve planarity).  The draw is a pile of kinks, bigons
    and clasps, most of which ``diagram.simplify`` removes; use
    ``braid_closure`` for kink-free inputs.
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


def braid_closure(strands: int, word: list[int]) -> Diagram:
    """The closure of a braid on the given number of strands, with
    sigma_i^+-1 written +-i.  Strands run upward, position i left of
    position i + 1.  With inputs a, b (left, right) and outputs c, d,
    sigma_i is the PD crossing ``X b d c a``, positive for strands
    oriented upward, and sigma_i^-1 is ``X a b d c``.  Each position's
    last output joins its first input; a position no letter touches is
    a free loop."""
    first: list[int | None] = [None] * strands  # each position's first input
    last: list[int | None] = [None] * strands  # each position's open output
    arcs = []
    for c, letter in enumerate(word):
        i = abs(letter) - 1
        if not 0 <= i < strands - 1:
            raise DiagramError(f"no generator {letter} on {strands} strands")
        # ports of the left input, right input, left output, right output
        ports = (3, 0, 2, 1) if letter > 0 else (0, 1, 3, 2)
        in_l, in_r, out_l, out_r = (4 * c + k for k in ports)
        for pos, port in ((i, in_l), (i + 1, in_r)):
            if last[pos] is None:
                first[pos] = port
            else:
                arcs.append((last[pos], port))
        last[i], last[i + 1] = out_l, out_r
    arcs += [(a, b) for a, b in zip(last, first) if a is not None]
    return Diagram(len(word), tuple(arcs), last.count(None))
