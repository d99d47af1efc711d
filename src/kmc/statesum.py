"""Kauffman states, their circles, and the bracket.

A state assigns one smoothing to every classical crossing and is stored
as an integer bitmask: bit c set means the B-smoothing at crossing c, so
the number of B-smoothings of state s is the popcount of s.  A circle is
found by one walk: from a port along its arc, then along the smoothing
at the crossing reached, until the walk closes.  Circles are numbered by
least port; free loops follow them.

The bracket is the sum over all 2^n states of

    A^(n - 2r) * (-A^2 - A^-2)^(circles - 1)

which normalizes the unknot to 1.  It is read off a histogram of
(r, circles) from a counting pass that keeps nothing per state; only
``label_states``, for the Khovanov complex, keeps labels per state.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator

from .atom import build_atom
from .diagram import Diagram
from .laurent import LOOP, Laurent

__all__ = [
    "circles_of_state",
    "state_circles",
    "label_states",
    "circle_counts",
    "bracket_from_counts",
    "kauffman_bracket",
    "span_bound",
    "bracket_completeness",
    "is_1_complete",
]


def _walker(d: Diagram):
    """A function labelling the arcs of a state by circle.

    It returns (arc labels, first arc of each circle); circles are
    numbered by first arc, which is the order of their least ports
    because arcs are sorted by lower port.  Free loops are not included.
    """
    arcs, arc_of, partner = d.arcs, d.arc_index, d.partner
    # after arc (p -> partner p): crossing reached and next port under
    # the A-smoothing (pairs 0-1, 2-3) or the B-smoothing (1-2, 3-0)
    cross = [partner[p] >> 2 for p in range(4 * d.n)]
    after_a = [partner[p] ^ 1 for p in range(4 * d.n)]
    after_b = [partner[p] ^ 3 for p in range(4 * d.n)]

    def walk(state: int) -> tuple[list[int], list[int]]:
        label = [-1] * len(arcs)
        firsts: list[int] = []
        for first, (start, _) in enumerate(arcs):
            if label[first] >= 0:
                continue
            k = len(firsts)
            firsts.append(first)
            p = start
            while True:
                label[arc_of[p]] = k
                p = after_b[p] if state >> cross[p] & 1 else after_a[p]
                if p == start:
                    break
        return label, firsts

    return walk


def circles_of_state(d: Diagram, state: int) -> int:
    """Number of closed curves after smoothing every crossing per state."""
    if state >> d.n:
        raise ValueError("state has more bits than crossings")
    return len(_walker(d)(state)[1]) + d.free_loops


def state_circles(d: Diagram, state: int) -> tuple[tuple[int, ...], ...]:
    """The circles of a state as port tuples, sorted by least port.

    Free loops are not listed; they follow these circles in any
    canonical circle numbering.
    """
    label, firsts = _walker(d)(state)
    groups: list[list[int]] = [[] for _ in firsts]
    for port, arc in enumerate(d.arc_index):
        groups[label[arc]].append(port)
    return tuple(tuple(g) for g in groups)


def label_states(d: Diagram) -> list[tuple[list[int], list[int]]]:
    """Arc labels and first arcs of the circles of every state, in state
    order: one walk per circle over the whole cube."""
    walk = _walker(d)
    return [walk(state) for state in range(1 << d.n)]


def circle_counts(d: Diagram) -> Iterator[int]:
    """Circles (free loops included) of every state, in state order; the
    counting pass, which keeps nothing per state."""
    walk = _walker(d)
    for state in range(1 << d.n):
        yield len(walk(state)[1]) + d.free_loops


def bracket_from_counts(d: Diagram, counts: dict[tuple[int, int], int]) -> Laurent:
    """The bracket from a (B-smoothings, circles) histogram of the states."""
    total = Laurent.zero()
    for (r, circles), count in sorted(counts.items()):
        total = total + Laurent.term(count, d.n - 2 * r) * LOOP ** (circles - 1)
    return total


def kauffman_bracket(d: Diagram) -> Laurent:
    """The bracket polynomial in A, unknot normalized to 1."""
    return bracket_from_counts(
        d, Counter((s.bit_count(), k) for s, k in enumerate(circle_counts(d)))
    )


def span_bound(d: Diagram, chi: int) -> int:
    """Upper bound 4n + 2(chi - 2) for the bracket span."""
    return 4 * d.n + 2 * (chi - 2)


def bracket_completeness(d: Diagram, bracket: Laurent, chi: int) -> tuple[bool, dict]:
    """Whether the span of the given bracket of d attains 4n + 2(chi - 2),
    with chi the Euler characteristic of d's atom.

    Returns the verdict and the numbers that went into it, the bracket
    included.
    """
    span = bracket.span() if bracket else None
    bound = span_bound(d, chi)
    details = {"span": span, "bound": bound, "n": d.n, "chi": chi, "bracket": bracket}
    return span == bound, details


def is_1_complete(d: Diagram) -> tuple[bool, dict]:
    """Whether the bracket span attains 4n + 2(chi - 2); see
    ``bracket_completeness``."""
    return bracket_completeness(d, kauffman_bracket(d), build_atom(d).chi)
