"""Kauffman states, their circles, and the bracket.

A state assigns one smoothing to every classical crossing and is stored
as an integer bitmask: bit c set means the B-smoothing at crossing c, so
the number of B-smoothings of state s is the popcount of s.  A circle is
found by one walk: from a port along its arc, then along the smoothing
at the crossing reached, until the walk closes.  Circles are numbered by
least port; free loops follow them.

The bracket is the sum over all 2^n states of

    A^(n - 2r) * (-A^2 - A^-2)^(circles - 1)

which normalizes the unknot to 1, so it depends on a state only
through (r, circles).  The counting pass ``circle_counts`` returns that
histogram, the census of the cube, and walks no circle: it follows the
ends of partly smoothed paths from one state to the next, O(1)
amortised steps per state instead of 2n.  Only
``label_states``, for the Khovanov complex, walks every circle of every
state, because it keeps each arc's label.  The bracket and the
single-circle census check their crossing limit before the pass starts.
"""

from __future__ import annotations

from .diagram import Diagram
from .errors import LimitError, resolve_limit
from .laurent import LOOP, Laurent

__all__ = [
    "label_states",
    "circle_counts",
    "kauffman_bracket",
    "span_bound",
]

DEFAULT_MAX_CENSUS = 24


def _walker(d: Diagram):
    """A function labelling the arcs of a state by circle.

    It returns (arc labels, number of circles); circles are numbered by
    first arc, which is the order of their least ports because arcs are
    sorted by lower port.  Free loops are not included.
    """
    arcs, arc_of, partner = d.arcs, d.arc_index, d.partner
    # after arc (p -> partner p): crossing reached and next port under
    # the A-smoothing (pairs 0-1, 2-3) or the B-smoothing (1-2, 3-0)
    cross = [partner[p] >> 2 for p in range(4 * d.n)]
    after_a = [partner[p] ^ 1 for p in range(4 * d.n)]
    after_b = [partner[p] ^ 3 for p in range(4 * d.n)]

    def walk(state: int) -> tuple[list[int], int]:
        label = [-1] * len(arcs)
        k = 0
        for first, (start, _) in enumerate(arcs):
            if label[first] >= 0:
                continue
            p = start
            while True:
                label[arc_of[p]] = k
                p = after_b[p] if state >> cross[p] & 1 else after_a[p]
                if p == start:
                    break
            k += 1
        return label, k

    return walk


# kept for the benchmark: perfbench/record.py and spans.COUNTERS read it
def circles_of_state(d: Diagram, state: int) -> int:
    """Number of closed curves after smoothing every crossing per state."""
    if state >> d.n:
        raise ValueError("state has more bits than crossings")
    return _walker(d)(state)[1] + d.free_loops


def label_states(d: Diagram) -> list[tuple[list[int], int]]:
    """Arc labels and circle count (free loops excluded) of every state,
    in state order: one walk per circle over the whole cube."""
    walk = _walker(d)
    return [walk(state) for state in range(1 << d.n)]


def circle_counts(d: Diagram) -> dict[tuple[int, int], int]:
    """The census of the cube: {(r, k): number of states} over all 2^n
    states, r their B-smoothings and k their circles, free loops
    included, in (r, k) order; the counting pass, which keeps O(n)
    numbers and nothing per state.

    ``end[p]`` is the other end of the path through port p.  Before any
    smoothing the paths are the arcs, so ``end`` starts as ``d.partner``.
    Joining two ports that end one path closes a circle; joining ends of
    two paths splices them by rewriting the two far ends' ``end``.

    Crossings n - 1..1 are smoothed as a stack, crossing 1 on top, and
    each crossing's joins are logged so it can be undone.  States 2h and
    2h + 1 give crossings 1..n - 1 the smoothings of h, read bit c - 1
    for crossing c.  From h - 1 to h the crossings that change are 1..j,
    with bit j - 1 the lowest set bit of h: the pass undoes them from the
    top, smooths j by B and j - 1..1 by A, and h gains 2 - j set bits.
    That is about four crossing updates per pair of states.  Crossing 0
    is never smoothed: its four ports end the two paths left, and its
    A-smoothing closes two circles iff ``end[0] == 1``, its B-smoothing
    iff ``end[0] == 3``; otherwise each closes one.  A state has at most
    2n + free_loops circles, so the states are tallied in one flat list
    by r * width + k, turned into the dict once at the end.
    """
    n = d.n
    if not n:
        return {(0, d.free_loops): 1}
    end = list(d.partner)
    # ports joined at crossing c under A (0-1, 2-3) and under B (1-2, 3-0)
    joins = [((4 * c, 4 * c + 1, 4 * c + 2, 4 * c + 3),
              (4 * c + 1, 4 * c + 2, 4 * c + 3, 4 * c)) for c in range(n)]
    log: list[tuple[int, ...]] = [()] * n
    # closed[c]: circles, free loops included, once crossings n-1..c are smoothed
    closed = [d.free_loops] * (n + 1)

    def smooth(c: int, b: int) -> None:
        p, q, r, s = joins[c][b]
        x, y = end[p], end[q]
        end[x], end[y] = y, x
        u, v = end[r], end[s]
        end[u], end[v] = v, u
        log[c] = (p, q, x, y, r, s, u, v)
        closed[c] = closed[c + 1] + (x == q) + (u == s)

    width = 2 * n + d.free_loops + 1
    tally = [0] * ((n + 1) * width)
    r = 0  # B-smoothings of crossings 1..n-1, the set bits of h
    for c in range(n - 1, 0, -1):
        smooth(c, 0)
    for high in range(1 << (n - 1)):
        if high:
            j = (high & -high).bit_length()
            for c in range(1, j + 1):
                p, q, x, y, s, t, u, v = log[c]
                end[u], end[v] = s, t
                end[x], end[y] = p, q
            smooth(j, 1)
            for c in range(j - 1, 0, -1):
                smooth(c, 0)
            r += 2 - j
        at = r * width + closed[1] + 1
        tally[at + (end[0] == 1)] += 1
        tally[at + width + (end[0] == 3)] += 1
    return {divmod(i, width): count for i, count in enumerate(tally) if count}


def check_census_limit(d: Diagram, max_crossings: int | None = None) -> None:
    """Raise ``LimitError`` when d is over the counting pass's crossing
    limit (explicit, else KMC_MAX_CROSSINGS, else DEFAULT_MAX_CENSUS)."""
    limit = resolve_limit(max_crossings, DEFAULT_MAX_CENSUS)
    if d.n > limit:
        raise LimitError(f"diagram has {d.n} crossings; census limit is {limit}")


def kauffman_bracket(d: Diagram, *, max_crossings: int | None = None) -> Laurent:
    """The bracket polynomial in A, unknot normalized to 1, folded from
    the (B-smoothings, circles) histogram that one counting pass returns;
    the census limit is checked first."""
    check_census_limit(d, max_crossings)
    total = Laurent.zero()
    for (r, circles), count in circle_counts(d).items():
        total = total + Laurent.term(count, d.n - 2 * r) * LOOP ** (circles - 1)
    return total


def span_bound(d: Diagram, chi: int) -> int:
    """Upper bound 4n + 2(chi - 2) for the bracket span."""
    return 4 * d.n + 2 * (chi - 2)
