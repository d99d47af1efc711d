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
histogram, the census of the cube, without visiting a state: it smooths
one crossing at a time and keeps one packed census per pairing of the
smoothed tangle's ends.  Only the Khovanov complex walks every circle
of every state, with the per-state walker ``_walker``, because it keeps
each arc's label; the census sizes its blocks first.  The bracket and
the single-circle census check their crossing limit before the pass
starts.
"""

from __future__ import annotations

from operator import itemgetter

from .diagram import Diagram
from .errors import LimitError, resolve_limit
from .laurent import LOOP, Laurent

__all__ = [
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


def circle_counts(d: Diagram) -> dict[tuple[int, int], int]:
    """The census of the cube: {(r, k): number of states} over all 2^n
    states, r their B-smoothings and k their circles, free loops
    included, in (r, k) order; the counting pass.

    The crossings smoothed so far, each both ways, form a tangle; its
    frontier is the ports of the other crossings whose arc partner is in
    it.  A pairing, the tuple of each frontier port's path's other end in
    port order, holds one int packing the count of (r, k) at bit offset
    (n + 1)(r * width + k), width = 2n + free_loops + 1: no count
    exceeds 2^n, no state has width circles.  A join of the two ends of
    one path closes a circle, a shift by n + 1 bits; a B-smoothing
    shifts by (n + 1) * width.  Equal pairings are added.  The next
    crossing has the most ports whose partners are in the tangle, ties
    to the least index, so the cost follows the pairings, not 2^n.
    """
    n, partner = d.n, d.partner
    bits, width = n + 1, 2 * n + d.free_loops + 1
    pairings, frontier = {(): 1}, []
    left = list(range(n))
    inward = [0] * n  # ports whose partner is in the tangle
    at = [0] * (4 * n)  # a port's place in the pairing being smoothed
    for _ in range(n):
        c = max(left, key=inward.__getitem__)
        ports = range(4 * c, 4 * c + 4)
        fresh = {}  # the arcs from c to the crossings left, c included, as ends
        for p in ports:
            q = partner[p]
            if q >> 2 in left:
                fresh[p], fresh[q] = q, p
            inward[q >> 2] += 1
        left.remove(c)
        tail = tuple(fresh.values())  # what each pairing is extended by
        for i, p in enumerate(frontier + list(fresh)):
            at[p] = i
        after = sorted(set(frontier).union(fresh).difference(ports))
        key = itemgetter(*[at[p] for p in after]) if after else lambda ends: ()
        p0, p1, p2, p3 = ports
        # A joins p0-p1 and p2-p3; B joins p1-p2 and p3-p0
        joins = [(at[p], q, at[q], at[r], s, at[s], shift)
                 for p, q, r, s, shift in ((p0, p1, p2, p3, 0), (p1, p2, p3, p0, bits * width))]
        merged: dict[tuple[int, ...], int] = {}
        for pairing, value in pairings.items():
            for ip, q, iq, ir, s, is_, shift in joins:
                ends = [*pairing, *tail]
                x, y = ends[ip], ends[iq]
                ends[at[x]], ends[at[y]] = y, x
                u, v = ends[ir], ends[is_]
                ends[at[u]], ends[at[v]] = v, u
                pair = key(ends)
                merged[pair] = merged.get(pair, 0) + (value << shift + bits * ((x == q) + (u == s)))
        pairings, frontier = merged, after
    value, census = pairings[()] << bits * d.free_loops, {}
    while value:
        slot = ((value & -value).bit_length() - 1) // bits  # the least one in use
        count = value >> slot * bits & (1 << bits) - 1
        census[divmod(slot, width)] = count
        value -= count << slot * bits
    return census


def check_census_limit(d: Diagram, max_crossings: int | None = None) -> None:
    """Raise ``LimitError`` when d is over the counting pass's crossing
    limit (explicit, else KMC_MAX_CROSSINGS, else DEFAULT_MAX_CENSUS)."""
    limit = resolve_limit(max_crossings, DEFAULT_MAX_CENSUS)
    if d.n > limit:
        raise LimitError(f"diagram has {d.n} crossings; census limit is {limit}")


def kauffman_bracket(d: Diagram, *, max_crossings: int | None = None) -> Laurent:
    """The bracket polynomial in A, unknot normalized to 1: the census of
    one counting pass, folded by Horner's rule in the loop value from the
    most circles down.  The census limit is checked first."""
    check_census_limit(d, max_crossings)
    rows: dict[int, dict[int, int]] = {}
    for (r, circles), count in circle_counts(d).items():
        rows.setdefault(circles, {})[d.n - 2 * r] = count
    total = Laurent()
    for circles in range(max(rows), 0, -1):
        total = total * LOOP + Laurent(rows.get(circles))
    return total


def span_bound(d: Diagram, chi: int) -> int:
    """Upper bound 4n + 2(chi - 2) for the bracket span."""
    return 4 * d.n + 2 * (chi - 2)
