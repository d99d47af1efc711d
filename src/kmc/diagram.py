"""Combinatorial virtual link diagrams.

A diagram is a list of classical crossings together with a perfect
matching (the arcs) on their strand ends.  Crossing ``c`` owns the four
ports ``4c .. 4c+3``, numbered counterclockwise around the crossing; the
under-strand runs through ports 0 and 2, the over-strand through ports 1
and 3.  With that convention

* the A-smoothing of a crossing joins port pairs (0,1) and (2,3),
* the B-smoothing joins (1,2) and (3,0),
* a strand entering at port p leaves at the opposite port ``p ^ 2``.

Virtual crossings are never stored: a strand running through any number
of them is a single arc, so detour moves are invisible by construction.
Closed curves that meet no classical crossing are kept as a count of
free loops (the 0-crossing unknot is one free loop).

Text formats
------------
PD text: one crossing per line.  ``X a b c d`` is a classical crossing
with edge labels listed counterclockwise starting at the incoming
under-strand; ``V a b c d`` is a virtual crossing, dissolved while
parsing (labels a/c and b/d are fused into passing strands); ``loop``
adds a free loop; ``#`` starts a comment.

Gauss code: tokens ``O<k><sign>`` / ``U<k><sign>`` with sign ``+`` or
``-`` (the local writhe of crossing k), one token run per link
component, components separated by ``;``.  ``loop`` denotes a
0-crossing component.  Each label must occur exactly once as O and once
as U, with matching signs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import DiagramError, ParseError

__all__ = [
    "Diagram",
    "parse_pd",
    "parse_gauss",
    "render_pd",
    "orient",
    "crossing_signs",
    "mirror",
    "switch_crossing",
    "virtualize",
    "r1_add",
    "r2_add",
    "simplify",
    "components",
    "crossing_components",
    "split_components",
    "is_connected",
]


@dataclass(frozen=True)
class Diagram:
    """Immutable virtual link diagram.

    n: number of classical crossings.
    arcs: perfect matching on the ports 0 .. 4n-1, stored canonically
        (each pair sorted, pairs sorted by first port).
    free_loops: number of closed components with no classical crossing.
    """

    n: int
    arcs: tuple[tuple[int, int], ...]
    free_loops: int = 0

    def __post_init__(self):
        arcs = tuple(sorted(tuple(sorted(a)) for a in self.arcs))
        object.__setattr__(self, "arcs", arcs)
        if self.n < 0 or self.free_loops < 0:
            raise DiagramError("crossing and loop counts must be non-negative")
        if self.n == 0 and self.free_loops == 0:
            raise DiagramError(
                "empty diagram; represent the unknot as a single free loop"
            )
        seen = [False] * (4 * self.n)
        for p, q in arcs:
            if p == q:
                raise DiagramError(f"port {p} matched to itself")
            for x in (p, q):
                if not 0 <= x < 4 * self.n:
                    raise DiagramError(f"port {x} out of range")
                if seen[x]:
                    raise DiagramError(f"port {x} appears in two arcs")
                seen[x] = True
        if not all(seen):
            missing = seen.index(False)
            raise DiagramError(f"port {missing} not matched by any arc")

    @cached_property
    def partner(self) -> tuple[int, ...]:
        """partner[p] = port at the other end of the arc containing p."""
        out = [0] * (4 * self.n)
        for p, q in self.arcs:
            out[p] = q
            out[q] = p
        return tuple(out)

    @cached_property
    def arc_index(self) -> tuple[int, ...]:
        """arc_index[p] = index into self.arcs of the arc containing p."""
        out = [0] * (4 * self.n)
        for i, (p, q) in enumerate(self.arcs):
            out[p] = i
            out[q] = i
        return tuple(out)

    @cached_property
    def crossing_graph(self) -> tuple[tuple[int, ...], int, frozenset[int]]:
        """What ``crossing_components`` returns, searched once per diagram."""
        return _search_crossings(self)

    def strand_count(self) -> int:
        """Number of handles that r1_add/r2_add accept: arcs then loops."""
        return len(self.arcs) + self.free_loops


def _strand_cycles(d: Diagram) -> list[list[int]]:
    """Closed strand walks as port sequences (in, out, in, out, ...)."""
    cycles = []
    visited = [False] * (4 * d.n)
    for start in range(4 * d.n):
        if visited[start]:
            continue
        cycle = []
        p = start
        while not visited[p]:
            visited[p] = True
            cycle.append(p)  # entering here
            out = p ^ 2
            visited[out] = True
            cycle.append(out)
            p = d.partner[out]
        cycles.append(cycle)
    return cycles


def components(d: Diagram) -> int:
    """Number of link components (strand cycles plus free loops)."""
    return len(_strand_cycles(d)) + d.free_loops


def orient(d: Diagram) -> tuple[bool, ...]:
    """Canonical orientation, one bit per port: inbound[p] is True when
    the strand enters its crossing at port p.  Each component is traced
    from its least port, entering there."""
    inbound = [False] * (4 * d.n)
    for cycle in _strand_cycles(d):
        for i, p in enumerate(cycle):
            inbound[p] = i % 2 == 0
    return tuple(inbound)


def crossing_signs(d: Diagram, inbound: tuple[bool, ...]) -> tuple[int, int]:
    """(n_plus, n_minus) crossing sign counts for an oriented diagram.

    A crossing is positive exactly when rotating the over-strand
    direction counterclockwise by a quarter turn gives the under-strand
    direction; with the port convention here that happens iff the
    strands enter at exactly one of ports 0 and 1.
    """
    n_plus = n_minus = 0
    for c in range(d.n):
        if inbound[4 * c] != inbound[4 * c + 1]:
            n_plus += 1
        else:
            n_minus += 1
    return n_plus, n_minus


def _remap_ports(d: Diagram, mapping: dict[int, int]) -> Diagram:
    arcs = tuple(
        (mapping.get(p, p), mapping.get(q, q)) for p, q in d.arcs
    )
    return Diagram(d.n, arcs, d.free_loops)


def switch_crossing(d: Diagram, c: int) -> Diagram:
    """Swap the over- and under-strand at crossing c.

    Port labels rotate by one step, which preserves the counterclockwise
    order (hence planarity, when the diagram is planar) while exchanging
    the strand roles.
    """
    if not 0 <= c < d.n:
        raise DiagramError(f"no crossing {c}")
    base = 4 * c
    mapping = {base + k: base + ((k + 1) & 3) for k in range(4)}
    return _remap_ports(d, mapping)


def mirror(d: Diagram) -> Diagram:
    """The mirror diagram: swap over and under everywhere.

    Implemented as an in-plane reflection (the arcs at ports 1 and 3
    swap at every crossing), which exchanges the two smoothings of each
    crossing, so the bracket transforms by A -> A^-1.  Unlike a
    per-crossing switch this is an involution on the stored form.
    """
    mapping: dict[int, int] = {}
    for c in range(d.n):
        mapping[4 * c + 1] = 4 * c + 3
        mapping[4 * c + 3] = 4 * c + 1
    return _remap_ports(d, mapping)


def virtualize(d: Diagram, c: int) -> Diagram:
    """Replace crossing c by virtual-classical-virtual and dissolve.

    The classical crossing keeps its writhe; after dissolving the two
    virtual crossings the arcs formerly attached at ports 0/1 swap, as
    do the arcs at ports 2/3.  The operation is an involution and is
    invisible to the bracket, the atom, and the Khovanov homology.
    """
    if not 0 <= c < d.n:
        raise DiagramError(f"no crossing {c}")
    base = 4 * c
    mapping = {base: base + 1, base + 1: base, base + 2: base + 3, base + 3: base + 2}
    return _remap_ports(d, mapping)


def _take_strand(d: Diagram, ref: int) -> tuple[tuple[int, int] | None, list[tuple[int, int]], int]:
    """Remove the referenced strand; return (arc-or-None, kept arcs, loops).

    Handles 0 .. len(arcs)-1 name arcs; the next free_loops values name
    free loops.  For a free loop the returned arc is None.
    """
    if not 0 <= ref < d.strand_count():
        raise DiagramError(f"no strand {ref}")
    if ref < len(d.arcs):
        kept = [a for i, a in enumerate(d.arcs) if i != ref]
        return d.arcs[ref], kept, d.free_loops
    return None, list(d.arcs), d.free_loops - 1


def r1_add(d: Diagram, strand: int, chirality: int = 1) -> Diagram:
    """Add a kink on the given strand.

    chirality +1 multiplies the bracket by -A^3, chirality -1 by -A^-3.
    """
    if chirality not in (1, -1):
        raise DiagramError("chirality must be +1 or -1")
    arc, arcs, loops = _take_strand(d, strand)
    p0, p1, p2, p3 = (4 * d.n + k for k in range(4))
    if chirality == 1:
        # strand passes under first; the curl circle appears in the A-state
        new = [(p2, p3)]
        ends = (p0, p1)
    else:
        new = [(p3, p0)]
        ends = (p1, p2)
    if arc is None:
        new.append(ends[::-1])
    else:
        p, q = arc
        new.append((p, ends[0]))
        new.append((ends[1], q))
    return Diagram(d.n + 1, tuple(arcs) + tuple(new), loops)


def r2_add(
    d: Diagram, strand_over: int, strand_under: int, *, reverse: bool = False
) -> Diagram:
    """Slide one strand over another, adding a cancelling crossing pair.

    The first strand passes over at both new crossings.  The two handles
    may name the same strand, in which case it is folded over itself.
    Either handle may be a free loop.

    For distinct strands there are two hookups, differing in the
    direction the over-strand runs through the new tangle; ``reverse``
    selects the second.  Both are honest slide moves (the bracket never
    changes), but when the diagram is planar at most one of them keeps
    it planar, depending on how the two strands sit in the plane.
    """
    q0, q1, q2, q3 = (4 * d.n + k for k in range(4))
    r0, r1, r2, r3 = (4 * d.n + 4 + k for k in range(4))
    if strand_over == strand_under:
        arc, arcs, loops = _take_strand(d, strand_over)
        # fold: over-pass enters q1 and exits q2 after doubling back
        new = [(q3, r3), (r1, r0), (r2, q0)]
        if arc is None:
            new.append((q2, q1))
        else:
            p, q = arc
            new.append((p, q1))
            new.append((q2, q))
        return Diagram(d.n + 2, tuple(arcs) + tuple(new), loops)

    arc_a, arcs, loops = _take_strand(d, strand_over)
    # handles above the removed one shift down by one, arcs and loops alike
    under = strand_under
    if not 0 <= under < d.strand_count():
        raise DiagramError(f"no strand {under}")
    if under > strand_over:
        under -= 1
    if under < len(arcs):
        arc_b = arcs.pop(under)
    else:
        arc_b = None
        loops -= 1

    new = [(q1, r1), (q2, r0)]
    over_in, over_out = (r3, q3) if reverse else (q3, r3)
    if arc_a is None:
        new.append((over_out, over_in))
    else:
        pa, qa = arc_a
        new.append((pa, over_in))
        new.append((over_out, qa))
    if arc_b is None:
        new.append((r2, q0))
    else:
        pb, qb = arc_b
        new.append((pb, q0))
        new.append((r2, qb))
    return Diagram(d.n + 2, tuple(arcs) + tuple(new), loops)


def simplify(d: Diagram) -> Diagram:
    """The knot d with its Reidemeister I kinks and II bigons removed
    until neither is left; the inverse of ``r1_add`` and ``r2_add``.

    A kink is an arc joining two adjacent ports of one crossing, 4c + i
    and 4c + ((i + 1) mod 4).  Its crossing is deleted and the arcs at
    its other two ports are joined into one.

    A bigon is a pair of crossings c1 != c2 joined by an over-over arc
    (4c1 + a, 4c2 + b), a and b odd, and an under-under arc
    (4c1 + a', 4c2 + b'), a' and b' even, whose corners turn opposite
    ways: a' - a = b - b' (mod 4).  Both crossings are deleted, and the
    arcs at the far ends of the over-strand, 4c1 + (a ^ 2) and
    4c2 + (b ^ 2), are joined, then those of the under-strand.

    Why the turns must be opposite.  A crossing is positive exactly when
    its over-strand enters at a port o and its under-strand at u with
    o - u = 3 (mod 4) (``crossing_signs``).  Run the over-strand from c1
    to c2: it enters c1 at a ^ 2 and c2 at b.  If the under-strand runs
    from c1 to c2 too, it enters at a' ^ 2 and b', so the signs are
    opposite iff a - a' = b' - b; if it runs from c2 to c1, it enters at
    b' ^ 2 and a', and the condition is the same.  So opposite turns are
    opposite signs, in either orientation.  In the knot's Gauss diagram,
    where virtual crossings are no chords, the two chords then have
    opposite signs, adjacent over-ends and adjacent under-ends: the
    configuration of the Gauss-diagram move Omega2, parallel or
    antiparallel (Goussarov-Polyak-Viro).  Deleting them is that move,
    so the result is the same virtual knot even when the bigon bounds no
    face of a planar diagram; the crossings left keep their ports, hence
    their passes and signs.  Same turns are equal signs, a clasp, which
    no move removes: it stays.

    A join that closes on itself makes a free loop.  A join can make a
    new kink or bigon only at the crossings it touches, so each crossing
    is looked at O(1) times.  The remaining crossings keep their order.
    Returns d itself when nothing is removed or d is not a knot:
    renumbering ports may reverse one component of a link against
    another, which changes its Khovanov table.
    """
    if components(d) != 1:
        return d
    n = d.n
    partner = list(d.partner)
    alive = [True] * n
    loops = d.free_loops
    todo = list(range(n))

    def join(p: int, q: int) -> None:
        """Join the arcs at ports p and q, the ends of a deleted path."""
        nonlocal loops
        x, y = partner[p], partner[q]
        if x == q:
            loops += 1
        else:
            partner[x], partner[y] = y, x
            todo.extend((x >> 2, y >> 2))

    while todo:
        c = todo.pop()
        if not alive[c]:
            continue
        base = 4 * c
        kink = next((i for i in range(4) if partner[base + i] == base + (i + 1) % 4), None)
        if kink is not None:
            alive[c] = False
            join(base + (kink + 2) % 4, base + (kink + 3) % 4)
            continue
        bigon = _bigon_at(partner, c)
        if bigon is not None:
            over, under = bigon
            alive[c] = alive[over[1] >> 2] = False
            join(*over)
            join(*under)
    kept = [c for c in range(n) if alive[c]]
    if len(kept) == n:
        return d
    new = {c: 4 * i for i, c in enumerate(kept)}  # first port of each kept crossing
    arcs = tuple(
        (new[p >> 2] + (p & 3), new[q >> 2] + (q & 3))
        for p, q in enumerate(partner)
        if p < q and alive[p >> 2]
    )
    return Diagram(len(kept), arcs, loops)


def _bigon_at(partner: list[int], c: int) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """The far ends of the over- and of the under-strand of a bigon at
    crossing c (see ``simplify``), each a pair of ports, or None."""
    base = 4 * c
    for a in (1, 3):
        q = partner[base + a]
        if q & 1 and q >> 2 != c:
            for a2 in (0, 2):
                q2 = partner[base + a2]
                # q2 - q = b' - b, as both ports are at crossing q >> 2
                if q2 >> 2 == q >> 2 and not q2 & 1 and (a2 - a + q2 - q) % 4 == 0:
                    return (base + (a ^ 2), q ^ 2), (base + (a2 ^ 2), q2 ^ 2)
    return None


def crossing_components(d: Diagram) -> tuple[tuple[int, ...], int, frozenset[int]]:
    """(comp, count, flat): the component of every crossing, numbered in
    order of least crossing, the number of components, and the flat ones,
    which have no source-sink orientation (two opposite edges in, two out
    at every crossing) and so a non-orientable atom (see ``kmc.atom``).
    The search runs once per diagram (``Diagram.crossing_graph``), so
    the values are immutable."""
    return d.crossing_graph


def _search_crossings(d: Diagram) -> tuple[tuple[int, ...], int, frozenset[int]]:
    """``crossing_components`` by one depth-first search of the 4-valent
    graph.  The search 2-colours the crossings: crossing c gets a bit
    x_c, ports 0 and 2 carry x_c, ports 1 and 3 its complement, and an
    arc (p, q) requires x_c(p) + x_c(q) = 1 + p + q (mod 2)."""
    comp = [-1] * d.n
    colour = [0] * d.n
    flat: set[int] = set()
    partner = d.partner
    count = 0
    for root in range(d.n):
        if comp[root] >= 0:
            continue
        comp[root] = count
        stack = [root]
        while stack:
            c = stack.pop()
            flip = 1 ^ colour[c]
            for p in range(4 * c, 4 * c + 4):
                q = partner[p]
                e = q >> 2
                want = flip ^ ((p ^ q) & 1)
                if comp[e] < 0:
                    comp[e] = count
                    colour[e] = want
                    stack.append(e)
                elif colour[e] != want:
                    flat.add(count)
        count += 1
    return tuple(comp), count, frozenset(flat)


def split_components(d: Diagram) -> list[Diagram]:
    """Connected components of the underlying 4-valent graph.

    Each free loop is its own component.  Crossings are relabelled
    consecutively inside each returned diagram.
    """
    comp, count, _ = crossing_components(d)
    out = []
    for k in range(count):
        crossings = [c for c in range(d.n) if comp[c] == k]
        new_index = {c: i for i, c in enumerate(crossings)}
        arcs = [
            (4 * new_index[p // 4] + p % 4, 4 * new_index[q // 4] + q % 4)
            for p, q in d.arcs
            if comp[p // 4] == k
        ]
        out.append(Diagram(len(crossings), tuple(arcs), 0))
    out.extend(Diagram(0, (), 1) for _ in range(d.free_loops))
    return out


def is_connected(d: Diagram) -> bool:
    return crossing_components(d)[1] + d.free_loops == 1


# ---------------------------------------------------------------------------
# PD text
# ---------------------------------------------------------------------------

def _pd_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_pd(text: str) -> Diagram:
    """Parse PD text into a diagram, dissolving virtual crossings."""
    classical: list[tuple[int, list[str]]] = []
    fuse: dict[str, str] = {}
    loops = 0
    labels_seen: dict[str, int] = {}

    def find(x: str) -> str:
        while fuse.get(x, x) != x:
            fuse[x] = fuse.get(fuse[x], fuse[x])
            x = fuse[x]
        return x

    virtual_labels: set[str] = set()
    for lineno, tokens in _pd_lines(text):
        kind = tokens[0]
        if kind == "loop":
            if len(tokens) != 1:
                raise ParseError("'loop' takes no arguments", lineno)
            loops += 1
            continue
        if kind not in ("X", "V"):
            raise ParseError(f"unknown directive {kind!r}", lineno)
        if len(tokens) != 5:
            raise ParseError(f"{kind} needs exactly four edge labels", lineno)
        labels = tokens[1:]
        for lab in labels:
            labels_seen[lab] = labels_seen.get(lab, 0) + 1
        if kind == "X":
            classical.append((lineno, labels))
        else:
            a, b, c, e = labels
            for x, y in ((a, c), (b, e)):
                rx, ry = find(x), find(y)
                if rx != ry:
                    fuse[rx] = ry
            virtual_labels.update(labels)

    for lab, count in labels_seen.items():
        if count != 2:
            raise ParseError(f"edge label {lab!r} used {count} times (need 2)")

    ports_of: dict[str, list[int]] = {}
    for i, (lineno, labels) in enumerate(classical):
        for k, lab in enumerate(labels):
            ports_of.setdefault(find(lab), []).append(4 * i + k)

    arcs = []
    for root, ports in ports_of.items():
        if len(ports) != 2:
            raise ParseError(
                f"strand through edge label {root!r} meets {len(ports)} classical"
                " crossing ports after dissolving virtual crossings (need 2)"
            )
        arcs.append((ports[0], ports[1]))

    # label classes that touch no classical crossing close into free loops
    closed = {find(lab) for lab in virtual_labels} - set(ports_of)
    loops += len(closed)

    return Diagram(len(classical), tuple(arcs), loops)


def render_pd(d: Diagram) -> str:
    """Canonical PD text; parse_pd(render_pd(d)) == d."""
    label = [0] * (4 * d.n)
    for i, (p, q) in enumerate(d.arcs):
        label[p] = label[q] = i + 1
    lines = []
    for c in range(d.n):
        a, b, cc, e = (label[4 * c + k] for k in range(4))
        lines.append(f"X {a} {b} {cc} {e}")
    lines.extend("loop" for _ in range(d.free_loops))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Gauss codes
# ---------------------------------------------------------------------------

_GAUSS_TOKEN = re.compile(r"^([OU])([0-9]+)([+-])$")


def parse_gauss(text: str) -> Diagram:
    """Parse a signed Gauss code into a diagram.

    Realization of a crossing with writhe sign s: the under-pass enters
    at port 0 and leaves at port 2; the over-pass enters at port 3 and
    leaves at port 1 when s is +, and enters at port 1, leaving at
    port 3, when s is -.
    """
    body = " ".join(
        line.split("#", 1)[0] for line in text.splitlines()
    )
    segments = [seg.strip() for seg in body.split(";")]
    passes: dict[str, dict[str, tuple[int, str]]] = {}
    comps: list[list[tuple[str, str]]] = []
    loops = 0
    index_of: dict[str, int] = {}
    for seg in segments:
        tokens = seg.split()
        if not tokens:
            continue
        if tokens == ["loop"]:
            loops += 1
            continue
        comp = []
        for tok in tokens:
            m = _GAUSS_TOKEN.match(tok)
            if m is None:
                raise ParseError(f"unknown token {tok!r}")
            kind, lab, sign = m.groups()
            info = passes.setdefault(lab, {})
            if kind in info:
                raise ParseError(f"label {lab} opened twice as {kind}")
            info[kind] = (index_of.setdefault(lab, len(index_of)), sign)
            comp.append((kind, lab))
        comps.append(comp)

    for lab, info in passes.items():
        if "O" not in info:
            raise ParseError(f"label {lab} never opened (no O{lab} token)")
        if "U" not in info:
            raise ParseError(f"label {lab} never closed (no U{lab} token)")
        if info["O"][1] != info["U"][1]:
            raise ParseError(f"label {lab} has conflicting signs")

    def pass_ports(kind: str, lab: str) -> tuple[int, int]:
        c, sign = passes[lab][kind]
        base = 4 * c
        if kind == "U":
            return base, base + 2
        if sign == "+":
            return base + 3, base + 1
        return base + 1, base + 3

    arcs = []
    for comp in comps:
        ends = [pass_ports(kind, lab) for kind, lab in comp]
        for i, (_, out) in enumerate(ends):
            nxt_in = ends[(i + 1) % len(ends)][0]
            arcs.append((out, nxt_in))
    if not comps and loops == 0:
        loops = 1  # empty code: the unknot
    return Diagram(len(passes), tuple(arcs), loops)
