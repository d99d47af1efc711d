"""Khovanov chain complexes and homology tables.

The cube has one vertex per Kauffman state; the chain space of a state
is spanned by labellings of its circles with v+ or v-.  Gradings, with
r the number of B-smoothings of the state and (p, m) the counts of v+
and v- labels:

    t = r - n_minus
    q = (p - m) + r + n_plus - 2 n_minus

Cube edges flip one crossing from A to B.  An edge merges two circles
(the product map: ++ -> +, +- -> -, -- -> 0), splits one circle (the
coproduct: + -> +- and -+, - -> --), or, on diagrams whose atom is
non-orientable, re-glues one circle to itself; that single-cycle event
is the zero map, which is only consistent over GF(2).  Over the
rationals the usual edge sign (-1)^(number of set lower bits) applies
and the atom must be orientable.

The complex is built once, for the field asked for: the census
(``statesum.circle_counts``) sizes every block, then one sweep of the
cube walks each state's circles and lays its columns into place; the
walks must fill the blocks exactly (the census check).  Every column
entry is +-1 (unsigned over GF(2)) and every entry of a column has its
own target, so the GF(2) complex is the rational one reduced mod 2, and
one complex built over Q serves both tables.  The basis is not stored:
a block has one column per basis element, so its length is the chain
dimension, and an element's position in its block is arithmetic on its
state and mask.

Edges are laid down by mask programs, by this lemma.  Circles are
numbered by least port, free loops last.  The edge at crossing c
touches only the circles through c's ports: x (through port 4c) and y
(through 4c + 2) in the source, z1 (through 4c) and z2 (through 4c + 1)
in the target.  Every other circle keeps its ports, hence its least
port, so the untouched circles of source and target, each listed in
increasing order, correspond one to one in that order.  An edge's map
on label masks therefore depends only on the key (k, x, y, z1, z2), k
the source's circle count, and is built once per key: measured at
n = 8 to 12, 1,024 to 24,576 edges share 65 to 417 keys.

Homology is computed per (t, q) block by exact rank computations: GF(2)
rows as bitsets, rational blocks by integer elimination (see ``linalg``)
only where GF(2) ranks do not pin them.  With r_F(t) the rank over F of
the block d_t: C_t -> C_{t+1}, an odd minor is nonzero, so r_Q(t) >=
r_2(t), and im lies in ker over Q, so r_Q(t-1) + r_Q(t) <= dim C_t.
Where GF(2) homology vanishes at C_t, dim C_t = r_2(t-1) + r_2(t), hence
r_Q = r_2 on both blocks at C_t: no 2-torsion lives there (Shumakovitch,
arXiv:math/0405474).  This needs d.d = 0 over Q, for im in ker, and
over GF(2), for the GF(2) table to be homology.  One pass over the
blocks checks it and takes the GF(2) ranks: each block's columns become
bitsets once, check the block before, and are ranked.  On a complex over
Q the check sums exactly over the integers, which gives both fields:
the GF(2) blocks are the Q blocks reduced mod 2, entry for entry, so
d.d = 0 over Z reduces to d.d = 0 mod 2.  On a complex over GF(2) it
XORs the bitsets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import comb
from pathlib import Path

from .diagram import Diagram, crossing_components, crossing_signs, orient, simplify
from .errors import LimitError, TableError, UnsupportedFieldError, resolve_limit
from .laurent import Laurent
from .linalg import gf2_rank, sparse_integer_rank
from .statesum import _walker, circle_counts

__all__ = [
    "GF2",
    "Q",
    "KhComplex",
    "KhTable",
    "check_field",
    "check_orientable",
    "build_complex",
    "homology",
    "kh_table",
    "thickness",
    "q_span",
    "load_table",
    "graded_euler_characteristic",
]

GF2 = "gf2"
Q = "q"

DEFAULT_MAX_GF2 = 14
DEFAULT_MAX_Q = 12


# A differential column: list of (target basis index, coefficient).
Column = list[tuple[int, int]]


@dataclass
class KhComplex:
    """Cube complex of a diagram over one coefficient field: its blocks
    and their GF(2) ranks, nothing else.

    The basis of C at (t, q), its (state, label mask) pairs by state and
    then by mask (bit i set: circle i carries v+), is not stored; block
    (t, q) has one column per element, so its length is dim C(t, q)."""

    field: str
    # (t, q) -> one column per basis element, mapping into (t+1, q); in
    # increasing (t, q) order
    blocks: dict[tuple[int, int], list[Column]]
    # (t, q) -> GF(2) rank of the nonempty block leaving (t, q) reduced
    # mod 2; filled by ``build_complex``
    gf2_ranks: dict[tuple[int, int], int] = field(default_factory=dict)

    # kept for the benchmark: perfbench's spans._complex_attrs calls it
    def total_dimension(self) -> int:
        return sum(len(b) for b in self.blocks.values())


@dataclass(frozen=True)
class KhTable:
    """Nonzero homology dimensions indexed by (t, q)."""

    field: str
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def q_min(self) -> int:
        self._require_nonempty()
        return min(q for _, q in self.entries)

    def q_max(self) -> int:
        self._require_nonempty()
        return max(q for _, q in self.entries)

    def diagonals(self) -> set[int]:
        """Occupied values of the diagonal index q - 2t."""
        return {q - 2 * t for t, q in self.entries}

    def diagonal_spread(self) -> int:
        self._require_nonempty()
        diags = self.diagonals()
        return max(diags) - min(diags)

    def _require_nonempty(self):
        if not self.entries:
            raise TableError("empty homology table")

    def to_json_dict(self) -> dict:
        entries = [
            {"t": t, "q": q, "dim": dim}
            for (t, q), dim in sorted(self.entries.items())
        ]
        return {"schema": 1, "field": self.field, "entries": entries}

    @classmethod
    def from_json_dict(cls, data: dict, field_hint: str | None = None) -> "KhTable":
        if "entries" not in data:
            raise TableError("no 'entries' key in table data")
        if not isinstance(data["entries"], list):
            raise TableError("table 'entries' is not a list")
        entries: dict[tuple[int, int], int] = {}
        for item in data["entries"]:
            try:
                t, q, dim = item["t"], item["q"], item["dim"]
            except (KeyError, TypeError) as exc:
                raise TableError(f"bad table entry {item!r}") from exc
            if not all(type(v) is int for v in (t, q, dim)):  # bool is no JSON integer
                raise TableError(f"bad table entry {item!r}: t, q and dim must be integers")
            if dim <= 0:
                raise TableError(f"non-positive dimension in entry {item!r}")
            key = (t, q)
            if key in entries:
                raise TableError(f"duplicate table entry at (t={t}, q={q})")
            entries[key] = dim
        name = data.get("field", field_hint or Q)
        if name not in (GF2, Q):
            raise TableError(f"unknown table field {name!r} (expected gf2 or q)")
        if field_hint and field_hint != name:
            raise TableError(f"table is over {name}, not {field_hint}")
        return cls(name, entries)


def _single_field_block(data: dict, field_hint: str | None) -> dict:
    """Accept either a bare table or certificate JSON with a fields map,
    whose key names a table's field where the table does not."""
    if "entries" in data:
        return data
    fields = data.get("fields")
    if isinstance(fields, dict) and fields:
        if field_hint not in fields and len(fields) > 1:
            raise TableError(
                f"several field tables present ({', '.join(sorted(fields))}); pick one"
            )
        name = field_hint if field_hint in fields else next(iter(fields))
        block = fields[name]
        return {"field": name, **block} if isinstance(block, dict) else block
    raise TableError("no homology table found in JSON data")


def load_table(path: str | Path, field_hint: str | None = None) -> KhTable:
    """Load a KhTable from a JSON fixture or from certificate output."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise TableError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise TableError(f"cannot read {path}: not UTF-8 text") from exc
    except json.JSONDecodeError as exc:
        raise TableError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise TableError(f"{path} is nested too deeply") from exc
    block = _single_field_block(data, field_hint) if isinstance(data, dict) else None
    if not isinstance(block, dict):
        raise TableError("no homology table found in JSON data")
    return KhTable.from_json_dict(block, field_hint)


def check_field(d: Diagram, field: str, *, max_crossings: int | None = None) -> None:
    """Raise unless the complex of d over field may be built: the field
    is known, d is within its crossing limit, and, over Q, the atom is
    orientable (``crossing_components`` finds no flat component).
    Nothing here is exponential in n."""
    if field not in (GF2, Q):
        raise UnsupportedFieldError(f"unknown field {field!r}")
    limit = resolve_limit(
        max_crossings, DEFAULT_MAX_Q if field == Q else DEFAULT_MAX_GF2
    )
    if d.n > limit:
        raise LimitError(
            f"diagram has {d.n} crossings; limit for field {field} is {limit}"
        )
    if field == Q:
        check_orientable(d)


def check_orientable(d: Diagram) -> None:
    """Raise unless d's atom is orientable, as rational coefficients
    need: ``crossing_components`` finds no flat component.  Removing a
    kink or a bigon (``simplify``) keeps an orientable atom orientable,
    but a bigon's removal can make a non-orientable one orientable, so
    the rationals are decided on the diagram as given."""
    if crossing_components(d)[2]:
        raise UnsupportedFieldError(
            "rational coefficients need an orientable atom; this diagram's"
            " atom is non-orientable (use gf2)"
        )


def build_complex(
    d: Diagram, field: str = GF2, *, max_crossings: int | None = None
) -> KhComplex:
    """Build the cube complex of d over GF(2) or Q, then check d.d = 0
    and rank every block over GF(2) in one pass (``_gf2_pass``).

    Rational coefficients require an orientable atom (``check_field``
    reads it from d).  Over Q, d.d = 0 is checked by exact integer sums,
    which implies it mod 2; over GF(2), by XOR.  A failed check, or a
    single-cycle edge over Q, raises an AssertionError.  The GF(2) ranks
    are kept in gf2_ranks, so a complex over Q carries both tables (see
    ``homology``).
    """
    check_field(d, field, max_crossings=max_crossings)
    complex_ = _skeleton(d, *crossing_signs(d, orient(d)), field)
    complex_.gf2_ranks = _gf2_pass(complex_)
    return complex_


def _skeleton(d: Diagram, n_plus: int, n_minus: int, field: str) -> KhComplex:
    """The complex over field from the census of d and one sweep of its
    cube.

    The census (``circle_counts``) sizes every block first: a state with
    r B-smoothings and k circles, free loops included, has its masks of
    popcount j, in increasing order, in block (t, q) = (r - n_minus,
    r + n_plus - 2 n_minus - k + 2j).  A mask's place among them is its
    position in one permutation per circle count; columns and entry
    tables are indexed by position.  The sweep walks the states from
    2^n - 1 down, so an edge's target s + 2^c is walked before its
    source, and takes each state's runs at offsets counted down from its
    blocks' sizes: states sit in increasing order within every block.  A
    walk the census does not count, a run that would start below 0 or a
    block left short raises an AssertionError (the census check).  Along
    an edge the untouched circles keep their order (the lemma in the
    module docstring), so the edge's action on positions depends only on
    its key (k, x, y, z1, z2): ``_edge_program`` builds one program per
    key, cached for this call, and each edge only lays its entries down.
    Over GF(2) every entry is (target, 1); over Q the edge from s to
    s + 2^c takes the sign (-1)^(number of set bits of s below c), and a
    single-cycle edge raises an AssertionError."""
    n, loops = d.n, d.free_loops
    arc_of = d.arc_index
    # per crossing c: its bit, and the arcs at ports 4c, 4c + 1 and 4c + 2
    ports = [(1 << c, arc_of[4 * c], arc_of[4 * c + 1], arc_of[4 * c + 2]) for c in range(n)]
    census = circle_counts(d)
    ints = list(range(1 << max(k for _, k in census)))  # one int object per position
    pos = {}  # k -> position of each mask
    for k in {k for _, k in census}:
        pos[k] = [0] * (1 << k)
        for p, m in zip(ints, sorted(range(1 << k), key=lambda m: (m.bit_count(), m))):
            pos[k][m] = p
    sizes: dict[tuple[int, int], int] = {}  # (t, q) -> dim C(t, q)
    spans = {}  # (r, k) -> per popcount: its block's key and its slice of the positions
    for (r, k), count in census.items():
        ends = list(accumulate((comb(k, j) for j in range(k + 1)), initial=0))
        spans[r, k] = [((r - n_minus, r + n_plus - 2 * n_minus - k + 2 * j), a, b)
                       for j, (a, b) in enumerate(zip(ends, ends[1:]))]
        for key, a, b in spans[r, k]:
            sizes[key] = sizes.get(key, 0) + count * (b - a)
    blocks: dict[tuple[int, int], list[Column]] = {key: [None] * sizes[key] for key in sorted(sizes)}
    free = {key: [size] for key, size in sizes.items()}  # (t, q) -> [end of its next run]
    runs = {rk: [(key, free[key], blocks[key], b - a, a, b) for key, a, b in keyed]
            for rk, keyed in spans.items()}
    entry = [(i, 1) for i in range(max(sizes.values()))]
    negated = [(i, -1) for i, _ in entry] if field == Q else None

    walk = _walker(d)
    label_of, k_of = [None] * (1 << n), [0] * (1 << n)
    where, where_neg = [None] * (1 << n), [None] * (1 << n)
    # signed[p][tgt]: the entries of tgt, by position, along an edge whose
    # source has p mod 2 set bits below the edge's bit; over GF(2) both
    # parities read the unsigned tables
    signed = (where, where_neg if negated else where)
    programs: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
    for s in reversed(range(1 << n)):
        label, k = walk(s)
        k += loops
        label_of[s], k_of[s] = label, k
        placed = runs.get((s.bit_count(), k))
        if placed is None:
            raise AssertionError(f"census check: no (r, k) = ({s.bit_count()}, {k}) in the census")
        cols: list[Column] = [[] for _ in range(1 << k)]
        own, own_neg = [], []
        for key, left, block, size, a, b in placed:
            o = left[0] - size
            if o < 0:
                raise AssertionError(f"census check: the walk overfills C(t={key[0]}, q={key[1]})")
            left[0] = o
            block[o:o + size] = cols[a:b]
            own += entry[o:o + size]
            if negated:
                own_neg += negated[o:o + size]
        where[s], where_neg[s] = own, own_neg
        odd = 0  # parity of the set bits of s below the edge's bit
        for bit, a0, a1, a2 in ports:
            if s & bit:
                odd ^= 1
                continue
            tgt = s | bit
            tgt_label = label_of[tgt]
            key = (k, label[a0], label[a2], tgt_label[a0], tgt_label[a1])
            program = programs.get(key)
            if program is None:
                if field == Q and key[1] == key[2] and key[3] == key[4]:
                    # impossible for orientable atoms; a trip here means
                    # the orientability test and the cube disagree
                    raise AssertionError("single-cycle event in a rational complex")
                program = programs[key] = _edge_program(*key, pos[k], pos[k_of[tgt]])
            src, dst = program
            to = signed[odd][tgt]
            for m, t in zip(src, dst):
                cols[m].append(to[t])
    for (t, q), (o,) in free.items():
        if o:
            raise AssertionError(f"census check: the walk leaves C(t={t}, q={q}) {o} short")
    return KhComplex(field, blocks)


def _edge_program(
    k: int, x: int, y: int, z1: int, z2: int, src_pos: list[int], tgt_pos: list[int]
) -> tuple[list[int], list[int]]:
    """The mask program of every edge with key (k, x, y, z1, z2): two
    parallel lists, the source position and the target position of each
    entry, in source-mask order (a split's two entries low bit first).

    The source has k circles; the edge's crossing c has ports 4c, 4c+1
    on circle x and 4c+2, 4c+3 on circle y, and in the target ports 4c
    and 4c+1 lie on circles z1 and z2.  x != y is a merge into z1 = z2:
    ++ -> +, +- and -+ -> -, -- -> 0.  x = y, z1 != z2 is a split:
    + -> +- and -+, - -> --.  x = y, z1 = z2 re-glues one circle to
    itself: the zero map, an empty program.  By the lemma in the module
    docstring the untouched circles of source and target, each in
    increasing order, correspond in that order, so the key fixes the
    whole map.  src_pos and tgt_pos are the per-circle-count position
    permutations of the two states."""
    if x == y and z1 == z2:
        return [], []
    gone, new = {x, y}, {z1, z2}
    untouched = iter([i for i in range(k - len(gone) + len(new)) if i not in new])
    image = [0]  # the target's untouched labels, for every source mask
    for i in range(k):
        bit = 0 if i in gone else 1 << next(untouched)
        image += [v | bit for v in image]
    xb, yb = 1 << x, 1 << y
    src, tgt = [], []
    if x != y:  # merge: ++ -> +, +- and -+ -> -, -- -> 0
        zb = 1 << z1
        for m, v in enumerate(image):
            if m & xb:
                src.append(src_pos[m])
                tgt.append(tgt_pos[v | zb if m & yb else v])
            elif m & yb:
                src.append(src_pos[m])
                tgt.append(tgt_pos[v])
    else:  # split: + -> +- and -+, - -> --
        lo, hi = sorted((1 << z1, 1 << z2))
        for m, v in enumerate(image):
            if m & xb:
                src += (src_pos[m], src_pos[m])
                tgt += (tgt_pos[v | lo], tgt_pos[v | hi])
            else:
                src.append(src_pos[m])
                tgt.append(tgt_pos[v])
    return src, tgt


def _gf2_pass(c: KhComplex) -> dict[tuple[int, int], int]:
    """Check d.d = 0 and return the GF(2) rank of every nonempty block,
    its +-1 entries read as 1, in one visit of each block in (t, q)
    order.

    A block's columns become bitsets once (a column's targets are
    distinct, so the sum is an OR) and are ranked as rows: transposition
    preserves rank.  Before the rank, every column of the block before
    must map to zero through this one: over GF(2) its targets' bitsets
    XOR to zero; over Q the exact integer sums along every path of
    length two vanish, which implies it mod 2.
    """
    ranks: dict[tuple[int, int], int] = {}
    over_q = c.field == Q
    for (t, q), cols in c.blocks.items():
        if not cols:
            continue
        bits = [sum([1 << i for i, _ in col]) for col in cols]
        for col in c.blocks.get((t - 1, q), ()):
            if over_q:
                sums: dict[int, int] = {}
                for i, a in col:
                    for j, b in cols[i]:
                        sums[j] = sums.get(j, 0) + a * b
                nonzero = any(sums.values())
            else:
                nonzero = 0
                for i, _ in col:
                    nonzero ^= bits[i]
            if nonzero:
                raise AssertionError(
                    f"differential does not square to zero at (t={t - 1}, q={q})"
                )
        ranks[t, q] = gf2_rank(bits)
        del bits  # else it lives on while the next block's bitsets are built
    return ranks


def homology(c: KhComplex, field: str | None = None) -> KhTable:
    """Per-(t, q) dimensions over field (default c.field) via
    rank-nullity on the graded blocks.

    GF(2) ranks come from any complex: ``build_complex`` keeps them in
    c.gf2_ranks.  Q ranks need a complex built over Q.  There only a
    block with nonzero GF(2) homology at both ends is eliminated; the
    rest take their GF(2) rank, by the lemma in the module docstring.
    An eliminated rank below its GF(2) rank raises an AssertionError.
    """
    field = field or c.field
    if field not in (GF2, Q) or (field == Q and c.field != Q):
        raise UnsupportedFieldError(f"no {field} table from a complex over {c.field}")
    ranks = dict(c.gf2_ranks)
    if field == Q:
        gf2_homology = _dimensions(c, ranks)
        for (t, q), rank in c.gf2_ranks.items():
            if (t, q) in gf2_homology and (t + 1, q) in gf2_homology:
                ranks[t, q] = sparse_integer_rank(c.blocks[t, q])
                if ranks[t, q] < rank:
                    raise AssertionError(f"Q rank below GF(2) rank at (t={t}, q={q})")
    return KhTable(field, _dimensions(c, ranks))


def _dimensions(c: KhComplex, ranks: dict) -> dict[tuple[int, int], int]:
    entries: dict[tuple[int, int], int] = {}
    for (t, q), cols in c.blocks.items():
        dim = len(cols) - ranks.get((t, q), 0) - ranks.get((t - 1, q), 0)
        if dim < 0:
            raise AssertionError("negative homology dimension")
        if dim:
            entries[(t, q)] = dim
    return entries


def kh_table(d: Diagram, field: str = GF2, *, max_crossings: int | None = None) -> KhTable:
    """Homology of d over field, from one checked complex of
    ``simplify(d)``: a knot's table is that of any diagram of it, and
    removing kinks and bigons down to m crossings shrinks the cube from
    2^n to 2^m states.  The crossing limit applies to the diagram whose
    cube is built; over Q, d's atom must be orientable."""
    if field == Q:
        check_orientable(d)
    return homology(build_complex(simplify(d), field, max_crossings=max_crossings))


def thickness(tab: KhTable) -> Fraction:
    """Width of the occupied band of diagonals q - 2t.

    Adjacent diagonals differ by 2 when the q-gradings share one parity,
    so the count of diagonals is spread/2 + 1; tables with mixed parity
    (non-orientable atoms over GF(2)) give half-integer values.
    """
    return Fraction(tab.diagonal_spread(), 2) + 1


def json_number(x: Fraction) -> int | float:
    """A thickness for JSON: an int when whole, else a float (exact for
    the half-integers a thickness can take)."""
    return int(x) if x.denominator == 1 else float(x)


def q_span(tab: KhTable) -> int:
    return tab.q_max() - tab.q_min()


def graded_euler_characteristic(tab: KhTable) -> Laurent:
    """Sum of (-1)^t dim q^q over the table, as a Laurent polynomial in q."""
    total = Laurent.zero()
    for (t, q), dim in tab.entries.items():
        total = total + Laurent.term(-dim if t % 2 else dim, q)
    return total
