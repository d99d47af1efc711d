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
entry of the complex over Q is +-1 and every entry of a column has its
own target, so reduced mod 2 it is the unreduced GF(2) complex, and one
complex built over Q serves both tables; its signs are read only around
the blocks that the rationals eliminate (below).  A complex built over
GF(2) alone is reduced: it holds only the generators whose marked circle
carries v-, half of them, and its table is read as two copies (below).
The basis is not stored: a block has one column per basis element, so
its length is the chain dimension, and an element's position in its
block is arithmetic on its state and mask.

Reduction over GF(2).  Circles are numbered by least port, so the
circle through port 0 is circle 0 in every state (with n = 0, the first
free loop): it is the marked circle, and "marked circle carries v-"
means mask bit 0 is clear.  Let C be the unreduced complex over GF(2),
its edge maps m, Delta or the zero single-cycle map.
- X, multiplication by x on the marked circle (v+ -> v-, v- -> 0), is a
  chain map: m and Delta are A-linear on the circle through port 0, and
  the zero map commutes with anything.  Its image XC is spanned by the
  even masks, so an even mask's image under d is even.
- nu = sum_i nu_i, with nu_i (v- -> v+, v+ -> 0) on circle i, commutes
  with d mod 2: check the four merge cases (++, +-, -+, --) and the two
  split cases (+, -).
- X nu + nu X = id: on the marked factor this is a direct check; on any
  other factor the two terms are equal and cancel mod 2.
- So rho = X nu is a chain retraction of C onto XC, and XC is a direct
  summand with complement C/XC; X maps C/XC isomorphically onto XC
  shifted down by 2 in q.
Hence Kh(t, q) = Hr(t, q) + Hr(t, q - 2), with Hr the homology of XC in
C's gradings.  Links, free loops and non-orientable atoms need nothing
extra.  Over Q, Kh does not split as Khr tensor A in general, so the
complex over Q stays unreduced.

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
only where GF(2) ranks do not pin them.  Let K be Khovanov's signed
complex over Q, and r_F(t) the rank over F of its block d_t: C_t ->
C_{t+1}.  An odd minor is nonzero, so r_Q(t) >= r_2(t); d.d = 0 on K
(Khovanov's theorem, arXiv:math/9908171) puts im in ker, so r_Q(t-1) +
r_Q(t) <= dim C_t.  Where GF(2) homology vanishes at C_t, dim C_t =
r_2(t-1) + r_2(t), hence r_Q = r_2 on both blocks at C_t: no 2-torsion
lives there (Shumakovitch, arXiv:math/0405474).  Such a pinned block
needs no signs: the lemma reads K only through its reduction mod 2, so
it needs just that our blocks are K mod 2, with d.d = 0 mod 2 for the
GF(2) table to be homology.  Which check covers which block:
- Every block, mod 2, over either field: one pass over the blocks
  (``_gf2_pass``) turns each block's columns into bitsets once, checks
  by XOR that the columns of the block before map to zero through it,
  and ranks it.  A complex over Q enters it with its +-1 entries read
  as 1, which is the unreduced GF(2) complex.  With the census check
  and the Euler check this tests that our blocks are K mod 2, all that
  a pinned block needs.
- An eliminated block d_t, over Z: its rank is read from the signs laid
  down, so before any elimination ``homology`` sums exactly over the
  integers along every path of length two in the pairs t-1 -> t and
  t -> t+1, each pair once.  These are the composites at C_t and
  C_{t+1}, the two places where r_Q(t) enters the table.  No other
  block's signs reach a result.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import comb
from pathlib import Path

from . import statesum
from .diagram import Diagram, crossing_components, crossing_signs, orient, simplify
from .errors import InvariantError, LimitError, TableError, UnsupportedFieldError, resolve_limit
from .laurent import LOOP, Laurent
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
    "kh_tables",
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
    (t, q) has one column per element, so its length is dim C(t, q).  A
    complex over GF(2) is reduced: its masks are the even ones, whose
    marked circle 0 carries v- (see the module docstring)."""

    field: str
    # (t, q) -> one column per basis element, mapping into (t+1, q); in
    # increasing (t, q) order
    blocks: dict[tuple[int, int], list[Column]]
    # (t, q) -> GF(2) rank of the block leaving (t, q) reduced mod 2,
    # for every block (of the reduced complex over GF(2)); filled by
    # ``build_complex``
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
    mod 2 and rank every block over GF(2) in one pass (``_gf2_pass``).

    Rational coefficients require an orientable atom (``check_field``
    reads it from d).  The pass reads a complex over Q with its +-1
    entries as 1; its signs are checked over Z by ``homology``, and only
    around the blocks that the rationals eliminate.  A failed check, or
    a single-cycle edge over Q, raises an AssertionError.  The GF(2)
    ranks are kept in gf2_ranks, so a complex over Q carries both tables
    (see ``homology``).  A complex over GF(2) is reduced (see the module
    docstring): its blocks hold only the even masks.
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
    r + n_plus - 2 n_minus - k + 2j): C(k, j) of them over Q, and over
    GF(2), where only the even masks are laid down (the reduction in the
    module docstring), C(k - 1, j).  A mask's place among them is its
    position in one ranking per circle count; columns and entry tables
    are indexed by position.  The sweep walks the states from 0 up and
    appends each state's runs to their blocks, so states sit in
    increasing order within every block, and an edge's source t - 2^c is
    walked before its target t, which lays the edge into the source's
    columns: each column's entries arrive in increasing crossing order.
    A walk the census does not count, a run that would overfill its
    block or a block left short raises an AssertionError (the census
    check).  Along an edge the untouched circles keep their order (the
    lemma in the module docstring), so the edge's action on positions
    depends only on its key (k, x, y, z1, z2): ``_edge_program`` builds
    one program per key, cached for this call, and each edge only lays
    its entries down.  Over GF(2) every entry is (target, 1); over Q the
    edge from t - 2^c to t takes the sign (-1)^(number of set bits of t
    below c), and a single-cycle edge raises an AssertionError."""
    n, loops = d.n, d.free_loops
    arc_of = d.arc_index
    # per crossing c: its bit, and the arcs at ports 4c, 4c + 1 and 4c + 2
    ports = [(1 << c, arc_of[4 * c], arc_of[4 * c + 1], arc_of[4 * c + 2]) for c in range(n)]
    census = circle_counts(d)
    reduced = field == GF2
    ints = list(range(1 << max(k for _, k in census)))  # one int object per position
    laid = {}  # k -> the masks laid down: all, or over GF(2) the even ones (circle 0 carries v-)
    pos = {}  # k -> position of each mask laid down
    for k in {k for _, k in census}:
        laid[k] = range(0, 1 << k, 1 + reduced)
        pos[k] = [0] * (1 << k)
        for p, m in zip(ints, sorted(laid[k], key=lambda m: (m.bit_count(), m))):
            pos[k][m] = p
    sizes: dict[tuple[int, int], int] = {}  # (t, q) -> dim C(t, q)
    # (r, k) -> per popcount: its block's key and its slice of the positions;
    # an empty slice (popcount k over GF(2): the all-v+ mask is odd) is left out
    spans = {}
    for (r, k), count in census.items():
        ends = list(accumulate((comb(k - reduced, j) for j in range(k + 1)), initial=0))
        spans[r, k] = [((r - n_minus, r + n_plus - 2 * n_minus - k + 2 * j), a, b)
                       for j, (a, b) in enumerate(zip(ends, ends[1:])) if a < b]
        for key, a, b in spans[r, k]:
            sizes[key] = sizes.get(key, 0) + count * (b - a)
    blocks: dict[tuple[int, int], list[Column]] = {key: [] for key in sorted(sizes)}
    runs = {rk: [(key, blocks[key], sizes[key], b - a, a, b) for key, a, b in keyed]
            for rk, keyed in spans.items()}
    entry = [(i, 1) for i in range(max(sizes.values()))]
    negated = [(i, -1) for i, _ in entry] if field == Q else None

    walk = _walker(d)
    label_of, k_of, cols_of = [None] * (1 << n), [0] * (1 << n), [None] * (1 << n)
    programs: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
    for t in range(1 << n):
        label, k = walk(t)
        k += loops
        label_of[t], k_of[t] = label, k
        placed = runs.get((t.bit_count(), k))
        if placed is None:
            raise AssertionError(f"census check: no (r, k) = ({t.bit_count()}, {k}) in the census")
        cols = cols_of[t] = [[] for _ in laid[k]]
        # t's entries by position, and over Q negated for an odd edge
        own, own_neg = [], []
        for key, block, cap, size, a, b in placed:
            o = len(block)
            if o + size > cap:
                raise AssertionError(f"census check: the walk overfills C(t={key[0]}, q={key[1]})")
            block += cols[a:b]
            own += entry[o:o + size]
            if negated:
                own_neg += negated[o:o + size]
        odd = 0  # parity of the set bits of t below the edge's bit
        for bit, a0, a1, a2 in ports:
            if not t & bit:
                continue
            s = t ^ bit
            src_label, src_k = label_of[s], k_of[s]
            key = (src_k, src_label[a0], src_label[a2], label[a0], label[a1])
            program = programs.get(key)
            if program is None:
                if field == Q and key[1] == key[2] and key[3] == key[4]:
                    # impossible for orientable atoms; a trip here means
                    # the orientability test and the cube disagree
                    raise AssertionError("single-cycle event in a rational complex")
                program = programs[key] = _edge_program(*key, laid[src_k], pos[src_k], pos[k])
            src, dst = program
            to, out = own_neg if odd and negated else own, cols_of[s]
            for m, p in zip(src, dst):
                out[m].append(to[p])
            odd ^= 1
    for (t, q), block in blocks.items():
        short = sizes[t, q] - len(block)
        if short:
            raise AssertionError(f"census check: the walk leaves C(t={t}, q={q}) {short} short")
    return KhComplex(field, blocks)


def _edge_program(
    k: int, x: int, y: int, z1: int, z2: int,
    masks: range, src_pos: list[int], tgt_pos: list[int],
) -> tuple[list[int], list[int]]:
    """The mask program of every edge with key (k, x, y, z1, z2): two
    parallel lists, the source position and the target position of each
    entry, in source-mask order (a split's two entries low bit first).
    The source masks are those laid down: all of them, or the even ones
    of a reduced complex, whose images are even.

    The source has k circles; the edge's crossing c has ports 4c, 4c+1
    on circle x and 4c+2, 4c+3 on circle y, and in the target ports 4c
    and 4c+1 lie on circles z1 and z2.  x != y is a merge into z1 = z2:
    ++ -> +, +- and -+ -> -, -- -> 0.  x = y, z1 != z2 is a split:
    + -> +- and -+, - -> --.  x = y, z1 = z2 re-glues one circle to
    itself: the zero map, an empty program.  By the lemma in the module
    docstring the untouched circles of source and target, each in
    increasing order, correspond in that order, so the key fixes the
    whole map.  src_pos and tgt_pos are the per-circle-count position
    rankings of the two states."""
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
        for m in masks:
            v = image[m]
            if m & xb:
                src.append(src_pos[m])
                tgt.append(tgt_pos[v | zb if m & yb else v])
            elif m & yb:
                src.append(src_pos[m])
                tgt.append(tgt_pos[v])
    else:  # split: + -> +- and -+, - -> --
        lo, hi = sorted((1 << z1, 1 << z2))
        for m in masks:
            v = image[m]
            if m & xb:
                src += (src_pos[m], src_pos[m])
                tgt += (tgt_pos[v | lo], tgt_pos[v | hi])
            else:
                src.append(src_pos[m])
                tgt.append(tgt_pos[v])
    return src, tgt


def _gf2_pass(c: KhComplex) -> dict[tuple[int, int], int]:
    """Check d.d = 0 mod 2 and return the GF(2) rank of every block, its
    +-1 entries read as 1, in one visit of each block in (t, q) order;
    a complex over either field goes through the same pass.

    A block's columns become bitsets once (a column's targets are
    distinct, so the sum is an OR) and are ranked as rows: transposition
    preserves rank.  Before the rank, every column of the block before
    must map to zero through this one: its targets' bitsets XOR to zero.
    Signs are not read here; a pinned rational block needs none, and
    ``homology`` checks them over Z where the rationals eliminate.
    """
    ranks: dict[tuple[int, int], int] = {}
    for (t, q), cols in c.blocks.items():
        bits = [sum([1 << i for i, _ in col]) for col in cols]
        for col in c.blocks.get((t - 1, q), ()):
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
    c.gf2_ranks.  On a complex over GF(2), which is reduced, they give
    Hr, and the table is Hr(t, q) + Hr(t, q - 2) (the reduction in the
    module docstring).  Q ranks need a complex built over Q.  There only
    a block with nonzero GF(2) homology at both ends is eliminated; the
    rest take their GF(2) rank, by the lemma in the module docstring,
    which reads no sign.  Before any elimination, d.d = 0 is checked
    exactly over Z on the pairs t-1 -> t and t -> t+1 through each
    eliminated block t, each pair once: the signs that the elimination
    reads.  A failed check, or an eliminated rank below its GF(2) rank,
    raises an AssertionError.
    """
    field = field or c.field
    if field not in (GF2, Q) or (field == Q and c.field != Q):
        raise UnsupportedFieldError(f"no {field} table from a complex over {c.field}")
    ranks = dict(c.gf2_ranks)
    if field == Q:
        gf2_homology = _dimensions(c, ranks)
        eliminated = [(t, q) for t, q in c.gf2_ranks if {(t, q), (t + 1, q)} <= gf2_homology.keys()]
        for t, q in sorted({(s, q) for t, q in eliminated for s in (t - 1, t)}):
            nxt = c.blocks.get((t + 1, q))
            for col in c.blocks.get((t, q), ()):  # the pair t -> t + 1 over Z
                sums: dict[int, int] = {}
                for i, a in col:
                    for j, b in nxt[i]:
                        sums[j] = sums.get(j, 0) + a * b
                if any(sums.values()):
                    raise AssertionError(
                        f"differential does not square to zero over Z at (t={t}, q={q})"
                    )
        for t, q in eliminated:
            ranks[t, q] = sparse_integer_rank(c.blocks[t, q])
            if ranks[t, q] < c.gf2_ranks[t, q]:
                raise AssertionError(f"Q rank below GF(2) rank at (t={t}, q={q})")
    dims = _dimensions(c, ranks)
    if c.field == GF2:  # two copies of the reduced table, the second 2 up in q
        up = {(t, q + 2): dim for (t, q), dim in dims.items()}
        dims = {key: dims.get(key, 0) + up.get(key, 0) for key in sorted(dims.keys() | up.keys())}
    return KhTable(field, dims)


def _dimensions(c: KhComplex, ranks: dict) -> dict[tuple[int, int], int]:
    entries: dict[tuple[int, int], int] = {}
    for (t, q), cols in c.blocks.items():
        dim = len(cols) - ranks.get((t, q), 0) - ranks.get((t - 1, q), 0)
        if dim < 0:
            raise AssertionError(f"negative homology dimension at (t={t}, q={q})")
        if dim:
            entries[(t, q)] = dim
    return entries


def kh_tables(
    d: Diagram, fields: list[str], *, max_crossings: int | None = None
) -> tuple[dict[str, KhTable], Laurent]:
    """The tables of one checked complex of ``simplify(d)``, by field,
    and d's bracket: the one path from a diagram to its tables.

    Every limit is checked before the first pass: over Q, d's atom must
    be orientable, then each field on ``simplify(d)``, then the census
    limit on d.  One counting pass over d gives the bracket; the complex
    is over Q when Q is in fields (its GF(2) ranks give the GF(2) table
    too), else over GF(2).  ``_check_tables`` holds the tables to the
    bracket, which checks the simplification and the complex's census
    against an independent pass."""
    if not fields:
        raise UnsupportedFieldError("no coefficient field requested")
    if Q in fields:
        check_orientable(d)
    simple = simplify(d)
    for name in fields:
        check_field(simple, name, max_crossings=max_crossings)
    bracket = statesum.kauffman_bracket(d, max_crossings=max_crossings)
    over = Q if Q in fields else GF2
    complex_ = build_complex(simple, over, max_crossings=max_crossings)
    tables = {name: homology(complex_, name) for name in dict.fromkeys((GF2, over))}
    n_plus, n_minus = crossing_signs(d, orient(d))
    _check_tables(tables, bracket, n_plus - n_minus)
    return tables, bracket


def _check_tables(tables: dict[str, KhTable], bracket: Laurent, writhe: int) -> None:
    """The paper's identities the tables must meet besides the bounds:
    the graded Euler characteristic of each at q = -A^-2 is
    (-A^2 - A^-2)(-A^3)^-w <D>, and GF(2) dimensions are at least the
    rational ones."""
    euler = LOOP * Laurent.term(-1 if writhe % 2 else 1, -3 * writhe) * bracket
    for name, tab in tables.items():
        if graded_euler_characteristic(tab).substitute_signed_power(-1, -2) != euler:
            raise InvariantError(f"graded Euler characteristic over {name} is not the bracket")
    if Q in tables:  # a complex over Q gives the GF(2) table too
        gf2 = tables[GF2].entries
        for (t, q), dim in tables[Q].entries.items():
            if gf2.get((t, q), 0) < dim:
                raise InvariantError(f"GF(2) dimension below Q at (t={t}, q={q})")


def kh_table(d: Diagram, field: str = GF2, *, max_crossings: int | None = None) -> KhTable:
    """Homology of d over field: the table of ``simplify(d)`` that
    ``kh_tables(d, [field])`` builds and checks, under the same limits."""
    return kh_tables(d, [field], max_crossings=max_crossings)[0][field]


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
    coeffs: dict[int, int] = {}
    for (t, q), dim in tab.entries.items():
        coeffs[q] = coeffs.get(q, 0) + (-dim if t % 2 else dim)
    return Laurent(coeffs)
