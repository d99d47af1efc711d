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

Homology is computed per (t, q) block by exact rank computations, GF(2)
rows as bitsets and rational blocks by integer elimination (unit pivots
first, then a fraction-free fallback; see ``linalg``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import atom as atom_mod
from .diagram import Diagram, Orientation, crossing_signs, orient
from .errors import LimitError, TableError, UnsupportedFieldError
from .laurent import Laurent
from .linalg import gf2_rank, sparse_integer_rank
from .statesum import state_circles

__all__ = [
    "GF2",
    "Q",
    "KhComplex",
    "KhTable",
    "build_complex",
    "homology",
    "kh_table",
    "thickness",
    "q_span",
    "broad_1_complete",
    "is_2_complete",
    "load_table",
    "graded_euler_characteristic",
]

GF2 = "gf2"
Q = "q"

DEFAULT_MAX_GF2 = 14
DEFAULT_MAX_Q = 12
ENV_LIMIT = "KMC_MAX_CROSSINGS"


def resolve_limit(explicit: int | None, default: int) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(ENV_LIMIT)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise LimitError(f"bad {ENV_LIMIT} value {env!r}") from exc
    return default


# A differential column: list of (target basis index, coefficient).
Column = list[tuple[int, int]]


@dataclass
class KhComplex:
    """Cube complex of a diagram over one coefficient field."""

    field: str
    n: int
    n_plus: int
    n_minus: int
    # (t, q) -> ordered basis of (state, label mask); mask bit i set
    # means circle i carries v+ in the state's canonical circle order
    bases: dict[tuple[int, int], list[tuple[int, int]]]
    # (t, q) -> one column per basis element, mapping into (t+1, q)
    blocks: dict[tuple[int, int], list[Column]]

    def total_dimension(self) -> int:
        return sum(len(b) for b in self.bases.values())


@dataclass(frozen=True)
class KhTable:
    """Nonzero homology dimensions indexed by (t, q)."""

    field: str
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def q_values(self) -> list[int]:
        return sorted({q for _, q in self.entries})

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
                t, q, dim = int(item["t"]), int(item["q"]), int(item["dim"])
            except (KeyError, TypeError, ValueError) as exc:
                raise TableError(f"bad table entry {item!r}") from exc
            if dim <= 0:
                raise TableError(f"non-positive dimension in entry {item!r}")
            key = (t, q)
            if key in entries:
                raise TableError(f"duplicate table entry at (t={t}, q={q})")
            entries[key] = dim
        return cls(field_hint or data.get("field", Q), entries)


def _single_field_block(data: dict, field_hint: str | None) -> dict:
    """Accept either a bare table or certificate JSON with a fields map."""
    if "entries" in data:
        return data
    fields = data.get("fields")
    if isinstance(fields, dict) and fields:
        if field_hint and field_hint in fields:
            return fields[field_hint]
        if len(fields) == 1:
            return next(iter(fields.values()))
        raise TableError(
            f"several field tables present ({', '.join(sorted(fields))}); pick one"
        )
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
    block = _single_field_block(data, field_hint) if isinstance(data, dict) else None
    if not isinstance(block, dict):
        raise TableError("no homology table found in JSON data")
    return KhTable.from_json_dict(block, field_hint or block.get("field"))


def _canonical_circles(d: Diagram, state: int) -> tuple[tuple[int, ...], ...]:
    """Port circles in canonical order; free loops follow implicitly."""
    return state_circles(d, state)


def build_complex(
    d: Diagram,
    o: Orientation | None = None,
    field: str = GF2,
    *,
    max_crossings: int | None = None,
    check: bool = True,
) -> KhComplex:
    """Build the cube complex of d over GF(2) or Q.

    Rational coefficients require an orientable atom.  With check=True
    (the default) d.d = 0 is verified and an AssertionError raised on
    failure.
    """
    if field not in (GF2, Q):
        raise UnsupportedFieldError(f"unknown field {field!r}")
    limit = resolve_limit(
        max_crossings, DEFAULT_MAX_Q if field == Q else DEFAULT_MAX_GF2
    )
    if d.n > limit:
        raise LimitError(
            f"diagram has {d.n} crossings; limit for field {field} is {limit}"
        )
    if field == Q and not atom_mod.orientable(atom_mod.build_atom(d)):
        raise UnsupportedFieldError(
            "rational coefficients need an orientable atom; this diagram's"
            " atom is non-orientable (use gf2)"
        )
    if o is None:
        o = orient(d)
    n_plus, n_minus = crossing_signs(d, o)

    n = d.n
    states = 1 << n
    circles: list[tuple[tuple[int, ...], ...]] = [
        _canonical_circles(d, s) for s in range(states)
    ]
    k_of: list[int] = [len(c) + d.free_loops for c in circles]

    bases: dict[tuple[int, int], list[tuple[int, int]]] = {}
    pos: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for s in range(states):
        r = s.bit_count()
        t = r - n_minus
        k = k_of[s]
        base_q = r + n_plus - 2 * n_minus - k
        for mask in range(1 << k):
            q = base_q + 2 * mask.bit_count()
            key = (t, q)
            block = bases.setdefault(key, [])
            pos.setdefault(key, {})[(s, mask)] = len(block)
            block.append((s, mask))

    # per-edge circle bookkeeping: which circles merge/split, and how the
    # untouched circles renumber
    def edge_plan(s: int, c: int):
        """Returns (kind, data); kind in {'merge','split','zero'}."""
        tgt = s | (1 << c)
        src_circ = circles[s]
        tgt_circ = circles[tgt]
        src_of_port = {}
        for i, circ in enumerate(src_circ):
            for p in circ:
                src_of_port[p] = i
        tgt_of_port = {}
        for i, circ in enumerate(tgt_circ):
            for p in circ:
                tgt_of_port[p] = i
        base = 4 * c
        x = src_of_port[base]
        y = src_of_port[base + 2]
        loops = d.free_loops
        k_src = len(src_circ)
        k_tgt = len(tgt_circ)
        if x != y:
            z = tgt_of_port[base]
            remap = [0] * (k_src + loops)
            for i, circ in enumerate(src_circ):
                if i in (x, y):
                    remap[i] = z
                else:
                    remap[i] = tgt_of_port[circ[0]]
            for j in range(loops):
                remap[k_src + j] = k_tgt + j
            return "merge", (x, y, z, remap)
        z1 = tgt_of_port[base]
        z2 = tgt_of_port[base + 1]
        if z1 == z2:
            return "zero", None
        remap = [0] * (k_src + loops)
        for i, circ in enumerate(src_circ):
            if i == x:
                remap[i] = -1  # handled by the split itself
            else:
                remap[i] = tgt_of_port[circ[0]]
        for j in range(loops):
            remap[k_src + j] = k_tgt + j
        return "split", (x, z1, z2, remap)

    plans: dict[tuple[int, int], tuple[str, object]] = {}
    for s in range(states):
        for c in range(n):
            if not s >> c & 1:
                plans[(s, c)] = edge_plan(s, c)

    def apply_edge(s: int, mask: int, c: int) -> list[tuple[int, int, int]]:
        """Images of basis vector (s, mask) along edge c: (s', mask', coeff)."""
        kind, data = plans[(s, c)]
        if kind == "zero":
            if field == Q:
                # impossible for orientable atoms; a trip here means the
                # orientability test and the cube disagree
                raise AssertionError("single-cycle event in a rational complex")
            return []
        tgt = s | (1 << c)
        if field == Q:
            sign = -1 if (s & ((1 << c) - 1)).bit_count() % 2 else 1
        else:
            sign = 1
        out = []
        if kind == "merge":
            x, y, z, remap = data
            bx = mask >> x & 1
            by = mask >> y & 1
            if bx and by:
                zbit = 1
            elif bx or by:
                zbit = 0
            else:
                return []  # v- times v- dies
            new_mask = zbit << z
            for i, m in enumerate(remap):
                if i in (x, y):
                    continue
                if mask >> i & 1:
                    new_mask |= 1 << m
            out.append((tgt, new_mask, sign))
        else:
            x, z1, z2, remap = data
            rest = 0
            for i, m in enumerate(remap):
                if i == x:
                    continue
                if mask >> i & 1:
                    rest |= 1 << m
            if mask >> x & 1:
                out.append((tgt, rest | 1 << z1, sign))
                out.append((tgt, rest | 1 << z2, sign))
            else:
                out.append((tgt, rest, sign))
        return out

    blocks: dict[tuple[int, int], list[Column]] = {}
    for key, basis in bases.items():
        t, q = key
        tgt_pos = pos.get((t + 1, q), {})
        cols: list[Column] = []
        for s, mask in basis:
            col: dict[int, int] = {}
            for c in range(n):
                if s >> c & 1:
                    continue
                for s2, m2, coeff in apply_edge(s, mask, c):
                    idx = tgt_pos[(s2, m2)]
                    v = col.get(idx, 0) + coeff
                    if field == GF2:
                        v &= 1
                    if v:
                        col[idx] = v
                    else:
                        col.pop(idx, None)
            cols.append(sorted(col.items()))
        blocks[key] = cols

    complex_ = KhComplex(field, n, n_plus, n_minus, bases, blocks)
    if check:
        _assert_d_squared_zero(complex_)
    return complex_


def _assert_d_squared_zero(c: KhComplex) -> None:
    for (t, q), cols in c.blocks.items():
        nxt = c.blocks.get((t + 1, q))
        if not nxt:
            continue
        for col in cols:
            acc: dict[int, int] = {}
            for idx, coeff in col:
                for idx2, coeff2 in nxt[idx]:
                    v = acc.get(idx2, 0) + coeff * coeff2
                    if c.field == GF2:
                        v &= 1
                    if v:
                        acc[idx2] = v
                    else:
                        acc.pop(idx2, None)
            if acc:
                raise AssertionError(
                    f"differential does not square to zero at (t={t}, q={q})"
                )


def _block_rank(c: KhComplex, key: tuple[int, int]) -> int:
    """Rank of the differential block leaving (t, q); columns work as
    rows since transposition preserves rank."""
    cols = c.blocks.get(key)
    if not cols:
        return 0
    if c.field == GF2:
        rows = []
        for col in cols:
            v = 0
            for idx, coeff in col:
                if coeff & 1:
                    v |= 1 << idx
            rows.append(v)
        return gf2_rank(rows)
    return sparse_integer_rank([dict(col) for col in cols])


def homology(c: KhComplex) -> KhTable:
    """Per-(t, q) dimensions via rank-nullity on the graded blocks."""
    ranks = {key: _block_rank(c, key) for key in c.blocks}
    entries: dict[tuple[int, int], int] = {}
    for (t, q), basis in c.bases.items():
        rank_out = ranks.get((t, q), 0)
        rank_in = ranks.get((t - 1, q), 0)
        dim = len(basis) - rank_out - rank_in
        if dim < 0:
            raise AssertionError("negative homology dimension")
        if dim:
            entries[(t, q)] = dim
    return KhTable(c.field, entries)


def kh_table(
    d: Diagram,
    field: str = GF2,
    *,
    max_crossings: int | None = None,
    check: bool = True,
) -> KhTable:
    return homology(build_complex(d, None, field, max_crossings=max_crossings, check=check))


def thickness(tab: KhTable) -> Fraction:
    """Width of the occupied band of diagonals q - 2t.

    Adjacent diagonals differ by 2 when the q-gradings share one parity,
    so the count of diagonals is spread/2 + 1; tables with mixed parity
    (non-orientable atoms over GF(2)) give half-integer values.
    """
    return Fraction(tab.diagonal_spread(), 2) + 1


def q_span(tab: KhTable) -> int:
    return tab.q_max() - tab.q_min()


def broad_1_complete(tab: KhTable, n: int, chi: int) -> bool:
    """Whether the q-span attains its upper bound 2n + chi."""
    return q_span(tab) == 2 * n + chi


def is_2_complete(tab: KhTable, g: atom_mod.GenusValue) -> bool:
    """Whether the diagonal count attains genus + 2 (exact, half-integers
    included: compares 2*thickness with twice_genus + 4)."""
    return tab.diagonal_spread() + 2 == g.twice_genus + 4


def graded_euler_characteristic(tab: KhTable) -> Laurent:
    """Sum of (-1)^t dim q^q over the table, as a Laurent polynomial in q."""
    total = Laurent.zero()
    for (t, q), dim in tab.entries.items():
        total = total + Laurent.term(-dim if t % 2 else dim, q)
    return total
