"""Exact rank computations over GF(2) and over the rationals.

GF(2) vectors are Python ints used as bitsets.  Rational ranks run one
exact elimination on sparse integer rows: +-1 pivots while any row has
one, which need only integer updates, else a pivot of least absolute
value, whose updates cross-multiply and divide each changed row by the
gcd of its entries.  Everything stays integral; floating point, modular
and probabilistic arithmetic are never involved.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd

__all__ = ["gf2_rank", "sparse_integer_rank"]


def gf2_rank(rows: list[int]) -> int:
    """Rank of the span of the given bit-vectors over GF(2)."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            h = row.bit_length() - 1
            if h in pivots:
                row ^= pivots[h]
            else:
                pivots[h] = row
                rank += 1
                break
    return rank


def _normalize(row: dict[int, int]) -> None:
    """Divide row, in place, by the gcd of its entries."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g:
        for k in row:
            row[k] //= g


def sparse_integer_rank(rows: list[list[tuple[int, int]]]) -> int:
    """Rank over Q of sparse integer rows, each a list of (column,
    entry) pairs with distinct columns.

    Rows are taken shortest first.  In each the pivot is the +-1 entry
    whose column meets the fewest rows (a Markowitz-style choice that
    limits fill-in); a row with no unit entry waits, and is taken again
    if a later update changes it.  When every row left waits, the
    shortest is taken and pivots on its entry p of least absolute value.
    The pivot row r clears p's column from every other row r_j, whose
    entry there is f: r_j -= (f * p) * r when p = +-1, else r_j =
    (p/g) r_j - (f/g) r with g = gcd(p, f), and r_j is divided by the gcd
    of its entries.  Each pivot row counts one towards the rank and is
    dropped.  The rows are copied once, into dicts; the caller's rows are
    not modified.
    """
    work = [{k: v for k, v in row if v} for row in rows]
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(work):
        for k in row:
            if k in col_rows:
                col_rows[k].add(i)
            else:
                col_rows[k] = {i}
    # (waits, size, row): a row with no unit entry is pushed again with
    # waits = 1, so it is taken only once no row with waits = 0 is left
    heap = [(0, len(row), i) for i, row in enumerate(work) if row]
    heapify(heap)
    rank = 0
    while heap:
        waits, size, i = heappop(heap)
        row = work[i]
        if len(row) != size:
            continue  # stale entry: the row changed or was a pivot
        if waits:
            col = min(row, key=lambda k: abs(row[k]))
        else:
            col, fewest = None, 0
            for k, v in row.items():
                if v == 1 or v == -1:
                    count = len(col_rows[k])
                    if col is None or count < fewest:
                        col, fewest = k, count
                        if count == 1:
                            break
            if col is None:
                heappush(heap, (1, size, i))
                continue
        p = row.pop(col)
        work[i] = {}
        rank += 1
        for k in row:
            col_rows[k].discard(i)
        others = col_rows.pop(col)
        others.discard(i)
        for j in others:
            other = work[j]
            f = other.pop(col)
            if waits:
                g = gcd(p, f)
                f //= g
                scale = p // g
                for k in other:
                    other[k] *= scale
            else:
                f *= p
            for k, v in row.items():
                w = other.get(k, 0) - f * v
                if w:
                    if k not in other:
                        col_rows[k].add(j)
                    other[k] = w
                else:
                    del other[k]
                    col_rows[k].discard(j)
            if waits:
                _normalize(other)
            if other:
                heappush(heap, (0, len(other), j))
    return rank
