"""Exact rank computations over GF(2) and over the rationals.

GF(2) vectors are Python ints used as bitsets.  Rational ranks run on
sparse integer rows in two exact phases: elimination on +-1 pivots,
which needs only integer updates, then a fraction-free fallback with
cross-multiplied eliminations and gcd normalization for whatever rows
have no unit entry left.  Everything stays integral; floating point,
modular and probabilistic arithmetic are never involved.
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


def _normalize(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    return {k: v // g for k, v in row.items()}


def sparse_integer_rank(rows: list[dict[int, int]]) -> int:
    """Rank over Q of sparse integer rows (maps column -> entry).

    Phase 1 takes rows shortest first.  In each it picks the +-1 entry
    whose column meets the fewest rows (a Markowitz-style choice that
    limits fill-in), clears that column from every other row with the
    integer update ``r_j -= (r_j[c] * p) * r`` -- exact because p = +-1
    -- and drops the pivot row, counting one towards the rank.  A row
    with no unit entry waits and is taken again if a later update
    changes it.  Phase 2 hands the rows still waiting to
    ``_fraction_free_rank``.  The caller's rows are not modified.
    """
    work = [{k: v for k, v in row.items() if v} for row in rows]
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(work):
        for k in row:
            if k in col_rows:
                col_rows[k].add(i)
            else:
                col_rows[k] = {i}
    heap = [(len(row), i) for i, row in enumerate(work) if row]
    heapify(heap)
    rank = 0
    while heap:
        size, i = heappop(heap)
        row = work[i]
        if len(row) != size:
            continue  # stale entry: the row changed or was a pivot
        col, fewest = None, 0
        for k, v in row.items():
            if v == 1 or v == -1:
                count = len(col_rows[k])
                if col is None or count < fewest:
                    col, fewest = k, count
                    if count == 1:
                        break
        if col is None:
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
            f = other.pop(col) * p
            for k, v in row.items():
                w = other.get(k, 0) - f * v
                if w:
                    if k not in other:
                        col_rows[k].add(j)
                    other[k] = w
                else:
                    del other[k]
                    col_rows[k].discard(j)
            if other:
                heappush(heap, (len(other), j))
    return rank + _fraction_free_rank([row for row in work if row])


def _fraction_free_rank(rows: list[dict[int, int]]) -> int:
    """Rank over Q of sparse integer rows without zero entries.

    Elimination uses integer cross-multiplication (never divides except
    by a row gcd), which preserves the row space over Q exactly.
    """
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for row in rows:
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = _normalize(row)
                rank += 1
                break
            a, b = row[col], pivot[col]
            g = gcd(a, b)
            ma, mb = b // g, a // g
            new = {k: ma * v for k, v in row.items()}
            for k, v in pivot.items():
                w = new.get(k, 0) - mb * v
                if w:
                    new[k] = w
                else:
                    new.pop(k, None)
            row = _normalize(new)
    return rank
