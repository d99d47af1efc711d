"""Exact rank computations over GF(2) and over the rationals.

Both ranks use one echelon scheme.  Rows are inserted in the order
given; each is reduced on its highest column by the pivot row stored
there until that column is new, and is then stored as its pivot.  The
stored rows have distinct leading columns, so the rank is their count.
GF(2) vectors are Python ints used as bitsets.  Rational rows are sparse
integer rows: a +-1 pivot needs only integer updates, any other pivot
cross-multiplies and divides the row by the gcd of its entries.
Everything stays integral; floating point, modular and probabilistic
arithmetic are never involved.
"""

from __future__ import annotations

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


def sparse_integer_rank(rows: list[list[tuple[int, int]]]) -> int:
    """Rank over Q of sparse integer rows, each a list of (column,
    entry) pairs with distinct columns.

    ``gf2_rank``'s insertion over the integers.  Each row, copied into a
    dict without zero entries, is reduced on its highest column h, where
    its entry is f, by the pivot row r stored there with entry p: row -=
    (f * p) * r when p = +-1, else row = (p/g) row - (f/g) r with g =
    gcd(p, f), after which the row is divided by the gcd of its entries.
    Each step clears h and adds entries only in lower columns, so the
    loop ends; a row whose h is new becomes its pivot.  The caller's rows
    are not modified.

    The order matters for speed, not for the rank: ``homology`` passes a
    block's columns in the complex's sweep order, and pivoting on the
    lowest column instead, or taking the rows reversed, was 4-20x slower
    on random braid closures.
    """
    pivots: dict[int, dict[int, int]] = {}
    for pairs in rows:
        row = {k: v for k, v in pairs if v}
        while row:
            h = max(row)
            if h not in pivots:
                pivots[h] = row
                break
            pivot = pivots[h]
            p, f = pivot[h], row[h]
            unit = p == 1 or p == -1
            if unit:
                f *= p
            else:
                g = gcd(p, f)
                f //= g
                scale = p // g
                for k in row:
                    row[k] *= scale
            for k, v in pivot.items():
                w = row.get(k, 0) - f * v
                if w:
                    row[k] = w
                else:
                    del row[k]
            if not unit and (g := gcd(*row.values())) > 1:
                for k in row:
                    row[k] //= g
    return len(pivots)
