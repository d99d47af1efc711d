import copy
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import load
from kmc.khovanov import Q, build_complex
from kmc.linalg import sparse_integer_rank

MAX_COLS = 10

# Entries up to 7 in absolute value, +-1 weighted up as in the Khovanov
# differentials, and zeros that must be ignored.  With up to 24 rows over
# 10 columns most rows are dependent, so chains of non-unit pivots and
# content divisions greater than 1 run.
ENTRIES = st.sampled_from([1, -1, 1, -1, *range(-7, 8)])
ROWS = st.lists(
    st.dictionaries(st.integers(0, MAX_COLS - 1), ENTRIES, max_size=MAX_COLS),
    max_size=24,
)


def reference_rank(rows: list[dict[int, int]]) -> int:
    """Dense Gauss-Jordan elimination over Fraction."""
    cols = sorted({k for row in rows for k in row})
    m = [[Fraction(row.get(c, 0)) for c in cols] for row in rows]
    rank = 0
    for c in range(len(cols)):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@st.composite
def rows_with_dependencies(draw):
    """Random rows plus duplicates and integer combinations of them."""
    rows = draw(ROWS)
    if rows:
        for _ in range(draw(st.integers(0, 4))):
            a = draw(st.sampled_from(rows))
            b = draw(st.sampled_from(rows))
            x = draw(st.sampled_from([-2, -1, 1, 3]))
            y = draw(st.sampled_from([-1, 0, 1, 2]))
            rows.append({k: x * a.get(k, 0) + y * b.get(k, 0) for k in a.keys() | b.keys()})
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    return draw(st.permutations(rows))


def pairs(rows: list[dict[int, int]]) -> list[list[tuple[int, int]]]:
    """The rows as sparse_integer_rank takes them: (column, entry) pairs."""
    return [list(row.items()) for row in rows]


def check(rows):
    as_pairs = pairs(rows)
    before = copy.deepcopy(as_pairs)
    assert sparse_integer_rank(as_pairs) == reference_rank(rows)
    assert as_pairs == before


@settings(deadline=None)
@given(ROWS)
def test_rank_matches_fraction_reference(rows):
    check(rows)


@settings(deadline=None)
@given(rows_with_dependencies())
def test_rank_with_duplicate_and_dependent_rows(rows):
    check(rows)


def test_no_unit_entry_pivots_on_least_entries():
    # No entry is a unit, so every step cross-multiplies.  Row 1 is 3/2 of
    # row 0 and vanishes on column 1.  Row 3 is reduced on column 2 by
    # row 2 to {0: -12, 1: -18}, divided by its content 6, reduced on
    # column 1 by row 0 to {0: -2}, divided by 2, and pivots on column 0.
    rows = [{0: 2, 1: 4}, {0: 3, 1: 6}, {1: 6, 2: -10}, {0: 6, 2: 15}]
    assert sparse_integer_rank(pairs(rows)) == reference_rank(rows) == 3
    assert sparse_integer_rank(pairs([{0: 2, 1: 4}, {0: -3, 1: -6}])) == 1


def test_unit_elimination_leaving_non_unit_entries():
    # the unit pivot in column 1 leaves {0: 2}, which is stored as the
    # non-unit pivot of column 0
    assert sparse_integer_rank(pairs([{0: 1, 1: 1}, {0: 1, 1: -1}])) == 2


def test_non_unit_pivot_leaving_unit_entries():
    # Every pivot is a non-unit.  Row 1 is reduced on column 2 by row 0's
    # 5 to 5 r_1 - 7 r_0 = {0: 1, 1: 4}, which has a unit entry but pivots
    # on its leading 4.  Row 3 is reduced on columns 3 and 2 to
    # {0: 4, 1: 16}, divided by its content 4 to {0: 1, 1: 4}, and then
    # cleared by row 1's pivot.
    rows = [{0: 2, 1: 3, 2: 5}, {0: 3, 1: 5, 2: 7}, {0: 6, 1: 10, 2: 15, 3: 2}, {0: 2, 1: 7, 2: 3, 3: 4}]
    assert sparse_integer_rank(pairs(rows)) == reference_rank(rows) == 3
    assert sparse_integer_rank(pairs(rows[:3])) == reference_rank(rows[:3]) == 3


def test_empty_input():
    assert sparse_integer_rank([]) == 0
    assert sparse_integer_rank([[], []]) == 0
    assert sparse_integer_rank([[(0, 0), (3, 0)]]) == 0


def test_caller_rows_unmodified():
    rows = [[(0, 1), (1, -1), (2, 0)], [(0, 1), (2, 1)], [(1, 1), (2, 1)], [], [(0, 2), (1, 2)]]
    before = copy.deepcopy(rows)
    ids = [id(r) for r in rows]
    assert sparse_integer_rank(rows) == reference_rank([dict(r) for r in before]) == 3
    assert rows == before
    assert [id(r) for r in rows] == ids
    # a rational block's column lists, passed straight in as homology does
    c = build_complex(load("6_2.pd"), Q)
    for cols in c.blocks.values():
        before = copy.deepcopy(cols)
        assert sparse_integer_rank(cols) == reference_rank([dict(col) for col in before])
        assert cols == before
