"""Census of the states that smooth a diagram into a single circle.

These states carry the spanning-tree-style generators of the Khovanov
complex, so their B-smoothing counts locate its diagonals.  For a
diagram whose all-A state has x circles and all-B state has y circles
(the white and black cells of its atom), every single-circle state s
satisfies

    x - 1 <= b_count(s) <= n + 1 - y

(switching one smoothing changes the circle count by at most one), and
the window width n + 2 - x - y equals 2 - chi, with chi = x + y - n.
x and y are read from the same census of the cube as the single-circle
states: the all-A state is its only state with no B-smoothing, the
all-B state its only one with n.  When the atom is orientable all
b_counts also share one parity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Diagram
from .statesum import check_census_limit, circle_counts

__all__ = ["SingleCircleCensus", "single_circle_census"]


@dataclass(frozen=True)
class SingleCircleCensus:
    """How many states of each B-smoothing count smooth the diagram into
    exactly one circle (b_histogram, sorted by count), plus the window
    those counts must hit."""

    b_histogram: dict[int, int]
    window: tuple[int, int]
    chi: int

    @property
    def size(self) -> int:
        return sum(self.b_histogram.values())

    @property
    def is_empty(self) -> bool:
        return not self.b_histogram

    @property
    def b_values(self) -> tuple[int, ...]:
        return tuple(self.b_histogram)

    @property
    def amplitude(self) -> int:
        return self.b_values[-1] - self.b_values[0]

    @property
    def parity_consistent(self) -> bool:
        return len({b % 2 for b in self.b_histogram}) <= 1

    @property
    def within_window(self) -> bool:
        lo, hi = self.window
        return all(lo <= b <= hi for b in self.b_histogram)


def single_circle_census(
    d: Diagram, *, max_crossings: int | None = None
) -> SingleCircleCensus:
    """One counting pass's census of all 2^n states: its single-circle row,
    and the window and chi from its all-A and all-B states."""
    check_census_limit(d, max_crossings)
    census = circle_counts(d)
    # (r, k) keys: (0, x) is the least, (n, y) the greatest
    x, y = min(census)[1], max(census)[1]
    found = {r: count for (r, k), count in census.items() if k == 1}
    return SingleCircleCensus(found, (x - 1, d.n + 1 - y), x + y - d.n)
