"""Census of the states that smooth a diagram into a single circle.

These states carry the spanning-tree-style generators of the Khovanov
complex, so their B-smoothing counts locate its diagonals.  For a
diagram whose all-A state has x circles and all-B state has y circles
(the white and black cells of its atom), every single-circle state s
satisfies

    x - 1 <= b_count(s) <= n + 1 - y

(switching one smoothing changes the circle count by at most one), and
the window width n + 2 - x - y equals 2 - chi.  When the atom is
orientable all b_counts also share one parity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .atom import build_atom
from .diagram import Diagram
from .statesum import check_census_limit, circle_counts

__all__ = ["SingleCircleCensus", "single_circle_census"]


@dataclass(frozen=True)
class SingleCircleCensus:
    """All states with exactly one circle (as state bitmasks, whose
    popcounts are their B-smoothing counts), plus the window they must
    hit."""

    n: int
    states: tuple[int, ...]
    window: tuple[int, int]
    chi: int

    @property
    def is_empty(self) -> bool:
        return not self.states

    @cached_property
    def b_values(self) -> tuple[int, ...]:
        return tuple(sorted({s.bit_count() for s in self.states}))

    @property
    def b_min(self) -> int:
        return self.b_values[0]

    @property
    def b_max(self) -> int:
        return self.b_values[-1]

    @property
    def amplitude(self) -> int:
        return self.b_max - self.b_min

    @property
    def parity_consistent(self) -> bool:
        return len({b % 2 for b in self.b_values}) <= 1

    @property
    def within_window(self) -> bool:
        lo, hi = self.window
        return all(lo <= b <= hi for b in self.b_values)

    def b_histogram(self) -> dict[int, int]:
        return dict(sorted(Counter(s.bit_count() for s in self.states).items()))


def single_circle_census(
    d: Diagram, *, max_crossings: int | None = None
) -> SingleCircleCensus:
    """One counting pass over all 2^n states, filtered to one circle; the
    window and chi come from the atom."""
    check_census_limit(d, max_crossings)
    found = tuple(s for s, circles in enumerate(circle_counts(d)) if circles == 1)
    atom = build_atom(d)
    return SingleCircleCensus(d.n, found, (atom.a - 1, d.n + 1 - atom.b), atom.chi)
