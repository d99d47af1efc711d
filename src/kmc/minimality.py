"""Minimality certificates from completeness of the bracket and of the
Khovanov table.

A diagram is certified MINIMAL when it is 1-complete (the bracket span
attains 4n + 2(chi - 2), or, in the broad sense, the Khovanov q-span
attains 2n + chi over some field) and 2-complete (the diagonal count of
some Khovanov table attains genus + 2).  Failing the conditions proves
nothing, so the only other verdict is INCONCLUSIVE.  Each of the three
is an upper bound, and ``_attains`` alone compares a value with its
bound: a value above it breaks a theorem and is an error, never a
verdict.

The table-only path runs the same argument from a homology table and a
crossing count alone: the diagonal count bounds the genus from below,
the genus bound caps the q-span, and observing the cap attained pins
the genus and both conditions at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import khovanov as kh
from . import statesum
from .atom import build_atom, genus as atom_genus
from .diagram import Diagram, crossing_signs, is_connected, orient, simplify
from .errors import DiagramError, InvariantError, KmcError, TableError, UnsupportedFieldError
from .laurent import LOOP, Laurent

__all__ = ["FieldReport", "Certificate", "certify", "certify_from_table"]

MINIMAL = "MINIMAL"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class FieldReport:
    """One field's Khovanov table, its thickness and q-span, and whether
    they attain the thickness bound genus + 2 and the q-span bound
    2n + chi."""

    field: str
    entries: dict[tuple[int, int], int]
    thickness: Fraction
    q_span: int
    q_min: int
    q_max: int
    broad_1_complete: bool
    two_complete: bool

    def to_json_dict(self) -> dict:
        return {
            "field": self.field,
            "entries": kh.KhTable(self.field, self.entries).to_json_dict()["entries"],
            "thickness": kh.json_number(self.thickness),
            "q_span": self.q_span,
            "q_min": self.q_min,
            "q_max": self.q_max,
            "broad_1_complete": self.broad_1_complete,
            "two_complete": self.two_complete,
        }


@dataclass(frozen=True)
class Certificate:
    """Verdict record; verdict is MINIMAL iff (strict or broad
    1-completeness) holds together with 2-completeness.  The Khovanov
    side is read off the field reports, and ``steps`` is the reasoning
    up to the verdict line."""

    n: int
    chi: int | None
    twice_genus: int | None
    genus_is_lower_bound: bool
    orientable: bool | None
    bracket_span: int | None
    span_bound: int | None
    strict_1_complete: bool | None
    fields: dict[str, FieldReport]
    steps: tuple[str, ...]

    @property
    def broad_1_complete(self) -> bool:
        return any(rep.broad_1_complete for rep in self.fields.values())

    @property
    def two_complete(self) -> bool:
        return any(rep.two_complete for rep in self.fields.values())

    @property
    def thickness(self) -> Fraction:
        return max(rep.thickness for rep in self.fields.values())

    @property
    def verdict(self) -> str:
        one_complete = bool(self.strict_1_complete) or self.broad_1_complete
        return MINIMAL if one_complete and self.two_complete else INCONCLUSIVE

    @property
    def reasoning(self) -> tuple[str, ...]:
        return (*self.steps, f"verdict: {self.verdict}")

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "n": self.n,
            "chi": self.chi,
            "twice_genus": self.twice_genus,
            "genus_is_lower_bound": self.genus_is_lower_bound,
            "orientable": self.orientable,
            "bracket_span": self.bracket_span,
            "span_bound": self.span_bound,
            "strict_1_complete": self.strict_1_complete,
            "broad_1_complete": self.broad_1_complete,
            "two_complete": self.two_complete,
            "thickness": kh.json_number(self.thickness),
            "fields": {name: rep.to_json_dict() for name, rep in self.fields.items()},
            "verdict": self.verdict,
            "reasoning": list(self.reasoning),
        }


def _attains(
    value: int | Fraction, bound: int | Fraction, message: str, error: type[KmcError] = InvariantError
) -> bool:
    """Whether value attains the paper's upper bound on it.  A value
    above the bound contradicts the bound's theorem, so it raises error
    with message instead."""
    if value > bound:
        raise error(message)
    return value == bound


def _strict_1_complete(d: Diagram, bracket: Laurent, chi: int) -> tuple[int | None, int, bool]:
    """The span of d's bracket (None for a zero bracket), its bound
    4n + 2(chi - 2) with chi that of d's atom, and whether the span
    attains the bound: strict 1-completeness."""
    span = bracket.span() if bracket else None
    bound = statesum.span_bound(d, chi)
    message = f"bracket span {span} above 4n + 2(chi - 2) = {bound}"
    return span, bound, span is not None and _attains(span, bound, message)


def _report(
    tab: kh.KhTable, n: int, chi: int, genus: Fraction, error: type[KmcError]
) -> tuple[FieldReport, str, str]:
    """Decide 2-completeness (thickness against genus + 2) and then broad
    1-completeness (q-span against 2n + chi) for one table; the report
    and the two reasoning lines."""
    thick, span, bound = kh.thickness(tab), kh.q_span(tab), 2 * n + chi
    q_min, q_max = tab.q_min(), tab.q_max()
    two = _attains(
        thick, genus + 2,
        f"thickness over {tab.field} is {thick}, above genus + 2 = {genus + 2}", error,
    )
    broad = _attains(
        span, bound,
        f"q-span {span} exceeds 2n + chi = {bound}; the table cannot come"
        f" from a diagram with {n} crossings and chi = {chi}", error,
    )
    return (
        FieldReport(tab.field, dict(tab.entries), thick, span, q_min, q_max, broad, two),
        f"q-span = {span} (q in [{q_min}, {q_max}]), bound 2n + chi ="
        f" {bound} -> broad 1-completeness {'holds' if broad else 'fails'}",
        f"thickness {thick} vs genus + 2 = {genus + 2} -> 2-completeness"
        f" {'holds' if two else 'fails'}",
    )


def certify(
    d: Diagram,
    fields: list[str] | None = None,
    *,
    max_crossings: int | None = None,
) -> Certificate:
    """Run the full pipeline on a connected diagram.

    fields defaults to GF(2) plus the rationals when the atom is
    orientable; a repeated field counts once.  An empty list, or an
    explicit request for the rationals on a non-orientable atom, raises
    UnsupportedFieldError.

    The tables come from one complex of ``simplify(d)``, the same knot
    with its kinks and bigons removed (a link is taken as given): over Q
    when the rationals are requested (its entries mod 2 give the GF(2)
    table), else over GF(2).  The atom, n, chi, the genus, the writhe
    and the bracket are those of d, and so is the orientability that
    decides whether the rationals are available.  The bracket comes from
    one counting pass over d, before the complex is built from the census
    of ``simplify(d)`` and one sweep of its cube.  The tables' graded
    Euler characteristic must give the bracket, which checks the
    simplification and that census against an independent pass; the
    complex's census check holds the sweep's walk to that census.
    Every limit is checked before the first pass: the Khovanov limits on
    ``simplify(d)``, then the census limit on d.
    """
    if not is_connected(d):
        raise DiagramError(
            "minimality certification needs a connected diagram; split the"
            " input into components and certify each"
        )
    atom = build_atom(d)
    g = atom_genus(atom)
    if fields is None:
        fields = [kh.GF2] + ([kh.Q] if g.orientable else [])
    fields = list(dict.fromkeys(fields))
    if not fields:
        raise UnsupportedFieldError("no coefficient field requested")
    if kh.Q in fields:
        kh.check_orientable(d)
    simple = simplify(d)
    for name in fields:
        kh.check_field(simple, name, max_crossings=max_crossings)
    bracket = statesum.kauffman_bracket(d, max_crossings=max_crossings)
    chi = atom.chi
    span, bound, strict = _strict_1_complete(d, bracket, chi)

    steps = [
        f"n = {d.n} classical crossings",
        f"atom: chi = {chi}, {'orientable' if g.orientable else 'non-orientable'},"
        f" genus = {g}",
        f"bracket span = {span}, bound 4n + 2(chi - 2) = {bound}"
        f" -> strict 1-completeness {'holds' if strict else 'fails'}",
    ]

    over = kh.Q if kh.Q in fields else kh.GF2
    complex_ = kh.build_complex(simple, over, max_crossings=max_crossings)
    tables = {
        name: kh.homology(complex_, name) for name in (kh.GF2, kh.Q) if name in fields
    }
    n_plus, n_minus = crossing_signs(d, orient(d))
    _check_tables(tables, bracket, n_plus - n_minus)
    reports: dict[str, FieldReport] = {}
    for name in fields:
        rep, span_line, thickness_line = _report(
            tables[name], d.n, chi, g.value, InvariantError
        )
        reports[name] = rep
        steps.append(f"kh[{name}]: thickness = {rep.thickness}, {span_line}")
        steps.append(f"kh[{name}]: {thickness_line}")

    return Certificate(
        n=d.n,
        chi=chi,
        twice_genus=g.twice_genus,
        genus_is_lower_bound=False,
        orientable=g.orientable,
        bracket_span=span,
        span_bound=bound,
        strict_1_complete=strict,
        fields=reports,
        steps=tuple(steps),
    )


def _check_tables(tables: dict[str, kh.KhTable], bracket: Laurent, writhe: int) -> None:
    """The paper's identities the tables must meet besides the bounds:
    the graded Euler characteristic of each at q = -A^-2 is
    (-A^2 - A^-2)(-A^3)^-w <D>, and GF(2) dimensions are at least the
    rational ones."""
    euler = LOOP * Laurent.term(-1 if writhe % 2 else 1, -3 * writhe) * bracket
    for name, tab in tables.items():
        if kh.graded_euler_characteristic(tab).substitute_signed_power(-1, -2) != euler:
            raise InvariantError(
                f"graded Euler characteristic over {name} is not the bracket"
            )
    if kh.GF2 in tables and kh.Q in tables:
        gf2 = tables[kh.GF2].entries
        for (t, q), dim in tables[kh.Q].entries.items():
            if gf2.get((t, q), 0) < dim:
                raise InvariantError(f"GF(2) dimension below Q at (t={t}, q={q})")


def certify_from_table(
    tab: kh.KhTable, n: int, chi_hint: int | None = None
) -> Certificate:
    """Certify from a homology table and a crossing count alone.

    The diagonal count T bounds the atom genus from below by T - 2, so
    chi is at most 2 - 2(T - 2); if the q-span attains 2n + chi for that
    extremal chi, the genus bound is tight and both completeness
    conditions hold.  A chi_hint smaller than the extremal value is
    honoured (a genuinely higher-genus diagram); a larger one, or a
    q-span above 2n + chi, is inconsistent with the table.
    """
    if not tab.entries:
        raise TableError("empty homology table")
    if n < 0:
        raise TableError("crossing count must be non-negative")
    thick = kh.thickness(tab)
    twice_genus_min = max(0, tab.diagonal_spread() - 2)  # 2T - 4, genus >= 0
    chi_eff = 2 - twice_genus_min
    steps = [
        f"n = {n} classical crossings (given)",
        f"table[{tab.field}]: thickness = {thick}",
        f"thickness bounds the genus below: 2g >= 2T - 4 = {twice_genus_min}",
    ]
    if chi_hint is not None:
        if chi_hint > chi_eff:
            raise TableError(
                f"chi hint {chi_hint} exceeds {chi_eff}, the largest Euler"
                f" characteristic compatible with {thick} diagonals"
            )
        chi_used = chi_hint
        steps.append(f"using provided chi = {chi_hint}")
    else:
        chi_used = chi_eff
        steps.append(f"assuming the extremal chi = 2 - (2T - 4) = {chi_eff}")
    rep, span_line, thickness_line = _report(
        tab, n, chi_used, Fraction(2 - chi_used, 2), TableError
    )
    return Certificate(
        n=n,
        chi=chi_used,
        twice_genus=2 - chi_used,
        genus_is_lower_bound=chi_hint is None,
        orientable=None,
        bracket_span=None,
        span_bound=None,
        strict_1_complete=None,
        fields={tab.field: rep},
        steps=(*steps, span_line, thickness_line),
    )
