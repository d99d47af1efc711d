"""Minimality certificates from completeness of the bracket and of the
Khovanov table.

A diagram is certified MINIMAL when it is 1-complete (the bracket span
attains 4n + 2(chi - 2), or, in the broad sense, the Khovanov q-span
attains 2n + chi over some field) and 2-complete (the diagonal count of
some Khovanov table attains genus + 2).  Failing the conditions proves
nothing, so the only other verdict is INCONCLUSIVE.

The table-only path runs the same argument from a homology table and a
crossing count alone: the diagonal count bounds the genus from below,
the genus bound caps the q-span, and observing the cap attained pins
the genus and both conditions at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import khovanov as kh
from . import statesum
from .atom import GenusValue, build_atom, genus as atom_genus
from .diagram import Diagram, crossing_signs, is_connected, orient, simplify
from .errors import DiagramError, InvariantError, TableError, UnsupportedFieldError
from .laurent import LOOP, Laurent

__all__ = ["FieldReport", "Certificate", "certify", "certify_from_table"]

MINIMAL = "MINIMAL"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class FieldReport:
    """Khovanov-side numbers for one coefficient field."""

    field: str
    entries: dict[tuple[int, int], int]
    thickness: Fraction
    q_span: int
    q_min: int
    q_max: int
    broad_1_complete: bool
    two_complete: bool

    @classmethod
    def of(cls, tab: kh.KhTable, broad: bool, two: bool) -> "FieldReport":
        return cls(
            tab.field, dict(tab.entries), kh.thickness(tab), kh.q_span(tab),
            tab.q_min(), tab.q_max(), broad, two,
        )

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
    1-completeness) holds together with 2-completeness."""

    n: int
    chi: int | None
    twice_genus: int | None
    genus_is_lower_bound: bool
    orientable: bool | None
    bracket_span: int | None
    span_bound: int | None
    strict_1_complete: bool | None
    broad_1_complete: bool
    two_complete: bool
    thickness: Fraction
    fields: dict[str, FieldReport] = field(default_factory=dict)
    reasoning: tuple[str, ...] = ()

    @property
    def verdict(self) -> str:
        one_complete = bool(self.strict_1_complete) or self.broad_1_complete
        return MINIMAL if one_complete and self.two_complete else INCONCLUSIVE

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
    one counting pass over d, before the complex's labelled pass; the
    tables' graded Euler characteristic must give it, which checks the
    simplification and the labelled pass against an independent pass.
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
    strict, details = statesum.bracket_completeness(d, bracket, chi)
    if bracket and details["span"] > details["bound"]:
        raise InvariantError(
            f"bracket span {details['span']} above 4n + 2(chi - 2) = {details['bound']}"
        )

    reasoning = [
        f"n = {d.n} classical crossings",
        f"atom: chi = {chi}, {'orientable' if g.orientable else 'non-orientable'},"
        f" genus = {g}",
        f"bracket span = {details['span']}, bound 4n + 2(chi - 2) = {details['bound']}"
        f" -> strict 1-completeness {'holds' if strict else 'fails'}",
    ]

    over = kh.Q if kh.Q in fields else kh.GF2
    complex_ = kh.build_complex(simple, over, max_crossings=max_crossings)
    tables = {
        name: kh.homology(complex_, name) for name in (kh.GF2, kh.Q) if name in fields
    }
    n_plus, n_minus = crossing_signs(d, orient(d))
    _check_tables(tables, bracket, n_plus - n_minus, g)
    reports: dict[str, FieldReport] = {}
    for name in fields:
        table = tables[name]
        broad = kh.broad_1_complete(table, d.n, chi)
        two = kh.is_2_complete(table, g)
        rep = reports[name] = FieldReport.of(table, broad, two)
        reasoning.append(
            f"kh[{name}]: thickness = {rep.thickness}, q-span = {rep.q_span}"
            f" (q in [{rep.q_min}, {rep.q_max}]), bound 2n + chi ="
            f" {2 * d.n + chi} -> broad 1-completeness"
            f" {'holds' if broad else 'fails'}"
        )
        reasoning.append(
            f"kh[{name}]: thickness {rep.thickness} vs genus + 2 ="
            f" {g.value + 2} -> 2-completeness"
            f" {'holds' if two else 'fails'}"
        )

    broad_any = any(rep.broad_1_complete for rep in reports.values())
    two_any = any(rep.two_complete for rep in reports.values())
    thickness = max(rep.thickness for rep in reports.values())

    cert = Certificate(
        n=d.n,
        chi=chi,
        twice_genus=g.twice_genus,
        genus_is_lower_bound=False,
        orientable=g.orientable,
        bracket_span=details["span"],
        span_bound=details["bound"],
        strict_1_complete=strict,
        broad_1_complete=broad_any,
        two_complete=two_any,
        thickness=thickness,
        fields=reports,
        reasoning=tuple(reasoning),
    )
    reasoning.append(f"verdict: {cert.verdict}")
    return replace(cert, reasoning=tuple(reasoning))


def _check_tables(
    tables: dict[str, kh.KhTable], bracket: Laurent, writhe: int, g: GenusValue
) -> None:
    """The paper's identities the tables must meet: the graded Euler
    characteristic of each at q = -A^-2 is (-A^2 - A^-2)(-A^3)^-w <D>,
    each thickness is at most genus + 2, and GF(2) dimensions are at
    least the rational ones."""
    euler = LOOP * Laurent.term(-1 if writhe % 2 else 1, -3 * writhe) * bracket
    for name, tab in tables.items():
        if kh.graded_euler_characteristic(tab).substitute_signed_power(-1, -2) != euler:
            raise InvariantError(
                f"graded Euler characteristic over {name} is not the bracket"
            )
        if kh.thickness(tab) > g.value + 2:
            raise InvariantError(
                f"thickness over {name} is {kh.thickness(tab)},"
                f" above genus + 2 = {g.value + 2}"
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
    honoured (a genuinely higher-genus diagram); a larger one is
    inconsistent with the table.
    """
    if not tab.entries:
        raise TableError("empty homology table")
    if n < 0:
        raise TableError("crossing count must be non-negative")
    thick = kh.thickness(tab)
    twice_genus_min = max(0, tab.diagonal_spread() - 2)  # 2T - 4, genus >= 0
    chi_eff = 2 - twice_genus_min
    reasoning = [
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
        reasoning.append(f"using provided chi = {chi_hint}")
    else:
        chi_used = chi_eff
        reasoning.append(f"assuming the extremal chi = 2 - (2T - 4) = {chi_eff}")
    twice_genus_used = 2 - chi_used
    two = tab.diagonal_spread() + 2 == twice_genus_used + 4

    span = kh.q_span(tab)
    bound = 2 * n + chi_used
    if span > bound:
        raise TableError(
            f"q-span {span} exceeds 2n + chi = {bound}; the table cannot come"
            f" from an {n}-crossing diagram with chi = {chi_used}"
        )
    broad = span == bound
    reasoning.append(
        f"q-span = {span} (q in [{tab.q_min()}, {tab.q_max()}]),"
        f" bound 2n + chi = {bound} -> broad 1-completeness"
        f" {'holds' if broad else 'fails'}"
    )
    reasoning.append(
        f"thickness {thick} vs genus + 2 ="
        f" {Fraction(twice_genus_used, 2) + 2} -> 2-completeness"
        f" {'holds' if two else 'fails'}"
    )

    report = FieldReport.of(tab, broad, two)
    cert = Certificate(
        n=n,
        chi=chi_used,
        twice_genus=twice_genus_used,
        genus_is_lower_bound=chi_hint is None,
        orientable=None,
        bracket_span=None,
        span_bound=None,
        strict_1_complete=None,
        broad_1_complete=broad,
        two_complete=two,
        thickness=thick,
        fields={tab.field: report},
        reasoning=tuple(reasoning),
    )
    reasoning.append(f"verdict: {cert.verdict}")
    return replace(cert, reasoning=tuple(reasoning))
