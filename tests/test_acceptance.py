"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible under ``pytest -s``)
and enforces its time budget.  All randomness is seeded, all
comparisons are exact integer or polynomial equalities.
"""

import random
import time
from fractions import Fraction

from conftest import FIXTURES, load
from kmc.atom import build_atom, orientable
from kmc.diagram import (
    Diagram,
    components,
    crossing_signs,
    mirror,
    orient,
    parse_gauss,
    r1_add,
    r2_add,
    virtualize,
)
from kmc.errors import UnsupportedFieldError
from kmc.generate import random_classical_diagram, random_virtual_diagram
from kmc.khovanov import (
    GF2,
    Q,
    build_complex,
    graded_euler_characteristic,
    kh_table,
    load_table,
    q_span,
    thickness,
)
from kmc.laurent import Laurent
from kmc.minimality import MINIMAL, certify, certify_from_table
from kmc.single_circle import single_circle_census
from kmc.statesum import kauffman_bracket, span_bound


class Criterion:
    def __init__(self, number: int, label: str, budget_seconds: float):
        self.number = number
        self.label = label
        self.budget = budget_seconds
        self.start = time.perf_counter()

    def finish(self, ok: bool) -> None:
        elapsed = time.perf_counter() - self.start
        state = "PASS" if ok and elapsed < self.budget else "FAIL"
        print(
            f"[acceptance] criterion {self.number} ({self.label}): {state}"
            f" ({elapsed:.2f}s, budget {self.budget:.0f}s)"
        )
        assert ok, f"criterion {self.number} ({self.label}) failed"
        assert elapsed < self.budget, (
            f"criterion {self.number} exceeded its {self.budget:.0f}s budget"
            f" ({elapsed:.2f}s)"
        )


def test_criterion_1_13n3663_table_reproduction():
    crit = Criterion(1, "13n3663 table reproduction", 1.0)
    tab = load_table(FIXTURES / "13n3663_khq.json")
    cert = certify_from_table(tab, 13)
    ok = (
        thickness(tab) == 4
        and cert.twice_genus == 4  # genus lower bound 2
        and cert.genus_is_lower_bound
        and q_span(tab) == 24
        and tab.q_min() == -11
        and tab.q_max() == 13
        and cert.chi == -2
        and 2 * 13 + cert.chi == 24
        and cert.verdict == MINIMAL
    )
    crit.finish(ok)


def test_criterion_2_span_bound():
    crit = Criterion(2, "bracket span bound, 500 random diagrams", 30.0)
    rng = random.Random(1002)
    ok = True
    for _ in range(500):
        d = random_virtual_diagram(8, rng)
        poly = kauffman_bracket(d)
        if poly and poly.span() > span_bound(d, build_atom(d).chi):
            ok = False
            break
    crit.finish(ok)


def test_criterion_3_bracket_invariance():
    crit = Criterion(3, "bracket invariance suite, 200 random diagrams", 30.0)
    rng = random.Random(1003)
    pos = Laurent({3: -1})
    neg = Laurent({-3: -1})
    ok = True
    for _ in range(200):
        d = random_virtual_diagram(7, rng)
        br = kauffman_bracket(d)
        s = rng.randrange(d.strand_count())
        t = rng.randrange(d.strand_count())
        checks = [
            kauffman_bracket(r2_add(d, s, t)) == br,
            kauffman_bracket(r1_add(d, s, 1)) == br * pos,
            kauffman_bracket(r1_add(d, s, -1)) == br * neg,
            kauffman_bracket(mirror(d)) == Laurent({-e: c for e, c in br.coeffs.items()}),
        ]
        if d.n:
            checks.append(
                kauffman_bracket(virtualize(d, rng.randrange(d.n))) == br
            )
        if not all(checks):
            ok = False
            break
    crit.finish(ok)


def _euler_equals_bracket(d: Diagram) -> bool:
    tab = kh_table(d, Q)
    np_, nm = crossing_signs(d, orient(d))
    w = np_ - nm
    lhs = graded_euler_characteristic(tab).substitute_signed_power(-1, -2)
    rhs = (
        Laurent({2: -1, -2: -1})
        * Laurent.term(1 if w % 2 == 0 else -1, -3 * w)
        * kauffman_bracket(d)
    )
    return lhs == rhs


def test_criterion_4_euler_characteristic_oracle():
    crit = Criterion(4, "graded Euler characteristic equals bracket", 120.0)
    rng = random.Random(1004)
    diagrams = [load("trefoil.pd"), load("figure8.pd")]
    diagrams += [random_classical_diagram(7, rng) for _ in range(100)]
    ok = all(_euler_equals_bracket(d) for d in diagrams)
    crit.finish(ok)


def test_criterion_5_thickness_bound():
    crit = Criterion(5, "thickness at most genus + 2", 120.0)
    rng = random.Random(1005)
    ok = True
    for _ in range(200):
        d = random_virtual_diagram(6, rng)
        tab = kh_table(d, GF2)
        if tab.entries:
            if tab.diagonal_spread() > build_atom(d).twice_genus + 2:
                ok = False
                break
    if ok:
        for _ in range(100):
            d = random_classical_diagram(6, rng)
            tab = kh_table(d, Q)
            if tab.entries:
                if tab.diagonal_spread() > build_atom(d).twice_genus + 2:
                    ok = False
                    break
    crit.finish(ok)


def test_criterion_6_single_circle_window():
    crit = Criterion(6, "single-circle census window", 60.0)
    rng = random.Random(1006)
    ok = True
    for _ in range(300):
        d = random_virtual_diagram(10, rng)
        census = single_circle_census(d)
        if census.is_empty:
            continue
        good = census.within_window and census.amplitude_bounded
        if good and orientable(build_atom(d)):
            # constant parity is promised for orientable atoms only
            good = census.parity_consistent
        if not good:
            ok = False
            break
    crit.finish(ok)


def test_criterion_7_virtual_trefoil_anchors():
    crit = Criterion(7, "virtual trefoil anchors", 10.0)
    d = parse_gauss("O1+ O2+ U1+ U2+")
    atom = build_atom(d)
    ok = atom.chi == 1 and not atom.orientable and atom.genus == Fraction(1, 2)
    try:
        build_complex(d, Q)
        ok = False
    except UnsupportedFieldError:
        pass
    build_complex(d, GF2)  # d^2 = 0 asserted inside
    crit.finish(ok)


def test_criterion_8_alternating_minimality():
    crit = Criterion(8, "reduced alternating fixtures are minimal", 60.0)
    names = ["trefoil", "figure8", "5_1", "5_2", "6_1", "6_2", "6_3"]
    ok = True
    for name in names:
        cert = certify(load(f"{name}.pd"), [Q])
        if not (
            cert.verdict == MINIMAL
            and cert.twice_genus == 0
            and cert.thickness == 2
        ):
            ok = False
            break
    crit.finish(ok)


def _certificate_fields(cert):
    return (
        cert.n,
        cert.chi,
        cert.twice_genus,
        cert.orientable,
        cert.bracket_span,
        cert.span_bound,
        cert.strict_1_complete,
        cert.broad_1_complete,
        cert.two_complete,
        cert.thickness,
        {
            name: (rep.thickness, rep.q_span, rep.broad_1_complete, rep.two_complete)
            for name, rep in cert.fields.items()
        },
        cert.verdict,
    )


def test_criterion_9_virtualization_blindness():
    crit = Criterion(9, "certificates blind to virtualization", 120.0)
    rng = random.Random(1009)
    ok = True
    done = 0
    while done < 100:
        d = random_virtual_diagram(6, rng)
        if d.n == 0:
            continue
        done += 1
        dv = virtualize(d, rng.randrange(d.n))
        c1, c2 = certify(d), certify(dv)
        if _certificate_fields(c1) != _certificate_fields(c2):
            ok = False
            break
        if components(d) == 1:
            # single-component diagrams admit no orientation freedom, so
            # even the homology tables must match entry by entry
            if {k: v.entries for k, v in c1.fields.items()} != {
                k: v.entries for k, v in c2.fields.items()
            }:
                ok = False
                break
    crit.finish(ok)
