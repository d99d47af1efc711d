import random
from fractions import Fraction

import pytest

from conftest import FIXTURES, load
from kmc.diagram import Diagram, parse_gauss, r1_add, r2_add, simplify, virtualize
from kmc.errors import DiagramError, TableError, UnsupportedFieldError
from kmc.generate import braid_closure, random_classical_diagram, random_virtual_diagram
from kmc.khovanov import GF2, KhTable, Q, load_table
from kmc.minimality import INCONCLUSIVE, MINIMAL, certify, certify_from_table

UNKNOT = Diagram(0, (), 1)


def test_trefoil_minimal():
    cert = certify(load("trefoil.pd"), [Q])
    assert cert.verdict == MINIMAL
    assert cert.strict_1_complete
    assert cert.broad_1_complete
    assert cert.two_complete
    assert cert.twice_genus == 0
    assert cert.thickness == 2
    assert cert.reasoning[3].startswith("kh[q]: thickness = 2, q-span = 8 ")
    assert cert.reasoning[4] == "kh[q]: thickness 2 vs genus + 2 = 2 -> 2-completeness holds"


def test_kinked_trefoil_inconclusive():
    cert = certify(r1_add(load("trefoil.pd"), 0, 1), [Q])
    assert cert.verdict == INCONCLUSIVE
    assert not cert.strict_1_complete
    assert not cert.broad_1_complete
    assert cert.two_complete  # thickness still 2 = genus + 2


def test_unknot_minimal():
    cert = certify(UNKNOT)
    assert cert.verdict == MINIMAL
    assert cert.n == 0


def test_virtual_trefoil_minimal_over_gf2():
    cert = certify(parse_gauss("O1+ O2+ U1+ U2+"))
    assert cert.verdict == MINIMAL
    assert not cert.orientable
    assert cert.twice_genus == 1
    assert cert.thickness == Fraction(5, 2)
    assert list(cert.fields) == [GF2]
    assert cert.reasoning[3].startswith("kh[gf2]: thickness = 5/2, q-span = 5 ")
    assert cert.reasoning[4] == (
        "kh[gf2]: thickness 5/2 vs genus + 2 = 5/2 -> 2-completeness holds"
    )


def test_hopf_minimal():
    cert = certify(load("hopf.pd"))
    assert cert.verdict == MINIMAL
    assert cert.strict_1_complete


def test_explicit_rational_request_on_virtual_fails():
    with pytest.raises(UnsupportedFieldError):
        certify(parse_gauss("O1+ O2+ U1+ U2+"), [Q])


def test_empty_field_list_is_rejected(no_cube_walk):
    with pytest.raises(UnsupportedFieldError, match="no coefficient field"):
        certify(load("trefoil.pd"), [])


def test_one_cube_pass_per_command(cube_walks):
    """certify makes one counting pass over the diagram as given, for its
    bracket, then, for its complex, one counting pass over ``simplify(d)``,
    which sizes the blocks, and one sweep of its cube (one walker);
    ``kmc bracket`` and the census one counting pass (no walker).  The
    census reads a, b and chi from its own pass; certify and ``kmc
    bracket`` read chi from the atom, which walks the circles of two
    states, all-A and all-B, by itself: not the cube, and no walker."""
    from kmc.cli import main
    from kmc.single_circle import single_circle_census

    def bracket_command():
        assert main(["bracket", str(FIXTURES / "6_2.pd")]) == 0

    d = load("6_2.pd")
    assert simplify(d) is d
    for run, kinds in (
        (lambda: certify(d), ["counting", "counting", "walker"]),
        (lambda: certify(d, [GF2]), ["counting", "counting", "walker"]),
        (lambda: certify(d, [Q]), ["counting", "counting", "walker"]),
        (bracket_command, ["counting"]),
        (lambda: single_circle_census(d), ["counting"]),
    ):
        cube_walks.clear()
        run()
        assert cube_walks == [(kind, d) for kind in kinds]
    # a kinked knot and a knot with a bigon: d's bracket, then the census
    # and the cube of the simplified diagram
    trefoil = load("trefoil.pd")
    for given in (load("kinked_trefoil.pd"), r2_add(trefoil, 0, 2)):
        simple = simplify(given)
        assert simple == trefoil
        cube_walks.clear()
        certify(given)
        assert cube_walks == [("counting", given), ("counting", simple), ("walker", simple)]


def test_disconnected_rejected():
    with pytest.raises(DiagramError):
        certify(Diagram(0, (), 2))


def test_certificate_json_shape():
    data = certify(load("trefoil.pd"), [Q]).to_json_dict()
    assert data["schema"] == 1
    assert data["verdict"] == MINIMAL
    assert data["fields"]["q"]["q_span"] == 8
    assert isinstance(data["reasoning"], list)


def test_table_certification_13n3663():
    tab = load_table(FIXTURES / "13n3663_khq.json")
    cert = certify_from_table(tab, 13)
    assert cert.verdict == MINIMAL
    assert cert.thickness == 4
    assert cert.twice_genus == 4  # genus lower bound 2
    assert cert.reasoning[1] == "table[q]: thickness = 4"
    assert cert.reasoning[5] == "thickness 4 vs genus + 2 = 4 -> 2-completeness holds"
    assert cert.genus_is_lower_bound
    assert cert.chi == -2
    assert cert.fields["q"].q_span == 24
    assert cert.fields["q"].q_min == -11
    assert cert.fields["q"].q_max == 13


def test_table_certification_unknot():
    tab = KhTable(Q, {(0, 1): 1, (0, -1): 1})
    cert = certify_from_table(tab, 0)
    assert cert.verdict == MINIMAL


def test_table_certification_trefoil():
    from kmc.khovanov import kh_table

    tab = kh_table(load("trefoil.pd"), Q)
    cert = certify_from_table(tab, 3)
    assert cert.verdict == MINIMAL
    assert cert.chi == 2


def test_table_certification_chi_hint():
    from kmc.khovanov import kh_table

    tab = kh_table(load("trefoil.pd"), Q)
    # claiming a 4-crossing genus-1 diagram: the span bound is met but
    # two diagonals cannot be 2-complete at genus 1
    cert = certify_from_table(tab, 4, chi_hint=0)
    assert cert.verdict == INCONCLUSIVE
    assert cert.broad_1_complete
    assert not cert.two_complete
    # a hint above what the thickness allows is inconsistent
    with pytest.raises(TableError):
        certify_from_table(tab, 3, chi_hint=4)
    # a genus-1 claim on a 3-crossing diagram contradicts the span bound
    with pytest.raises(TableError):
        certify_from_table(tab, 3, chi_hint=0)


def test_unknown_field_is_refused(no_cube_walk):
    from kmc.khovanov import kh_table

    d = load("trefoil.pd")
    for run in (lambda: certify(d, ["z"]), lambda: kh_table(d, "z")):
        with pytest.raises(UnsupportedFieldError, match="unknown field 'z'"):
            run()


def test_table_certification_inconsistent_span():
    tab = KhTable(Q, {(0, 30): 1, (0, -1): 1})  # q-span 31 > 2n + chi
    with pytest.raises(TableError):
        certify_from_table(tab, 3)


def test_table_path_never_more_permissive():
    rng = random.Random(61)
    for _ in range(40):
        d = random_classical_diagram(9, rng)
        full = certify(d, [Q])
        tab = KhTable(Q, dict(full.fields[Q].entries))
        frm = certify_from_table(tab, d.n)
        if frm.verdict == MINIMAL:
            assert full.verdict == MINIMAL
        # with the genus matching the thickness bound the verdicts agree
        if full.twice_genus == 2 * (frm.thickness - 2):
            assert frm.verdict == full.verdict


def certificate_fields(cert):
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


def test_certificates_blind_to_virtualization():
    rng = random.Random(62)
    from kmc.diagram import components

    for _ in range(40):
        d = random_virtual_diagram(6, rng)
        if d.n == 0:
            continue
        dv = virtualize(d, rng.randrange(d.n))
        c1, c2 = certify(d), certify(dv)
        assert certificate_fields(c1) == certificate_fields(c2)
        if components(d) == 1:
            # knots: even the raw tables agree (no orientation freedom)
            assert {k: v.entries for k, v in c1.fields.items()} == {
                k: v.entries for k, v in c2.fields.items()
            }


def test_seven_crossing_alternating_minimal():
    # 7_1, reduced alternating: the pipeline scales past the fixture set
    pd = (
        "X 1 8 2 9\nX 3 10 4 11\nX 5 12 6 13\nX 7 14 8 1\n"
        "X 9 2 10 3\nX 11 4 12 5\nX 13 6 14 7\n"
    )
    from kmc.diagram import parse_pd

    cert = certify(parse_pd(pd), [Q])
    assert cert.verdict == MINIMAL
    assert cert.strict_1_complete
    assert cert.twice_genus == 0
    assert cert.thickness == 2


def test_limits_are_checked_before_the_cube_is_walked(
    no_cube_walk, monkeypatch, capsys, tmp_path
):
    from kmc.cli import main
    from kmc.diagram import render_pd
    from kmc.errors import LimitError
    from kmc.single_circle import single_circle_census
    from kmc.statesum import kauffman_bracket

    d = braid_closure(2, [1] * 17)  # T(2, 17): no kink to remove
    path = tmp_path / "t2_17.pd"
    path.write_text(render_pd(d))

    for fields in (None, [GF2], [Q], [GF2, Q]):
        with pytest.raises(LimitError):
            certify(d, fields)
    with pytest.raises(UnsupportedFieldError):
        certify(parse_gauss("O1+ O2+ U1+ U2+"), [GF2, Q])
    for count in (kauffman_bracket, single_circle_census):
        with pytest.raises(LimitError, match="17 crossings; census limit is 16"):
            count(d, max_crossings=16)
    assert main(["bracket", str(path), "--max-crossings", "16"]) == 1
    assert capsys.readouterr().err == "kmc: diagram has 17 crossings; census limit is 16\n"
    monkeypatch.setenv("KMC_MAX_CROSSINGS", "16")
    for count in (kauffman_bracket, single_circle_census):
        with pytest.raises(LimitError, match="census limit is 16"):
            count(d)
    assert main(["bracket", str(path)]) == 1
    assert capsys.readouterr().err == "kmc: diagram has 17 crossings; census limit is 16\n"


@pytest.mark.parametrize("limit", [0, -3])
def test_a_non_positive_limit_is_refused(no_cube_walk, limit):
    """An explicit limit below 1 is a bad value, refused in one line
    before any pass, as a bad KMC_MAX_CROSSINGS is."""
    from kmc.errors import LimitError
    from kmc.khovanov import kh_table
    from kmc.single_circle import single_circle_census
    from kmc.statesum import kauffman_bracket

    for d in (load("trefoil.pd"), UNKNOT):
        for run in (certify, kh_table, kauffman_bracket, single_circle_census):
            with pytest.raises(LimitError) as info:
                run(d, max_crossings=limit)
            assert str(info.value) == f"bad max_crossings value {limit}"


def _patched_tables(monkeypatch, change):
    """Route every table certify computes through change(table)."""
    import kmc.khovanov as kh

    real = kh.homology
    monkeypatch.setattr(kh, "homology", lambda *args: change(real(*args)))


def test_invariant_euler_characteristic(monkeypatch):
    from kmc.errors import InvariantError

    def drop_one(tab):
        entries = dict(tab.entries)
        entries.pop(min(entries))
        return KhTable(tab.field, entries)

    _patched_tables(monkeypatch, drop_one)
    with pytest.raises(InvariantError, match="Euler characteristic over gf2"):
        certify(load("trefoil.pd"))


def test_a_wrong_labelled_pass_is_caught(monkeypatch, capsys, tmp_path):
    """The blocks are sized by the census of the diagram whose cube is
    swept, so the census check sees a walk gone wrong, before any rank,
    on a diagram that simplify leaves alone.  Here state 7 takes state
    11's walk: d.d = 0 would still hold, and the GF(2) table would get 8
    entries instead of 6.  ``kmc certify`` reports it in one line."""
    import kmc.khovanov as kh
    from kmc.cli import main
    from kmc.diagram import parse_pd

    text = "X 1 2 3 4\nX 5 3 1 2\nX 6 4 7 8\nX 8 6 7 5\n"
    d = parse_pd(text)
    assert simplify(d) is d and len(certify(d).fields[GF2].entries) == 6
    real = kh._walker

    def state_7_as_11(d):
        walk = real(d)
        return lambda state: walk(11 if state == 7 else state)

    ranked = []
    monkeypatch.setattr(kh, "_walker", state_7_as_11)
    monkeypatch.setattr(kh, "gf2_rank", lambda rows: ranked.append(rows))
    monkeypatch.setattr(kh, "sparse_integer_rank", lambda rows: ranked.append(rows))
    with pytest.raises(AssertionError, match="census check: the walk overfills C"):
        certify(d)
    path = tmp_path / "d.pd"
    path.write_text(text)
    assert main(["certify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("kmc: census check") and err.count("\n") == 1
    assert "Traceback" not in err and ranked == []


def test_invariant_gf2_at_least_q(monkeypatch):
    from kmc.errors import InvariantError

    # a cancelling pair on the trefoil's two diagonals keeps the Euler
    # characteristic and the thickness
    def pair_over_q(tab):
        if tab.field != Q:
            return tab
        return KhTable(Q, {**tab.entries, (-1, -3): 1, (0, -3): 2})

    _patched_tables(monkeypatch, pair_over_q)
    with pytest.raises(InvariantError, match="GF\\(2\\) dimension below Q"):
        certify(load("trefoil.pd"))


def test_invariant_thickness(monkeypatch):
    from kmc.errors import InvariantError

    def far_pair(tab):
        return KhTable(tab.field, {**tab.entries, (0, 41): 1, (1, 41): 1})

    _patched_tables(monkeypatch, far_pair)
    with pytest.raises(InvariantError, match="thickness over gf2"):
        certify(load("trefoil.pd"))


def test_invariant_q_span(monkeypatch):
    """A cancelling pair on the trefoil's two diagonals, far out in q,
    keeps the Euler characteristic and the thickness but takes each
    q-span to 28, above 2n + chi = 8: an error, not a verdict."""
    from kmc.errors import InvariantError

    def far_pair(tab):
        return KhTable(tab.field, {**tab.entries, (10, 19): 1, (11, 19): 1})

    _patched_tables(monkeypatch, far_pair)
    with pytest.raises(InvariantError, match="q-span 28 exceeds 2n \\+ chi = 8"):
        certify(load("trefoil.pd"))


def test_invariant_bracket_span(monkeypatch):
    import kmc.statesum
    from kmc.errors import InvariantError
    from kmc.laurent import Laurent

    real = kmc.statesum.kauffman_bracket
    monkeypatch.setattr(
        kmc.statesum,
        "kauffman_bracket",
        lambda d, **kwargs: real(d, **kwargs) + Laurent.term(1, 99),
    )
    with pytest.raises(InvariantError, match="bracket span"):
        certify(load("trefoil.pd"))
