import copy
import inspect
import json
import random
import types
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

import kmc.khovanov as kh
from conftest import FIXTURES, load
from kmc.atom import build_atom, orientable
from kmc.diagram import (
    Diagram,
    crossing_signs,
    mirror,
    orient,
    parse_gauss,
    r1_add,
    simplify,
    virtualize,
)
from kmc.errors import InvariantError, LimitError, TableError, UnsupportedFieldError
from kmc.generate import braid_closure, random_classical_diagram, random_virtual_diagram
from kmc.khovanov import (
    GF2,
    KhTable,
    Q,
    _gf2_pass,
    build_complex,
    graded_euler_characteristic,
    kh_table,
    load_table,
    q_span,
    thickness,
)
from kmc.laurent import Laurent
from kmc.linalg import sparse_integer_rank
from kmc.minimality import _report, certify
from kmc.statesum import _walker, circles_of_state, kauffman_bracket

UNKNOT = Diagram(0, (), 1)

# standard tables; each is re-derived here by the state-sum oracle below
LEFT_TREFOIL_KH = {(-3, -9): 1, (-2, -5): 1, (0, -3): 1, (0, -1): 1}
RIGHT_TREFOIL_KH = {(0, 1): 1, (0, 3): 1, (2, 5): 1, (3, 9): 1}
FIGURE8_KH = {(-2, -5): 1, (-1, -1): 1, (0, -1): 1, (0, 1): 1, (1, 1): 1, (2, 5): 1}
# derived by hand: the two-crossing virtual trefoil cube has zero maps
# out of the A-state (both edges are single-cycle events) and splits
# into the two-circle state
VIRTUAL_TREFOIL_KH_GF2 = {
    (0, 1): 1,
    (0, 3): 1,
    (1, 2): 1,
    (1, 4): 1,
    (2, 4): 1,
    (2, 6): 1,
}


def euler_matches_bracket(d) -> bool:
    """State-sum oracle: the graded Euler characteristic at q = -A^-2
    equals (q + 1/q) (-A^3)^(-w) <L> exactly."""
    from kmc.diagram import crossing_signs, orient

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


def test_unknot_table():
    tab = kh_table(UNKNOT, Q)
    assert tab.entries == {(0, 1): 1, (0, -1): 1}
    assert thickness(tab) == 2
    assert q_span(tab) == 2


def test_trefoil_tables():
    d = load("trefoil.pd")
    assert kh_table(d, Q).entries == LEFT_TREFOIL_KH
    assert kh_table(mirror(d), Q).entries == RIGHT_TREFOIL_KH
    assert euler_matches_bracket(d)


def test_figure8_table():
    d = load("figure8.pd")
    assert kh_table(d, Q).entries == FIGURE8_KH
    assert thickness(kh_table(d, Q)) == 2
    assert euler_matches_bracket(d)


def test_total_chain_dimension():
    d = load("trefoil.pd")
    c = build_complex(d, Q)
    from kmc.statesum import circles_of_state

    expected = sum(2 ** circles_of_state(d, s) for s in range(8))
    assert c.total_dimension() == expected


def test_virtual_trefoil_gf2():
    d = parse_gauss("O1+ O2+ U1+ U2+")
    build_complex(d, GF2)  # d^2 = 0 asserted inside
    tab = kh_table(d, GF2)
    assert tab.entries == VIRTUAL_TREFOIL_KH_GF2
    assert thickness(tab) == Fraction(5, 2)
    assert q_span(tab) == 5


def test_virtual_trefoil_rejects_rationals():
    with pytest.raises(UnsupportedFieldError):
        build_complex(parse_gauss("O1+ O2+ U1+ U2+"), Q)


def test_rational_skeleton_refuses_a_single_cycle_edge():
    # past the orientability test, the cube itself refuses a zero map over Q
    d = parse_gauss("O1+ O2+ U1+ U2+")
    with pytest.raises(AssertionError, match="single-cycle event"):
        kh._skeleton(d, *crossing_signs(d, orient(d)), Q)
    kh._skeleton(d, *crossing_signs(d, orient(d)), GF2)


def test_rationals_allowed_for_orientable_virtual():
    # virtualized classical diagrams are genuinely virtual but keep an
    # orientable atom, so rational coefficients stay available
    d = load("trefoil.pd")
    dv = virtualize(d, 1)
    assert kh_table(dv, Q).entries == LEFT_TREFOIL_KH


def test_crossing_limit():
    with pytest.raises(LimitError):
        kh_table(load("trefoil.pd"), Q, max_crossings=2)


def test_limit_env_override(monkeypatch):
    monkeypatch.setenv("KMC_MAX_CROSSINGS", "2")
    with pytest.raises(LimitError):
        kh_table(load("trefoil.pd"), Q)
    monkeypatch.setenv("KMC_MAX_CROSSINGS", "3")
    kh_table(load("trefoil.pd"), Q)


def completeness(tab, n, chi, twice_genus):
    """(broad 1-completeness, 2-completeness) of tab as certify decides
    them, for n crossings, Euler characteristic chi and the genus."""
    rep = _report(tab, n, chi, Fraction(twice_genus, 2), InvariantError)[0]
    return rep.broad_1_complete, rep.two_complete


def test_thickness_13n3663_fixture():
    tab = load_table(FIXTURES / "13n3663_khq.json")
    assert sum(tab.entries.values()) == 21
    assert thickness(tab) == 4
    assert q_span(tab) == 24
    assert tab.q_min() == -11 and tab.q_max() == 13
    assert completeness(tab, 13, -2, 4)[0]


def test_thickness_errors_empty():
    with pytest.raises(TableError):
        thickness(KhTable(Q, {}))
    with pytest.raises(TableError):
        q_span(KhTable(Q, {}))


def test_broad_1_complete_unknot_and_kink():
    tab = kh_table(UNKNOT, Q)
    assert completeness(tab, 0, 2, 0)[0]
    kinked = r1_add(load("trefoil.pd"), 0, 1)
    tab_k = kh_table(kinked, Q)
    assert q_span(tab_k) == 8
    assert not completeness(tab_k, kinked.n, 2, 0)[0]


def test_is_2_complete():
    tab = load_table(FIXTURES / "13n3663_khq.json")
    assert completeness(tab, 13, -2, 4)[1]
    assert not completeness(tab, 13, -2, 6)[1]
    tre = kh_table(load("trefoil.pd"), Q)
    assert completeness(tre, 3, 2, 0)[1]
    assert not completeness(tre, 3, 2, 2)[1]


def test_a_table_above_a_bound_is_an_error():
    """Thickness is checked before the q-span; either above its bound
    raises the error given, with the numbers that broke it."""
    tab = load_table(FIXTURES / "13n3663_khq.json")
    with pytest.raises(InvariantError, match="thickness over q is 4, above genus \\+ 2 = 3"):
        completeness(tab, 0, -2, 2)
    with pytest.raises(InvariantError, match="q-span 24 exceeds 2n \\+ chi = 22"):
        completeness(tab, 12, -2, 4)
    with pytest.raises(TableError, match="q-span 24 exceeds"):
        _report(tab, 12, -2, Fraction(2), TableError)


def test_euler_characteristic_random_classical():
    rng = random.Random(41)
    for _ in range(25):
        assert euler_matches_bracket(random_classical_diagram(6, rng))


def test_thickness_bound_random():
    rng = random.Random(42)
    for _ in range(50):
        d = random_virtual_diagram(6, rng)
        twice_genus = build_atom(d).twice_genus
        tab = kh_table(d, GF2)
        if tab.entries:
            assert tab.diagonal_spread() <= twice_genus + 2


def test_gf2_dims_dominate_rational_dims():
    rng = random.Random(43)
    for _ in range(25):
        d = random_classical_diagram(5, rng)
        tq = kh_table(d, Q)
        t2 = kh_table(d, GF2)
        for key, dim in tq.entries.items():
            assert t2.entries.get(key, 0) >= dim


def test_tables_blind_to_virtualization_gf2():
    rng = random.Random(44)
    for _ in range(30):
        d = random_virtual_diagram(6, rng)
        if d.n == 0 or len(list(_strand_sets(d))) != 1:
            continue
        dv = virtualize(d, rng.randrange(d.n))
        assert kh_table(d, GF2).entries == kh_table(dv, GF2).entries


def _strand_sets(d):
    from kmc.diagram import port_cycles

    return port_cycles(d, 2)


def test_table_json_roundtrip(tmp_path):
    tab = kh_table(load("figure8.pd"), Q)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tab.to_json_dict()))
    again = load_table(path)
    assert again.entries == tab.entries
    assert again.field == Q


def test_table_json_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 1, "entries": [{"t": 0, "q": 1, "dim": 0}]}))
    with pytest.raises(TableError):
        load_table(path)
    path.write_text(json.dumps({"schema": 1}))
    with pytest.raises(TableError):
        load_table(path)


def test_gf2_tables_show_torsion_dimensions():
    # over GF(2) the torsion of the integral homology surfaces as extra
    # dimensions in adjacent homological degrees; both tables below match
    # the published homology of these knots
    right = mirror(load("trefoil.pd"))
    assert kh_table(right, GF2).entries == {
        (0, 1): 1,
        (0, 3): 1,
        (2, 5): 1,
        (2, 7): 1,
        (3, 7): 1,
        (3, 9): 1,
    }
    assert kh_table(load("figure8.pd"), GF2).entries == {
        (-2, -5): 1,
        (-2, -3): 1,
        (-1, -3): 1,
        (-1, -1): 1,
        (0, -1): 1,
        (0, 1): 1,
        (1, 1): 1,
        (1, 3): 1,
        (2, 3): 1,
        (2, 5): 1,
    }


def test_disconnected_unlink_table():
    # homology still works on split diagrams; only certification insists
    # on connectivity
    tab = kh_table(Diagram(0, (), 2), Q)
    assert tab.entries == {(0, -2): 1, (0, 0): 2, (0, 2): 1}
    assert thickness(tab) == 3


# property tests of the complex built from the labelled cube

DIAGRAMS = st.builds(
    lambda virtual, n, seed: (random_virtual_diagram if virtual else random_classical_diagram)(
        n, random.Random(seed)
    ),
    st.booleans(),
    st.integers(1, 6),
    st.integers(0, 10**6),
)


def basis(d, field):
    """(t, q) -> the (state, mask) of each column of the complex over
    field, in block order: by state, then by popcount and mask; over
    GF(2) only the even masks, whose marked circle 0 carries v-."""
    n_plus, n_minus = crossing_signs(d, orient(d))
    blocks = {}
    for s in range(1 << d.n):
        r, k = s.bit_count(), circles_of_state(d, s)
        masks = range(0, 1 << k, 2 if field == GF2 else 1)
        for m in sorted(masks, key=lambda m: (m.bit_count(), m)):
            key = (r - n_minus, r + n_plus - 2 * n_minus - k + 2 * m.bit_count())
            blocks.setdefault(key, []).append((s, m))
    return dict(sorted(blocks.items()))


@settings(max_examples=40, deadline=None)
@given(DIAGRAMS)
def test_chain_dimensions_are_binomial_sums(d):
    """C(k, j) masks of popcount j per state with k circles over Q, and
    C(k - 1, j) over GF(2), where the marked circle carries v-."""
    n_plus, n_minus = crossing_signs(d, orient(d))
    fields = [GF2] + ([Q] if orientable(build_atom(d)) else [])
    for field in fields:
        expected = {}
        for s in range(1 << d.n):
            r, k = s.bit_count(), circles_of_state(d, s)
            for j in range(k + 1):
                key = (r - n_minus, r + n_plus - 2 * n_minus - k + 2 * j)
                size = comb(k - 1, j) if field == GF2 else comb(k, j)
                if size:
                    expected[key] = expected.get(key, 0) + size
        c = build_complex(d, field)
        assert {key: len(cols) for key, cols in c.blocks.items()} == expected
        assert {key: len(b) for key, b in basis(d, field).items()} == expected
        assert c.total_dimension() == sum(expected.values())
        # each column lists distinct targets in increasing order
        assert all(
            [i for i, _ in col] == sorted({i for i, _ in col}) for cols in c.blocks.values() for col in cols
        )


def _entry_with_a_composite(c):
    """(block key, column, entry index) of an entry whose target column in
    the next block is non-empty, so that d.d sees it."""
    for (t, q), cols in c.blocks.items():
        nxt = c.blocks.get((t + 1, q))
        for j, col in enumerate(cols):
            for e, (i, _) in enumerate(col):
                if nxt and nxt[i]:
                    return (t, q), j, e
    return None


def _eliminated(c):
    """The blocks of a complex over Q that ``homology`` eliminates: those
    with nonzero GF(2) homology at both ends."""
    gf2_homology = kh._dimensions(c, c.gf2_ranks)
    return {(t, q) for t, q in c.blocks if {(t, q), (t + 1, q)} <= gf2_homology.keys()}


@settings(max_examples=30, deadline=None)
@given(DIAGRAMS)
def test_d_squared_checks_catch_a_changed_entry(d):
    # a dropped entry: the XOR pass catches it on the reduced complex over
    # GF(2) and on the one over Q where it exists; the Q complex holds the
    # reduced one, so it has such an entry too
    gf2 = build_complex(d, GF2)
    assume(_entry_with_a_composite(gf2) is not None)
    fields = [gf2] + ([build_complex(d, Q)] if orientable(build_atom(d)) else [])
    for c in fields:
        key, j, e = _entry_with_a_composite(c)
        dropped = copy.deepcopy(c)
        del dropped.blocks[key][j][e]
        with pytest.raises(AssertionError, match="square to zero at"):
            _gf2_pass(dropped)
    if len(fields) < 2:  # signs exist over Q only; mod 2 a flip is no change
        return
    # a flipped sign, at the first entry of each block whose composite
    # d.d sees: the integer sums of homology(c, Q) catch it exactly where
    # they sum a pair through it, one of whose blocks is eliminated;
    # elsewhere no elimination reads it and the rational table stays
    rat = fields[1]
    table, eliminated = kh.homology(rat, Q), _eliminated(rat)
    for (t, q), cols in rat.blocks.items():
        before, after = rat.blocks.get((t - 1, q), ()), rat.blocks.get((t + 1, q))
        hit = next(((j, e) for j, col in enumerate(cols) for e, (i, _) in enumerate(col) if after[i]),
                   None)
        if hit is None:
            continue
        j, e = hit
        # the pairs t - 1 -> t and t -> t + 1 are summed when one of their
        # blocks is eliminated, and the first sees the entry when a column
        # of block t - 1 reaches column j; pairs are summed in (t, q) order
        reached = any(i == j for col in before for i, _ in col)
        seen_before = reached and bool({(t - 1, q), (t, q)} & eliminated)
        seen_after = bool({(t, q), (t + 1, q)} & eliminated)
        _flip(cols[j], e)
        if seen_before or seen_after:
            where = rf"square to zero over Z at \(t={t - 1 if seen_before else t}, q={q}\)"
            with pytest.raises(AssertionError, match=where):
                kh.homology(rat, Q)
        else:
            assert kh.homology(rat, Q) == table
        _flip(cols[j], e)


@settings(max_examples=30, deadline=None)
@given(DIAGRAMS)
def test_q_complex_is_the_signed_gf2_complex(d):
    """The Q complex's columns at the generators whose marked circle
    carries v-, read mod 2, are the reduced GF(2) complex: their targets
    carry v- on the marked circle too."""
    assume(orientable(build_atom(d)))
    gf2, rat = build_complex(d, GF2), build_complex(d, Q)
    assert all(v in (1, -1) for cols in rat.blocks.values() for col in cols for _, v in col)
    full, reduced = basis(d, Q), basis(d, GF2)
    place = {}  # (t, q) -> the reduced position of each Q position, None at odd masks
    for key, gens in full.items():
        index = {g: p for p, g in enumerate(reduced.get(key, ()))}
        place[key] = [index.get(g) for g in gens]
    assert gf2.blocks.keys() == reduced.keys() <= rat.blocks.keys()
    for (t, q), cols in gf2.blocks.items():
        marked = [col for col, p in zip(rat.blocks[t, q], place[t, q]) if p is not None]
        assert [[(place[t + 1, q][i], abs(v)) for i, v in col] for col in marked] == cols


# rational ranks pinned by GF(2) ranks


def full_elimination_table(d):
    """The rational table with every block eliminated exactly: the
    reference for the ranks that homology takes from GF(2)."""
    c = build_complex(d, Q)
    ranks = {key: sparse_integer_rank(cols) for key, cols in c.blocks.items()}
    entries = {}
    for (t, q), cols in c.blocks.items():
        dim = len(cols) - ranks.get((t, q), 0) - ranks.get((t - 1, q), 0)
        if dim:
            entries[t, q] = dim
    return entries


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(0, 10**6))
def test_pinned_rational_table_equals_full_elimination(n, seed):
    d = random_classical_diagram(n, random.Random(seed))
    assert kh_table(d, Q).entries == full_elimination_table(d)


# inputs that simplify leaves alone and whose rational table eliminates
# blocks, with the number of blocks eliminated
ELIMINATING = [
    ("(s1 s2^-1)^3", lambda: braid_closure(3, [1, -2] * 3), 6),
    ("T(2, 5)", lambda: braid_closure(2, [1] * 5), 3),
    ("T(2, 7)", lambda: braid_closure(2, [1] * 7), 5),
    ("figure8", lambda: load("figure8.pd"), 4),
    ("virtualized 6_2", lambda: virtualize(load("6_2.pd"), 2), 6),
]


@pytest.mark.parametrize(
    "make, blocks", [case[1:] for case in ELIMINATING], ids=[case[0] for case in ELIMINATING]
)
def test_pinned_rational_table_equals_full_elimination_where_blocks_are_eliminated(
    monkeypatch, make, blocks
):
    d = make()
    assert simplify(d) == d
    eliminated = _count_calls(monkeypatch, "sparse_integer_rank")
    assert kh_table(d, Q).entries == full_elimination_table(d)
    assert len(eliminated) == blocks


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(kh, name)
    monkeypatch.setattr(kh, name, lambda rows: calls.append(len(rows)) or real(rows))
    return calls


@pytest.mark.parametrize("name", ["trefoil.pd", "figure8.pd", "5_1.pd", "6_2.pd"])
def test_torsion_blocks_are_eliminated(monkeypatch, name):
    d = load(name)
    assert kh_table(d, GF2).entries != kh_table(d, Q).entries
    eliminated = _count_calls(monkeypatch, "sparse_integer_rank")
    assert kh_table(d, Q).entries == full_elimination_table(d)
    assert eliminated


def test_a_negative_dimension_names_its_block():
    c = build_complex(load("6_2.pd"), GF2)
    keys = [key for key, cols in c.blocks.items() if cols]
    t, q = key = keys[len(keys) // 2]
    c.gf2_ranks[key] = len(c.blocks[key]) + 1
    with pytest.raises(AssertionError, match=rf"negative homology dimension at \(t={t}, q={q}\)"):
        kh.homology(c)


def test_eliminated_rank_below_gf2_rank_is_an_error(monkeypatch):
    monkeypatch.setattr(kh, "sparse_integer_rank", lambda rows: 0)
    with pytest.raises(AssertionError, match="below GF"):
        kh_table(load("trefoil.pd"), Q)


def test_certify_ranks_each_gf2_block_once(monkeypatch):
    """One gf2_rank call per nonempty block of the complex each run
    builds, over Q when the rationals are asked for and reduced over
    GF(2) otherwise, all inside build_complex and none in homology."""
    d = load("6_2.pd")
    assert simplify(d) == d
    nonempty = {
        field: sum(1 for cols in build_complex(d, field).blocks.values() if cols)
        for field in (GF2, Q)
    }
    assert nonempty[GF2] < nonempty[Q]
    inside, ranked = [], []

    def within(name):
        real = getattr(kh, name)

        def wrapper(*args, **kwargs):
            inside.append(name)
            try:
                return real(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(kh, name, wrapper)

    within("build_complex")
    within("homology")
    real_rank = kh.gf2_rank
    monkeypatch.setattr(kh, "gf2_rank", lambda rows: ranked.append(inside[-1]) or real_rank(rows))
    runs = [(Q, lambda: certify(d)), (GF2, lambda: certify(d, [GF2])), (Q, lambda: certify(d, [Q]))]
    runs += [(GF2, lambda: kh_table(d, GF2)), (Q, lambda: kh_table(d, Q))]
    for field, run in runs:
        ranked.clear()
        run()
        assert ranked == ["build_complex"] * nonempty[field]


@pytest.mark.parametrize("name", ["trefoil.pd", "figure8.pd", "6_2.pd", "virtual_trefoil.gauss"])
@pytest.mark.parametrize("step", [-1, 1, 0])
def test_the_census_check_catches_a_wrong_census(monkeypatch, name, step):
    """A census that moves one state from (r, k) to (r, k + step), or
    with step 0 counts one state too many, sizes the blocks wrongly,
    whichever (r, k) it is: the sweep's walks overfill a block or leave
    one short, and build_complex raises before any rank."""
    d = load(name)
    fields = [GF2] + ([Q] if orientable(build_atom(d)) else [])
    real = kh.circle_counts
    ranked = _count_calls(monkeypatch, "gf2_rank")
    moves = [(r, k) for r, k in real(d) if k + step > 0]
    assert moves
    for r, k in moves:
        census = real(d)
        if step:
            census[r, k] -= 1
            if not census[r, k]:
                del census[r, k]
        census[r, k + step] = census.get((r, k + step), 0) + 1
        monkeypatch.setattr(kh, "circle_counts", lambda e, census=census: dict(census))
        for field in fields:
            with pytest.raises(AssertionError, match="census check"):
                build_complex(d, field)
    assert ranked == []


# one complex per certify


def _corrupt_skeleton(monkeypatch, change):
    """Route every skeleton through change(column, entry index) at an
    entry whose composite d.d sees; return the list of (complex, block
    key) changed, in build order."""
    real = kh._skeleton
    changed = []

    def corrupted(*args):
        c = real(*args)
        key, j, e = _entry_with_a_composite(c)
        change(c.blocks[key][j], e)
        changed.append((c, key))
        return c

    monkeypatch.setattr(kh, "_skeleton", corrupted)
    return changed


def _drop(col, e):
    del col[e]


def _flip(col, e):
    i, v = col[e]
    col[e] = (i, -v)


@pytest.mark.parametrize("name", ["trefoil.pd", "figure8.pd", "6_2.pd"])
def test_the_xor_pass_catches_a_dropped_entry(monkeypatch, name):
    _corrupt_skeleton(monkeypatch, _drop)
    for fields in ([GF2, Q], [GF2]):
        with pytest.raises(AssertionError, match="square to zero at"):
            certify(load(name), fields)


def _certify_cli(capsys, name, *argv):
    from kmc.cli import main

    code = main(["certify", str(FIXTURES / name), *argv])
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("name", ["figure8.pd", "5_1.pd", "5_2.pd", "6_1.pd", "6_2.pd", "6_3.pd"])
def test_a_flipped_sign_next_to_an_eliminated_block_is_caught_over_z(monkeypatch, capsys, name):
    """The first entry whose composite d.d sees lies, on these knots, in
    an eliminated block or next to one, so the integer sums that
    homology(c, Q) runs before the elimination see its flipped sign."""
    changed = _corrupt_skeleton(monkeypatch, _flip)
    with pytest.raises(AssertionError, match="square to zero over Z"):
        certify(load(name))
    (c, (t, q)), = changed
    assert {(t - 1, q), (t, q), (t + 1, q)} & _eliminated(c)
    code, out, err = _certify_cli(capsys, name)
    assert code == 1 and out == ""
    assert err.startswith("kmc: ") and err.count("\n") == 1 and "square to zero over Z" in err


def test_a_flipped_sign_no_elimination_reads_leaves_the_certificate(monkeypatch, capsys):
    """On the trefoil the first entry whose composite d.d sees lies in
    block (-3, -5), and the one eliminated block is (-3, -7): no summed
    pair and no elimination reads the flipped sign, and every other
    block's rational rank is its GF(2) rank, which a sign cannot change."""
    clean = _certify_cli(capsys, "trefoil.pd", "--json")
    assert clean[0] == 0
    changed = _corrupt_skeleton(monkeypatch, _flip)
    ranked = []
    real = kh.sparse_integer_rank
    monkeypatch.setattr(kh, "sparse_integer_rank", lambda rows: ranked.append(rows) or real(rows))
    assert _certify_cli(capsys, "trefoil.pd", "--json") == clean
    (c, key), = changed
    assert key == (-3, -5)
    assert [rows is c.blocks[-3, -7] for rows in ranked] == [True]


@pytest.mark.parametrize("fields", [None, [GF2, Q], [GF2], [Q]])
def test_certify_builds_and_checks_one_complex(monkeypatch, fields):
    """One build, over Q when the rationals are asked for, and one pass
    over its blocks, which checks d.d = 0 and ranks them."""
    built, checked = [], []
    real_build, real_pass = kh.build_complex, kh._gf2_pass
    monkeypatch.setattr(kh, "build_complex", lambda *a, **kw: built.append(a) or real_build(*a, **kw))
    monkeypatch.setattr(kh, "_gf2_pass", lambda c: checked.append(c.field) or real_pass(c))
    certify(load("6_2.pd"), fields)
    over_q = fields is None or Q in fields
    assert len(built) == 1
    assert checked == [Q if over_q else GF2]


def test_the_xor_pass_catches_a_dropped_entry_on_a_non_orientable_atom(monkeypatch):
    # Over GF(2) alone the XOR pass is the only d.d check.  The virtual
    # trefoil gives it nothing to see: its cube has two crossings, and
    # both paths of length two start with a zero map out of the A-state.
    # So the mutation runs on the connected sum of two virtual trefoils.
    d = parse_gauss("O1+ O2+ U1+ U2+ O3+ O4+ U3+ U4+")
    assert not orientable(build_atom(d))
    assert _entry_with_a_composite(build_complex(load("virtual_trefoil.gauss"), GF2)) is None
    _corrupt_skeleton(monkeypatch, _drop)
    with pytest.raises(AssertionError, match="square to zero"):
        certify(d, [GF2])


def test_q_table_needs_a_complex_over_q():
    with pytest.raises(UnsupportedFieldError):
        kh.homology(build_complex(load("trefoil.pd"), GF2), Q)


# the skeleton's edge programs against a per-edge reference builder


def reference_skeleton(d, field, reduced=None):
    """The complex built edge by edge: each edge tabulates the image of
    the untouched circles' labels for every mask of its source, by
    renumbering through the target's labels, and branches per mask.
    Reduced (by default over GF(2)), it keeps only the columns of the
    even masks, whose marked circle 0 carries v-; their targets must be
    even masks too, or an entry (None, 1) shows.  Blocks are keyed in
    sorted (t, q) order.  ``_skeleton`` must give the same blocks, column
    for column."""
    kept = 2 if (field == GF2 if reduced is None else reduced) else 1
    n_plus, n_minus = crossing_signs(d, orient(d))
    n, loops = d.n, d.free_loops
    arc_of = d.arc_index
    walk = _walker(d)
    labels = [walk(s) for s in range(1 << n)]
    k_of = [k + loops for _, k in labels]
    width = max(k_of)
    popcount = [m.bit_count() for m in range(1 << width)]
    by_popcount = {
        k: [[m for m in range(0, 1 << k, kept) if popcount[m] == j] for j in range(k + 1)]
        for k in set(k_of)
    }
    rank_in_popcount = [0] * (1 << width)
    for masks in by_popcount[width]:
        for rank, m in enumerate(masks):
            rank_in_popcount[m] = rank

    sizes = Counter()
    keys, offsets = [], []
    for s, k in enumerate(k_of):
        r = s.bit_count()
        base_q = r + n_plus - 2 * n_minus - k
        keys.append([(r - n_minus, base_q + 2 * j) for j in range(k + 1)])
        off = []
        for key, masks in zip(keys[s], by_popcount[k]):
            off.append(sizes[key])
            if masks:
                sizes[key] += len(masks)
        offsets.append(off)
    where = [
        [off[popcount[m]] + rank_in_popcount[m] if m % kept == 0 else None for m in range(1 << k)]
        for off, k in zip(offsets, k_of)
    ]

    blocks = {key: [] for key in sorted(sizes)}
    for s, (label, walked) in enumerate(labels):
        k = k_of[s]
        firsts = [label.index(i) for i in range(walked)]  # each circle's first arc
        cols = [[] for _ in range(1 << k)]
        for c in range(n):
            if s >> c & 1:
                continue
            tgt = s | 1 << c
            tgt_label, tgt_walked = labels[tgt]
            sign = -1 if field == Q and (s & ((1 << c) - 1)).bit_count() % 2 else 1
            to = [(i, sign) for i in where[tgt]]
            x, y = label[arc_of[4 * c]], label[arc_of[4 * c + 2]]
            if x == y:
                z1, z2 = tgt_label[arc_of[4 * c]], tgt_label[arc_of[4 * c + 1]]
                if z1 == z2:  # one circle re-glued to itself: the zero map
                    if field == Q:
                        raise AssertionError("single-cycle event in a rational complex")
                    continue
            image = [0]
            for i, first in enumerate(firsts):
                bit = 0 if i in (x, y) else 1 << tgt_label[first]
                image += [v | bit for v in image]
            for j in range(loops):
                bit = 1 << (tgt_walked + j)
                image += [v | bit for v in image]
            xb, yb = 1 << x, 1 << y
            if x != y:  # merge: ++ -> +, +- and -+ -> -, -- -> 0
                zb = 1 << tgt_label[arc_of[4 * c]]
                for m, col in enumerate(cols):
                    if m & xb:
                        col.append(to[image[m] | zb if m & yb else image[m]])
                    elif m & yb:
                        col.append(to[image[m]])
            else:  # split: + -> +- and -+, - -> --
                lo, hi = sorted((1 << z1, 1 << z2))
                for m, col in enumerate(cols):
                    if m & xb:
                        col.append(to[image[m] | lo])
                        col.append(to[image[m] | hi])
                    else:
                        col.append(to[image[m]])
        for key, masks in zip(keys[s], by_popcount[k]):
            if masks:
                blocks[key].extend(cols[m] for m in masks)
    return kh.KhComplex(field, blocks)


def assert_matches_reference(d, fields=(GF2, Q)):
    """``_skeleton`` equals the reference over each field given, reduced
    over GF(2) and Q only where the atom is orientable; block order
    included."""
    for field in fields:
        if field == Q and not orientable(build_atom(d)):
            continue
        got = kh._skeleton(d, *crossing_signs(d, orient(d)), field)
        want = reference_skeleton(d, field)
        assert list(got.blocks) == list(want.blocks)
        assert got.blocks == want.blocks
        assert got.field == want.field == field


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.iterdir() if p.suffix in (".pd", ".gauss")))
def test_edge_programs_match_the_reference_on_every_fixture(name):
    assert_matches_reference(load(name))


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.integers(1, 7), st.integers(0, 10**6), st.integers(0, 2))
def test_edge_programs_match_the_reference_on_random_diagrams(virtual, n, seed, loops):
    draw = random_virtual_diagram if virtual else random_classical_diagram
    d = draw(n, random.Random(seed))
    assert_matches_reference(Diagram(d.n, d.arcs, d.free_loops + loops))


def _single_cycle_edges(d):
    walk, arc_of = _walker(d), d.arc_index
    labels = [walk(s) for s in range(1 << d.n)]
    return sum(
        label[arc_of[4 * c]] == label[arc_of[4 * c + 2]]
        and labels[s | 1 << c][0][arc_of[4 * c]] == labels[s | 1 << c][0][arc_of[4 * c + 1]]
        for s, (label, _) in enumerate(labels)
        for c in range(d.n)
        if not s >> c & 1
    )


def test_edge_programs_match_the_reference_with_single_cycle_edges():
    d = random_virtual_diagram(8, random.Random(17))
    assert d.n == 8 and not orientable(build_atom(d))
    assert _single_cycle_edges(d) > 0
    assert_matches_reference(d)


def test_edge_programs_match_the_reference_at_twelve_crossings():
    # the generator call of the certify_virtual_gf2 benchmark pool's
    # entry virtual-12-86
    d = random_virtual_diagram(12, random.Random(86))
    assert d.n == 12 and not orientable(build_atom(d))
    assert_matches_reference(d, (GF2,))


# the reduced GF(2) complex against the full one


def full_gf2_table(d):
    """The GF(2) table of the unreduced reference complex, every mask
    laid down, checked and ranked by ``_gf2_pass``: the table the
    reduced complex must give as two shifted copies."""
    c = reference_skeleton(d, GF2, reduced=False)
    return kh._dimensions(c, _gf2_pass(c))


@settings(max_examples=60, deadline=None)
@given(DIAGRAMS, st.integers(0, 1))
def test_reduced_gf2_table_equals_the_full_one(d, loops):
    d = Diagram(d.n, d.arcs, d.free_loops + loops)
    assert kh.homology(build_complex(d, GF2)).entries == full_gf2_table(d)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.iterdir() if p.suffix in (".pd", ".gauss")))
def test_reduced_gf2_table_equals_the_full_one_on_every_fixture(name):
    d = load(name)
    assert kh.homology(build_complex(d, GF2)).entries == full_gf2_table(d)


def _route_certify_through_a_mutant(monkeypatch, old, new):
    """Load the source of ``kmc.khovanov`` with its one occurrence of old
    replaced by new, and make ``certify`` build with it."""
    import kmc.minimality

    source = inspect.getsource(kh)
    assert source.count(old) == 1
    mutant = types.ModuleType(kh.__name__)
    mutant.__package__ = "kmc"
    exec(compile(source.replace(old, new), kh.__file__, "exec"), mutant.__dict__)
    monkeypatch.setattr(kmc.minimality, "kh", mutant)


# a reduced table read with the wrong shift, and the wrong circle label
# marked; the inputs are those where the checks were seen to catch each
MUTANTS = [
    ("shift", "(t, q + 2): dim", "(t, q + 4): dim", ["trefoil.pd", "6_2.pd", "virtual_trefoil.gauss"]),
    (
        "mark",
        "laid[k] = range(0, 1 << k, 1 + reduced)",
        "laid[k] = range(reduced, 1 << k, 1 + reduced)",
        ["trefoil.pd", "6_2.pd"],
    ),
]


@pytest.mark.parametrize(
    "old, new, name",
    [(old, new, name) for _, old, new, names in MUTANTS for name in names],
    ids=[f"{kind}-{name}" for kind, _, _, names in MUTANTS for name in names],
)
def test_a_wrong_reduction_raises_and_prints_no_verdict(monkeypatch, capsys, old, new, name):
    from kmc.cli import main

    certify(load(name), [GF2])  # the real module certifies it
    _route_certify_through_a_mutant(monkeypatch, old, new)
    with pytest.raises((AssertionError, InvariantError), match="Euler characteristic|square to zero"):
        certify(load(name), [GF2])
    code = main(["certify", str(FIXTURES / name), "--fields", "gf2"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("kmc: ") and err.count("\n") == 1
