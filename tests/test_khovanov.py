import copy
import json
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

import kmc.khovanov as kh
from conftest import FIXTURES, load
from kmc.atom import build_atom, genus, orientable
from kmc.diagram import Diagram, crossing_signs, mirror, orient, parse_gauss, r1_add, virtualize
from kmc.errors import InvariantError, LimitError, TableError, UnsupportedFieldError
from kmc.generate import random_classical_diagram, random_virtual_diagram
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
        g = genus(build_atom(d))
        tab = kh_table(d, GF2)
        if tab.entries:
            assert tab.diagonal_spread() <= g.twice_genus + 2


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


@settings(max_examples=40, deadline=None)
@given(DIAGRAMS)
def test_chain_dimensions_are_binomial_sums(d):
    n_plus, n_minus = crossing_signs(d, orient(d))
    expected = {}
    for s in range(1 << d.n):
        r, k = s.bit_count(), circles_of_state(d, s)
        for j in range(k + 1):
            key = (r - n_minus, r + n_plus - 2 * n_minus - k + 2 * j)
            expected[key] = expected.get(key, 0) + comb(k, j)
    c = build_complex(d, GF2)
    assert {key: len(cols) for key, cols in c.blocks.items()} == expected
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


@settings(max_examples=30, deadline=None)
@given(DIAGRAMS)
def test_d_squared_checks_catch_a_changed_entry(d):
    gf2 = build_complex(d, GF2)
    spot = _entry_with_a_composite(gf2)
    assume(spot is not None)
    key, j, e = spot
    fields = [gf2] + ([build_complex(d, Q)] if orientable(build_atom(d)) else [])
    for c in fields:
        dropped = copy.deepcopy(c)
        del dropped.blocks[key][j][e]
        with pytest.raises(AssertionError, match="square to zero"):
            _gf2_pass(dropped)
    if len(fields) == 2:  # signs exist over Q only; mod 2 a flip is no change
        flipped = copy.deepcopy(fields[1])
        i, v = flipped.blocks[key][j][e]
        flipped.blocks[key][j][e] = (i, -v)
        with pytest.raises(AssertionError, match="square to zero"):
            _gf2_pass(flipped)


@settings(max_examples=30, deadline=None)
@given(DIAGRAMS)
def test_q_complex_is_the_signed_gf2_complex(d):
    assume(orientable(build_atom(d)))
    gf2, rat = build_complex(d, GF2), build_complex(d, Q)
    assert rat.blocks.keys() == gf2.blocks.keys()
    for key, cols in gf2.blocks.items():
        assert [[(i, abs(v)) for i, v in col] for col in rat.blocks[key]] == cols
        assert all(v in (1, -1) for col in rat.blocks[key] for _, v in col)


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


def test_eliminated_rank_below_gf2_rank_is_an_error(monkeypatch):
    monkeypatch.setattr(kh, "sparse_integer_rank", lambda rows: 0)
    with pytest.raises(AssertionError, match="below GF"):
        kh_table(load("trefoil.pd"), Q)


def test_certify_ranks_each_gf2_block_once(monkeypatch):
    """One gf2_rank call per nonempty block, all inside build_complex and
    none in homology, whichever fields are asked for."""
    d = load("6_2.pd")
    nonempty = sum(1 for cols in build_complex(d, GF2).blocks.values() if cols)
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
    runs = [lambda: certify(d), lambda: certify(d, [GF2]), lambda: certify(d, [Q])]
    runs += [lambda: kh_table(d, GF2), lambda: kh_table(d, Q)]
    for run in runs:
        ranked.clear()
        run()
        assert ranked == ["build_complex"] * nonempty


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
    entry whose composite d.d sees."""
    real = kh._skeleton

    def corrupted(*args):
        c = real(*args)
        key, j, e = _entry_with_a_composite(c)
        change(c.blocks[key][j], e)
        return c

    monkeypatch.setattr(kh, "_skeleton", corrupted)


def _drop(col, e):
    del col[e]


def _flip(col, e):
    i, v = col[e]
    col[e] = (i, -v)


@pytest.mark.parametrize("name", ["trefoil.pd", "figure8.pd", "6_2.pd"])
@pytest.mark.parametrize("change", [_drop, _flip])
def test_the_one_integer_pass_catches_a_changed_entry(monkeypatch, name, change):
    _corrupt_skeleton(monkeypatch, change)
    with pytest.raises(AssertionError, match="square to zero"):
        certify(load(name), [GF2, Q])
    if change is _drop:  # mod 2 a flip is no change
        with pytest.raises(AssertionError, match="square to zero"):
            certify(load(name), [GF2])


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


def reference_skeleton(d, field):
    """The complex built edge by edge: each edge tabulates the image of
    the untouched circles' labels for every mask of its source, by
    renumbering through the target's labels, and branches per mask.
    Blocks are keyed in sorted (t, q) order.  ``_skeleton`` must give the
    same blocks, column for column."""
    n_plus, n_minus = crossing_signs(d, orient(d))
    n, loops = d.n, d.free_loops
    arc_of = d.arc_index
    walk = _walker(d)
    labels = [walk(s) for s in range(1 << n)]
    k_of = [k + loops for _, k in labels]
    width = max(k_of)
    popcount = [m.bit_count() for m in range(1 << width)]
    by_popcount = {
        k: [[m for m in range(1 << k) if popcount[m] == j] for j in range(k + 1)]
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
            sizes[key] += len(masks)
        offsets.append(off)
    where = [
        [off[popcount[m]] + rank_in_popcount[m] for m in range(1 << k)]
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
            blocks[key].extend(cols[m] for m in masks)
    return kh.KhComplex(field, blocks)


def assert_matches_reference(d, fields=(GF2, Q)):
    """``_skeleton`` equals the reference over each field given, Q only
    where the atom is orientable; block order included."""
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
