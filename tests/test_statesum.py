import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, load
from kmc.atom import build_atom, orientable
from kmc.diagram import Diagram, mirror, parse_gauss, r1_add, r2_add, virtualize
from kmc.generate import random_classical_diagram, random_virtual_diagram
from kmc.laurent import Laurent
from kmc.statesum import (
    circle_counts,
    circles_of_state,
    kauffman_bracket,
    label_states,
    span_bound,
)

UNKNOT = Diagram(0, (), 1)

# hand-traced oracle values, computed by following the smoothing
# pairings port by port over all states
TREFOIL_BRACKET = Laurent({7: 1, 3: -1, -5: -1})
VIRTUAL_TREFOIL_BRACKET = Laurent({2: 1, 0: 1, -4: -1})
HOPF_BRACKET = Laurent({4: -1, -4: -1})


def test_circles_unknot():
    assert circles_of_state(UNKNOT, 0) == 1


def test_circles_trefoil_states():
    d = load("trefoil.pd")
    a = circles_of_state(d, 0)
    b = circles_of_state(d, 0b111)
    assert (a, b) == (3, 2)  # hand-traced all-A and all-B states
    assert a + b - d.n == 2  # sphere atom for this alternating diagram


def test_circles_virtual_trefoil():
    d = parse_gauss("O1+ O2+ U1+ U2+")
    a, b = circles_of_state(d, 0), circles_of_state(d, 0b11)
    assert a + b - d.n == 1  # the atom is a projective plane
    assert (a, b) == (1, 2)
    # middle states have one circle each (hand-traced)
    assert circles_of_state(d, 0b01) == 1
    assert circles_of_state(d, 0b10) == 1


def walked_circles(d, state):
    """The circles of a state as port tuples, from the labelled pass:
    ports grouped by their arc's label, in label order."""
    label, k = label_states(d)[state]
    groups = [[] for _ in range(k)]
    for port, arc in enumerate(d.arc_index):
        groups[label[arc]].append(port)
    return [tuple(g) for g in groups]


def test_state_circles_partition():
    d = load("trefoil.pd")
    parts = walked_circles(d, 0)
    assert sorted(p for circ in parts for p in circ) == list(range(12))
    assert [c[0] for c in parts] == sorted(c[0] for c in parts)


def test_circles_state_validation():
    with pytest.raises(ValueError):
        circles_of_state(UNKNOT, 1)


def test_bracket_unknot():
    assert kauffman_bracket(UNKNOT) == Laurent.one()


def test_bracket_kinks():
    plus = kauffman_bracket(r1_add(UNKNOT, 0, 1))
    minus = kauffman_bracket(r1_add(UNKNOT, 0, -1))
    assert plus == Laurent({3: -1})
    assert minus == Laurent({-3: -1})


def test_bracket_trefoil():
    d = load("trefoil.pd")
    got = kauffman_bracket(d)
    assert got == TREFOIL_BRACKET
    assert got.span() == 12
    assert got.span() == span_bound(d, 2)


def test_bracket_virtual_trefoil():
    d = parse_gauss("O1+ O2+ U1+ U2+")
    assert kauffman_bracket(d) == VIRTUAL_TREFOIL_BRACKET


def test_bracket_hopf():
    assert kauffman_bracket(load("hopf.pd")) == HOPF_BRACKET


def test_span_bound_values():
    thirteen = Diagram(13, tuple((i, i + 1) for i in range(0, 52, 2)), 0)
    assert span_bound(thirteen, -2) == 44  # 52 - 8
    assert span_bound(UNKNOT, 2) == 0
    assert span_bound(load("trefoil.pd"), 2) == 12


def test_is_1_complete():
    """Strict 1-completeness as certify and ``kmc bracket`` decide it:
    (span, bound, whether the span attains the bound)."""
    from kmc.minimality import _strict_1_complete

    def strict_1_complete(d):
        return _strict_1_complete(d, kauffman_bracket(d), build_atom(d).chi)

    span, bound, strict = strict_1_complete(load("trefoil.pd"))
    assert strict and span == bound == 12
    kinked = r1_add(load("trefoil.pd"), 0, 1)
    span_k, bound_k, strict_k = strict_1_complete(kinked)
    assert not strict_k
    assert span_k == 12 and bound_k == 16
    assert strict_1_complete(UNKNOT)[2]


def test_bracket_move_invariance():
    rng = random.Random(21)
    for _ in range(40):
        d = random_virtual_diagram(6, rng)
        br = kauffman_bracket(d)
        s = rng.randrange(d.strand_count())
        t = rng.randrange(d.strand_count())
        assert kauffman_bracket(r2_add(d, s, t)) == br
        assert kauffman_bracket(r1_add(d, s, 1)) == br * Laurent({3: -1})
        assert kauffman_bracket(r1_add(d, s, -1)) == br * Laurent({-3: -1})
        assert kauffman_bracket(mirror(d)) == Laurent({-e: c for e, c in br.coeffs.items()})
        if d.n:
            assert kauffman_bracket(virtualize(d, rng.randrange(d.n))) == br


def test_span_bound_random():
    rng = random.Random(22)
    for _ in range(80):
        d = random_virtual_diagram(8, rng)
        poly = kauffman_bracket(d)
        if poly:
            assert poly.span() <= span_bound(d, build_atom(d).chi)


def test_fold_clasp_unknot_bracket():
    # folding the unknot over itself leaves the bracket at 1 (hand-traced:
    # states contribute A^2 d + A^-2 d + d^2 + 1 with d = -A^2 - A^-2)
    clasp = r2_add(UNKNOT, 0, 0)
    assert clasp.n == 2
    assert kauffman_bracket(clasp) == Laurent.one()


def test_two_loop_clasp_bracket_is_loop_value():
    from kmc.laurent import LOOP

    unlink = Diagram(0, (), 2)
    clasped = r2_add(unlink, 0, 1)
    assert kauffman_bracket(clasped) == LOOP


# property tests of the circle walk against a union-find reference

DIAGRAMS = st.builds(
    lambda virtual, n, seed: (random_virtual_diagram if virtual else random_classical_diagram)(
        n, random.Random(seed)
    ),
    st.booleans(),
    st.integers(1, 7),
    st.integers(0, 10**6),
)


def union_find_circles(d, state):
    """Port partition of a state by union-find over arcs and smoothings."""
    parent = list(range(4 * d.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    pairs = list(d.arcs)
    for c in range(d.n):
        base = 4 * c
        if state >> c & 1:  # B-smoothing joins ports 1-2 and 3-0
            pairs += [(base + 1, base + 2), (base + 3, base)]
        else:  # A-smoothing joins ports 0-1 and 2-3
            pairs += [(base, base + 1), (base + 2, base + 3)]
    for p, q in pairs:
        parent[find(p)] = find(q)
    groups = {}
    for port in range(4 * d.n):
        groups.setdefault(find(port), []).append(port)
    return sorted(tuple(g) for g in groups.values())


@settings(max_examples=60, deadline=None)
@given(DIAGRAMS, st.integers(0, 2**7 - 1))
def test_walk_partition_matches_union_find(d, state):
    state &= (1 << d.n) - 1
    circles = walked_circles(d, state)
    assert circles == union_find_circles(d, state)  # numbered by least port
    assert circles_of_state(d, state) == len(circles) + d.free_loops


@settings(max_examples=30, deadline=None)
@given(DIAGRAMS)
def test_counting_pass_matches_each_state(d):
    assert list(circle_counts(d)) == [circles_of_state(d, s) for s in range(1 << d.n)]


def _counting_pass_cases():
    for path in sorted(FIXTURES.iterdir()):
        if path.suffix in (".pd", ".gauss"):
            yield path.name, load(path.name)
    for k in (1, 2, 3):
        yield f"{k} free loops", Diagram(0, (), k)
    # crossings plus a free loop: a clasp between two of three unlinked loops
    yield "clasp and loop", r2_add(Diagram(0, (), 3), 0, 1)
    virtual = random_virtual_diagram(10, random.Random(5))
    assert virtual.n == 9 and not orientable(build_atom(virtual))
    yield "non-orientable virtual", virtual
    # the benchmark's states_census generator call: undo reaches crossing 12
    d = random_classical_diagram(13, random.Random(2))
    assert d.n == 13
    yield "classical n = 13", d


def test_counting_pass_matches_each_state_on_named_diagrams():
    for name, d in _counting_pass_cases():
        counts = list(circle_counts(d))
        assert counts == [circles_of_state(d, s) for s in range(1 << d.n)], name
