import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rekonfig.errors import GraphConstructionError, PreconditionError, SizeMismatchError
from rekonfig.graph import (
    FeasibilityKind,
    ReconfigInstance,
    ReconfigSequence,
    Rule,
    RuleKind,
    Verdict,
    adjacent_ktj,
    adjacent_kts,
    check_vertex_set,
    closed_neighborhood,
    complement_set,
    is_independent_set,
    is_vertex_cover,
    line_graph,
    mask_to_set,
    new_graph,
    set_to_mask,
    verify_sequence,
)

from conftest import random_graph


def test_new_graph_c4_degrees(c4):
    assert c4.vertex_count == 4
    assert all(c4.degree(v) == 2 for v in range(4))


def test_new_graph_single_vertex():
    g = new_graph(1, [])
    assert g.vertex_count == 1 and g.edge_count == 0


def test_new_graph_dedups_symmetric_edges():
    assert new_graph(4, [(0, 1), (1, 0)]) == new_graph(4, [(0, 1)])


def test_new_graph_rejects_self_loop():
    with pytest.raises(GraphConstructionError, match=r"\(2,2\)"):
        new_graph(3, [(0, 1), (2, 2)])


def test_new_graph_rejects_out_of_range():
    with pytest.raises(GraphConstructionError, match=r"\(0,7\)"):
        new_graph(3, [(0, 7)])


def test_independent_set_examples(c4):
    assert is_independent_set(c4, {0, 2})
    assert not is_independent_set(c4, {0, 1})
    assert is_independent_set(c4, set())
    assert is_independent_set(c4, (v for v in (0, 2)))
    assert not is_independent_set(c4, (v for v in (0, 1)))


def test_vertex_cover_examples(c4):
    assert is_vertex_cover(c4, {0, 2})
    assert not is_vertex_cover(c4, {0, 1})  # edge (2,3) uncovered
    assert is_vertex_cover(new_graph(3, []), set())
    assert is_vertex_cover(c4, iter([1, 3]))


def test_adjacent_ktj_examples(c4):
    assert adjacent_ktj({0, 2}, {0, 2}, 1)
    assert adjacent_ktj({0, 2}, {1, 3}, 2)
    assert not adjacent_ktj({0, 2}, {1, 3}, 1)


def test_adjacent_ktj_disjoint_dozen():
    # two disjoint 12-sets differ in 24 vertices: k = 11 is one short
    a = frozenset(range(12))
    b = frozenset(range(12, 24))
    assert not adjacent_ktj(a, b, 11)
    assert adjacent_ktj(a, b, 12)


def test_adjacent_ktj_size_mismatch():
    with pytest.raises(SizeMismatchError):
        adjacent_ktj({0}, {1, 2}, 1)


def test_adjacent_kts_examples(c4):
    p2 = new_graph(2, [(0, 1)])
    assert adjacent_kts(p2, {0}, {1}, 1)
    assert adjacent_kts(c4, {0, 2}, {1, 3}, 2)
    two_edges = new_graph(4, [(0, 1), (2, 3)])
    assert not adjacent_kts(two_edges, {0}, {3}, 1)


def test_verify_identity_sequence(c4):
    inst = ReconfigInstance(
        c4, FeasibilityKind.INDEPENDENT_SET, frozenset({0, 2}), frozenset({0, 2}),
        Rule(RuleKind.KTJ, 1),
    )
    assert verify_sequence(inst, ReconfigSequence((frozenset({0, 2}),))).accepted


def test_verify_rejects_big_jump_under_1tj(c4):
    inst = ReconfigInstance(
        c4, FeasibilityKind.INDEPENDENT_SET, frozenset({0, 2}), frozenset({1, 3}),
        Rule(RuleKind.KTJ, 1),
    )
    verdict = verify_sequence(
        inst, ReconfigSequence((frozenset({0, 2}), frozenset({1, 3})))
    )
    assert not verdict.accepted and verdict.index == 1


def test_verify_accepts_same_jump_under_2ts(c4):
    inst = ReconfigInstance(
        c4, FeasibilityKind.INDEPENDENT_SET, frozenset({0, 2}), frozenset({1, 3}),
        Rule(RuleKind.KTS, 2),
    )
    assert verify_sequence(
        inst, ReconfigSequence((frozenset({0, 2}), frozenset({1, 3})))
    ).accepted


def test_verify_mutations_reject(c4):
    inst = ReconfigInstance(
        c4, FeasibilityKind.INDEPENDENT_SET, frozenset({0, 2}), frozenset({1, 3}),
        Rule(RuleKind.KTJ, 2),
    )
    good = ReconfigSequence((frozenset({0, 2}), frozenset({1, 3})))
    assert verify_sequence(inst, good).accepted
    mutations = [
        ReconfigSequence((frozenset({1, 3}), frozenset({0, 2}))),  # wrong first
        ReconfigSequence((frozenset({0, 2}), frozenset({0, 2}))),  # wrong last
        ReconfigSequence((frozenset({0, 2}), frozenset({0, 1}), frozenset({1, 3}))),  # infeasible
        ReconfigSequence((frozenset({0, 2}), frozenset({0}), frozenset({1, 3}))),  # wrong size
    ]
    for bad in mutations:
        assert not verify_sequence(inst, bad).accepted


@pytest.mark.parametrize("vertex", [-1, 4])
def test_out_of_range_vertices_are_refused(c4, vertex):
    with pytest.raises(PreconditionError, match=f"vertex {vertex} out of range"):
        check_vertex_set(c4, {0, vertex})
    inst = ReconfigInstance(
        c4, FeasibilityKind.INDEPENDENT_SET, frozenset({0}), frozenset({2}),
        Rule(RuleKind.KTJ, 1),
    )
    bad = ReconfigSequence((frozenset({0}), frozenset({vertex}), frozenset({2})))
    assert verify_sequence(inst, bad) == Verdict(False, 1, "step contains an out-of-range vertex")


def test_closed_neighborhood(c4):
    assert closed_neighborhood(c4, {0}) == {0, 1, 3}
    assert closed_neighborhood(c4, set()) == set()
    star = new_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert closed_neighborhood(star, {0}) == {0, 1, 2, 3}


def test_line_graph_identities():
    k3 = new_graph(3, [(0, 1), (0, 2), (1, 2)])
    lg, edge_of = line_graph(k3)
    assert lg.vertex_count == 3 and sorted(lg.edges()) == [(0, 1), (0, 2), (1, 2)]
    assert edge_of == ((0, 1), (0, 2), (1, 2))

    p4 = new_graph(4, [(0, 1), (1, 2), (2, 3)])
    lg, _ = line_graph(p4)
    assert lg.vertex_count == 3 and sorted(lg.edges()) == [(0, 1), (1, 2)]

    star = new_graph(4, [(0, 1), (0, 2), (0, 3)])
    lg, _ = line_graph(star)
    assert lg.vertex_count == 3 and lg.edge_count == 3


@st.composite
def graph_and_set(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.1, 0.8))
    x = frozenset(v for v in range(n) if rng.random() < 0.5)
    return g, x


@given(graph_and_set())
@settings(max_examples=150, deadline=None)
def test_complementarity(gx):
    g, x = gx
    assert is_independent_set(g, x) == is_vertex_cover(g, complement_set(g, x))


@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
                max_size=30,
            ),
            st.frozensets(st.integers(0, n - 1)),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_feasibility_checks_match_edge_list(case):
    n, edges, x = case
    g = new_graph(n, edges)
    assert is_independent_set(g, x) == all(u not in x or v not in x for u, v in edges)
    assert is_vertex_cover(g, x) == all(u in x or v in x for u, v in edges)


@st.composite
def rule_algebra_case(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.2, 0.8))
    size = draw(st.integers(min_value=0, max_value=n // 2 + 1))
    a = frozenset(rng.sample(range(n), min(size, n)))
    b = frozenset(rng.sample(range(n), min(size, n)))
    k = draw(st.integers(min_value=1, max_value=n))
    return g, a, b, k


@given(rule_algebra_case())
@settings(max_examples=200, deadline=None)
def test_rule_algebra(case):
    g, a, b, k = case
    ts = adjacent_kts(g, a, b, k)
    tj = adjacent_ktj(a, b, k)
    assert not ts or tj  # sliding implies jumping
    assert tj == adjacent_ktj(b, a, k)
    assert ts == adjacent_kts(g, b, a, k)
    if tj:
        assert adjacent_ktj(a, b, k + 1)  # monotone in k
    if ts:
        assert adjacent_kts(g, a, b, k + 1)
    assert adjacent_ktj(a, b, 1) == (len(a ^ b) <= 2)


@given(
    st.one_of(
        st.lists(st.integers(min_value=0, max_value=65535), max_size=80),
        st.integers(min_value=1, max_value=65535).flatmap(
            lambda top: st.lists(st.integers(min_value=0, max_value=top), min_size=64, max_size=300)
        ),
        st.integers(min_value=64, max_value=4000).map(lambda size: list(range(0, 2 * size, 2))),
    ),
    st.sampled_from([list, frozenset, tuple, iter]),
)
@settings(max_examples=300, deadline=None)
def test_set_to_mask_is_the_sum_of_distinct_bits(ids, container):
    # Wide sets are written as binary digits, narrow ones bit by bit; both
    # give the sum of the distinct ids' bits, duplicates, the empty set and
    # one-pass iterators included.
    x = container(ids)
    mask = set_to_mask(x)
    assert mask == sum(1 << v for v in set(ids))
    assert mask_to_set(mask) == frozenset(ids)
