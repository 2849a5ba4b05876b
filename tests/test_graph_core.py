import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rekonfig.bounds import find_simple_sequence
from rekonfig.errors import GraphConstructionError, PreconditionError, SizeMismatchError
from rekonfig.exact import solve_tar_maxmin, solve_tar_minmax
from rekonfig.graph import (
    FeasibilityKind,
    ReconfigInstance,
    ReconfigSequence,
    Rule,
    RuleKind,
    Verdict,
    adjacent_ktj,
    adjacent_kts,
    closed_neighborhood,
    complement_set,
    is_independent_set,
    is_vertex_cover,
    line_graph,
    mask_to_set,
    new_graph,
    set_to_mask,
    verify_sequence,
    vertex_mask,
)
from rekonfig.matching import (
    Bipartition,
    has_perfect_matching_between,
    konig_min_vertex_cover,
    maximum_matching,
)
from rekonfig.xp import build_clique_compressed_graph, clique_edge_oracle, xp_vcr_solve

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
    assert adjacent_ktj(c4, {0, 2}, {0, 2}, 1)
    assert adjacent_ktj(c4, {0, 2}, {1, 3}, 2)
    assert not adjacent_ktj(c4, {0, 2}, {1, 3}, 1)


def test_adjacent_ktj_disjoint_dozen():
    # two disjoint 12-sets differ in 24 vertices: k = 11 is one short
    g = new_graph(24, [])
    a = frozenset(range(12))
    b = frozenset(range(12, 24))
    assert not adjacent_ktj(g, a, b, 11)
    assert adjacent_ktj(g, a, b, 12)


def test_adjacent_ktj_size_mismatch():
    with pytest.raises(SizeMismatchError):
        adjacent_ktj(new_graph(3, []), {0}, {1, 2}, 1)


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
        vertex_mask(c4, {0, vertex})
    inst = ReconfigInstance(
        c4, FeasibilityKind.INDEPENDENT_SET, frozenset({0}), frozenset({2}),
        Rule(RuleKind.KTJ, 1),
    )
    bad = ReconfigSequence((frozenset({0}), frozenset({vertex}), frozenset({2})))
    assert verify_sequence(inst, bad) == Verdict(False, 1, "step contains an out-of-range vertex")


C6 = new_graph(6, [(v, (v + 1) % 6) for v in range(6)])
ODD = frozenset({1, 3, 5})

# Every public function that takes vertex ids, as (call(g, x), x): x goes to
# its first vertex set, and its other arguments make x valid on C6, where
# the vertex sets are read before anything else is checked.
ENTRY_POINTS = {
    "is_independent_set": (lambda g, x: is_independent_set(g, x), [0, 2, 0]),
    "is_vertex_cover": (lambda g, x: is_vertex_cover(g, x), [0, 2, 4, 2]),
    "closed_neighborhood": (lambda g, x: closed_neighborhood(g, x), [0, 3, 0]),
    "complement_set": (lambda g, x: complement_set(g, x), [0, 3, 3]),
    "maximum_matching": (lambda g, x: maximum_matching(g, Bipartition(x, ODD)), [0, 2, 4, 0]),
    "konig_min_vertex_cover": (lambda g, x: konig_min_vertex_cover(g, Bipartition(x, ODD)), [0, 4, 0]),
    "ReconfigInstance": (
        lambda g, x: ReconfigInstance(g, FeasibilityKind.INDEPENDENT_SET, x, ODD, Rule(RuleKind.KTJ, 1)),
        [0, 2, 4, 0],
    ),
    "adjacent_ktj": (lambda g, x: adjacent_ktj(g, x, ODD, 3), [0, 2, 4, 4]),
    "adjacent_kts": (lambda g, x: adjacent_kts(g, x, ODD, 3), [0, 2, 4, 4]),
    "has_perfect_matching_between": (lambda g, x: has_perfect_matching_between(g, x, ODD), [0, 2, 4, 2]),
    "clique_edge_oracle": (
        lambda g, x: clique_edge_oracle(g, x, {1}, 4, {0, 1, 2, 4}, {1, 3, 4, 5}, return_witness=True),
        [0, 0],
    ),
    "build_clique_compressed_graph": (lambda g, x: build_clique_compressed_graph(g, x, ODD, 1), [0, 2, 4, 0]),
    "xp_vcr_solve": (lambda g, x: xp_vcr_solve(g, x, ODD, 2), [0, 2, 4, 0]),
    "solve_tar_maxmin": (lambda g, x: solve_tar_maxmin(g, x, ODD), [0, 2, 4, 2]),
    "solve_tar_minmax": (lambda g, x: solve_tar_minmax(g, x, ODD), [0, 2, 4, 4]),
    "find_simple_sequence": (lambda g, x: find_simple_sequence(g, x, ODD, 1), [0, 2, 4, 0]),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("ids", [3, 70], ids=["below 64", "from 64"])
@pytest.mark.parametrize("side", ["low", "high"])
def test_every_entry_point_refuses_out_of_range_ids(name, ids, side):
    # On both sides of vertex_mask's 64-id switch, the first out-of-range
    # id raises PreconditionError before any other check, never IndexError
    # or a wrong answer.
    call, _ = ENTRY_POINTS[name]
    n = 80
    g = new_graph(n, [(v, (v + 1) % n) for v in range(n)])
    bad = -1 if side == "low" else n
    with pytest.raises(PreconditionError, match=f"^vertex {bad} out of range for {n} vertices$"):
        call(g, [0, bad, *range(2, ids)])


@pytest.mark.parametrize("ids", [3, 70], ids=["below 64", "from 64"])
def test_the_reader_names_the_first_bad_id(ids):
    g = new_graph(80, [])
    for x, first in (([0, 81, -1], 81), ([0, -1, 81], -1)):
        with pytest.raises(PreconditionError, match=f"^vertex {first} out of range for 80 vertices$"):
            vertex_mask(g, iter([*x, *range(2, ids)]))


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_entry_point_reads_a_generator_as_its_set(name):
    # A one-pass generator with a repeated id gives the frozenset's answer.
    call, x = ENTRY_POINTS[name]
    assert len(set(x)) < len(x)
    want = call(new_graph(6, C6.edges()), frozenset(x))
    assert call(new_graph(6, C6.edges()), (v for v in x)) == want


@given(
    st.integers(min_value=1, max_value=300).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), max_size=200))
    ),
    st.sampled_from([list, frozenset, tuple, iter]),
)
@settings(max_examples=300, deadline=None)
def test_the_reader_is_set_to_mask_on_ids_in_range(case, container):
    n, ids = case
    g = new_graph(n, [])
    assert vertex_mask(g, container(ids)) == set_to_mask(ids)


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
    tj = adjacent_ktj(g, a, b, k)
    assert not ts or tj  # sliding implies jumping
    assert tj == adjacent_ktj(g, b, a, k)
    assert ts == adjacent_kts(g, b, a, k)
    if tj:
        assert adjacent_ktj(g, a, b, k + 1)  # monotone in k
    if ts:
        assert adjacent_kts(g, a, b, k + 1)
    assert adjacent_ktj(g, a, b, 1) == (len(a ^ b) <= 2)


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
