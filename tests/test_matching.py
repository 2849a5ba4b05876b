import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from rekonfig.exact import min_vertex_cover
from rekonfig.graph import Graph, is_vertex_cover, new_graph
from rekonfig.matching import (
    Bipartition,
    bipartition_of,
    has_perfect_matching_between,
    konig_min_vertex_cover,
    maximum_matching,
)

from conftest import random_bipartite, random_graph


def test_bipartition_c4(c4):
    bp = bipartition_of(c4)
    assert bp.left == {0, 2} and bp.right == {1, 3}


def test_bipartition_odd_cycle_absent():
    k3 = new_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert bipartition_of(k3) is None


def test_bipartition_edgeless_all_left():
    g = new_graph(3, [])
    bp = bipartition_of(g)
    assert bp.left == {0, 1, 2} and bp.right == set()


def test_maximum_matching_examples(k33, path3):
    assert len(maximum_matching(k33, bipartition_of(k33))) == 3
    assert len(maximum_matching(path3, bipartition_of(path3))) == 1
    empty = new_graph(4, [])
    assert maximum_matching(empty, bipartition_of(empty)) == frozenset()


def test_konig_examples(c4, k33, path3):
    assert konig_min_vertex_cover(path3, bipartition_of(path3)) == {1}
    cover = konig_min_vertex_cover(c4, bipartition_of(c4))
    assert len(cover) == 2 and is_vertex_cover(c4, cover)
    assert len(konig_min_vertex_cover(k33, bipartition_of(k33))) == 3


def test_perfect_matching_between(c4):
    assert not has_perfect_matching_between(c4, {0}, {1, 3})
    assert has_perfect_matching_between(c4, set(), set())
    assert has_perfect_matching_between(c4, {0, 2}, {1, 3})


def _random_sides(rng, g, most):
    """Random disjoint vertex sets of at most `most` vertices each."""
    order = rng.sample(range(g.vertex_count), g.vertex_count)
    i = rng.randint(0, min(most, len(order)))
    j = rng.randint(0, min(most, len(order) - i))
    return frozenset(order[:i]), frozenset(order[i : i + j])


@given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_perfect_matching_between_matches_brute_force(n, seed):
    # The random graph also has edges inside a, inside b and to the other
    # vertices; only the a-b edges may be used.
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.2, 0.9))
    a, b = _random_sides(rng, g, 4)
    left = sorted(a)
    want = len(a) == len(b) and any(
        all(g.has_edge(u, v) for u, v in zip(left, perm))
        for perm in itertools.permutations(sorted(b))
    )
    assert has_perfect_matching_between(g, a, b) == want


@given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_matching_and_konig_use_only_edges_between_the_sides(n, seed):
    # bp is not a 2-coloring of g; the routines must answer as on the
    # bipartite subgraph of the edges between bp.left and bp.right.
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.2, 0.9))
    left, right = _random_sides(rng, g, n)
    bp = Bipartition(left, right)
    between = new_graph(
        n, [(u, v) for u, v in g.edges() if (u in left and v in right) or (u in right and v in left)]
    )
    assert maximum_matching(g, bp) == maximum_matching(between, bp)
    cover = konig_min_vertex_cover(g, bp)
    assert cover == konig_min_vertex_cover(between, bp)
    assert is_vertex_cover(between, cover)
    assert len(cover) == len(maximum_matching(between, bp))


def _has_augmenting_path(g: Graph, bp, matching) -> bool:
    """BFS for an alternating path from an unmatched left to an unmatched right."""
    match_of = {}
    for u, v in matching:
        match_of[u] = v
        match_of[v] = u
    frontier = [u for u in bp.left if u not in match_of]
    seen = set(frontier)
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.neighbors(u):
                if v in seen:
                    continue
                seen.add(v)
                w = match_of.get(v)
                if w is None:
                    return True
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return False


@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=200, deadline=None)
def test_konig_equality_and_optimality(left, right, seed):
    rng = random.Random(seed)
    g = random_bipartite(rng, left, right, rng.uniform(0.1, 0.9))
    bp = bipartition_of(g)
    assert bp is not None
    matching = maximum_matching(g, bp)
    cover = konig_min_vertex_cover(g, bp)
    assert is_vertex_cover(g, cover)
    assert len(cover) == len(matching)  # König equality
    assert len(cover) == len(min_vertex_cover(g))  # brute-force optimum
    assert not _has_augmenting_path(g, bp, matching)
    # matching is a set of disjoint edges
    used = list(itertools.chain.from_iterable(matching))
    assert len(used) == len(set(used))
    assert all(g.has_edge(u, v) for u, v in matching)
