import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rekonfig.errors import PreconditionError
from rekonfig.exact import min_vertex_cover
from rekonfig.graph import Graph, is_vertex_cover, iter_bits, new_graph, set_to_mask
from rekonfig.matching import (
    Bipartition,
    _hopcroft_karp,
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


def test_matching_grows_past_a_greedy_start():
    # Greedy takes 0-1 first and leaves 2 unmatched; only 0-3, 2-1 is maximum.
    g = new_graph(4, [(0, 1), (0, 3), (2, 1)])
    assert _hopcroft_karp(g.neighbor_masks, 0b0101, 0b1010) == {0: 3, 2: 1}
    assert len(maximum_matching(g, Bipartition(frozenset({0, 2}), frozenset({1, 3})))) == 2


def test_matching_phases_leave_no_garbage_cycle():
    # Past the greedy start the phases build closures over their tables;
    # reference counting must free them all, with no collector pass, so
    # collector pauses do not land on whichever later call crosses the
    # threshold.
    g = new_graph(4, [(0, 1), (0, 3), (2, 1)])
    gc.collect()
    gc.disable()
    try:
        assert _hopcroft_karp(g.neighbor_masks, 0b0101, 0b1010) == {0: 3, 2: 1}
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_konig_examples(c4, k33, path3):
    assert konig_min_vertex_cover(path3, bipartition_of(path3)) == {1}
    cover = konig_min_vertex_cover(c4, bipartition_of(c4))
    assert len(cover) == 2 and is_vertex_cover(c4, cover)
    assert len(konig_min_vertex_cover(k33, bipartition_of(k33))) == 3


def test_perfect_matching_between(c4):
    assert not has_perfect_matching_between(c4, {0}, {1, 3})
    assert has_perfect_matching_between(c4, set(), set())
    assert has_perfect_matching_between(c4, {0, 2}, {1, 3})


def test_perfect_matching_between_rejects_overlapping_sides(path3):
    # Path 0-1-2: vertex 1 must not be matched on both sides.
    with pytest.raises(PreconditionError):
        has_perfect_matching_between(path3, {0, 1}, {1, 2})


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


def _brute_matching_size(g: Graph, left: list[int], right: int) -> int:
    """Largest matching between the listed left vertices and the right mask,
    trying every partner (or none) for the first left vertex."""
    if not left:
        return 0
    u, others = left[0], left[1:]
    best = _brute_matching_size(g, others, right)
    for v in iter_bits(g.neighbor_masks[u] & right):
        best = max(best, 1 + _brute_matching_size(g, others, right & ~(1 << v)))
    return best


@given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=500, deadline=None)
def test_hopcroft_karp_core_matches_brute_force(n, seed):
    # The random graph also has edges inside the sides and to the other
    # vertices; only the edges between the two side masks may be used.
    # Sparse graphs are where a greedy start falls short of the maximum.
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.2, 0.6))
    a, b = _random_sides(rng, g, n)
    am, bm = set_to_mask(a), set_to_mask(b)
    pairs = _hopcroft_karp(g.neighbor_masks, am, bm)
    assert len(pairs) == _brute_matching_size(g, sorted(a), bm)
    assert set(pairs) <= a and set(pairs.values()) <= b
    assert len(set(pairs.values())) == len(pairs)
    assert all(g.has_edge(u, v) for u, v in pairs.items())


def _recursive_hopcroft_karp(nbr, left: int, right: int) -> dict[int, int]:
    """Reference core: the same greedy start and the same phases, with each
    augmenting path found by a recursion per left vertex on it."""
    pair_left: dict[int, int] = {}
    free = right
    for u in iter_bits(left):
        avail = nbr[u] & free
        if avail:
            low = avail & -avail
            pair_left[u] = low.bit_length() - 1
            free ^= low
    pair_right = {v: u for u, v in pair_left.items()}
    adj = {u: list(iter_bits(nbr[u] & right)) for u in iter_bits(left) if nbr[u] & right}
    inf = float("inf")
    dist: dict[int, float] = {}

    def bfs() -> bool:
        queue = [u for u in adj if u not in pair_left]
        for u in adj:
            dist[u] = 0 if u not in pair_left else inf
        found = inf
        for u in queue:  # grows while it is read: a FIFO queue
            if dist[u] >= found:
                continue
            for v in adj[u]:
                w = pair_right.get(v)
                if w is None:
                    found = min(found, dist[u] + 1)
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found != inf

    def dfs(u: int) -> bool:
        for v in adj[u]:
            w = pair_right.get(v)
            if w is None or (dist[w] == dist[u] + 1 and dfs(w)):
                pair_left[u], pair_right[v] = v, u
                return True
        dist[u] = inf
        return False

    if len(pair_left) < len(adj) and free:
        while bfs():
            for u in adj:
                if u not in pair_left:
                    dfs(u)
    return pair_left


@given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=400, deadline=None)
def test_hopcroft_karp_core_matches_the_recursive_reference(n, seed):
    # Same pairs in the same order. The two sides split all the vertices of
    # a sparse graph, which sends about one input in nine past the greedy
    # start.
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.05, 0.4))
    order = rng.sample(range(n), n)
    split = rng.randint(1, n - 1)
    am, bm = set_to_mask(order[:split]), set_to_mask(order[split:])
    got = _hopcroft_karp(g.neighbor_masks, am, bm)
    assert list(got.items()) == list(_recursive_hopcroft_karp(g.neighbor_masks, am, bm).items())


@given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_capped_hopcroft_karp_stops_at_the_limit(n, seed):
    # Sparse graphs and sides that leave some vertices out, so that the
    # limit also falls inside the phases, not only in the greedy start.
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.05, 0.4))
    nbr = g.neighbor_masks
    a, b = _random_sides(rng, g, n)
    am, bm = set_to_mask(a), set_to_mask(b)
    full = _hopcroft_karp(nbr, am, bm)
    for limit in range(len(full) + 2):
        capped = _hopcroft_karp(nbr, am, bm, limit)
        assert min(len(capped), limit) == min(len(full), limit)
        assert all((am >> u) & 1 and (bm >> v) & 1 and g.has_edge(u, v) for u, v in capped.items())
        assert len(set(capped.values())) == len(capped)
        if len(full) < limit:
            assert len(capped) == len(full)
        assert len(capped) == min(len(full), limit)  # it stops exactly at the limit


def test_capped_hopcroft_karp_stops_inside_a_phase():
    # Greedy matches 0-4 and 2-6 and leaves 1 and 3 free; one phase then
    # finds the disjoint paths 1-4-0-5 and 3-6-2-7, and with limit 3 it
    # must stop after the first.
    g = new_graph(8, [(0, 4), (0, 5), (1, 4), (2, 6), (2, 7), (3, 6)])
    assert len(_hopcroft_karp(g.neighbor_masks, 0x0F, 0xF0)) == 4
    assert _hopcroft_karp(g.neighbor_masks, 0x0F, 0xF0, 3) == {0: 5, 1: 4, 2: 6}


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
