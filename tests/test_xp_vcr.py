import itertools
import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rekonfig.errors import PreconditionError, ResourceBudgetError
from rekonfig.exact import Budget, solve_exact
from rekonfig.graph import (
    FeasibilityKind,
    ReconfigInstance,
    Rule,
    RuleKind,
    is_vertex_cover,
    new_graph,
    set_to_mask,
)
from rekonfig import xp
from rekonfig.xp import (
    build_clique_compressed_graph,
    clique_edge_oracle,
    xp_vcr_solve,
)

from conftest import brute_feasible, random_graph

VC = FeasibilityKind.VERTEX_COVER
S13, T24 = frozenset({0, 2}), frozenset({1, 3})


def test_oracle_c4_examples(c4):
    assert clique_edge_oracle(c4, {0}, {2}, 2, S13, T24)
    assert not clique_edge_oracle(c4, {0}, {1}, 2, S13, T24)
    assert clique_edge_oracle(c4, {0}, {0}, 2, S13, T24)  # x = y inside s


def test_oracle_rejects_a_non_cover_of_the_remainder(c4):
    # Z = {2}: s = {1} misses the edge 3-0 of C4 - Z, t = {0, 2} covers it.
    with pytest.raises(PreconditionError):
        clique_edge_oracle(c4, {2}, {2}, 2, {1}, T24)
    with pytest.raises(PreconditionError):
        clique_edge_oracle(c4, {2}, {2}, 2, S13, {1})


def test_oracle_brute_force_agreement():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        size = rng.randint(1, n)
        covers = brute_feasible(g, VC, size)
        if len(covers) < 2:
            continue
        s, t = rng.sample(covers, 2)
        mu = rng.randint(1, size)
        if size - mu < 1:
            continue
        subsets = list(itertools.combinations(range(n), mu))
        x = frozenset(rng.choice(subsets))
        y = frozenset(rng.choice(subsets))
        want = any(x | y <= c for c in covers)
        assert clique_edge_oracle(g, x, y, size, s, t) == want
        assert clique_edge_oracle(g, y, x, size, s, t) == want  # symmetry


def test_oracle_witness_mode_agrees():
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        size = rng.randint(1, n)
        covers = brute_feasible(g, VC, size)
        if len(covers) < 2:
            continue
        s, t = rng.sample(covers, 2)
        mu = rng.randint(1, max(1, size - 1))
        x = frozenset(rng.sample(range(n), mu))
        y = frozenset(rng.sample(range(n), mu))
        plain = clique_edge_oracle(g, x, y, size, s, t)
        decision, witness = clique_edge_oracle(g, x, y, size, s, t, return_witness=True)
        assert plain == decision
        if decision:
            assert witness is not None and len(witness) == size
            assert (x | y) <= witness and is_vertex_cover(g, witness)
        else:
            assert witness is None


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_accepting_guess_decides_cover_containment(n, seed):
    # The decision core on its own, for every Z of size at most the cover
    # size: a guess is returned iff some cover of that size contains Z.
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.2, 0.8))
    size = rng.randint(1, n)
    covers = brute_feasible(g, VC, size)
    if not covers:
        return
    s, t = set_to_mask(rng.choice(covers)), set_to_mask(rng.choice(covers))
    for z in range(1 << n):
        if z.bit_count() > size:
            continue
        rest = g.full_mask & ~z
        got = xp._accepting_guess(g.neighbor_masks, rest, size - z.bit_count(), s & rest, t & rest)
        want = any(set_to_mask(c) & z == z for c in covers)
        assert (got is not None) == want, (g, size, s, t, z)
        if got is not None:
            assert got & ~(s & t & rest) == 0  # A lies in the shared part


def test_build_c4(c4):
    cg = build_clique_compressed_graph(c4, S13, T24, 1)
    assert [sorted(x) for x in cg.nodes] == [[0], [1], [2], [3]]
    assert cg.edges == frozenset({(0, 2), (1, 3)})


def test_build_rejects_k_zero(c4):
    with pytest.raises(PreconditionError):
        build_clique_compressed_graph(c4, S13, T24, 2)  # mu = |s| gives k = 0


def test_build_edgeless_complete():
    g = new_graph(4, [])
    s = frozenset({0, 1})
    cg = build_clique_compressed_graph(g, s, s, 1)
    assert len(cg.edges) == 6  # every size-|s| set is a cover


def test_build_independent_of_cover_choice(c4):
    a = build_clique_compressed_graph(c4, S13, T24, 1)
    b = build_clique_compressed_graph(c4, T24, S13, 1)
    c = build_clique_compressed_graph(c4, S13, S13, 1)
    assert a.edges == b.edges == c.edges


def _assert_roots_match_reference(g):
    """Every cover size and every mu with k >= 1: the labeller keeps exactly
    the nodes some cover contains, partitions them like the reference's
    component labels with the lexicographically first node as root, and
    drops only nodes that are isolated in the reference."""
    for size in range(1, g.vertex_count + 1):
        covers = brute_feasible(g, VC, size)
        if not covers:
            continue
        s, t = covers[0], covers[-1]
        for mu in range(1, size):
            roots = xp._component_roots(g, s, t, mu)
            cg = build_clique_compressed_graph(g, s, t, mu)
            labels = cg.component_labels()
            members: dict[int, list[int]] = {}
            for i, x in enumerate(cg.nodes):
                m = set_to_mask(x)
                assert (m in roots) == any(x <= c for c in covers)
                if m in roots:
                    members.setdefault(labels[i], []).append(m)
                else:
                    assert all(i not in e for e in cg.edges), (g, size, mu, x)
            for component in members.values():
                assert {roots[m] for m in component} == {component[0]}


def test_component_roots_match_reference_on_every_small_graph():
    # The atlas lists every graph with at most 7 vertices up to isomorphism.
    for h in nx.graph_atlas_g():
        if 1 <= h.number_of_nodes() <= 6:
            _assert_roots_match_reference(new_graph(h.number_of_nodes(), list(h.edges())))


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_component_roots_match_reference_on_random_graphs(n, seed):
    rng = random.Random(seed)
    _assert_roots_match_reference(random_graph(rng, n, rng.uniform(0.2, 0.8)))


def test_warm_answers_equal_cold_answers(monkeypatch):
    # K_{3,4} with sides {2, 4, 6} and {0, 1, 3, 5} plus the edge 2-4,
    # covers of size 5 and mu = 4: 8 covers, and 24 of the 64 ordered pairs
    # are NO.
    g = new_graph(7, [(a, b) for a in (2, 4, 6) for b in (0, 1, 3, 5)] + [(2, 4)])
    covers = brute_feasible(g, VC, 5)
    oracle_calls = []
    counted = xp._accepting_guess

    def counting_oracle(*args, **kwargs):
        oracle_calls.append(args)
        return counted(*args, **kwargs)

    monkeypatch.setattr(xp, "_accepting_guess", counting_oracle)
    s0, t0 = next((s, t) for s in covers for t in covers if len(s & t) < 4)
    xp._GRAPH_CACHE.clear()
    xp_vcr_solve(g, s0, t0, 4)
    assert oracle_calls  # a cold labelling goes through the counted core
    verdicts = set()
    for s in covers:
        for t in covers:
            xp._GRAPH_CACHE.clear()
            cold = xp_vcr_solve(g, s, t, 4)
            xp_vcr_solve(g, s0, t0, 4)  # labels the graph from another pair
            oracle_calls.clear()
            warm = xp_vcr_solve(g, s, t, 4)
            assert not oracle_calls
            assert warm == cold, (s, t)
            verdicts.add(cold)
    assert verdicts == {True, False}


def test_xp_examples(c4):
    assert not xp_vcr_solve(c4, S13, T24, 1)
    assert xp_vcr_solve(c4, S13, T24, 0)
    assert xp_vcr_solve(c4, S13, S13, 1)


def test_xp_precondition_errors(c4):
    with pytest.raises(PreconditionError):
        xp_vcr_solve(c4, S13, frozenset({0, 1, 2}), 1)  # size mismatch
    with pytest.raises(PreconditionError):
        xp_vcr_solve(c4, frozenset({0, 1}), T24, 1)  # not a cover
    star = new_graph(3, [(0, 1), (0, 2)])
    with pytest.raises(PreconditionError):
        xp_vcr_solve(star, frozenset({0}), frozenset({1, 2}), 1)  # sizes differ


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_xp_matches_exact_solver(n, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.2, 0.8))
    size = rng.randint(1, n)
    covers = brute_feasible(g, VC, size)
    if len(covers) < 2:
        return
    s, t = rng.sample(covers, 2)
    for mu in range(1, size):
        k = size - mu
        if k < 1:
            continue
        want = solve_exact(ReconfigInstance(g, VC, s, t, Rule(RuleKind.KTJ, k))).reachable
        assert xp_vcr_solve(g, s, t, mu) == want


def test_xp_time_budget():
    # C32 with mu = 3 (s = evens + {1}, t = odds + {0}) takes about 3 s.
    n = 32
    g = new_graph(n, [(i, (i + 1) % n) for i in range(n)])
    s = frozenset(range(0, n, 2)) | {1}
    t = frozenset(range(1, n, 2)) | {0}
    began = time.monotonic()
    with pytest.raises(ResourceBudgetError):
        xp_vcr_solve(g, s, t, 3, Budget(max_seconds=0.3))
    assert time.monotonic() - began < 0.3 + 1.0
