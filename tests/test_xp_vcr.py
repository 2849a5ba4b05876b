import itertools
import random
import time

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
)
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
    # C20 with mu = 3 (s = evens + {1}, t = odds + {0}) takes seconds.
    n = 20
    g = new_graph(n, [(i, (i + 1) % n) for i in range(n)])
    s = frozenset(range(0, n, 2)) | {1}
    t = frozenset(range(1, n, 2)) | {0}
    began = time.monotonic()
    with pytest.raises(ResourceBudgetError):
        xp_vcr_solve(g, s, t, 3, Budget(max_seconds=0.3))
    assert time.monotonic() - began < 0.3 + 1.0
