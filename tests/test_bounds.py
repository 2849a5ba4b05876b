import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rekonfig.bounds import find_simple_sequence, shortest_length_bound
from rekonfig.errors import PreconditionError
from rekonfig.exact import solve_exact
from rekonfig.graph import (
    FeasibilityKind,
    ReconfigInstance,
    Rule,
    RuleKind,
    closed_neighborhood,
    is_independent_set,
    new_graph,
    verify_sequence,
)

from conftest import brute_feasible, random_graph


def cycle(n):
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_bound_mu_zero():
    assert shortest_length_bound(10, 4, 0).max_length == 1


def test_bound_displayed_example():
    b = shortest_length_bound(10, 5, 2)
    assert b.binomial_bound == Fraction(9, 2)
    assert b.max_length == 7
    assert b.loose_bound == Fraction(100, 9)


def test_bound_full_universe():
    b = shortest_length_bound(6, 6, 3)
    assert b.binomial_bound == 1 and b.max_length == 1


def test_bound_rejects_mu_at_size():
    with pytest.raises(PreconditionError):
        shortest_length_bound(10, 4, 4)


def test_simple_sequence_identity(c4):
    seq = find_simple_sequence(c4, frozenset({0, 2}), frozenset({0, 2}), 1)
    assert seq is not None and seq.length == 0


def test_simple_sequence_absent_on_c4(c4):
    # removing N[{0, 1}] empties the graph, so no residue set exists
    assert find_simple_sequence(c4, frozenset({0, 2}), frozenset({1, 3}), 1) is None


def test_simple_sequence_on_long_cycle():
    g = cycle(14)
    i = frozenset({0, 2, 4})
    j = frozenset({8, 10, 12})
    seq = find_simple_sequence(g, i, j, 1)
    assert seq is not None and seq.length == 3
    k = len(i) - 1
    inst = ReconfigInstance(g, FeasibilityKind.INDEPENDENT_SET, i, j, Rule(RuleKind.KTJ, k))
    assert verify_sequence(inst, seq).accepted
    assert solve_exact(inst).reachable


def test_simple_sequence_preconditions(c4):
    with pytest.raises(PreconditionError):
        find_simple_sequence(c4, frozenset({0, 2}), frozenset({1, 3}), 2)  # 2*mu > |i|
    with pytest.raises(PreconditionError):
        find_simple_sequence(c4, frozenset({0, 1}), frozenset({1, 3}), 1)  # not independent


@pytest.mark.parametrize(
    "i, j", [({0, 2}, {1}), ({1}, {0, 2})], ids=["i-larger", "j-larger"]
)
def test_simple_sequence_rejects_unequal_sizes(c4, i, j):
    with pytest.raises(PreconditionError, match="set sizes differ"):
        find_simple_sequence(c4, frozenset(i), frozenset(j), 1)


@given(st.integers(min_value=4, max_value=9), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_simple_sequence_soundness(n, seed):
    # whenever a shortcut is found it verifies and the instance is reachable
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.1, 0.5))
    size = rng.randint(2, max(2, n // 2))
    family = brute_feasible(g, FeasibilityKind.INDEPENDENT_SET, size)
    if len(family) < 2:
        return
    i, j = rng.sample(family, 2)
    mu = rng.randint(1, size // 2)
    seq = find_simple_sequence(g, i, j, mu)
    if seq is None:
        return
    inst = ReconfigInstance(
        g, FeasibilityKind.INDEPENDENT_SET, i, j, Rule(RuleKind.KTJ, size - mu)
    )
    assert verify_sequence(inst, seq).accepted
    assert solve_exact(inst).reachable


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_simple_sequence_found_iff_the_residue_holds_an_independent_k_set(n, seed):
    # The shortcut needs only some independent k-set outside N[A + B]; it
    # takes the lexicographically first one.
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.05, 0.5))
    size = rng.randint(2, max(2, n // 2))
    family = brute_feasible(g, FeasibilityKind.INDEPENDENT_SET, size)
    if len(family) < 2:
        return
    i, j = rng.sample(family, 2)
    mu = rng.randint(1, size // 2)
    anchors = frozenset(sorted(i)[:mu]) | frozenset(sorted(j)[:mu])
    removed = closed_neighborhood(g, anchors)
    residue_sets = [
        x
        for x in brute_feasible(g, FeasibilityKind.INDEPENDENT_SET, size - mu)
        if not x & removed
    ]
    seq = find_simple_sequence(g, i, j, mu)
    if not residue_sets:
        assert seq is None
        return
    star = min(residue_sets, key=sorted)
    assert seq.steps == (i, frozenset(sorted(i)[:mu]) | star, frozenset(sorted(j)[:mu]) | star, j)
    assert all(is_independent_set(g, x) for x in seq)
