import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rekonfig import exact
from rekonfig.errors import ResourceBudgetError
from rekonfig.exact import (
    Budget,
    enumerate_feasible,
    feasible_masks,
    max_independent_set,
    min_vertex_cover,
    reachability_classes,
    solve_exact,
    solve_tar_maxmin,
    solve_tar_minmax,
)
from rekonfig.graph import (
    FeasibilityKind,
    ReconfigInstance,
    ReconfigSequence,
    Rule,
    RuleKind,
    complement_set,
    is_independent_set,
    mask_to_set,
    new_graph,
    set_to_mask,
    verify_sequence,
)

from conftest import brute_feasible, random_graph

IS = FeasibilityKind.INDEPENDENT_SET
VC = FeasibilityKind.VERTEX_COVER


def test_enumerate_c4(c4):
    assert list(enumerate_feasible(c4, IS, 2)) == [frozenset({0, 2}), frozenset({1, 3})]
    assert list(enumerate_feasible(c4, VC, 2)) == [frozenset({0, 2}), frozenset({1, 3})]
    assert list(enumerate_feasible(c4, IS, 0)) == [frozenset()]


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([IS, VC]),
)
@settings(max_examples=120, deadline=None)
def test_enumerate_matches_brute_force(n, seed, kind):
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.1, 0.8))
    for size in range(n + 1):
        got = list(enumerate_feasible(g, kind, size))
        want = brute_feasible(g, kind, size)
        assert got == sorted(want, key=sorted)  # lexicographic, each once
        assert len(got) == len(set(got))


def test_solve_exact_c4(c4):
    no = ReconfigInstance(c4, IS, frozenset({0, 2}), frozenset({1, 3}), Rule(RuleKind.KTJ, 1))
    assert not solve_exact(no).reachable
    yes = ReconfigInstance(c4, IS, frozenset({0, 2}), frozenset({1, 3}), Rule(RuleKind.KTJ, 2))
    res = solve_exact(yes, want_shortest=True)
    assert res.reachable and res.shortest.length == 1
    assert verify_sequence(yes, res.shortest).accepted


def test_solve_exact_identity(c4):
    inst = ReconfigInstance(c4, IS, frozenset({0, 2}), frozenset({0, 2}), Rule(RuleKind.KTJ, 1))
    res = solve_exact(inst, want_shortest=True)
    assert res.reachable and res.shortest.length == 0


def test_solve_exact_budget_error():
    g = new_graph(24, [])
    inst = ReconfigInstance(
        g, IS, frozenset(range(12)), frozenset(range(12, 24)), Rule(RuleKind.KTJ, 1)
    )
    with pytest.raises(ResourceBudgetError):
        solve_exact(inst, budget=Budget(max_states=100))


def test_solve_exact_one_clock_for_enumeration_and_search():
    # P10, independent 3-sets under 1-TJ: a budget that just covers the
    # enumeration leaves nothing for the search, which expands fewer states
    # than the enumeration charges.
    g = new_graph(10, [(i, i + 1) for i in range(9)])
    inst = ReconfigInstance(
        g, IS, frozenset({0, 2, 4}), frozenset({5, 7, 9}), Rule(RuleKind.KTJ, 1)
    )
    enumeration = 1
    while True:
        try:
            feasible_masks(g, IS, 3, Budget(max_states=enumeration))
            break
        except ResourceBudgetError:
            enumeration += 1
    assert 0 < solve_exact(inst).explored_states <= enumeration
    with pytest.raises(ResourceBudgetError):
        solve_exact(inst, budget=Budget(max_states=enumeration))


def test_solve_exact_time_budget_bounds_each_expansion():
    # G(22, 0.15) plus a disjoint K_{4,4} whose sides sit in s and in t,
    # independent 6-sets under 3-TJ: 125,867 states, and each expansion
    # generates hundreds of moves, so a clock read once per 4096 charges
    # overruns a 0.5 s budget by many seconds.
    rng = random.Random(3)
    n = 22
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.15]
    edges += [(n + i, n + 4 + j) for i in range(4) for j in range(4)]
    g = new_graph(n + 8, edges)
    start = frozenset({0, 1}) | frozenset(range(n, n + 4))
    target = frozenset({20, 21}) | frozenset(range(n + 4, n + 8))
    inst = ReconfigInstance(g, IS, start, target, Rule(RuleKind.KTJ, 3))
    began = time.monotonic()
    with pytest.raises(ResourceBudgetError):
        solve_exact(inst, budget=Budget(max_seconds=0.5))
    assert time.monotonic() - began < 0.5 + 1.0


def _sources(inst):
    size = len(inst.start)
    states = feasible_masks(inst.graph, inst.kind, size)
    start = set_to_mask(inst.start)
    adjacent = exact._rule_adjacency(inst.graph, inst.rule, size)
    return {
        "scan": lambda: exact._state_scan(states, start, adjacent),
        "moves": lambda: exact._move_generator(inst),
    }


@given(
    st.integers(min_value=1, max_value=11),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([IS, VC]),
    st.sampled_from([RuleKind.KTJ, RuleKind.KTS]),
)
@settings(max_examples=300, deadline=None)
def test_move_generator_matches_state_scan(n, seed, kind, rule_kind):
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.1, 0.7))
    families = [f for f in (feasible_masks(g, kind, size) for size in range(1, n + 1)) if len(f) > 1]
    if not families:
        return
    family = rng.choice(families)
    size = family[0].bit_count()
    start, target = (mask_to_set(m) for m in rng.sample(family, 2))
    k = rng.randint(1, size)
    inst = ReconfigInstance(g, kind, start, target, Rule(rule_kind, k))
    clock = exact._BudgetClock.begin(None)
    solved = {
        name: exact._search(inst, make(), clock, want_shortest=True)
        for name, make in _sources(inst).items()
    }
    assert solved["moves"] == solved["scan"]  # verdict, every step, explored_states
    # Without a target, the whole BFS tree of the start's component agrees.
    trees = {
        name: exact._bfs(set_to_mask(start), make(), clock) for name, make in _sources(inst).items()
    }
    assert trees["moves"] == trees["scan"]


def _picked_source(monkeypatch, inst) -> list[str]:
    picked: list[str] = []
    for name in ("_move_generator", "_state_scan"):

        def spy(*args, _real=getattr(exact, name), _name=name):
            picked.append(_name)
            return _real(*args)

        monkeypatch.setattr(exact, name, spy)
    res = solve_exact(inst, want_shortest=True)
    assert res.reachable and verify_sequence(inst, res.shortest).accepted
    return picked


def test_solve_exact_generates_moves_on_sparse_k1(monkeypatch):
    # Prism C10 x K2 (cubic, 20 vertices): 2 * 4 * 16 moves per state is far
    # below the number of independent 4-sets.
    n = 20
    edges = [(i, (i + 1) % 10) for i in range(10)]
    edges += [(10 + i, 10 + (i + 1) % 10) for i in range(10)] + [(i, 10 + i) for i in range(10)]
    inst = ReconfigInstance(
        new_graph(n, edges), IS, frozenset({0, 2, 4, 6}), frozenset({11, 13, 15, 17}),
        Rule(RuleKind.KTJ, 1),
    )
    assert _picked_source(monkeypatch, inst) == ["_move_generator"]


def test_solve_exact_scans_on_dense_k2(monkeypatch):
    # Complement of C9: only the 9 cycle edges are independent 2-sets, fewer
    # than twice the 2 * 7 + 21 candidate 2-TJ moves per state.
    n = 9
    cycle = {frozenset({i, (i + 1) % n}) for i in range(n)}
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if frozenset({u, v}) not in cycle]
    inst = ReconfigInstance(
        new_graph(n, edges), IS, frozenset({0, 1}), frozenset({4, 5}), Rule(RuleKind.KTJ, 2)
    )
    assert _picked_source(monkeypatch, inst) == ["_state_scan"]


def test_optima(c4, k4):
    assert len(max_independent_set(c4)) == 2 and len(min_vertex_cover(c4)) == 2
    assert len(max_independent_set(k4)) == 1 and len(min_vertex_cover(k4)) == 3
    edgeless = new_graph(5, [])
    assert len(max_independent_set(edgeless)) == 5
    assert min_vertex_cover(edgeless) == frozenset()


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=80, deadline=None)
def test_alpha_plus_beta(n, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.1, 0.9))
    assert len(max_independent_set(g)) + len(min_vertex_cover(g)) == n


def _check_tar_witness(witness: ReconfigSequence, lower=None, upper=None):
    for a, b in zip(witness.steps, witness.steps[1:]):
        assert len(a ^ b) == 1
    sizes = [len(s) for s in witness]
    if lower is not None:
        assert min(sizes) == lower
    if upper is not None:
        assert max(sizes) == upper


def test_tar_maxmin_c4(c4):
    res = solve_tar_maxmin(c4, frozenset({0, 2}), frozenset({1, 3}))
    assert res.value == 0  # must pass through the empty set
    _check_tar_witness(res.witness, lower=0)
    assert all(is_independent_set(c4, s) for s in res.witness)


def test_tar_maxmin_identity(c4, path3):
    assert solve_tar_maxmin(c4, frozenset({0, 2}), frozenset({0, 2})).value == 2
    assert solve_tar_maxmin(path3, frozenset({0, 2}), frozenset({0, 2})).value == 2


def test_tar_minmax_examples(c4):
    res = solve_tar_minmax(c4, frozenset({0, 2}), frozenset({1, 3}))
    assert res.value == 4
    _check_tar_witness(res.witness, upper=4)
    k3 = new_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert solve_tar_minmax(k3, frozenset({0, 1}), frozenset({0, 2})).value == 3
    assert solve_tar_minmax(k3, frozenset({0, 1}), frozenset({0, 1})).value == 2


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_tar_duality(n, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.2, 0.8))
    iss = brute_feasible(g, IS, min(2, n))
    if len(iss) < 2:
        return
    i, j = rng.sample(iss, 2)
    maxmin = solve_tar_maxmin(g, i, j)
    minmax = solve_tar_minmax(g, complement_set(g, i), complement_set(g, j))
    assert maxmin.value == n - minmax.value


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_is_vc_complement_reachability(n, seed):
    # complementing both sets and swapping the kind preserves the k-TJ verdict
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.2, 0.8))
    size = rng.randint(1, max(1, n // 2))
    family = brute_feasible(g, IS, size)
    if len(family) < 2:
        return
    i, j = rng.sample(family, 2)
    k = rng.randint(1, size)
    a = solve_exact(ReconfigInstance(g, IS, i, j, Rule(RuleKind.KTJ, k))).reachable
    b = solve_exact(
        ReconfigInstance(
            g, VC, complement_set(g, i), complement_set(g, j), Rule(RuleKind.KTJ, k)
        )
    ).reachable
    assert a == b


def test_shortest_is_minimum(c4):
    # BFS levels: no shorter certificate exists among all feasible walks
    labels = reachability_classes(c4, IS, 2, Rule(RuleKind.KTJ, 2))
    assert labels[frozenset({0, 2})] == labels[frozenset({1, 3})]
    inst = ReconfigInstance(c4, IS, frozenset({0, 2}), frozenset({1, 3}), Rule(RuleKind.KTJ, 2))
    assert solve_exact(inst, want_shortest=True).shortest.length == 1
