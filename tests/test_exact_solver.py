import random
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rekonfig import exact
from rekonfig.errors import PreconditionError, ResourceBudgetError
from rekonfig.exact import (
    Budget,
    SolveResult,
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
    is_vertex_cover,
    iter_bits,
    mask_to_set,
    new_graph,
    set_to_mask,
    verify_sequence,
)
from rekonfig.io_formats import parse_instance

from conftest import brute_feasible, brute_tar, random_graph

IS = FeasibilityKind.INDEPENDENT_SET
VC = FeasibilityKind.VERTEX_COVER
FIXTURES = Path(__file__).parent / "fixtures"


def _feasible_sets(g, kind, size):
    return [mask_to_set(m) for m in feasible_masks(g, kind, size)]


def test_enumerate_c4(c4):
    assert _feasible_sets(c4, IS, 2) == [frozenset({0, 2}), frozenset({1, 3})]
    assert _feasible_sets(c4, VC, 2) == [frozenset({0, 2}), frozenset({1, 3})]
    assert _feasible_sets(c4, IS, 0) == [frozenset()]


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
        got = _feasible_sets(g, kind, size)
        want = brute_feasible(g, kind, size)
        assert got == sorted(want, key=sorted)  # lexicographic, each once
        assert len(got) == len(set(got))


def _recursive_independent_masks(g, size, clock):
    """Reference enumeration: the include-first DFS written as a recursion,
    one call per decided vertex, with the same bound and the same charges.
    Every node is charged once; the sets of a node one or two tokens short
    are listed by brute force and charged as they are stored."""
    cliques = exact._clique_partition_masks(g, clock, g.full_mask) if size > 2 else []
    out = []

    def rec(candidates, chosen, remaining):
        clock.charge()
        if remaining <= 2:
            found = [
                chosen | sum(c)
                for c in combinations([1 << v for v in iter_bits(candidates)], remaining)
                if is_independent_set(g, mask_to_set(sum(c)))
            ]
            clock.charge(len(found))
            out.extend(found)
            return
        if candidates.bit_count() < remaining or exact._clique_bound(cliques, candidates) < remaining:
            return
        bit = candidates & -candidates
        rest = candidates ^ bit
        v = bit.bit_length() - 1
        rec(rest & ~g.neighbor_masks[v], chosen | bit, remaining - 1)
        rec(rest, chosen, remaining)

    rec(g.full_mask, 0, size)
    return out


@given(st.integers(min_value=0, max_value=16), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_enumeration_matches_the_recursive_reference_and_its_charges(n, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.05, 0.7))
    for size in range(n + 2):
        clock, reference = exact._BudgetClock.begin(None), exact._BudgetClock.begin(None)
        blocks = list(exact._independent_blocks(g, size, clock, g.full_mask))
        got = exact._block_sets(blocks, g.neighbor_masks, clock)
        assert got == _recursive_independent_masks(g, size, reference)
        assert clock.counted == reference.counted
        for block in blocks:
            assert block[0] == len(exact._block_sets([block], g.neighbor_masks, clock)) > 0


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


def _caterpillar_one_slide() -> tuple:
    """A 40-vertex spine path 0-39 with the pendant 40 + i on spine vertex i:
    from the 40 pendants to the pendants with 40's token slid onto 0."""
    spine = 40
    edges = [(i, i + 1) for i in range(spine - 1)] + [(i, spine + i) for i in range(spine)]
    start = frozenset(range(spine, 2 * spine))
    return new_graph(2 * spine, edges), start, start - {spine} | {0}, spine - 1


def _isolated_one_jump() -> tuple:
    """60 isolated vertices, from {0, ..., 29} to {1, ..., 30}."""
    return new_graph(60, []), frozenset(range(30)), frozenset(range(1, 31)), 29


@pytest.mark.parametrize("kind", [IS, VC])
@pytest.mark.parametrize(
    "make, rule_kind",
    [(_caterpillar_one_slide, RuleKind.KTJ), (_caterpillar_one_slide, RuleKind.KTS),
     (_isolated_one_jump, RuleKind.KTJ)],
    ids=["caterpillar-ktj", "caterpillar-kts", "isolated-ktj"],
)
def test_ends_one_move_apart_are_settled_before_any_count(make, rule_kind, kind):
    # k = |S| - 1, so the move estimate is about 2^40 on the caterpillar and
    # 2^30 on the isolated vertices, and counting the family ran on until
    # the default state budget (about 8 s on the connected caterpillar) or a
    # 3 s time budget stopped it. The pair test, asked first, sees that the
    # ends are one move apart.
    g, start, target, k = make()
    if kind is VC:
        start, target = complement_set(g, start), complement_set(g, target)
    inst = ReconfigInstance(g, kind, start, target, Rule(rule_kind, k))
    began = time.monotonic()
    res = solve_exact(inst, want_shortest=True, budget=Budget(max_seconds=2))
    assert time.monotonic() - began < 1.0
    assert res.reachable and res.explored_states == 0
    assert res.shortest.steps == (start, target)
    assert verify_sequence(inst, res.shortest).accepted


def test_solve_exact_budget_error():
    g = new_graph(24, [])
    inst = ReconfigInstance(
        g, IS, frozenset(range(12)), frozenset(range(12, 24)), Rule(RuleKind.KTJ, 1)
    )
    with pytest.raises(ResourceBudgetError):
        solve_exact(inst, budget=Budget(max_states=100))


@pytest.mark.parametrize("limits", [{"max_states": float("nan")}, {"max_seconds": float("nan")}])
def test_budget_rejects_nan(limits):
    # No count or time compares greater than NaN, so such a budget would
    # bound nothing.
    with pytest.raises(PreconditionError):
        Budget(**limits)


def _grid_instance(rule: Rule) -> ReconfigInstance:
    """The 6 x 6 grid, row-major ids from 0, from S = {0, 2, 4, 13, 15, 17,
    24, 26, 28} to S + 1."""
    edges = [(v, v + 1) for v in range(36) if v % 6 < 5] + [(v, v + 6) for v in range(30)]
    start = frozenset({0, 2, 4, 13, 15, 17, 24, 26, 28})
    return ReconfigInstance(new_graph(36, edges), IS, start, frozenset(v + 1 for v in start), rule)


def test_solve_exact_one_clock_for_enumeration_and_search():
    # The 6 x 6 grid under 4-TS: the move estimate is 12,950 groups, so the
    # count may charge 809 DFS nodes, and it stops there, then the search
    # runs on the same clock. A budget equal to the counted prefix leaves
    # nothing for the search, and the budget that pays for both has no
    # charge to spare.
    inst = _grid_instance(Rule(RuleKind.KTS, 4))
    g = inst.graph
    est = exact._move_estimate(inst, g.full_mask)
    nodes = est // exact._COUNT_SHARE
    assert nodes >= g.vertex_count
    clock = exact._BudgetClock.begin(None)
    assert exact._family(g, IS, 9, clock, g.full_mask, 2 * est, nodes) is None
    prefix = clock.counted
    assert prefix == nodes + 1
    assert _both_ends(inst, clock=clock).explored_states > 0
    total = clock.counted
    assert prefix < total
    for short in (prefix, total - 1):
        with pytest.raises(ResourceBudgetError):
            solve_exact(inst, budget=Budget(max_states=short))
    assert solve_exact(inst, budget=Budget(max_states=total)).reachable


def test_large_k_slides_on_the_grid_count_a_sixteenth_of_an_expansion():
    # The 6 x 6 grid under 8-TS is two slides deep, but its move estimate,
    # 1,271,625 groups, exceeded the family, so the count walked all of it:
    # 1,967,810 charges. A count capped at a sixteenth of the estimate
    # leaves the whole solve within 300,000. The CLI fixture is this
    # instance.
    inst = _grid_instance(Rule(RuleKind.KTS, 8))
    assert parse_instance((FIXTURES / "grid66_is_kts8.isr").read_text()) == inst
    res = solve_exact(inst, want_shortest=True, budget=Budget(max_states=300_000))
    assert res.reachable and res.shortest.length == 2
    assert verify_sequence(inst, res.shortest).accepted


def _frozen_gadget_instance(hub: bool) -> ReconfigInstance:
    """G(22, 0.15) plus a disjoint K_{4,4} plus 10 disjoint K2s, independent
    27-sets under 3-TJ, with a hub vertex adjacent to all 50 of them if asked.
    s and t hold a maximum independent set of every part, so every feasible
    set does too (the hub is in none of them): the K_{4,4} tokens can only
    switch sides all 4 at once, and s and t sit on opposite sides, so the
    answer is NO."""
    rng = random.Random(3)
    n = 22
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.15]
    core = max_independent_set(new_graph(n, edges))
    edges += [(n + i, n + 4 + j) for i in range(4) for j in range(4)]
    pairs = [(n + 8 + 2 * i, n + 9 + 2 * i) for i in range(10)]
    count = n + 8 + 2 * len(pairs)
    if hub:
        edges += [(v, count) for v in range(count)]
    g = new_graph(count + hub, edges + pairs)
    start = core | frozenset(range(n, n + 4)) | frozenset(u for u, _ in pairs)
    target = core | frozenset(range(n + 4, n + 8)) | frozenset(v for _, v in pairs)
    return ReconfigInstance(g, IS, start, target, Rule(RuleKind.KTJ, 3))


def test_solve_exact_time_budget_bounds_each_expansion():
    # The hub makes the graph connected, so the whole start component is
    # searched before the NO (4,395 states, each expansion generating
    # hundreds of moves; 1.1 to 1.4 s on a 2-core Xeon VM). Its charges pass a
    # multiple of 4096 for the last time within 0.2 s, so a clock read only
    # at those charges runs on to the NO.
    inst = _frozen_gadget_instance(hub=True)
    began = time.monotonic()
    with pytest.raises(ResourceBudgetError):
        solve_exact(inst, budget=Budget(max_seconds=0.5))
    assert time.monotonic() - began < 0.5 + 1.0


def test_one_expansion_answers_to_the_budget(monkeypatch):
    # 26 isolated vertices, from {0, ..., 12} to {13, ..., 25} under 5-TJ:
    # the start's first expansion makes 2,255,643 moves, which were built
    # and sorted with no clock read and charged only when stored, so a
    # 0.2 s budget ran out after 1.5 s and a 100,000-state budget after
    # 1.3 s, both with a 241 MB peak. Now the clock is read while the list
    # grows, and a list longer than the states left stops the expansion
    # before it is sorted.
    g = new_graph(26, [])
    inst = ReconfigInstance(
        g, IS, frozenset(range(13)), frozenset(range(13, 26)), Rule(RuleKind.KTJ, 5)
    )
    began = time.monotonic()
    with pytest.raises(ResourceBudgetError, match="time budget"):
        solve_exact(inst, budget=Budget(max_seconds=0.2))
    assert time.monotonic() - began < 0.2 + 0.5
    keyed = []
    real_key = exact._set_sort_key
    monkeypatch.setattr(exact, "_set_sort_key", lambda mask: keyed.append(mask) or real_key(mask))
    with pytest.raises(ResourceBudgetError, match="state budget"):
        solve_exact(inst, budget=Budget(max_states=100_000))
    assert keyed == []


def test_solve_exact_splits_the_frozen_gadget_into_components():
    # Without the hub, every part is at its independence number, so tokens
    # cannot leave their parts and each part is searched alone. The K_{4,4}
    # comes first and is NO after one expansion, since no 3-TJ move leaves
    # its start; G(22, 0.15) is not searched, since s and t agree on it.
    res = solve_exact(_frozen_gadget_instance(hub=False), want_shortest=True)
    assert not res.reachable and res.explored_states <= 2


def _disjoint_union(parts, rng=None):
    """The disjoint union of (graph, start, target) parts, with the ids
    offset in the order given, or shuffled by rng so that the components
    interleave in id order."""
    n = sum(g.vertex_count for g, _, _ in parts)
    order = rng.sample(range(n), n) if rng else range(n)
    edges, start, target, base = [], set(), set(), 0
    for g, s, t in parts:
        edges += [(order[base + u], order[base + v]) for u, v in g.edges()]
        start |= {order[base + v] for v in s}
        target |= {order[base + v] for v in t}
        base += g.vertex_count
    return new_graph(n, edges), start, target


@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([IS, VC]),
    st.sampled_from([RuleKind.KTJ, RuleKind.KTS]),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_split_gives_the_answer_of_the_whole_search(seed, kind, rule_kind, at_alpha):
    # 2 to 4 parts of G(<= 6, p), tokens (in independent-set space) at the
    # independence number or below it: under k-TS tokens are confined
    # either way, under k-TJ only at the independence number.
    rng = random.Random(seed)
    parts = [random_graph(rng, rng.randint(1, 6), rng.uniform(0.1, 0.7)) for _ in range(rng.randint(2, 4))]
    g, _, _ = _disjoint_union([(p, (), ()) for p in parts], rng)
    alpha = len(max_independent_set(g))
    tokens = alpha if at_alpha or alpha == 1 else rng.randint(1, alpha - 1)
    size = tokens if kind is IS else g.vertex_count - tokens
    family = feasible_masks(g, kind, size)
    if len(family) < 2:
        return
    start, target = (mask_to_set(m) for m in rng.sample(family, 2))
    inst = ReconfigInstance(g, kind, start, target, Rule(rule_kind, rng.randint(1, 3)))
    whole = exact._search(inst, g.full_mask, exact._BudgetClock.begin(None), want_shortest=True)
    res = solve_exact(inst, want_shortest=True)
    assert (res.reachable, res.shortest) == (whole.reachable, whole.shortest)
    assert solve_exact(inst).reachable == whole.reachable
    if len(family) <= 400:
        labels = reachability_classes(g, kind, size, inst.rule)
        assert whole.reachable == (labels[start] == labels[target])


@pytest.mark.parametrize("rule_kind", [RuleKind.KTJ, RuleKind.KTS])
def test_split_needs_confined_tokens(rule_kind):
    # Two isolated vertices, S = {0}, T = {1}: one token below the
    # independence number 2 jumps across components, but cannot slide there.
    inst = ReconfigInstance(new_graph(2, []), IS, {0}, {1}, Rule(rule_kind, 1))
    res = solve_exact(inst, want_shortest=True)
    assert res.reachable == (rule_kind is RuleKind.KTJ)
    if res.reachable:
        assert res.shortest.steps == (frozenset({0}), frozenset({1}))


def _no_subgraph(*args):
    raise AssertionError("the split built a subgraph")


@pytest.mark.parametrize("kind", [IS, VC])
@pytest.mark.parametrize("rule_kind", [RuleKind.KTJ, RuleKind.KTS])
@pytest.mark.parametrize("c5_last", [False, True])
def test_split_decides_a_frozen_square_among_free_pairs(monkeypatch, kind, rule_kind, c5_last):
    # K_{2,2} plus 30 K2s, tokens at the independence number, 1 token per
    # step: the K_{2,2} cannot switch sides, so NO, while the whole search
    # would meet 2^30 states on the start's side. With c5_last the K2s come
    # first and a C5 closes the graph: its 3 first-fit cliques exceed its
    # independence number 2, so only a search shows that it is full, and
    # that search must not branch over the K2s before it. The K_{2,2} is
    # searched inside its mask of the parent graph, with no subgraph built.
    square = (new_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)]), {0, 1}, {2, 3})
    pair = (new_graph(2, [(0, 1)]), {0}, {1})
    c5 = (new_graph(5, [(i, (i + 1) % 5) for i in range(5)]), {0, 2}, {0, 2})
    g, start, target = _disjoint_union([pair] * 30 + [square, c5] if c5_last else [square] + [pair] * 30)
    if kind is VC:
        start, target = complement_set(g, start), complement_set(g, target)
    inst = ReconfigInstance(g, kind, start, target, Rule(rule_kind, 1))
    monkeypatch.setattr(type(g), "induced_subgraph", _no_subgraph)
    began = time.monotonic()
    assert not solve_exact(inst, want_shortest=True, budget=Budget(max_seconds=10)).reachable
    assert time.monotonic() - began < 1.0


@pytest.mark.parametrize("rule_kind", [RuleKind.KTJ, RuleKind.KTS])
def test_searched_parts_do_not_walk_the_whole_graph(rule_kind):
    # 2,000 paths P4, each from {a, c} to {b, d}: two moves apart, so every
    # part is searched. Part searches that walked all 8,000 vertices per
    # expansion took about 9 s, and ones that built the parent's end masks
    # again about 5 s, on a 2-core Xeon VM; both grow with the square of the
    # number of parts.
    parts = 2000
    edges = [(4 * p + i, 4 * p + i + 1) for p in range(parts) for i in range(3)]
    start = {4 * p + i for p in range(parts) for i in (0, 2)}
    target = {4 * p + i for p in range(parts) for i in (1, 3)}
    inst = ReconfigInstance(new_graph(4 * parts, edges), IS, start, target, Rule(rule_kind, 1))
    began = time.monotonic()
    assert solve_exact(inst, budget=Budget(max_seconds=10)) == SolveResult(True, None, 2 * parts)
    assert time.monotonic() - began < 1.0


def test_idle_components_build_no_mask(monkeypatch):
    # A P20 from its even to its odd vertices beside 2,000 idle K2s, under
    # 1-TS: only the path's ends differ, so only the path's mask is built.
    # One mask per component made the split quadratic in their number: at
    # 20,000 K2s it took about 120 ms.
    path = (new_graph(20, [(v, v + 1) for v in range(19)]), range(0, 20, 2), range(1, 20, 2))
    idle = (new_graph(2, [(0, 1)]), {0}, {0})
    g, start, target = _disjoint_union([path] + [idle] * 2000)
    inst = ReconfigInstance(g, IS, start, target, Rule(RuleKind.KTS, 1))
    built = []
    real = exact.set_to_mask
    monkeypatch.setattr(exact, "set_to_mask", lambda x: built.append(None) or real(x))
    assert solve_exact(inst) == SolveResult(True, None, 10)
    assert len(built) == 1


def _random_mask(rng, g):
    """A random vertex mask of g: a union of components half of the time,
    any subset otherwise."""
    if rng.random() < 0.5:
        return sum(set_to_mask(c) for c in exact._components(g) if rng.random() < 0.5)
    return sum(1 << v for v in range(g.vertex_count) if rng.random() < 0.5)


@given(st.integers(min_value=0, max_value=14), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_a_probe_within_a_mask_is_the_probe_of_its_induced_subgraph(n, seed):
    # Same first set, mapped back through the id map, and the same DFS: the
    # same number of charged nodes.
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.05, 0.7))
    within = _random_mask(rng, g)
    sub, old = g.induced_subgraph(iter_bits(within))
    for size in range(within.bit_count() + 2):
        clock, reference = exact._BudgetClock.begin(None), exact._BudgetClock.begin(None)
        first = exact._first_independent(sub, size, reference, sub.full_mask)
        mapped = None if first is None else sum(1 << old[v] for v in iter_bits(first))
        assert exact._first_independent(g, size, clock, within) == mapped
        assert clock.counted == reference.counted


@given(st.integers(min_value=0, max_value=14), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_a_probe_partitions_only_the_vertices_within_its_mask(n, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.05, 0.9))
    within = _random_mask(rng, g)
    partitions = []
    real = exact._clique_partition_masks

    def spy(*args):
        partitions.append(real(*args))
        return partitions[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "_clique_partition_masks", spy)
        exact._first_independent(g, 3, exact._BudgetClock.begin(None), within)
    (cliques,) = partitions
    assert sum(cliques) == within and all(q & ~within == 0 for q in cliques)
    sub, old = g.induced_subgraph(iter_bits(within))
    assert cliques == [sum(1 << old[v] for v in iter_bits(q)) for q in _first_fit_over_all_cliques(sub)]


@given(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([IS, VC]),
    st.sampled_from([RuleKind.KTJ, RuleKind.KTS]),
)
@settings(max_examples=300, deadline=None)
def test_a_search_within_a_mask_is_the_search_of_its_induced_subgraph(n, seed, kind, rule_kind):
    # Two feasible sets of the subgraph that a random mask induces, in the
    # parent's ids. Covers also hold every vertex outside the mask, so that
    # they cover the parent graph; the search masks those off. Same verdict,
    # expansions, certificate through the id map and charges as the search
    # of the subgraph itself.
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.05, 0.7))
    within = _random_mask(rng, g)
    sub, old = g.induced_subgraph(iter_bits(within))
    sizes = range(1, sub.vertex_count + 1)
    families = [f for f in (feasible_masks(sub, kind, size) for size in sizes) if len(f) > 1]
    if not families:
        return
    family = rng.choice(families)
    start, target = rng.sample(family, 2)
    rule = Rule(rule_kind, rng.randint(1, start.bit_count()))
    outside = g.full_mask & ~within if kind is VC else 0
    lift = [mask_to_set(sum(1 << old[v] for v in iter_bits(m)) | outside) for m in (start, target)]
    inst = ReconfigInstance(g, kind, *lift, rule)
    part = ReconfigInstance(sub, kind, mask_to_set(start), mask_to_set(target), rule)
    clock, reference = exact._BudgetClock.begin(None), exact._BudgetClock.begin(None)
    got = exact._search(inst, within, clock, want_shortest=True)
    ref = exact._search(part, sub.full_mask, reference, want_shortest=True)
    assert (got.reachable, got.explored_states) == (ref.reachable, ref.explored_states)
    if ref.shortest is None:
        assert got.shortest is None
    else:
        assert got.shortest.steps == tuple(frozenset(old[v] for v in s) for s in ref.shortest.steps)
    assert clock.counted == reference.counted


@pytest.mark.parametrize("kind", [IS, VC])
@pytest.mark.parametrize("rule_kind", [RuleKind.KTJ, RuleKind.KTS])
def test_parts_one_move_apart_are_settled_without_a_subgraph(monkeypatch, kind, rule_kind):
    # Ten K2s and a triangle whose tokens each move along an edge, and a C5
    # whose ends agree, all at the independence number: every part that
    # differs is one move apart, so the pair test settles it and nothing is
    # searched.
    pair = (new_graph(2, [(0, 1)]), {0}, {1})
    triangle = (new_graph(3, [(0, 1), (1, 2), (0, 2)]), {2}, {0})
    c5 = (new_graph(5, [(i, (i + 1) % 5) for i in range(5)]), {1, 3}, {1, 3})
    g, start, target = _disjoint_union([pair] * 5 + [c5, triangle] + [pair] * 5)
    if kind is VC:
        start, target = complement_set(g, start), complement_set(g, target)
    inst = ReconfigInstance(g, kind, start, target, Rule(rule_kind, 1))
    monkeypatch.setattr(type(g), "induced_subgraph", _no_subgraph)
    assert solve_exact(inst) == SolveResult(True, None, 0)


def _first_fit_over_all_cliques(g):
    """Reference clique partition: each vertex, in id order, joins the first
    clique whose members are all its neighbours, testing every clique."""
    cliques = []
    for v in range(g.vertex_count):
        for i, q in enumerate(cliques):
            if q & ~g.neighbor_masks[v] == 0:
                cliques[i] = q | 1 << v
                break
        else:
            cliques.append(1 << v)
    return cliques


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_clique_partition_tries_only_the_cliques_of_earlier_neighbours(n, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.05, 0.95))
    clock = exact._BudgetClock.begin(None)
    assert exact._clique_partition_masks(g, clock, g.full_mask) == _first_fit_over_all_cliques(g)


def test_time_budget_bounds_the_clique_partition():
    # The star K_{1,8186} with a path 8187-8191 hanging from its centre 0,
    # independent 3-sets under 1-TS: the partition behind the count of 3-sets
    # has 8,189 cliques, and testing each vertex against all of them took
    # about 40 s with no clock read. s and t are two slides apart, through
    # the centre, so the pair test does not settle them.
    n = 8192
    g = new_graph(n, [(0, v) for v in range(1, n - 4)] + [(v, v + 1) for v in range(n - 5, n - 1)])
    inst = ReconfigInstance(
        g, IS, frozenset({n - 5, n - 3, n - 1}), frozenset({1, n - 3, n - 1}), Rule(RuleKind.KTS, 1)
    )
    began = time.monotonic()
    result = solve_exact(inst, want_shortest=True, budget=Budget(max_seconds=0.5))
    assert result.reachable and result.shortest.length == 2
    assert time.monotonic() - began < 0.5 + 1.0


def test_time_budget_bounds_the_clique_bound_scans():
    # The star K_{1,8191}, vertex covers of size 3: the enumeration of
    # independent 8,189-sets scans the 8,191 cliques of the partition at
    # each DFS node still three or more tokens short, and reading the clock
    # once per 4,096 charged nodes let it run 2.6 s under a 0.5 s budget on
    # a 2-core Xeon VM.
    n = 8192
    g = new_graph(n, [(0, v) for v in range(1, n)])
    began = time.monotonic()
    with pytest.raises(ResourceBudgetError, match="time budget"):
        feasible_masks(g, VC, 3, Budget(max_seconds=0.5))
    assert time.monotonic() - began < 0.5 + 0.5


def test_time_budget_bounds_the_enumeration_on_the_largest_star():
    # The star K_{1,65534} with one leaf, 1, extended by the vertex 65535:
    # as large as an instance file may be (io_formats.MAX_VERTICES),
    # independent 1-sets under 1-TS, from the centre to the new vertex, two
    # slides apart. Every leaf is a candidate of the centre, so all 65,536
    # sets are built and scanned. A table of the n + 1 vertex suffixes,
    # built before the enumeration's first clock read, made this solve's
    # count run 2.7 s and peak at 1.1 GB on a 2-core Xeon VM.
    n = 65536
    g = new_graph(n, [(0, v) for v in range(1, n - 1)] + [(1, n - 1)])
    inst = ReconfigInstance(g, IS, frozenset({0}), frozenset({n - 1}), Rule(RuleKind.KTS, 1))
    began = time.monotonic()
    with pytest.raises(ResourceBudgetError):
        solve_exact(inst, want_shortest=True, budget=Budget(max_seconds=0.5))
    assert time.monotonic() - began < 0.5 + 1.0


@pytest.mark.parametrize(
    "n, edges, size",
    [(40, [], 2), (8193, [(0, v) for v in range(1, 8193)], 1)],
    ids=["780 pairs of 40 isolated vertices", "8,193 singletons of a star"],
)
def test_state_budget_bounds_the_flushed_completions(n, edges, size):
    # Each family is mostly completions of one-token-short sets, which the
    # enumeration flushes in bulk; they are charged before they are stored.
    with pytest.raises(ResourceBudgetError, match="state budget"):
        feasible_masks(new_graph(n, edges), IS, size, Budget(max_states=100))


def test_bulk_charge_reads_the_clock_when_it_crosses_a_multiple_of_4096():
    clock = exact._BudgetClock(Budget(max_seconds=1.0), time.monotonic() - 10.0)
    clock.charge(4000)  # no multiple of 4096 reached: no clock read
    with pytest.raises(ResourceBudgetError, match="time budget"):
        clock.charge(1000)  # 4000 -> 5000 steps over 4096 without landing on it


@pytest.mark.parametrize(
    "n, edges, size",
    [(8193, [(0, v) for v in range(1, 8193)], 1), (130, [], 2)],
    ids=["8,193 singletons of a star", "8,385 pairs of 130 isolated vertices"],
)
def test_building_a_kept_family_reads_the_clock_once_per_4096_sets(monkeypatch, n, edges, size):
    # Counting a block charges none of its sets; building them charges each
    # one and reads the clock as the list grows, whether one block holds the
    # sets or many short runs of them do.
    reads = []
    monkeypatch.setattr(exact._BudgetClock, "check_time", lambda self: reads.append(self))
    g = new_graph(n, edges)
    clock = exact._BudgetClock.begin(None)
    blocks = list(exact._independent_blocks(g, size, clock, g.full_mask))
    counted, before = clock.counted, len(reads)
    family = exact._block_sets(blocks, g.neighbor_masks, clock)
    assert len(family) == sum(count for count, *_ in blocks) == clock.counted - counted
    assert len(reads) - before >= len(family) // 4096


def test_counting_two_token_blocks_reads_the_clock_once_per_4096_candidates(monkeypatch):
    # The 8,193 vertices of the star are one two-token block, counted by one
    # popcount per candidate; only its node is charged.
    reads = []
    monkeypatch.setattr(exact._BudgetClock, "check_time", lambda self: reads.append(self))
    n = 8193
    g = new_graph(n, [(0, v) for v in range(1, n)])
    clock = exact._BudgetClock.begin(None)
    count, *_ = next(exact._independent_blocks(g, 2, clock, g.full_mask))
    assert count == (n - 1) * (n - 2) // 2 and clock.counted == 1
    assert len(reads) >= n // 4096


def test_one_scan_expansion_reads_the_clock_once_per_4096_sets(monkeypatch):
    # The 8,193 singletons of the star K_{1,8192} under 1-TJ: every set is
    # one jump from every other, and one expansion tests them all.
    reads = []
    monkeypatch.setattr(exact._BudgetClock, "check_time", lambda self: reads.append(self))
    n = 8193
    g = new_graph(n, [(0, v) for v in range(1, n)])
    clock = exact._BudgetClock.begin(None)
    family = exact._family(g, IS, 1, clock, g.full_mask)
    scan = exact._state_scan(family, exact._rule_adjacency(g, Rule(RuleKind.KTJ, 1), 1), clock)
    before = len(reads)
    assert len(scan(family[0], {family[0]: None})) == n - 1
    assert len(reads) - before >= n // 4096


@pytest.mark.parametrize(
    "n, edges",
    [(8193, [(0, v) for v in range(1, 8193)]), (3200, [])],
    ids=["star K_1,8192", "3,200 isolated vertices"],
)
def test_a_family_too_large_to_scan_is_not_charged_to_the_default_budget(n, edges):
    # Their 33.5M and 5.1M independent pairs exceed the default state budget;
    # counting them must not spend it, so the move generator decides both.
    inst = ReconfigInstance(
        new_graph(n, edges), IS, frozenset({1, 2}), frozenset({3, 4}), Rule(RuleKind.KTJ, 1)
    )
    result = solve_exact(inst, want_shortest=True)
    assert result.reachable
    assert [sorted(s) for s in result.shortest.steps] == [[1, 2], [1, 3], [3, 4]]


def _random_instance(n, seed, kind, rule_kind) -> ReconfigInstance | None:
    """Two random feasible sets of one size on a random graph, k up to their
    size; None when no size has two feasible sets."""
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.1, 0.7))
    families = [f for f in (feasible_masks(g, kind, size) for size in range(1, n + 1)) if len(f) > 1]
    if not families:
        return None
    family = rng.choice(families)
    size = family[0].bit_count()
    start, target = (mask_to_set(m) for m in rng.sample(family, 2))
    return ReconfigInstance(g, kind, start, target, Rule(rule_kind, rng.randint(1, size)))


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([IS, VC]),
    st.sampled_from([RuleKind.KTJ, RuleKind.KTS]),
)
@settings(max_examples=150, deadline=None)
def test_block_counts_decide_the_source_and_give_the_first_sets(n, seed, kind, rule_kind):
    # _family keeps the family iff it holds at most `cap` sets and walking
    # it charges at most `nodes` DFS nodes, and the callers that want one
    # set get the family's first.
    inst = _random_instance(n, seed, kind, rule_kind)
    if inst is None:
        return
    g, size = inst.graph, len(inst.start)
    family = feasible_masks(g, kind, size)
    cap = 2 * exact._move_estimate(inst, g.full_mask)
    for limit in (cap, 0, len(family) - 1, len(family)):
        within = exact._family(g, kind, size, exact._BudgetClock.begin(None), g.full_mask, limit)
        assert within == (None if len(family) > limit else family)
    walk = exact._BudgetClock.begin(None)
    list(exact._independent_blocks(g, n - size if kind is VC else size, walk, g.full_mask))
    for nodes in (0, walk.counted - 1, walk.counted, cap // exact._COUNT_SHARE):
        clock = exact._BudgetClock.begin(None)
        within = exact._family(g, kind, size, clock, g.full_mask, nodes=nodes)
        assert within == (None if walk.counted > nodes else family)
        assert within is not None or clock.counted == min(walk.counted, nodes + 1)
    clock = exact._BudgetClock.begin(None)
    for t in range(n + 2):
        sets = feasible_masks(g, IS, t) if t <= n else []
        assert exact._first_independent(g, t, clock, g.full_mask) == (sets[0] if sets else None)
    alpha = max(t for t in range(n + 1) if feasible_masks(g, IS, t))
    assert max_independent_set(g) == mask_to_set(feasible_masks(g, IS, alpha)[0])


@given(st.integers(min_value=0, max_value=14), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_cover_families_within_a_mask_are_the_sorted_complements(n, seed):
    # _family lists the covers inside a mask as the complements of the
    # independent sets in reverse; the reference sorts the complements.
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.05, 0.7))
    within = _random_mask(rng, g)
    clock = exact._BudgetClock.begin(None)
    for size in range(within.bit_count() + 1):
        independent = exact._family(g, IS, within.bit_count() - size, clock, within)
        complements = [within ^ m for m in independent]
        want = sorted(complements, key=exact._set_sort_key, reverse=True)
        assert exact._family(g, VC, size, clock, within) == want


def _generator(inst, clock=None):
    """The move generator of the whole instance, on `clock` or a fresh one."""
    return exact._move_generator(inst, inst.graph.full_mask, clock or exact._BudgetClock.begin(None))


def _sources(inst):
    size = len(inst.start)
    states = feasible_masks(inst.graph, inst.kind, size)
    return {
        "scan": exact._state_scan(
            states, exact._rule_adjacency(inst.graph, inst.rule, size), exact._BudgetClock.begin(None)
        ),
        "moves": _generator(inst),
    }


def _bfs(source, neighbours, clock, target=None):
    """Reference search: BFS from `source` alone, stopping after the
    expansion that reaches `target`. Frontier states are expanded in order,
    each appending its new neighbours best first, and the budget is charged
    once per expansion.

    Returns (parent map over reached states, number of expanded states).
    """
    parent = {source: None}
    frontier = [source]
    expanded = 0
    while frontier and (target is None or target not in parent):
        next_frontier = []
        for a in frontier:
            expanded += 1
            clock.charge()
            clock.check_time()
            for b in neighbours(a, parent):
                parent[b] = a
                next_frontier.append(b)
            if target is not None and target in parent:
                break
        frontier = next_frontier
    return parent, expanded


def _one_sided(inst, neighbours) -> SolveResult:
    """Reference search: BFS from the start alone, up to the target."""
    target = set_to_mask(inst.target)
    clock = exact._BudgetClock.begin(None)
    parent, expanded = _bfs(set_to_mask(inst.start), neighbours, clock, target=target)
    if target not in parent:
        return SolveResult(False, None, expanded)
    return SolveResult(True, exact._chain(parent, target), expanded)


@given(
    st.integers(min_value=1, max_value=11),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([IS, VC]),
    st.sampled_from([RuleKind.KTJ, RuleKind.KTS]),
)
@settings(max_examples=300, deadline=None)
def test_move_generator_matches_state_scan(n, seed, kind, rule_kind):
    inst = _random_instance(n, seed, kind, rule_kind)
    if inst is None:
        return
    sources = _sources(inst)
    clock = exact._BudgetClock.begin(None)
    for search in (_one_sided, _both_ends):
        solved = {name: search(inst, neighbours) for name, neighbours in sources.items()}
        assert solved["moves"] == solved["scan"]  # verdict, every step, explored_states
    # Without a target, the whole BFS tree of the start's component agrees.
    start = set_to_mask(inst.start)
    trees = {name: _bfs(start, neighbours, clock) for name, neighbours in sources.items()}
    assert trees["moves"] == trees["scan"]


def _both_ends(inst, neighbours=None, clock=None) -> SolveResult:
    """Search from both ends, pricing an expansion at the move estimate as
    solve_exact does on its generator path, whichever the neighbour source."""
    clock = clock or exact._BudgetClock.begin(None)
    neighbours = neighbours or _generator(inst, clock)
    adjacent = exact._rule_adjacency(inst.graph, inst.rule, len(inst.start))
    return exact._search_both_ends(
        set_to_mask(inst.start), set_to_mask(inst.target), neighbours, adjacent,
        exact._move_estimate(inst, inst.graph.full_mask), clock, want_shortest=True,
    )


def _full_level_both_ends(source, target, neighbours, clock):
    """Reference for _bfs_both_ends: the same two-ended BFS, but the level on
    which the sides meet is expanded in full, and its least meeting state
    wins."""
    parents = ({source: None}, {target: None})
    frontiers = [[source], [target]]
    clock.charge(2)
    expanded = 0
    while frontiers[0] and frontiers[1]:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        mine, other = parents[side], parents[1 - side]
        level = []
        meets = []
        for a in frontiers[side]:
            expanded += 1
            clock.check_time()
            for b in neighbours(a, mine):
                mine[b] = a
                clock.charge()
                level.append(b)
                if b in other:
                    meets.append(b)
        if meets:
            return max(meets, key=exact._set_sort_key), parents[0], parents[1], expanded
        frontiers[side] = level
    return None, parents[0], parents[1], expanded


def _against_full_level(inst, neighbours, adjacent, cost) -> tuple[int, int]:
    """Search inst with _bfs_both_ends and with the reference; both find the
    same meet with the same two parent chains, and with no meet they are
    the same search. Returns both numbers of expanded states."""
    ends = set_to_mask(inst.start), set_to_mask(inst.target)
    clock, ref_clock = exact._BudgetClock.begin(None), exact._BudgetClock.begin(None)
    meet, *got, expanded = exact._bfs_both_ends(*ends, neighbours, adjacent, cost, clock)
    ref_meet, *ref, ref_expanded = _full_level_both_ends(*ends, neighbours, ref_clock)
    assert meet == ref_meet
    if meet is None:
        assert (got, expanded) == (ref, ref_expanded)
    for parents, ref_parents in zip(got, ref):
        assert meet is None or exact._chain(parents, meet) == exact._chain(ref_parents, meet)
    return expanded, ref_expanded


@given(
    st.integers(min_value=1, max_value=11),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([IS, VC]),
    st.sampled_from([RuleKind.KTJ, RuleKind.KTS]),
    st.sampled_from(["scan", "moves"]),
    st.sampled_from([0, 1, 2, 4, None]),
)
@settings(max_examples=400, deadline=None)
def test_search_from_both_ends_matches_full_level_reference(n, seed, kind, rule_kind, source, cost):
    # cost None is solve_exact's price of an expansion for the source (|F|
    # for the scan, the move estimate for the generator); small costs make
    # the meeting level fall back to expansions.
    inst = _random_instance(n, seed, kind, rule_kind)
    if inst is None:
        return
    size = len(inst.start)
    if cost is None:
        if source == "scan":
            cost = len(feasible_masks(inst.graph, kind, size))
        else:
            cost = exact._move_estimate(inst, inst.graph.full_mask)
    adjacent = exact._rule_adjacency(inst.graph, inst.rule, size)
    expanded, ref_expanded = _against_full_level(inst, _sources(inst)[source], adjacent, cost)
    assert expanded <= ref_expanded


@given(
    st.integers(min_value=1, max_value=11),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([IS, VC]),
    st.sampled_from([RuleKind.KTJ, RuleKind.KTS]),
)
@settings(max_examples=300, deadline=None)
def test_search_from_both_ends_matches_state_scan(n, seed, kind, rule_kind):
    # k ranges up to |S|, so k-TS cases slide three or more tokens at once
    # and go through the matching test.
    inst = _random_instance(n, seed, kind, rule_kind)
    if inst is None:
        return
    scan = _one_sided(inst, _sources(inst)["scan"])
    both = _both_ends(inst)
    assert both.reachable == scan.reachable
    if scan.reachable:
        assert both.shortest.length == scan.shortest.length
        assert verify_sequence(inst, both.shortest).accepted
    assert _both_ends(inst) == both  # deterministic, explored_states included


def test_slides_need_hall_condition():
    cases = [
        # Conflicts c(3) = c(4) = {0} and c(5) = {1, 2}: together they hold
        # three tokens, but 3 and 4 compete for token 0, so {0, 1, 2} ->
        # {3, 4, 5} is a 3-TJ move and no 3-TS move; under 3-TS the target is
        # unreachable. From the start the k-TS cut drops the prefix {3, 4};
        # the search from the target end is what reaches the matching test,
        # where c(1) = c(2) = {5} leave the group {0, 1, 2} no perfect
        # matching onto its conflicts {3, 4, 5}.
        (6, [(0, 3), (0, 4), (1, 5), (2, 5)], 0b000111, 0b111000, 3),
        # c(4) = {2, 3} and c(5) = c(6) = c(7) = {0, 1}: every prefix of
        # {4, 5, 6, 7} keeps enough conflicts and every pair meets Hall's
        # condition, so only the matching test on the whole group, where
        # {5, 6, 7} share the two tokens 0 and 1, shows that
        # {0, 1, 2, 3} -> {4, 5, 6, 7} is no 4-TS move.
        (8, [(4, 2), (4, 3)] + [(v, u) for v in (5, 6, 7) for u in (0, 1)], 0b1111, 0b11110000, 4),
    ]
    for n, edges, start, target, k in cases:
        g = new_graph(n, edges)
        for rule_kind, reachable in ((RuleKind.KTJ, True), (RuleKind.KTS, False)):
            inst = ReconfigInstance(
                g, IS, mask_to_set(start), mask_to_set(target), Rule(rule_kind, k)
            )
            assert (target in _generator(inst)(start, {})) == reachable
            assert _both_ends(inst).reachable == solve_exact(inst).reachable == reachable


def test_group_cut_counts_conflicts_against_min_k_t():
    # Path 0-1-2 plus vertex 3, from {0, 2} to {1, 3}: candidate 1 has two
    # conflicts, so the group {1} is no move, but {1, 3} is. A build that cut
    # a group once its conflicts exceed its size would lose that move.
    for rule_kind, edges in ((RuleKind.KTJ, [(0, 1), (1, 2)]), (RuleKind.KTS, [(0, 1), (1, 2), (0, 3)])):
        inst = ReconfigInstance(
            new_graph(4, edges), IS, frozenset({0, 2}), frozenset({1, 3}), Rule(rule_kind, 2)
        )
        assert 0b1010 in _generator(inst)(0b0101, {})


@given(
    st.integers(min_value=1, max_value=11),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([IS, VC]),
    st.sampled_from([RuleKind.KTJ, RuleKind.KTS]),
)
@settings(max_examples=300, deadline=None)
def test_move_generator_lists_unvisited_neighbours_once_in_order(n, seed, kind, rule_kind):
    # One expansion against a random visited map: exactly the scan's
    # neighbours outside the map, each once, largest _set_sort_key first.
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.1, 0.7))
    families = [f for f in (feasible_masks(g, kind, size) for size in range(1, n + 1)) if len(f) > 1]
    if not families:
        return
    family = rng.choice(families)
    size = family[0].bit_count()
    state, other = rng.sample(family, 2)
    rule = Rule(rule_kind, rng.randint(1, size))
    inst = ReconfigInstance(g, kind, mask_to_set(state), mask_to_set(other), rule)
    visited = {m: None for m in family if rng.random() < 0.3}
    adjacent = exact._rule_adjacency(g, rule, size)
    scan = exact._state_scan(family, adjacent, exact._BudgetClock.begin(None))(state, {state: None})
    got = _generator(inst)(state, visited)
    assert got == [b for b in scan if b not in visited]
    assert len(set(got)) == len(got)
    assert got == sorted(got, key=exact._set_sort_key, reverse=True)


def _prism_instance() -> ReconfigInstance:
    # Prism C10 x K2 (cubic, 20 vertices), independent 4-sets under 1-TJ.
    edges = [(i, (i + 1) % 10) for i in range(10)]
    edges += [(10 + i, 10 + (i + 1) % 10) for i in range(10)] + [(i, 10 + i) for i in range(10)]
    return ReconfigInstance(
        new_graph(20, edges), IS, frozenset({0, 2, 4, 6}), frozenset({11, 13, 15, 17}),
        Rule(RuleKind.KTJ, 1),
    )


def test_generator_path_counts_only_part_of_the_family():
    # On the 6 x 6 grid under 4-TS the count stops after a sixteenth of the
    # move estimate in DFS nodes, far short of the family, so the charges of
    # one full enumeration pay for the whole solve, search included.
    inst = _grid_instance(Rule(RuleKind.KTS, 4))
    clock = exact._BudgetClock.begin(None)
    exact._family(inst.graph, IS, 9, clock, inst.graph.full_mask)
    assert clock.counted > exact._move_estimate(inst, inst.graph.full_mask) // exact._COUNT_SHARE
    res = solve_exact(inst, want_shortest=True, budget=Budget(max_states=clock.counted))
    assert res.reachable and verify_sequence(inst, res.shortest).accepted


def test_search_from_both_ends_charges_every_stored_state():
    inst = _prism_instance()
    source, target = set_to_mask(inst.start), set_to_mask(inst.target)
    adjacent = exact._rule_adjacency(inst.graph, inst.rule, len(inst.start))
    cost = exact._move_estimate(inst, inst.graph.full_mask)
    clock = exact._BudgetClock.begin(None)
    meet, from_source, from_target, _ = exact._bfs_both_ends(
        source, target, _generator(inst, clock), adjacent, cost, clock
    )
    stored = len(from_source) + len(from_target)
    assert meet is not None and len(from_source) > 1 and len(from_target) > 1
    assert clock.counted == stored
    short = exact._BudgetClock.begin(Budget(max_states=stored - 1))
    with pytest.raises(ResourceBudgetError):
        exact._bfs_both_ends(source, target, _generator(inst, short), adjacent, cost, short)


def test_meeting_level_expands_where_the_better_states_outnumber_its_cost():
    # On the prism the target's frontier holds more states that beat the
    # first meet than the 13 adjacency tests an expansion is worth: testing
    # every remaining start-side state against them all took up to 23 tests
    # a state. Such states are expanded, never more of them than the
    # reference expands, and the meet and both chains stay the same.
    inst = _prism_instance()
    rule_adjacency = exact._rule_adjacency(inst.graph, inst.rule, len(inst.start))
    tests: dict[int, int] = {}

    def adjacent(a, b):
        tests[a] = tests.get(a, 0) + 1
        return rule_adjacency(a, b)

    moves, cost = _generator(inst), exact._move_estimate(inst, inst.graph.full_mask)
    expanded, ref_expanded = _against_full_level(inst, moves, adjacent, cost)
    assert expanded <= ref_expanded
    assert max(tests.values(), default=0) <= cost


def _picked_source(monkeypatch, inst) -> list[str]:
    """The family count, if any, and the neighbour source of a solve."""
    picked: list[str] = []
    for name in ("_family", "_move_generator", "_state_scan"):

        def spy(*args, _real=getattr(exact, name), _name=name):
            picked.append(_name)
            return _real(*args)

        monkeypatch.setattr(exact, name, spy)
    res = solve_exact(inst, want_shortest=True)
    assert res.reachable and verify_sequence(inst, res.shortest).accepted
    return picked


def test_solve_exact_generates_moves_on_sparse_k1(monkeypatch):
    # Prism C10 x K2 (cubic, 20 vertices): 13 of the 16 vertices outside
    # {0, 2, 4, 6} have at most one conflict, so 13 groups per state, and a
    # sixteenth of that is below the 20 vertices a count would walk: no
    # count at all.
    assert _picked_source(monkeypatch, _prism_instance()) == ["_move_generator"]


def test_solve_exact_generates_moves_on_planted_cubic_k2(monkeypatch):
    # Built like the k = 2 YES instances of the benchmark: S = 0..5 and
    # T = 6..11 matched by S_i - T_i, each of them joined to two of the
    # vertices 12..19, which get three such edges each: a cubic graph. All
    # 14 vertices outside S have at most two conflicts, so 14 + 91 = 105
    # candidate groups, and 105 // 16 = 6 is below the 20 vertices: the
    # 1,600 independent 6-sets are not counted.
    edges = [(i, 6 + i) for i in range(6)]
    edges += [(u, 12 + u % 8) for u in range(12)] + [(u, 12 + (u + 4) % 8) for u in range(12)]
    inst = ReconfigInstance(
        new_graph(20, edges), IS, frozenset(range(6)), frozenset(range(6, 12)), Rule(RuleKind.KTJ, 2)
    )
    assert _picked_source(monkeypatch, inst) == ["_move_generator"]


def test_solve_exact_generates_moves_after_a_capped_count(monkeypatch):
    # The 6 x 6 grid under 8-TS: the count may charge 79,476 DFS nodes, a
    # sixteenth of the 1,271,625 groups, and stops there, short of the
    # family, which it walked whole before.
    assert _picked_source(monkeypatch, _grid_instance(Rule(RuleKind.KTS, 8))) == [
        "_family", "_move_generator"
    ]


def test_solve_exact_estimates_without_enumerating_groups(monkeypatch):
    # Path P40 plus a K10 whose vertices all see 0 and 1, independent 20-sets
    # under 19-TJ: 221 sets, and 30 candidates at each end give about 10^9
    # groups of up to 19, so the family is counted in full and scanned. The
    # estimate must count the groups, not list them.
    edges = [(i, i + 1) for i in range(39)]
    edges += [(40 + i, 40 + j) for i in range(10) for j in range(i + 1, 10)]
    edges += [(40 + i, v) for i in range(10) for v in (0, 1)]
    inst = ReconfigInstance(
        new_graph(50, edges), IS, frozenset(range(0, 40, 2)), frozenset(range(1, 40, 2)),
        Rule(RuleKind.KTJ, 19),
    )
    began = time.monotonic()
    assert _picked_source(monkeypatch, inst) == ["_family", "_state_scan"]
    assert time.monotonic() - began < 2.0


def test_solve_exact_generates_moves_on_dense_k2(monkeypatch):
    # Complement of the square of C9, each vertex adjacent to the four at
    # cyclic distance 3 or 4: only the 9 runs {i, i + 1, i + 2} are
    # independent 3-sets, and {0, 1, 2} has 4 + 6 = 10 candidate groups
    # (its candidates 3, 4, 7 and 8 have at most two conflicts). A count
    # of the 9 sets would cost more than the 10 groups are worth, so moves
    # are generated. {0, 1, 2} and {4, 5, 6} share no vertex, so they are
    # no 2-TJ move, and {2, 3, 4} lies between them.
    n = 9
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if min(v - u, n - v + u) > 2]
    inst = ReconfigInstance(
        new_graph(n, edges), IS, frozenset({0, 1, 2}), frozenset({4, 5, 6}), Rule(RuleKind.KTJ, 2)
    )
    assert _picked_source(monkeypatch, inst) == ["_move_generator"]


def test_solve_exact_scans_a_small_dense_family(monkeypatch):
    # G(40, 0.7) from seed 174, independent 4-sets under 3-TJ, from the
    # first to the last of its 37: the ends have 5,488 candidate groups, so
    # the count may charge 343 DFS nodes, and the family takes fewer.
    rng = random.Random(174)
    g = random_graph(rng, 40, 0.7)
    family = feasible_masks(g, IS, 4)
    inst = ReconfigInstance(
        g, IS, mask_to_set(family[0]), mask_to_set(family[-1]), Rule(RuleKind.KTJ, 3)
    )
    assert len(family) == 37
    assert exact._move_estimate(inst, g.full_mask) // exact._COUNT_SHARE >= g.vertex_count
    assert _picked_source(monkeypatch, inst) == ["_family", "_state_scan"]


@given(
    st.integers(min_value=0, max_value=8).flatmap(
        lambda size: st.lists(
            st.frozensets(st.integers(min_value=0, max_value=80), min_size=size, max_size=size),
            min_size=2, max_size=20,
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_set_sort_key_orders_equal_size_sets_by_vertex_list(sets):
    masks = [set_to_mask(s) for s in sets]
    by_key = sorted(masks, key=exact._set_sort_key, reverse=True)
    assert by_key == sorted(masks, key=lambda m: tuple(iter_bits(m)))


def test_optima(c4, k4):
    assert len(max_independent_set(c4)) == 2 and len(min_vertex_cover(c4)) == 2
    assert len(max_independent_set(k4)) == 1 and len(min_vertex_cover(k4)) == 3
    edgeless = new_graph(5, [])
    assert len(max_independent_set(edgeless)) == 5
    assert min_vertex_cover(edgeless) == frozenset()


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_max_independent_set_is_the_lexicographically_first_maximum(n, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.05, 0.9))
    alpha = max(size for size in range(n + 1) if brute_feasible(g, IS, size))
    assert max_independent_set(g) == min(brute_feasible(g, IS, alpha), key=sorted)


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


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda g: feasible_masks(g, IS, 5), "size 5 out of range"),
        (lambda g: feasible_masks(g, VC, -1), "size -1 out of range"),
        (lambda g: solve_tar_maxmin(g, frozenset({0, 1}), frozenset({0, 2})),
         "i is not an independent set"),
        (lambda g: solve_tar_maxmin(g, frozenset({0, 2}), frozenset({0, 1})),
         "j is not an independent set"),
        (lambda g: solve_tar_minmax(g, frozenset({0}), frozenset({0, 2})),
         "s is not a vertex cover"),
    ],
    ids=["enumerate-above-n", "enumerate-negative", "tar-i", "tar-j", "tar-cover"],
)
def test_input_checks(c4, call, match):
    with pytest.raises(PreconditionError, match=match):
        call(c4)


TAR_SOLVERS = ((IS, solve_tar_maxmin, is_independent_set), (VC, solve_tar_minmax, is_vertex_cover))


def _check_tar_result(g, kind, feasible, s, t, res):
    assert res.witness.steps[0] == s and res.witness.steps[-1] == t
    assert all(feasible(g, x) for x in res.witness)
    bound = {"lower": res.value} if kind is IS else {"upper": res.value}
    _check_tar_witness(res.witness, **bound)


@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=80, deadline=None)
def test_tar_solvers_match_brute_force_reference(n, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.2, 0.8))
    for kind, solve, feasible in TAR_SOLVERS:
        family = [x for size in range(n + 1) for x in brute_feasible(g, kind, size)]
        s, t = rng.choice(family), rng.choice(family)
        res = solve(g, s, t)
        assert res.value == brute_tar(g, kind, s, t)
        _check_tar_result(g, kind, feasible, s, t, res)


def _tar_by_one_sided_bfs(g, i, j, clock) -> tuple[int, ReconfigSequence]:
    """Reference for solve_tar_maxmin: for each floor theta from
    min(|i|, |j|) down, a BFS from i alone over _tar_moves, on one clock
    charged per expansion. Returns the value and a shortest witness."""
    im, jm = set_to_mask(i), set_to_mask(j)
    for theta in range(min(len(i), len(j)), -1, -1):
        parent, _ = _bfs(im, exact._tar_moves(g, theta), clock, target=jm)
        if jm in parent:
            return theta, exact._chain(parent, jm)
    raise AssertionError("theta = 0 always connects")


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_tar_solvers_match_one_sided_reference_per_theta(n, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.1, 0.8))
    for kind, solve, feasible in TAR_SOLVERS:
        family = [mask_to_set(m) for size in range(n + 1) for m in feasible_masks(g, kind, size)]
        s, t = rng.choice(family), rng.choice(family)
        res = solve(g, s, t)
        clock = exact._BudgetClock.begin(None)
        if kind is IS:
            value, witness = _tar_by_one_sided_bfs(g, s, t, clock)
        else:  # covers are independent sets on the complements
            dual, witness = _tar_by_one_sided_bfs(g, complement_set(g, s), complement_set(g, t), clock)
            value = n - dual
        assert res.value == value
        assert res.witness.length == witness.length
        _check_tar_result(g, kind, feasible, s, t, res)


def test_tar_budget_counts_stored_states(monkeypatch):
    # C6 from the even to the odd vertices has value 1, after the searches
    # at floors 3 and 2 fail. TAR stores more states than the one-sided
    # reference expands, and the budget is charged per stored state, so a
    # state budget equal to the reference's expansions stops it.
    g = new_graph(6, [(v, (v + 1) % 6) for v in range(6)])
    i, j = frozenset({0, 2, 4}), frozenset({1, 3, 5})
    clock = exact._BudgetClock.begin(None)
    assert _tar_by_one_sided_bfs(g, i, j, clock)[0] == 1
    expansions = clock.counted
    stored: list[int] = []
    searched = exact._bfs_both_ends

    def spy(*args):
        found = searched(*args)
        stored.append(len(found[1]) + len(found[2]))
        return found

    monkeypatch.setattr(exact, "_bfs_both_ends", spy)
    assert solve_tar_maxmin(g, i, j).value == 1
    assert len(stored) == 3 and expansions < sum(stored)
    with pytest.raises(ResourceBudgetError):
        solve_tar_maxmin(g, i, j, Budget(max_states=expansions))
    assert solve_tar_maxmin(g, i, j, Budget(max_states=sum(stored))).value == 1


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


def _classes_by_one_sided_bfs(g, kind, size, rule) -> dict:
    """Reference for reachability_classes: a one-sided BFS over the
    unlabelled sets from the first of them labels each class in turn."""
    adjacent = exact._rule_adjacency(g, rule, size)
    clock = exact._BudgetClock.begin(None)
    labels = {}
    unvisited = feasible_masks(g, kind, size)
    number = 0
    while unvisited:
        parent, _ = _bfs(unvisited[0], exact._state_scan(unvisited, adjacent, clock), clock)
        labels.update((mask_to_set(m), number) for m in parent)
        unvisited = [m for m in unvisited if m not in parent]
        number += 1
    return labels


@given(
    st.integers(min_value=1, max_value=11),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([IS, VC]),
    st.sampled_from([RuleKind.KTJ, RuleKind.KTS]),
)
@settings(max_examples=200, deadline=None)
def test_reachability_classes_match_one_sided_bfs_labelling(n, seed, kind, rule_kind):
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.1, 0.7))
    sizes = [size for size in range(1, n + 1) if len(feasible_masks(g, kind, size)) > 1]
    if not sizes:
        return
    size = rng.choice(sizes)
    rule = Rule(rule_kind, rng.randint(1, size))
    assert reachability_classes(g, kind, size, rule) == _classes_by_one_sided_bfs(g, kind, size, rule)


def test_one_labelling_expansion_reads_the_clock_once_per_4096_pair_tests(monkeypatch):
    # An isolated vertex 0 and the star K_{1,8192}, singletons under 1-TS:
    # {0} comes first and slides nowhere, so its one expansion tests all
    # 8,193 other sets and labels none of them, which charges nothing; then
    # the star's centre labels its leaves.
    tests, reads = [], []
    real = exact._rule_adjacency

    def counted(*args):
        adjacent = real(*args)

        def test(a, b):
            tests.append(None)
            return adjacent(a, b)

        return test

    monkeypatch.setattr(exact, "_rule_adjacency", counted)
    monkeypatch.setattr(exact._BudgetClock, "check_time", lambda self: reads.append(len(tests)))
    n = 8194
    g = new_graph(n, [(1, v) for v in range(2, n)])
    labels = reachability_classes(g, IS, 1, Rule(RuleKind.KTS, 1))
    assert labels[frozenset({0})] == 0 and set(labels.values()) == {0, 1}
    assert len(tests) == (n - 1) + (n - 2)
    # Between two clock reads, and after the last one, at most 4096 tests.
    gaps = [b - a for a, b in zip(reads, reads[1:] + [len(tests)])]
    assert max(gaps) <= 4096
    # After the last test, the n labelled masks are turned into sets in
    # parts of 4096, with a clock read before each.
    assert reads.count(len(tests)) == -(-n // 4096)


def test_reachability_classes_charge_one_state_per_labelled_set():
    g = new_graph(8, [(v, (v + 1) % 8) for v in range(8)])
    rule = Rule(RuleKind.KTJ, 1)
    clock = exact._BudgetClock.begin(None)
    family = exact._family(g, IS, 3, clock, g.full_mask)
    limit = clock.counted + len(family)
    assert len(reachability_classes(g, IS, 3, rule, Budget(max_states=limit))) == len(family)
    with pytest.raises(ResourceBudgetError):
        reachability_classes(g, IS, 3, rule, Budget(max_states=limit - 1))
