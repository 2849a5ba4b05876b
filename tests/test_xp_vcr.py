import contextlib
import gc
import itertools
import random
import time
import tracemalloc
import weakref
from math import comb
from unittest.mock import patch

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
    with pytest.raises(PreconditionError, match="s does not cover G - "):
        clique_edge_oracle(c4, {2}, {2}, 2, {1}, T24)
    with pytest.raises(PreconditionError, match="t does not cover G - "):
        clique_edge_oracle(c4, {2}, {2}, 2, S13, {1})
    # Z = {3}: s = {1} covers C4 - Z, the path 0-1-2, though not C4 itself.
    assert clique_edge_oracle(c4, {3}, {3}, 2, {1}, T24)


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
            # A fresh labelling completed as a NO query completes it.
            state = xp._Labelling()
            clock = xp._BudgetClock.begin(None)
            decide = xp._decider(g, set_to_mask(s), set_to_mask(t), mu, clock)
            nodes = state.nodes(g, mu, decide, clock)
            state.label_all(nodes, decide, clock)
            roots = {v: state.find(v) for v in nodes}
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


def _counting_decisions(monkeypatch) -> list:
    calls = []
    counted = xp._accepting_guess

    def counting(*args):
        calls.append(args)
        return counted(*args)

    monkeypatch.setattr(xp, "_accepting_guess", counting)
    return calls


def _patched_clock(reads: list, cut_at: int | None = None):
    """Patch the budget clock to note each read in reads and to raise
    ResourceBudgetError at read number cut_at."""

    def check_time(self):
        reads.append(None)
        if len(reads) == cut_at:
            raise ResourceBudgetError("interrupted")

    return patch.object(xp._BudgetClock, "check_time", check_time)


def _cold(g, s, t, mu):
    g.xp_labellings.clear()
    return xp_vcr_solve(g, s, t, mu)


def _k34_plus_edge_answers():
    """K_{3,4} with sides {2, 4, 6} and {0, 1, 3, 5} plus the edge 2-4, covers
    of size 5 and mu = 4: the graph and the cold answer for each of the 64
    ordered cover pairs, 24 of them NO."""
    g = new_graph(7, [(a, b) for a in (2, 4, 6) for b in (0, 1, 3, 5)] + [(2, 4)])
    covers = brute_feasible(g, VC, 5)
    return g, {(s, t): _cold(g, s, t, 4) for s in covers for t in covers}


def test_warm_answers_equal_cold_answers(monkeypatch):
    calls = _counting_decisions(monkeypatch)
    g, cold = _k34_plus_edge_answers()
    assert list(cold.values()).count(False) == 24
    # A NO completes the labelling; a YES that needs a decision leaves it
    # partial.
    no_pair = next(p for p, yes in cold.items() if not yes)
    yes_pair = next(p for p, yes in cold.items() if yes and len(p[0] & p[1]) < 4)
    for first in (no_pair, yes_pair):
        for (s, t), want in cold.items():
            calls.clear()
            _cold(g, *first, 4)
            assert calls
            assert g.xp_labellings[5, 4].complete == (first == no_pair)
            calls.clear()
            assert xp_vcr_solve(g, s, t, 4) == want, (first, s, t)
            if first == no_pair:
                assert not calls  # a complete labelling answers alone


def test_every_interruption_leaves_a_usable_cache():
    # A cold NO query reads the clock once per node of the coverable pass
    # and once per BFS pop. Cut it at each of those reads in turn: whatever
    # it stored by then must answer every later query right.
    g, cold = _k34_plus_edge_answers()
    no_pair = next(p for p, yes in cold.items() if not yes)
    reads: list = []
    with _patched_clock(reads):
        _cold(g, *no_pair, 4)
    assert len(reads) > comb(7, 4)  # the coverable pass, then the BFS pops
    for cut_at in range(1, len(reads) + 1):
        g.xp_labellings.clear()
        with _patched_clock([], cut_at), pytest.raises(ResourceBudgetError):
            xp_vcr_solve(g, *no_pair, 4)
        for (s, t), want in cold.items():
            assert xp_vcr_solve(g, s, t, 4) == want, (cut_at, s, t)


def _reference_answers(g, size, mu):
    """{(s, t): reachable} for every ordered pair of size-`size` covers that
    share fewer than mu vertices (the others are adjacent), from the
    components of the explicit cover graph under k-TJ with k = size - mu."""
    covers = brute_feasible(g, VC, size)
    label = list(range(len(covers)))
    for i, j in itertools.combinations(range(len(covers)), 2):
        if len(covers[i] & covers[j]) >= mu:
            old, new = label[j], label[i]
            label = [new if x == old else x for x in label]
    return {
        (covers[i], covers[j]): label[i] == label[j]
        for i in range(len(covers))
        for j in range(len(covers))
        if len(covers[i] & covers[j]) < mu
    }


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=100, deadline=None)
def test_query_sequence_shares_the_cache(n, seed, cut_at):
    # Random queries of two (cover size, mu) on one graph share the cache.
    # One of the first three is cut at a clock read, picked from a dry run
    # that counts its reads, and asked again right after; every answer,
    # before and after the cut, is right.
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.uniform(0.2, 0.8))
    refs = {}
    for size in range(2, n + 1):
        for mu in range(1, size):
            answers = _reference_answers(g, size, mu)
            if answers:
                refs[size, mu] = answers
    if not refs:
        return
    # The cut query is a NO where the graph has one: a NO labels the whole
    # compressed graph, so the cut can fall in any stage.
    with_no = [key for key in refs if not all(refs[key].values())]
    cut_key = rng.choice(with_no or list(refs))
    keys = [cut_key, rng.choice(list(refs))]
    queries = []
    for _ in range(12):
        key = rng.choice(keys)
        queries.append((key, rng.choice(list(refs[key]))))
    cut = rng.randrange(3)
    pairs = [p for p, yes in refs[cut_key].items() if not yes] or list(refs[cut_key])
    queries[cut] = (cut_key, rng.choice(pairs))

    def ask(i):
        (size, mu), (s, t) = queries[i]
        assert xp_vcr_solve(g, s, t, mu) == refs[size, mu][s, t], (i, cut, s, t, mu)

    g.xp_labellings.clear()
    for i in range(cut + 1):
        with _patched_clock(reads := []):
            ask(i)
    g.xp_labellings.clear()
    for i in range(cut):
        ask(i)
    (size, mu), (s, t) = queries[cut]
    with _patched_clock([], 1 + cut_at % len(reads) if reads else None):
        with contextlib.suppress(ResourceBudgetError):
            xp_vcr_solve(g, s, t, mu)
    for i in range(cut, len(queries)):
        ask(i)


def test_cold_yes_stops_at_the_anchor_edge(monkeypatch):
    # C32 with mu = 3, s = evens + {1}, t = odds + {0}, relabelled so that
    # 30 comes third: the anchors are then {0, 1, 30} and {0, 1, 3}, which
    # the cover {0, 1, 3, 4, 6, ..., 30} of size 17 contains. One decision
    # joins them, and the coverable pass, which reads the clock per node,
    # never starts. (Unrelabelled, the anchors {0, 1, 2} and {0, 1, 3} lie
    # in no such cover, and the BFS has to run.)
    n = 32
    order = [0, 1, 30, 3] + [v for v in range(n) if v not in (0, 1, 30, 3)]
    label = {v: i for i, v in enumerate(order)}
    g = new_graph(n, [(label[i], label[(i + 1) % n]) for i in range(n)])
    s = frozenset(label[v] for v in range(0, n, 2)) | {label[1]}
    t = frozenset(label[v] for v in range(1, n, 2)) | {label[0]}
    calls = _counting_decisions(monkeypatch)
    reads: list = []
    with _patched_clock(reads):
        assert _cold(g, s, t, 3)
    assert len(calls) == 1 and not reads
    assert g.xp_labellings[17, 3].coverable is None


def test_cold_yes_finds_an_edge_between_the_cliques(monkeypatch):
    # Unrelabelled C32 with mu = 3, s = evens + {1}, t = odds + {0}: the
    # anchors {0, 1, 2} and {0, 1, 3} share no cover, but {0, 1, 4} in s and
    # {0, 1, 3} in t do. The tries hold s & t = {0, 1}; the 15 with 2 fail
    # (each leaves too short a path behind 2; the first is the anchor edge
    # again, from the memo), and the first with 4 joins the cliques:
    # 1 + 14 + 1 decisions, and the coverable pass over the 4,960 nodes
    # never starts.
    n = 32
    g = new_graph(n, [(i, (i + 1) % n) for i in range(n)])
    s = frozenset(range(0, n, 2)) | {1}
    t = frozenset(range(1, n, 2)) | {0}
    calls = _counting_decisions(monkeypatch)
    assert _cold(g, s, t, 3)
    assert len(calls) == 16
    assert g.xp_labellings[17, 3].coverable is None


def test_clique_tries_cost_a_no_nothing(monkeypatch):
    # A NO pops every node of the first anchor's component against every
    # node of the second's, so it decides each union across the two cliques
    # anyway: without the tries, every cold NO makes as many decisions.
    g, cold = _k34_plus_edge_answers()
    calls = _counting_decisions(monkeypatch)
    tried = 0
    for (s, t), yes in cold.items():
        if yes:
            continue
        tried += len(set(xp._cross_unions(set_to_mask(s), set_to_mask(t), 4)))
        calls.clear()
        _cold(g, s, t, 4)
        with_tries = len(calls)
        with patch.object(xp, "_cross_unions", lambda *args: iter(())):
            calls.clear()
            _cold(g, s, t, 4)
        assert with_tries == len(calls), (s, t)
    assert tried > 24  # more than the anchor edge of each NO pair


def test_warm_yes_joins_the_seen_covers(monkeypatch):
    # The size-mu subsets of a cover form a clique, so a cover that shares
    # mu vertices with one seen on the same key lies in its class. After
    # the cold YES between evens + {1} and odds + {0} on C12 with mu = 3,
    # whichever route it took, evens + {5} and odds + {8} share six
    # vertices with those covers: the cache answers with no decision and
    # no clock read.
    n = 12
    g = new_graph(n, [(i, (i + 1) % n) for i in range(n)])
    evens, odds = frozenset(range(0, n, 2)), frozenset(range(1, n, 2))
    assert _cold(g, evens | {1}, odds | {0}, 3)
    calls = _counting_decisions(monkeypatch)
    reads: list = []
    with _patched_clock(reads):
        assert xp_vcr_solve(g, evens | {5}, odds | {8}, 3)
    assert not calls and not reads


def test_xp_examples(c4):
    assert not xp_vcr_solve(c4, S13, T24, 1)
    assert xp_vcr_solve(c4, S13, T24, 0)
    assert xp_vcr_solve(c4, S13, S13, 1)


@pytest.mark.parametrize(
    "form",
    [list, frozenset, lambda x: (v for v in x), lambda x: sorted(x, reverse=True) * 2],
    ids=["list", "frozenset", "generator", "list-with-repeats"],
)
def test_xp_reads_covers_from_any_iterable(form):
    # s and t are read once into masks: any iterable of vertices gives the
    # answer of the frozensets, a repeated vertex counted once.
    g, cold = _k34_plus_edge_answers()
    for (s, t), want in cold.items():
        assert _cold(g, form(s), form(t), 4) == want, (s, t)


@pytest.mark.parametrize(
    "s, t, mu, message",
    [
        ([0, 9], [1, 3], 1, "vertex 9 out of range for 4 vertices"),
        ([-1, 0], [1, 3], 1, "vertex -1 out of range for 4 vertices"),
        # the range of t is checked before s is tested as a cover
        ([0, 1], [1, 7], 1, "vertex 7 out of range for 4 vertices"),
        # the cover tests come before the sizes, s before t
        ([0, 1], [1], 5, "s is not a vertex cover"),
        ([0, 2], [1], 5, "t is not a vertex cover"),
        # the sizes come before the range of mu; a repeat counts once
        ([0, 2, 2], [0, 1, 3], 5, "cover sizes differ: 2 vs 3"),
    ],
    ids=["s-range", "s-negative", "t-range", "s-cover", "t-cover", "sizes"],
)
def test_xp_input_errors_keep_their_texts_and_order(c4, s, t, mu, message):
    with pytest.raises(PreconditionError) as raised:
        xp_vcr_solve(c4, s, t, mu)
    assert str(raised.value) == message


def test_xp_precondition_errors(c4):
    with pytest.raises(PreconditionError):
        xp_vcr_solve(c4, S13, frozenset({0, 1, 2}), 1)  # size mismatch
    with pytest.raises(PreconditionError):
        xp_vcr_solve(c4, frozenset({0, 1}), T24, 1)  # not a cover
    star = new_graph(3, [(0, 1), (0, 2)])
    with pytest.raises(PreconditionError):
        xp_vcr_solve(star, frozenset({0}), frozenset({1, 2}), 1)  # sizes differ


@pytest.mark.parametrize(
    "call, outcome",
    [
        (lambda g: clique_edge_oracle(g, {0}, {0, 1}, 2, S13, T24),
         (PreconditionError, "subset sizes differ")),
        # cover size 5 leaves 4 vertices to pick from the 3 outside Z = {0}
        (lambda g: clique_edge_oracle(g, {0}, {0}, 5, S13, T24), False),
        (lambda g: build_clique_compressed_graph(g, {0, 1}, T24, 1),
         (PreconditionError, "s is not a vertex cover")),
        (lambda g: build_clique_compressed_graph(g, S13, {0, 1, 2}, 1),
         (PreconditionError, "cover sizes differ")),
        # the fourth of the C(4, 1) nodes stored passes the budget
        (lambda g: build_clique_compressed_graph(g, S13, T24, 1, Budget(max_states=3)),
         (ResourceBudgetError, "state budget exceeded")),
        # a NO: the anchor edge and the three other cross unions memoized
        (lambda g: xp_vcr_solve(g, S13, T24, 1, Budget(max_states=3)),
         (ResourceBudgetError, "state budget exceeded")),
        (lambda g: xp_vcr_solve(g, S13, T24, -1), (PreconditionError, "mu must lie in")),
        (lambda g: xp_vcr_solve(g, S13, T24, 3), (PreconditionError, "mu must lie in")),
        (lambda g: xp_vcr_solve(g, S13, T24, 2), (PreconditionError, "must be >= 1")),
    ],
    ids=[
        "oracle-sizes", "oracle-no-room", "build-non-cover", "build-sizes", "build-budget",
        "solve-budget", "solve-mu-negative", "solve-mu-above-size", "solve-k-zero",
    ],
)
def test_input_checks(c4, call, outcome):
    if isinstance(outcome, tuple):
        with pytest.raises(outcome[0], match=outcome[1]):
            call(c4)
    else:
        assert call(c4) is outcome


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


def _kaa_plus_cycle(a, c):
    """K_{a,a} + C_c with s = one side + the even cycle vertices and t = the
    other side + the odd ones: every cover of size a + c/2 holds a whole
    side of K_{a,a}, so s and t are joined only if k >= a."""
    n = 2 * a + c
    edges = [(i, a + j) for i in range(a) for j in range(a)]
    edges += [(2 * a + i, 2 * a + (i + 1) % c) for i in range(c)]
    s = frozenset(range(a)) | frozenset(range(2 * a, n, 2))
    t = frozenset(range(a, 2 * a)) | frozenset(range(2 * a + 1, n, 2))
    return new_graph(n, edges), s, t


def test_xp_time_budget():
    # C40 with s = evens + {1}, t = odds + {0} and mu = 5: a YES whose
    # anchors share no cover. The tries between the cliques of s and t
    # make 396,322 decisions before one joins them, about 3.3 s without a
    # budget.
    n = 40
    g = new_graph(n, [(i, (i + 1) % n) for i in range(n)])
    s = frozenset(range(0, n, 2)) | {1}
    t = frozenset(range(1, n, 2)) | {0}
    began = time.monotonic()
    with pytest.raises(ResourceBudgetError):
        xp_vcr_solve(g, s, t, 5, Budget(max_seconds=0.3))
    assert time.monotonic() - began < 0.3 + 1.0


def test_labellings_die_with_their_graph():
    # What a query learns lives on its graph: no module keeps the graph, or
    # the labelling, alive once the caller lets go of it.
    g, s, t = _kaa_plus_cycle(3, 4)
    assert not xp_vcr_solve(g, s, t, 4)
    assert g.xp_labellings[5, 4].complete
    alive = weakref.ref(g)
    del g
    gc.collect()
    assert alive() is None


def test_coverable_pass_memoizes_nothing():
    # K_{8,8} with covers of size 9 and mu = 7, from one side plus a vertex
    # to the other plus a vertex: a NO, since k = 2 tokens cannot switch
    # sides, and every vertex pair lies in such a cover, so the coverable
    # pass decides all C(16, 7) = 11,440 nodes. Each single node is decided
    # once, so the query memo keeps only unions of two nodes; storing the
    # pass's decisions took a traced peak of about 1.2 MB.
    g = new_graph(16, [(i, 8 + j) for i in range(8) for j in range(8)])
    tracemalloc.start()
    try:
        assert not xp_vcr_solve(g, set(range(9)), set(range(8, 16)) | {0}, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not g.xp_labellings[9, 7].bad
    assert peak < 250_000


def test_a_no_decides_the_pairs_before_the_nodes(monkeypatch):
    # K_{3,3} + C16 with mu = 10: only the 44 size-10 subsets of the four
    # covers of size 11 are coverable. Deciding all C(22, 10) = 646,646
    # nodes made 646,650 decisions; the 231 vertex pairs, less those inside
    # s or t, refute every other node without a decision.
    g, s, t = _kaa_plus_cycle(3, 16)
    calls = _counting_decisions(monkeypatch)
    assert not _cold(g, s, t, 10)
    assert len(g.xp_labellings[11, 10].coverable) == 44
    assert len(calls) < 300


@pytest.mark.parametrize("c, mu", [(40, 21), (40, 22), (60, 31)])
def test_nodes_beyond_the_state_budget_are_decided(c, mu):
    # K_{3,3} + C40 with mu = 21 has C(46, 21) = 6.9e12 nodes and K_{3,3} +
    # C60 with mu = 31 has C(66, 31) = 6.4e18, far past the default state
    # budget, yet the pairs in no cover leave a few dozen coverable nodes to
    # store, and each answers NO in well under a second.
    g, s, t = _kaa_plus_cycle(3, c)
    assert comb(g.vertex_count, mu) > Budget().max_states
    want = solve_exact(ReconfigInstance(g, VC, s, t, Rule(RuleKind.KTJ, len(s) - mu))).reachable
    assert not want
    assert xp_vcr_solve(g, s, t, mu) == want


def _charged(call):
    """call's result and the states charged to the clock it began."""
    clocks = []
    begin = xp._BudgetClock.begin

    def noting(budget):
        clocks.append(begin(budget))
        return clocks[-1]

    with patch.object(xp._BudgetClock, "begin", noting):
        result = call()
    assert len(clocks) == 1
    return result, clocks[0].counted


@pytest.mark.parametrize("build", [False, True], ids=["solve", "build"])
def test_the_state_budget_bounds_what_is_stored(build):
    # K_{3,3} + C4 with mu = 4, a cold NO: the query stores its memoized
    # unions and the coverable nodes, the build its nodes, edges and
    # unions. One state less than that is refused; exactly that answers as
    # without a budget.
    g, s, t = _kaa_plus_cycle(3, 4)

    def call(budget=None):
        g.xp_labellings.clear()
        if build:
            return build_clique_compressed_graph(g, s, t, 4, budget)
        return xp_vcr_solve(g, s, t, 4, budget)

    want, stored = _charged(call)
    assert stored > 10
    with pytest.raises(ResourceBudgetError, match="state budget exceeded"):
        call(Budget(max_states=stored - 1))
    assert call(Budget(max_states=stored)) == want


def _relabelled(rng, g, s, t):
    order = list(range(g.vertex_count))
    rng.shuffle(order)
    edges = [(order[u], order[v]) for u, v in g.edges()]
    return new_graph(g.vertex_count, edges), {order[v] for v in s}, {order[v] for v in t}


@given(st.integers(min_value=0, max_value=10**6), st.booleans())
@settings(max_examples=30, deadline=None)
def test_pair_walk_lists_the_nodes_of_the_plain_pass(seed, biclique):
    # Every cover size and mu on graphs of at most 10 vertices, K_{a,a} +
    # C_c (whose minimum covers leave pairs in no cover) among them: the
    # coverable pass lists the nodes that deciding all C(n, mu) of them in
    # lexicographic order keeps, every union that the masks in bad let grow
    # skip is one the decider refuses, and labelling the coverable nodes
    # joins the ends of every edge among them.
    rng = random.Random(seed)
    if biclique:
        a = rng.randint(1, 3)
        g, s, t = _relabelled(rng, *_kaa_plus_cycle(a, rng.choice(range(4, 11 - 2 * a, 2))))
        least = len(s)
    else:
        g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.2, 0.8))
        least = None
    n = g.vertex_count
    for size in range(1, n + 1):
        covers = brute_feasible(g, VC, size)
        if not covers:
            continue
        smask, tmask = set_to_mask(rng.choice(covers)), set_to_mask(rng.choice(covers))
        for mu in range(1, size):
            decide = xp._decider(g, smask, tmask, mu, xp._BudgetClock.begin(None))
            state = xp._Labelling()
            state.meet(smask, xp._lowest_bits(smask, mu), mu)
            state.meet(tmask, xp._lowest_bits(tmask, mu), mu)
            got = state.nodes(g, mu, decide, xp._BudgetClock.begin(None))
            nodes = (set_to_mask(x) for x in itertools.combinations(range(n), mu))
            assert got == [x for x in nodes if decide(x)], (g, size, mu)
            bad = state.bad or [0] * n
            for u in got:
                far = 0
                for w in range(n):
                    if u >> w & 1:
                        far |= bad[w]
                assert not any(decide(u | v) for v in got if v & far), (g, size, mu, u)
            state.label_all(list(got), decide, xp._BudgetClock.begin(None))
            for u, v in itertools.combinations(got, 2):
                assert not decide(u | v) or state.find(u) == state.find(v), (g, size, mu)
            if size == least and comb(n, 2) < comb(n, mu):
                assert state.bad, (g, size, mu)


def test_an_interrupted_pass_leaves_nothing_set():
    # K_{3,3} + C4 with mu = 4: the pass decides the pairs, finds some in no
    # cover and walks. Cut at each clock read of the cold NO, the labelling
    # holds either no pass at all or the whole of it, and answers again.
    g, s, t = _kaa_plus_cycle(3, 4)
    reads: list = []
    with _patched_clock(reads):
        assert not _cold(g, s, t, 4)
    state = g.xp_labellings[5, 4]
    whole = (state.coverable, state.bad)
    assert state.bad
    for cut_at in range(1, len(reads) + 1):
        g.xp_labellings.clear()
        with _patched_clock([], cut_at), pytest.raises(ResourceBudgetError):
            xp_vcr_solve(g, s, t, 4)
        state = g.xp_labellings[5, 4]
        assert (state.coverable, state.bad) in ((None, []), whole), cut_at
        assert not xp_vcr_solve(g, s, t, 4)
