"""Acceptance suite: one test per criterion, each printing a PASS line with
its headline numbers (run with -s to stream them).

The exhaustive sweeps compare the XP algorithm against the exact solver's
reachability relation. For whole-family sweeps the relation is computed
once per (graph, size, rule) with a union-find over the same adjacency
predicate solve_exact uses, and the public solve_exact is additionally
spot-checked on sampled pairs so both code paths are exercised.
"""

import itertools
import random
import time
from fractions import Fraction

import networkx as nx
import pytest

from rekonfig.errors import PreconditionError

from rekonfig.bounds import shortest_length_bound
from rekonfig.exact import (
    feasible_masks,
    reachability_classes,
    solve_exact,
)
from rekonfig.graph import (
    FeasibilityKind,
    ReconfigInstance,
    Rule,
    RuleKind,
    adjacent_ktj,
    adjacent_kts,
    is_independent_set,
    is_vertex_cover,
    mask_to_set,
    new_graph,
    verify_sequence,
)
from rekonfig.matching import (
    bipartition_of,
    konig_min_vertex_cover,
    maximum_matching,
)
from rekonfig.oracles import (
    CnfFormula,
    SatMode,
    NclMachine,
    enumerate_perfect_matchings,
    ncl_reachable,
    ncl_valid_configs,
    pmr_reachable,
    sat_decide,
)
from rekonfig.reductions import (
    build_crossover_gadget,
    e3sat_to_inte3sat,
    grid_draw,
    inte3sat_to_isr,
    ktj_seq_to_tar_seq,
    planarize,
    pmr_to_isr,
    ncl_to_isr,
    decompose_state,
    tar_highval_to_tj,
)
from rekonfig.xp import build_clique_compressed_graph, xp_vcr_solve

from conftest import brute_feasible, random_bipartite, random_graph

IS = FeasibilityKind.INDEPENDENT_SET
VC = FeasibilityKind.VERTEX_COVER

FIG_FORMULA = CnfFormula(4, ((1, -2, -4), (-1, -3, 4), (2, 3, -4)))
MINIMAL_CROSSING = CnfFormula(3, ((1, -2, -1), (2, -3, 3)))


def _report(number: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({detail})", flush=True)


def _union_find_labels(items: int, edges) -> list[int]:
    parent = list(range(items))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    return [find(i) for i in range(items)]


def _connected_edge_subsets(n: int):
    all_edges = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(all_edges)):
        edges = [all_edges[i] for i in range(len(all_edges)) if (bits >> i) & 1]
        G = nx.Graph(edges)
        G.add_nodes_from(range(n))
        if n == 1 or nx.is_connected(G):
            yield edges


def test_criterion_01_xp_oracle_agreement():
    """All connected graphs (exhaustive labeled n <= 5, isomorphism-free
    n = 6, 7 via the graph atlas) plus 200 random graphs with n <= 10:
    xp_vcr_solve equals solve_exact reachability for every cover pair and
    every mu."""
    start = time.time()
    graphs = []
    for n in range(1, 6):
        graphs += [new_graph(n, e) for e in _connected_edge_subsets(n)]
    atlas = [
        G
        for G in nx.graph_atlas_g()
        if 6 <= G.number_of_nodes() <= 7 and nx.is_connected(G)
    ]
    graphs += [new_graph(G.number_of_nodes(), list(G.edges())) for G in atlas]
    rng = random.Random(20250810)
    while len(graphs) < len(atlas) + 772 + 200:
        graphs.append(random_graph(rng, rng.randint(4, 10), rng.uniform(0.2, 0.7)))

    checks = 0
    spot_samples = []
    for g in graphs:
        n = g.vertex_count
        for size in range(1, n + 1):
            covers = feasible_masks(g, VC, size)
            if len(covers) < 2:
                continue
            c = len(covers)
            inter = [
                [(covers[i] & covers[j]).bit_count() for j in range(c)] for i in range(c)
            ]
            sets = [mask_to_set(m) for m in covers]
            for mu in range(1, size):
                labels = _union_find_labels(
                    c,
                    (
                        (i, j)
                        for i in range(c)
                        for j in range(i + 1, c)
                        if inter[i][j] >= mu
                    ),
                )
                for i in range(c):
                    for j in range(c):
                        got = xp_vcr_solve(g, sets[i], sets[j], mu)
                        want = labels[i] == labels[j]
                        assert got == want, (g, sets[i], sets[j], mu)
                        checks += 1
                        if rng.random() < 0.0003:
                            spot_samples.append((g, sets[i], sets[j], mu, want))
    for g, s, t, mu, want in spot_samples:
        inst = ReconfigInstance(g, VC, s, t, Rule(RuleKind.KTJ, len(s) - mu))
        assert solve_exact(inst).reachable == want
    elapsed = time.time() - start
    assert elapsed < 300, f"criterion must finish within 5 minutes, took {elapsed:.0f}s"
    _report(
        1,
        "xp-oracle agreement",
        f"{len(graphs)} graphs, {checks} pair/mu checks, "
        f"{len(spot_samples)} solve_exact spot checks, {elapsed:.0f}s",
    )


def test_criterion_02_clique_node_equivalence():
    """On 50 random graphs with n <= 8, path existence in the explicit
    reconfiguration graph and in the clique-compressed graph agree for all
    (S, T, X, Y), and the answer never depends on the choice of X, Y."""
    rng = random.Random(7777)
    graphs = [random_graph(rng, rng.randint(3, 8), rng.uniform(0.2, 0.8)) for _ in range(50)]
    agreements = 0
    for g in graphs:
        n = g.vertex_count
        for size in range(1, n + 1):
            covers = feasible_masks(g, VC, size)
            if len(covers) < 2:
                continue
            c = len(covers)
            sets = [mask_to_set(m) for m in covers]
            for mu in range(1, size):
                cover_labels = _union_find_labels(
                    c,
                    (
                        (i, j)
                        for i in range(c)
                        for j in range(i + 1, c)
                        if (covers[i] & covers[j]).bit_count() >= mu
                    ),
                )
                cg = build_clique_compressed_graph(g, sets[0], sets[1], mu)
                node_of = cg.node_index()
                clique_labels = cg.component_labels()
                anchor = {}
                for i, s in enumerate(sets):
                    comps = {
                        clique_labels[node_of[frozenset(x)]]
                        for x in itertools.combinations(sorted(s), mu)
                    }
                    assert len(comps) == 1, "clique component depends on subset choice"
                    anchor[i] = comps.pop()
                for i in range(c):
                    for j in range(c):
                        same_cover = cover_labels[i] == cover_labels[j]
                        same_clique = anchor[i] == anchor[j]
                        assert same_cover == same_clique, (g, sets[i], sets[j], mu)
                        agreements += 1
    _report(2, "clique-node equivalence", f"50 graphs, {agreements} (S,T) checks")


def _counting_formula(m: int, n: int) -> CnfFormula:
    """m >= 2 clauses over n variables, unsatisfied by both constant
    assignments: one all-negative clause, one all-positive, fillers mixed."""
    def var(i):
        return (i % n) + 1

    clauses = [(-var(0), -var(1), -var(2)), (var(0), var(1), var(2))]
    for extra in range(m - 2):
        clauses.append((var(extra), -var(extra + 1), var(extra + 2)))
    return CnfFormula(n, tuple(clauses))


def test_criterion_03_reduction_sizes_exact():
    """e3sat_to_inte3sat emits exactly 7*m*n^2 clauses and n + 2*m*n^2
    variables, all sandwiched, for every feasible (m, n) with m <= 3,
    n <= 4. m = 1 admits no valid input: every single E3 clause is satisfied
    by a constant assignment, which the compiler rejects."""
    checked = []
    for m in (2, 3):
        for n in (1, 2, 3, 4):
            phi = _counting_formula(m, n)
            out = e3sat_to_inte3sat(phi)
            assert out.clause_count == 7 * m * n * n
            assert out.variable_count == n + 2 * m * n * n
            assert out.is_e3 and out.is_sandwiched
            checked.append((m, n))
    for clause in ((1, 2, 3), (-1, -2, -3), (1, -2, 3)):
        with pytest.raises(Exception):
            e3sat_to_inte3sat(CnfFormula(3, (clause,)))
    _report(3, "reduction sizes exact", f"(m,n) checked: {checked}; m=1 rejected")


def _random_sandwiched(rng: random.Random, n: int, m: int) -> CnfFormula:
    clauses = []
    for _ in range(m):
        lits = [rng.randint(1, n), -rng.randint(1, n)]
        third = rng.randint(1, n)
        lits.append(third if rng.random() < 0.5 else -third)
        rng.shuffle(lits)
        clauses.append(tuple(lits))
    return CnfFormula(n, tuple(clauses))


def _answer_preservation_corpus():
    rng = random.Random(424242)
    corpus = [FIG_FORMULA, MINIMAL_CROSSING]
    while len(corpus) < 52:
        corpus.append(_random_sandwiched(rng, rng.randint(2, 4), rng.randint(1, 2)))
    return corpus


SHORTEST_OBSERVATIONS: list[tuple[int, int, int, int]] = []  # (n, size, mu, length)


def test_criterion_04_sat_to_isr_answer_preservation():
    """Mixed satisfiability equals compiled-instance reachability for the
    whole formula corpus at mu = 1 and mu = 2; the four-variable showcase
    formula is a YES instance."""
    start = time.time()
    corpus = _answer_preservation_corpus()
    for phi in corpus:
        want = sat_decide(phi, SatMode.MIXED) is not None
        for mu in (1, 2):
            inst, _ = inte3sat_to_isr(phi, mu=mu)
            res = solve_exact(inst, want_shortest=True)
            assert res.reachable == want, (phi, mu)
            if res.reachable:
                SHORTEST_OBSERVATIONS.append(
                    (inst.graph.vertex_count, len(inst.start), mu, res.shortest.length)
                )
                assert verify_sequence(inst, res.shortest).accepted
    inst, _ = inte3sat_to_isr(FIG_FORMULA, mu=1)
    assert solve_exact(inst).reachable
    elapsed = time.time() - start
    assert elapsed < 600
    _report(
        4,
        "formula-to-instance answer preservation",
        f"{len(corpus)} formulas x mu in (1,2), showcase YES, {elapsed:.0f}s",
    )


def test_criterion_05_crossover_gadget_and_planarization():
    """The 8-vertex crossover gadget with boundary holds at most three
    tokens, in exactly one way per boundary state; planarization preserves
    the exact verdict on the smallest compiled instance with a crossing."""
    gadget, role_id = build_crossover_gadget()
    u1, u2, v1, v2 = 8, 9, 10, 11
    edges = list(gadget.edges()) + [
        (u1, role_id["u1p"]),
        (u2, role_id["u2p"]),
        (v1, role_id["v1p"]),
        (v2, role_id["v2p"]),
    ]
    bounded = new_graph(12, edges)
    from rekonfig.reductions.crossover import _TOKEN_TABLE

    for su, sv in itertools.product((1, 2), repeat=2):
        boundary = {u1 if su == 1 else u2, v1 if sv == 1 else v2}
        best = [
            set(combo)
            for r in range(5)
            for combo in itertools.combinations(range(8), r)
            if is_independent_set(bounded, boundary | set(combo))
        ]
        top = max(len(s) for s in best)
        winners = [s for s in best if len(s) == top]
        assert top == 3
        assert winners == [{role_id[r] for r in _TOKEN_TABLE[(su, sv)]}]

    # smallest compiled instance with at least one crossing in the corpus
    # (formulas with unused variables are not drawable and drop out)
    candidates = []
    for phi in _answer_preservation_corpus():
        inst, ann = inte3sat_to_isr(phi, mu=1)
        try:
            drawing = grid_draw(inst, ann)
        except PreconditionError:
            continue
        if drawing.crossings:
            planar_size = inst.graph.vertex_count + 8 * len(drawing.crossings)
            candidates.append((planar_size, phi, inst, ann, drawing))
    assert candidates
    candidates.sort(key=lambda t: t[0])
    planar_size, phi, inst, ann, drawing = candidates[0]
    planar, _ = planarize(inst, drawing, ann)
    assert planar.graph.vertex_count == planar_size
    before = solve_exact(inst).reachable
    after = solve_exact(planar).reachable
    assert before == after
    G = nx.Graph(list(planar.graph.edges()))
    G.add_nodes_from(range(planar.graph.vertex_count))
    assert nx.check_planarity(G)[0] and planar.graph.max_degree == 4
    _report(
        5,
        "crossover gadget + planarization",
        f"4 boundary states unique; smallest crossing instance: "
        f"{len(drawing.crossings)} crossings, {planar_size} vertices, verdict {before}",
    )


def test_criterion_06_ncl_compilation():
    """K4 all-weight-2 machine at k = 2: 32 valid configurations; machine
    reachability equals compiled reachability under 2-TJ and 2-TS on >= 30
    sampled configuration pairs; every feasible state carries 16 tokens
    decomposing gadget by gadget."""
    start = time.time()
    machine = NclMachine(4, tuple((u, v, 2) for u in range(4) for v in range(u + 1, 4)))
    configs = ncl_valid_configs(machine)
    assert len(configs) == 32

    inst0, ann = ncl_to_isr(machine, configs[0], configs[1], 2)
    states = feasible_masks(inst0.graph, IS, 16)
    assert all(len(mask_to_set(m)) == 16 for m in states)
    for m in states:
        assert decompose_state(machine, ann, 2, mask_to_set(m)) is not None

    rng = random.Random(606)
    pairs = [(rng.choice(configs), rng.choice(configs)) for _ in range(30)]
    agreements = 0
    for rule in (RuleKind.KTJ, RuleKind.KTS):
        for cs, ct in pairs:
            want = ncl_reachable(machine, cs, ct)
            inst, _ = ncl_to_isr(machine, cs, ct, 2, rule)
            assert solve_exact(inst).reachable == want
            agreements += 1
    elapsed = time.time() - start
    assert elapsed < 600
    _report(
        6,
        "constraint-logic compilation",
        f"32 configs, {len(states)} states decompose, "
        f"{agreements} pair checks across both rules, {elapsed:.0f}s",
    )


def _pmr_fixture_graphs():
    def cyc(n):
        return new_graph(n, [(i, (i + 1) % n) for i in range(n)])

    def grid(rows, cols):
        idx = lambda r, c: r * cols + c
        edges = []
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    edges.append((idx(r, c), idx(r, c + 1)))
                if r + 1 < rows:
                    edges.append((idx(r, c), idx(r + 1, c)))
        return new_graph(rows * cols, edges)

    cube = new_graph(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
         (0, 4), (1, 5), (2, 6), (3, 7)],
    )
    k33 = new_graph(6, [(i, j + 3) for i in range(3) for j in range(3)])
    k44 = new_graph(8, [(i, j + 4) for i in range(4) for j in range(4)])
    return [cyc(4), cyc(6), cyc(8), cyc(10), k33, k44, cube, grid(2, 3), grid(2, 4)]


def test_criterion_07_pmr_equivalence():
    """Every bipartite fixture graph with at least two perfect matchings:
    flip reachability equals compiled reachability under 2-TJ and 2-TS for
    every matching pair."""
    start = time.time()
    rng = random.Random(13)
    total_pairs = 0
    graph_count = 0
    for g in _pmr_fixture_graphs():
        assert bipartition_of(g) is not None and g.vertex_count <= 10
        pms = enumerate_perfect_matchings(g)
        assert len(pms) >= 2
        graph_count += 1
        pm_index = {m: i for i, m in enumerate(pms)}
        flip_labels = _union_find_labels(
            len(pms),
            (
                (i, j)
                for i in range(len(pms))
                for j in range(i + 1, len(pms))
                if len(pms[i] ^ pms[j]) == 4
            ),
        )
        for rule in (RuleKind.KTJ, RuleKind.KTS):
            inst0 = pmr_to_isr(g, pms[0], pms[0], rule)
            labels = reachability_classes(
                inst0.graph, IS, len(pms[0]), Rule(rule, 2)
            )
            from rekonfig.graph import line_graph

            _, edge_of = line_graph(g)
            index = {e: i for i, e in enumerate(edge_of)}
            as_state = lambda m: frozenset(index[e] for e in m)
            for i in range(len(pms)):
                for j in range(len(pms)):
                    want = flip_labels[i] == flip_labels[j]
                    got = labels[as_state(pms[i])] == labels[as_state(pms[j])]
                    assert got == want, (g, i, j, rule)
                    total_pairs += 1
        # exercise the public deciders directly on sampled pairs
        for _ in range(4):
            i, j = rng.randrange(len(pms)), rng.randrange(len(pms))
            want = pmr_reachable(g, pms[i], pms[j])
            for rule in (RuleKind.KTJ, RuleKind.KTS):
                inst = pmr_to_isr(g, pms[i], pms[j], rule)
                assert solve_exact(inst).reachable == want
    elapsed = time.time() - start
    _report(
        7,
        "perfect-matching equivalence",
        f"{graph_count} fixture graphs, {total_pairs} (pair,rule) checks, {elapsed:.0f}s",
    )


def test_criterion_08_length_bound():
    """Every shortest k-TJ certificate in the corpus satisfies
    floor(l/2) + 1 <= C(n, mu) / C(size, mu) in exact arithmetic."""
    rng = random.Random(808)
    observations = list(SHORTEST_OBSERVATIONS)
    attempts = 0
    while len(observations) < 260 and attempts < 3000:
        attempts += 1
        g = random_graph(rng, rng.randint(3, 9), rng.uniform(0.1, 0.7))
        size = rng.randint(1, max(1, g.vertex_count // 2))
        family = brute_feasible(g, IS, size)
        if len(family) < 2:
            continue
        i, j = rng.sample(family, 2)
        mu = rng.randint(1, size)
        k = size - mu
        if k < 1:
            continue
        inst = ReconfigInstance(g, IS, i, j, Rule(RuleKind.KTJ, k))
        res = solve_exact(inst, want_shortest=True)
        if res.reachable:
            observations.append((g.vertex_count, size, mu, res.shortest.length))
    assert len(observations) >= 200
    for n, size, mu, length in observations:
        bound = shortest_length_bound(n, size, mu)
        assert Fraction(length // 2 + 1) <= bound.binomial_bound, (n, size, mu, length)
        assert length <= bound.max_length
    _report(8, "length bound", f"{len(observations)} shortest sequences, zero violations")


def test_criterion_09_bridges():
    """500 randomized round trips: k-TJ expansions are valid single-change
    walks meeting the extremal size bounds, and folded high-value walks
    verify under 1-TJ."""
    rng = random.Random(909)
    expansions = folds = 0
    while expansions + folds < 500:
        g = random_graph(rng, rng.randint(3, 8), rng.uniform(0.1, 0.6))
        kind = rng.choice([IS, VC])
        size = rng.randint(1, max(1, g.vertex_count - 1))
        family = brute_feasible(g, kind, size)
        if len(family) < 2:
            continue
        a, b = rng.sample(family, 2)
        k = rng.randint(1, size)
        inst = ReconfigInstance(g, kind, a, b, Rule(RuleKind.KTJ, k))
        res = solve_exact(inst, want_shortest=True)
        if not res.reachable:
            continue
        tar = ktj_seq_to_tar_seq(res.shortest, kind)
        for x, y in zip(tar.steps, tar.steps[1:]):
            assert len(x ^ y) == 1
        if kind is IS:
            assert all(is_independent_set(g, s) for s in tar)
            assert min(len(s) for s in tar) >= size - k
        else:
            assert all(is_vertex_cover(g, s) for s in tar)
            assert max(len(s) for s in tar) <= size + k
        expansions += 1
        if kind is IS and k == 1:
            back = tar_highval_to_tj(tar)
            assert verify_sequence(inst, back).accepted
            folds += 1
    assert folds >= 40
    _report(9, "sequence bridges", f"{expansions} expansions, {folds} folds, zero failures")


def test_criterion_10_matching_layer():
    """500 random bipartite graphs with <= 12 vertices: König equality,
    brute-force minimum-cover agreement, and no augmenting path left."""
    from rekonfig.exact import min_vertex_cover
    from test_matching import _has_augmenting_path

    rng = random.Random(1010)
    for _ in range(500):
        left = rng.randint(0, 6)
        right = rng.randint(0, 6)
        g = random_bipartite(rng, left, right, rng.uniform(0.1, 0.9))
        bp = bipartition_of(g)
        matching = maximum_matching(g, bp)
        cover = konig_min_vertex_cover(g, bp)
        assert is_vertex_cover(g, cover)
        assert len(cover) == len(matching) == len(min_vertex_cover(g))
        assert not _has_augmenting_path(g, bp, matching)
    _report(10, "matching layer", "500 random bipartite graphs, König equality holds")


def test_criterion_11_rule_algebra():
    """10^4 random (graph, a, b, k): sliding implies jumping, both are
    symmetric and monotone in k, and 1-TJ is exactly |symmetric diff| <= 2."""
    rng = random.Random(1111)
    for _ in range(10_000):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        size = rng.randint(0, n // 2)
        a = frozenset(rng.sample(range(n), size))
        b = frozenset(rng.sample(range(n), size))
        k = rng.randint(1, n)
        tj = adjacent_ktj(a, b, k)
        ts = adjacent_kts(g, a, b, k)
        assert not ts or tj
        assert tj == adjacent_ktj(b, a, k)
        assert ts == adjacent_kts(g, b, a, k)
        if tj:
            assert adjacent_ktj(a, b, k + 1)
        if ts:
            assert adjacent_kts(g, a, b, k + 1)
        assert adjacent_ktj(a, b, 1) == (len(a ^ b) <= 2)
    _report(11, "rule algebra", "10000 random cases")
