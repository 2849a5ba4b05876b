import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rekonfig.errors import PreconditionError, ResourceBudgetError
from rekonfig.exact import Budget, solve_exact
from rekonfig.graph import new_graph
from rekonfig.oracles import (
    CnfFormula,
    NclConfig,
    NclMachine,
    NclVertexKind,
    SatMode,
    config_is_valid,
    enumerate_perfect_matchings,
    ncl_reachable,
    ncl_valid_configs,
    pmr_reachable,
    sat_decide,
)
from rekonfig.reductions import pmr_to_isr

from conftest import random_bipartite

FIG_FORMULA = CnfFormula(4, ((1, -2, -4), (-1, -3, 4), (2, 3, -4)))


def k4_machine() -> NclMachine:
    return NclMachine(4, tuple((u, v, 2) for u in range(4) for v in range(u + 1, 4)))


def demo_machine() -> NclMachine:
    """Three OR vertices feeding three AND vertices; nine edges."""
    return NclMachine(
        6,
        (
            (0, 1, 2), (0, 2, 2), (0, 3, 2), (1, 2, 2), (1, 4, 2), (2, 5, 2),
            (3, 4, 1), (3, 5, 1), (4, 5, 1),
        ),
    )


def test_sat_fig_formula_mixed():
    witness = sat_decide(FIG_FORMULA, SatMode.MIXED)
    assert witness is not None and witness.is_mixed
    assert witness.satisfies(FIG_FORMULA)
    assert witness.values == (True, False, False, False)  # variable 1 varies fastest


def test_sat_sandwiched_any_always_present():
    assert FIG_FORMULA.is_sandwiched
    assert sat_decide(FIG_FORMULA, SatMode.ANY) is not None


def test_sat_contradiction_absent():
    phi = CnfFormula(1, ((1,), (-1,)))
    assert sat_decide(phi, SatMode.ANY) is None


def test_sat_has_no_variable_cap():
    # 25 variables, one clause: the second assignment tried satisfies it.
    phi = CnfFormula(25, ((1, 2),))
    witness = sat_decide(phi)
    assert witness is not None and witness.satisfies(phi)
    assert witness.values == (True,) + (False,) * 24


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=80, deadline=None)
def test_mixed_implies_any(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    clauses = tuple(
        tuple(rng.choice([1, -1]) * rng.randint(1, n) for _ in range(3))
        for _ in range(rng.randint(1, 4))
    )
    phi = CnfFormula(n, clauses)
    if sat_decide(phi, SatMode.MIXED) is not None:
        assert sat_decide(phi, SatMode.ANY) is not None


def test_formula_flags():
    assert FIG_FORMULA.is_e3
    assert not CnfFormula(2, ((1, -2), (2, 1))).is_e3
    assert not CnfFormula(2, ((1, 2),)).is_sandwiched
    with pytest.raises(PreconditionError):
        CnfFormula(2, ((),))
    with pytest.raises(PreconditionError):
        CnfFormula(2, ((3,),))


def test_machine_validation():
    m = k4_machine()
    assert all(k is NclVertexKind.OR for k in m.vertex_kinds)
    d = demo_machine()
    assert [k.value for k in d.vertex_kinds] == ["or", "or", "or", "and", "and", "and"]
    with pytest.raises(PreconditionError):
        NclMachine(3, ((0, 1, 2), (1, 2, 2), (0, 2, 2)))  # degree 2 everywhere
    with pytest.raises(PreconditionError):
        NclMachine(4, tuple((u, v, 1) for u in range(4) for v in range(u + 1, 4)))


def test_k4_valid_configs_count():
    configs = ncl_valid_configs(k4_machine())
    assert len(configs) == 32
    assert all(config_is_valid(k4_machine(), c) for c in configs)


def test_demo_machine_exhaustive_audit():
    m = demo_machine()
    configs = ncl_valid_configs(m)
    # brute recount over all 2^9 orientations
    count = 0
    for bits in range(1 << 9):
        heads = tuple((v if (bits >> i) & 1 else u) for i, (u, v, _) in enumerate(m.edges))
        if config_is_valid(m, NclConfig(heads)):
            count += 1
    assert count == len(configs)
    # every BFS move reverses exactly one edge and never starves a vertex
    for cfg in configs[:10]:
        from rekonfig.oracles import _ncl_neighbors

        for nxt in _ncl_neighbors(m, cfg):
            assert sum(a != b for a, b in zip(cfg.heads, nxt.heads)) == 1
            assert config_is_valid(m, nxt)


def test_ncl_reachability_matches_union_find():
    m = k4_machine()
    configs = ncl_valid_configs(m)
    index = {c.heads: i for i, c in enumerate(configs)}
    parent = list(range(len(configs)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, cfg in enumerate(configs):
        for e_idx, (u, v, _) in enumerate(m.edges):
            flipped = list(cfg.heads)
            flipped[e_idx] = u if cfg.heads[e_idx] == v else v
            j = index.get(tuple(flipped))
            if j is not None:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    rng = random.Random(5)
    for _ in range(40):
        a, b = rng.randrange(len(configs)), rng.randrange(len(configs))
        assert ncl_reachable(m, configs[a], configs[b]) == (find(a) == find(b))


def test_ncl_reachable_self(c4):
    m = k4_machine()
    cfg = ncl_valid_configs(m)[0]
    assert ncl_reachable(m, cfg, cfg)


def test_perfect_matchings_examples(c4, k33, path3):
    assert len(enumerate_perfect_matchings(c4)) == 2
    assert len(enumerate_perfect_matchings(k33)) == 6
    assert enumerate_perfect_matchings(path3) == []  # odd order


def _permanent(matrix):
    n = len(matrix)
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        product = 1
        for i, j in enumerate(perm):
            product *= matrix[i][j]
            if product == 0:
                break
        total += product
    return total


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_matching_count_equals_permanent(side, seed):
    rng = random.Random(seed)
    g = random_bipartite(rng, side, side, rng.uniform(0.2, 0.9))
    matrix = [
        [1 if g.has_edge(u, side + v) else 0 for v in range(side)] for u in range(side)
    ]
    assert len(enumerate_perfect_matchings(g)) == _permanent(matrix)


def test_pmr_examples(c4):
    pms = enumerate_perfect_matchings(c4)
    assert pmr_reachable(c4, pms[0], pms[1])
    assert pmr_reachable(c4, pms[0], pms[0])
    with pytest.raises(PreconditionError):
        pmr_reachable(c4, frozenset({(0, 1)}), pms[0])


def test_pmr_ends_written_high_to_low(c4):
    # The ends are compared with the enumerated matchings, whose edges are
    # written low-to-high, whatever order the caller wrote them in.
    start = frozenset({(0, 1), (2, 3)})
    for target in (frozenset({(2, 1), (3, 0)}), frozenset({(1, 0), (3, 2)})):
        assert pmr_reachable(c4, start, target)
        assert pmr_reachable(c4, target, start)
        assert solve_exact(pmr_to_isr(c4, start, target)).reachable


def grid_4x5_pmr():
    """The 4 x 5 grid (vertex 5r + c), 95 perfect matchings: from horizontal
    dominoes in columns 0-3 with column 4 vertical, to all vertical ones."""
    rows, cols = 4, 5
    edges = [(cols * r + c, cols * r + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(cols * r + c, cols * (r + 1) + c) for r in range(rows - 1) for c in range(cols)]
    start = {(cols * r + c, cols * r + c + 1) for r in range(rows) for c in (0, 2)}
    start |= {(cols * r + 4, cols * (r + 1) + 4) for r in (0, 2)}
    target = {(cols * r + c, cols * (r + 1) + c) for r in (0, 2) for c in range(cols)}
    return new_graph(rows * cols, edges), frozenset(start), frozenset(target)


def test_pmr_grid_above_the_old_vertex_cap():
    g, start, target = grid_4x5_pmr()
    assert len(enumerate_perfect_matchings(g)) == 95
    assert pmr_reachable(g, start, target)
    assert solve_exact(pmr_to_isr(g, start, target)).reachable


def _stored_state_calls():
    m = k4_machine()
    configs = ncl_valid_configs(m)
    g, start, target = grid_4x5_pmr()
    # (call, states it stores): the NCL BFS stores 20 configurations before
    # it meets the target, and the PMR oracle the grid's 95 matchings.
    return {
        "ncl": (lambda budget: ncl_reachable(m, configs[0], configs[-1], budget), 20),
        "pmr": (lambda budget: pmr_reachable(g, start, target, budget), 95),
    }


@pytest.mark.parametrize("name", ["ncl", "pmr"])
def test_oracles_charge_each_stored_state(name):
    call, stored = _stored_state_calls()[name]
    with pytest.raises(ResourceBudgetError, match="state budget"):
        call(Budget(max_states=stored - 1))
    assert call(Budget(max_states=stored)) == call(None)


def _oracle_calls():
    m = k4_machine()
    configs = ncl_valid_configs(m)
    c4 = new_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    pms = enumerate_perfect_matchings(c4)
    return {
        "sat": lambda budget: sat_decide(FIG_FORMULA, SatMode.MIXED, budget),
        "ncl": lambda budget: ncl_reachable(m, configs[0], configs[-1], budget),
        "pmr": lambda budget: pmr_reachable(c4, pms[0], pms[1], budget),
    }


@pytest.mark.parametrize("name", ["sat", "ncl", "pmr"])
def test_oracles_check_a_given_time_budget(name):
    # An oracle reads its budget's clock from the first step on; an ample
    # budget changes no answer, and None means the default one.
    call = _oracle_calls()[name]
    assert call(Budget()) == call(None)
    with pytest.raises(ResourceBudgetError, match="time budget"):
        call(Budget(max_seconds=-1.0))
