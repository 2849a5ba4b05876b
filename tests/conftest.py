import random

import pytest

from rekonfig.graph import FeasibilityKind, Graph, new_graph


@pytest.fixture
def c4() -> Graph:
    return new_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture
def k4() -> Graph:
    return new_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


@pytest.fixture
def k33() -> Graph:
    return new_graph(6, [(i, j + 3) for i in range(3) for j in range(3)])


@pytest.fixture
def path3() -> Graph:
    return new_graph(3, [(0, 1), (1, 2)])


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return new_graph(n, edges)


def random_bipartite(rng: random.Random, left: int, right: int, p: float) -> Graph:
    edges = [
        (u, left + v) for u in range(left) for v in range(right) if rng.random() < p
    ]
    return new_graph(left + right, edges)


def brute_feasible(g: Graph, kind: FeasibilityKind, size: int):
    """Reference enumeration straight from the definition."""
    import itertools

    from rekonfig.graph import is_independent_set, is_vertex_cover

    check = is_independent_set if kind is FeasibilityKind.INDEPENDENT_SET else is_vertex_cover
    return [
        frozenset(c)
        for c in itertools.combinations(range(g.vertex_count), size)
        if check(g, c)
    ]


def brute_tar(g: Graph, kind: FeasibilityKind, s, t) -> int:
    """Reference TAR value straight from the definition: the largest floor
    (independent sets) or smallest ceiling (vertex covers) on the set sizes
    under which a BFS over the feasible sets, one vertex added or removed
    per step, reaches t from s."""
    n = g.vertex_count
    if kind is FeasibilityKind.INDEPENDENT_SET:
        bounds = [(theta, range(theta, n + 1)) for theta in range(min(len(s), len(t)), -1, -1)]
    else:
        bounds = [(theta, range(theta + 1)) for theta in range(max(len(s), len(t)), n + 1)]
    for theta, sizes in bounds:
        family = {x for size in sizes for x in brute_feasible(g, kind, size)}
        reached, frontier = {s}, [s]
        while frontier:
            frontier = [y for y in family - reached if any(len(x ^ y) == 1 for x in frontier)]
            reached.update(frontier)
        if t in reached:
            return theta
    raise AssertionError("theta = 0 (independent sets) or n (covers) always connects")
