"""XP algorithm for vertex-cover reconfiguration under k-token-jumping,
parameterized by mu = |S| - k.

The algorithm never touches the exponentially large family of size-|S|
covers. It works on the clique-compressed reconfiguration graph: one node
per size-mu vertex subset, with an edge between X and Y exactly when some
vertex cover of size |S| contains X union Y. That containment question is
decided in polynomial time per guess by deleting X union Y, splitting the
leftover along the two input covers, guessing the cover's trace A on the
shared part, and closing the remaining bipartite graph with a König minimum
cover. Reachability of the instance then reduces to connectivity between
any size-mu subset of S and any size-mu subset of T.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError, ResourceBudgetError
from .exact import Budget, _BudgetClock
from .graph import (
    Graph,
    VertexSet,
    check_vertex_set,
    is_vertex_cover,
    iter_bits,
    mask_to_set,
    set_to_mask,
)
# bipartition_of is unused here; the benchmark's tracer test reads xp.bipartition_of.
from .matching import Bipartition, _hopcroft_karp, bipartition_of, konig_min_vertex_cover

from collections import deque
from itertools import combinations


@dataclass(frozen=True)
class CliqueCompressedGraph:
    """Explicit node/edge lists of the compressed reconfiguration graph.

    nodes holds every size-mu subset in lexicographic order; edges holds
    index pairs (i, j) with i < j. Self-loops are excluded (simple graph).
    """

    mu: int
    cover_size: int
    nodes: tuple[VertexSet, ...]
    edges: frozenset[tuple[int, int]]

    def node_index(self) -> dict[VertexSet, int]:
        return {x: i for i, x in enumerate(self.nodes)}

    def component_labels(self) -> tuple[int, ...]:
        parent = list(range(len(self.nodes)))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i, j in self.edges:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri
        return tuple(find(i) for i in range(len(self.nodes)))


def _subsets_of_mask(mask: int):
    """All submasks of `mask` in ascending numeric order (deterministic)."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def _accepting_guess(
    nbr: tuple[int, ...], rest: int, t_prime: int, s_p: int, t_p: int
) -> int | None:
    """The decision core of clique_edge_oracle, on masks: the first guess A
    (in ascending mask order) with which some cover of G' = G[rest] of size
    at most t_prime exists, or None when there is none.

    s_p and t_p are covers of G' (the caller guarantees it), so once the
    shared part is settled the residue's edges join s_p - t_p to t_p - s_p
    and, by König's theorem, its minimum cover has the size of its maximum
    matching. A guess whose own count |A| + |forced| already exceeds
    t_prime is skipped before any matching.
    """
    shared = s_p & t_p
    outside = rest & ~shared
    for a in _subsets_of_mask(shared):
        a_bar = shared & ~a
        forced = 0
        for v in iter_bits(a_bar):
            if nbr[v] & a_bar:
                break  # A must cover every G' edge inside the shared part
            forced |= nbr[v]
        else:
            forced &= outside  # N(A-bar) outside the shared part
            spare = t_prime - a.bit_count() - forced.bit_count()
            if spare < 0:
                continue
            residue = outside & ~forced
            if len(_hopcroft_karp(nbr, residue & s_p, residue & t_p)) <= spare:
                return a
    return None


def clique_edge_oracle(
    g: Graph,
    x,
    y,
    cover_size: int,
    s,
    t,
    return_witness: bool = False,
) -> bool | tuple[bool, VertexSet | None]:
    """Decide whether some vertex cover of g with size exactly cover_size
    contains Z = x union y.

    s and t (vertex covers of size cover_size) only structure the search:
    after deleting Z, the leftover graph is partitioned along S' = s - Z and
    T' = t - Z into S'-only, T'-only, shared and outside parts. For every
    guess A of the cover's trace on the shared part (rejected unless A covers
    the shared part internally), the vertices of shared-minus-A force their
    neighborhoods into the cover, and what remains has edges only between
    S'-only and T'-only vertices, so the size of a maximum matching between
    those two sides finishes the count. The answer itself does not depend on
    the choice of s and t, but both must cover G - Z: PreconditionError
    otherwise.

    With return_witness the accepting guess is closed with a König minimum
    cover and turned into an explicit cover of size exactly cover_size
    (padded with lowest-id leftover vertices), returned alongside the
    decision.
    """
    sx = check_vertex_set(g, x)
    sy = check_vertex_set(g, y)
    ss = check_vertex_set(g, s)
    st = check_vertex_set(g, t)
    if len(sx) != len(sy):
        raise PreconditionError(f"subset sizes differ: {len(sx)} vs {len(sy)}")
    nbr = g.neighbor_masks
    z = set_to_mask(sx) | set_to_mask(sy)
    zsize = z.bit_count()
    fail = (False, None) if return_witness else False

    if zsize > cover_size:
        return fail
    rest = g.full_mask & ~z  # V(G')
    t_prime = cover_size - zsize
    if t_prime > rest.bit_count():
        return fail  # not enough vertices left to pad to the exact size

    s_p = set_to_mask(ss) & rest
    t_p = set_to_mask(st) & rest
    for name, cover in (("s", s_p), ("t", t_p)):
        uncovered = rest & ~cover
        for v in iter_bits(uncovered):
            if nbr[v] & uncovered:
                raise PreconditionError(f"{name} does not cover G - (x union y)")
    a = _accepting_guess(nbr, rest, t_prime, s_p, t_p)
    if a is None:
        return fail
    if not return_witness:
        return True
    shared = s_p & t_p
    forced = 0
    for v in iter_bits(shared & ~a):
        forced |= nbr[v]
    forced &= rest & ~shared
    residue = rest & ~shared & ~forced
    sides = Bipartition(mask_to_set(residue & s_p), mask_to_set(residue & t_p))
    w = z | a | forced | set_to_mask(konig_min_vertex_cover(g, sides))
    for v in iter_bits(rest & ~w):
        if w.bit_count() == cover_size:
            break
        w |= 1 << v
    witness = mask_to_set(w)
    assert len(witness) == cover_size and is_vertex_cover(g, witness)
    return True, witness


def build_clique_compressed_graph(
    g: Graph, s, t, mu: int, budget: Budget | None = None
) -> CliqueCompressedGraph:
    """Materialize the compressed reconfiguration graph for cover size |s|.

    xp_vcr_solve labels components without listing edges (_component_roots);
    this explicit build is the reference the tests check that labelling
    against.

    Oracle answers are memoized per union Z, since the edge question only
    depends on Z; distinct node pairs with equal unions share one decision.
    budget.max_states caps the number of nodes, C(n, mu); budget.max_seconds
    is checked once per row of the pair loop.
    """
    ss = check_vertex_set(g, s)
    st = check_vertex_set(g, t)
    for name, c in (("s", ss), ("t", st)):
        if not is_vertex_cover(g, c):
            raise PreconditionError(f"{name} is not a vertex cover")
    if len(ss) != len(st):
        raise PreconditionError(f"cover sizes differ: {len(ss)} vs {len(st)}")
    if not (0 <= mu <= len(ss)) or len(ss) - mu < 1:
        raise PreconditionError(
            f"need 0 <= mu <= |s| and k = |s| - mu >= 1, got mu={mu}, |s|={len(ss)}"
        )
    from math import comb

    clock = _BudgetClock.begin(budget)
    if comb(g.vertex_count, mu) > clock.budget.max_states:
        raise ResourceBudgetError(
            f"C({g.vertex_count},{mu}) nodes exceed the state budget {clock.budget.max_states}"
        )
    nodes = tuple(frozenset(c) for c in combinations(range(g.vertex_count), mu))
    node_masks = [set_to_mask(x) for x in nodes]
    cover_size = len(ss)
    z_memo: dict[int, bool] = {}
    edges = set()
    for i in range(len(nodes)):
        clock.check_time()
        for j in range(i + 1, len(nodes)):
            z = node_masks[i] | node_masks[j]
            hit = z_memo.get(z)
            if hit is None:
                hit = clique_edge_oracle(g, nodes[i], nodes[j], cover_size, ss, st)
                z_memo[z] = hit
            if hit:
                edges.add((i, j))
    return CliqueCompressedGraph(mu, cover_size, nodes, frozenset(edges))


def _component_roots(
    g: Graph, ss: VertexSet, st: VertexSet, mu: int, budget: Budget | None = None
) -> dict[int, int]:
    """Label the components of the compressed graph without listing its edges.

    Returns {node mask: component root mask} for every coverable node, that
    is every size-mu subset X that some size-|ss| cover contains. Any edge
    X-Y needs a cover containing X union Y, so the other nodes are isolated
    and are left out. The components are found by a BFS over the coverable
    nodes in lexicographic order, which tests each popped node only against
    the nodes not yet discovered; the root of a component is its first node.
    Each union Z is decided once, by _accepting_guess on masks, the same
    core clique_edge_oracle uses: the caller has validated ss, st and mu,
    and covers of G also cover G - Z, so no call re-validates them.
    build_clique_compressed_graph stays the reference for this partition.
    budget.max_states caps C(n, mu); budget.max_seconds is checked once per
    node of the coverable pass and once per BFS pop.
    """
    from math import comb

    clock = _BudgetClock.begin(budget)
    if comb(g.vertex_count, mu) > clock.budget.max_states:
        raise ResourceBudgetError(
            f"C({g.vertex_count},{mu}) nodes exceed the state budget {clock.budget.max_states}"
        )
    nbr = g.neighbor_masks
    full = g.full_mask
    cover_size = len(ss)
    smask = set_to_mask(ss)
    tmask = set_to_mask(st)
    z_memo: dict[int, bool] = {}

    def coverable(z: int) -> bool:
        hit = z_memo.get(z)
        if hit is None:
            rest = full & ~z
            t_prime = cover_size - z.bit_count()
            hit = 0 <= t_prime <= rest.bit_count() and (
                _accepting_guess(nbr, rest, t_prime, smask & rest, tmask & rest) is not None
            )
            z_memo[z] = hit
        return hit

    pending: list[int] = []
    for c in combinations(range(g.vertex_count), mu):
        clock.check_time()
        x = set_to_mask(c)
        if coverable(x):
            pending.append(x)
    roots: dict[int, int] = {}
    while pending:
        root = pending[0]
        roots[root] = root
        queue = deque([root])
        pending = pending[1:]
        while queue:
            clock.check_time()
            u = queue.popleft()
            undiscovered = []
            for v in pending:
                if coverable(u | v):
                    roots[v] = root
                    queue.append(v)
                else:
                    undiscovered.append(v)
            pending = undiscovered
    return roots


_GRAPH_CACHE: dict[tuple, dict[int, int]] = {}
_GRAPH_CACHE_LIMIT = 512


def _cached_component_roots(
    g: Graph, s: VertexSet, t: VertexSet, mu: int, budget: Budget | None
) -> dict[int, int]:
    # The compressed graph depends only on (g, |s|, mu); s and t merely steer
    # the oracle internals, so one labelling serves every cover pair of a size.
    key = (g, len(s), mu)
    roots = _GRAPH_CACHE.get(key)
    if roots is None:
        roots = _component_roots(g, s, t, mu, budget)
        if len(_GRAPH_CACHE) >= _GRAPH_CACHE_LIMIT:
            _GRAPH_CACHE.pop(next(iter(_GRAPH_CACHE)))
        _GRAPH_CACHE[key] = roots
    return roots


def xp_vcr_solve(g: Graph, s, t, mu: int, budget: Budget | None = None) -> bool:
    """Decide vertex-cover reconfiguration under k-TJ with k = |s| - mu.

    Immediate YES when mu = 0 (all tokens may jump at once) or when
    |s intersect t| >= mu (the two covers are already adjacent). Otherwise
    connectivity is read off the compressed graph between the
    lexicographically smallest size-mu subsets of s and of t; by the
    compression equivalence the choice of subsets does not matter.
    """
    ss = check_vertex_set(g, s)
    st = check_vertex_set(g, t)
    for name, c in (("s", ss), ("t", st)):
        if not is_vertex_cover(g, c):
            raise PreconditionError(f"{name} is not a vertex cover")
    if len(ss) != len(st):
        raise PreconditionError(f"cover sizes differ: {len(ss)} vs {len(st)}")
    if not (0 <= mu <= len(ss)):
        raise PreconditionError(f"mu must lie in [0, {len(ss)}], got {mu}")
    if mu == 0 or len(ss & st) >= mu:
        return True
    k = len(ss) - mu
    if k < 1:
        raise PreconditionError(f"k = |s| - mu = {k} must be >= 1")
    roots = _cached_component_roots(g, ss, st, mu, budget)
    # Both anchors lie inside a cover of size |s|, so both are coverable.
    return roots[set_to_mask(sorted(ss)[:mu])] == roots[set_to_mask(sorted(st)[:mu])]
