"""Bipartite maximum matching (Hopcroft-Karp) and the König minimum vertex
cover, the polynomial subroutines behind k-TS adjacency and the XP edge
oracle.

One Hopcroft-Karp core, on vertex masks, serves every caller. It matches
along the edges of a graph between two given disjoint sides and ignores
every other edge, so callers pass the sides they already know instead of
building and 2-coloring a subgraph. A greedy pass starts it, and most of
the small residues the XP oracle asks about are settled by that pass alone.
The XP decision asks only whether a maximum matching has at most `spare`
edges (by König's theorem, the size of the residue's minimum cover), so it
calls the core directly with the private limit spare + 1, at which the core
stops; the König cover is built only for a witness.

Tie-breaking is deterministic everywhere (lowest id first) so golden tests
stay stable. Isolated vertices are assigned to the left side of a
bipartition and never enter a matching or a König cover.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from .errors import PreconditionError
from .graph import Graph, VertexSet, iter_bits, mask_to_set, set_to_mask, vertex_mask
from .record import Record

if TYPE_CHECKING:  # annotations only: the solvers that match load no source problem
    from .problems import Matching

_INF = float("inf")


class Bipartition(Record):
    """Two disjoint vertex sides. bipartition_of returns a 2-coloring, in
    which every edge joins left to right; the matching routines accept any
    two disjoint sides and use only the edges between them."""

    left: VertexSet
    right: VertexSet


def bipartition_of(g: Graph) -> Bipartition | None:
    """Deterministic 2-coloring, or None when g has an odd cycle.

    BFS from the lowest-id unvisited vertex per component; that vertex is
    colored left.
    """
    color: list[int | None] = [None] * g.vertex_count
    for root in range(g.vertex_count):
        if color[root] is not None:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                if color[v] is None:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    left = frozenset(v for v in range(g.vertex_count) if color[v] == 0)
    right = frozenset(v for v in range(g.vertex_count) if color[v] == 1)
    return Bipartition(left, right)


def _hopcroft_karp(
    nbr: tuple[int, ...], left: int, right: int, limit: int | None = None
) -> dict[int, int]:
    """Maximum matching along the edges between the disjoint vertex masks
    left and right, where nbr[v] is the neighbour mask of v.

    Edges inside either side or to other vertices are ignored. A greedy
    pass (lowest id first on both sides) starts the matching and is
    returned at once when it saturates either side; otherwise
    Hopcroft-Karp phases, O(sqrt(n) * (n + m)), augment it. Returns the
    partner of every matched left vertex.

    With a limit, the matching returned has min(limit, maximum) edges: the
    greedy pass and the phases stop as soon as it holds limit edges, for a
    caller that only asks whether the maximum reaches limit. Without one it
    is maximum, and the only added cost is one comparison per left vertex
    of the greedy pass and per augmenting path.
    """
    if limit is None:
        limit = left.bit_count()  # no matching is larger
    pair_left: dict[int, int] = {}
    reaches: list[tuple[int, int]] = []  # (u, its neighbours on the right)
    free = right
    m = left
    while m and len(pair_left) < limit:
        low = m & -m
        m ^= low
        u = low.bit_length() - 1
        reach = nbr[u] & right
        if reach:
            reaches.append((u, reach))
            avail = reach & free
            if avail:
                low = avail & -avail
                pair_left[u] = low.bit_length() - 1
                free ^= low
    if len(pair_left) >= limit or len(pair_left) == len(reaches) or not free:
        return pair_left

    pair_right = {v: u for u, v in pair_left.items()}
    adj: dict[int, list[int]] = {}
    for u, reach in reaches:
        # Highest bit first: on wide masks this is cheaper than isolating the
        # lowest bit; reversed, the list is in ascending order.
        vs = []
        while reach:
            v = reach.bit_length() - 1
            vs.append(v)
            reach ^= 1 << v
        vs.reverse()
        adj[u] = vs
    order = list(adj)
    dist: dict[int, float] = {}

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in order:
            if u not in pair_left:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        found = _INF
        while queue:
            u = queue.popleft()
            if dist[u] >= found:
                continue
            for v in adj[u]:
                w = pair_right.get(v)
                if w is None:
                    if found == _INF:
                        found = dist[u] + 1
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found != _INF

    while bfs():
        for root in order:
            if root in pair_left:
                continue
            # Depth-first search for an augmenting path along the BFS layers,
            # lowest id first, on an explicit stack of (left vertex, its
            # untried neighbours, the right vertex it was entered through).
            stack = [(root, iter(adj[root]), -1)]
            while stack:
                u, untried, _ = stack[-1]
                for v in untried:
                    w = pair_right.get(v)
                    if w is None:  # v is free: flip the path on the stack
                        while stack:
                            x, _, entered = stack.pop()
                            pair_left[x] = v
                            pair_right[v] = x
                            v = entered
                        if len(pair_left) == limit:
                            return pair_left
                        break
                    if dist[w] == dist[u] + 1:
                        stack.append((w, iter(adj[w]), v))
                        break
                else:  # dead end: no later path runs through u in this phase
                    dist[u] = _INF
                    stack.pop()
    return pair_left


def maximum_matching(g: Graph, bp: Bipartition) -> Matching:
    """Maximum-cardinality matching along the edges of g between bp.left and
    bp.right; when bp is a 2-coloring of g, that is every edge.

    Returns edges as (u, v) pairs with u on the left side.
    """
    left, right = vertex_mask(g, bp.left), vertex_mask(g, bp.right)
    return frozenset(_hopcroft_karp(g.neighbor_masks, left, right).items())


def konig_min_vertex_cover(g: Graph, bp: Bipartition) -> VertexSet:
    """Minimum vertex cover of the edges of g between bp.left and bp.right,
    size equal to the maximum matching (König equality).

    Constructed by alternating-path reachability from unmatched left
    vertices along those edges only: cover = (left not reached) union
    (right reached).
    """
    left, right_mask = vertex_mask(g, bp.left), vertex_mask(g, bp.right)
    match_of = _hopcroft_karp(g.neighbor_masks, left, right_mask)
    match_of.update({v: u for u, v in match_of.items()})
    reached: set[int] = set()
    queue: deque[int] = deque()
    for u in iter_bits(left):
        if u not in match_of:
            reached.add(u)
            queue.append(u)
    while queue:
        u = queue.popleft()  # u is always on the left side here
        for v in g.neighbors(u):
            if v in reached or not (right_mask >> v) & 1:
                continue
            reached.add(v)
            w = match_of.get(v)
            if w is not None and w not in reached:
                reached.add(w)
                queue.append(w)
    # Left vertices never reached include matched-but-unreachable ones only;
    # isolated left vertices are unmatched hence reached, so never covered.
    reached_mask = set_to_mask(reached)
    return mask_to_set(left & ~reached_mask | right_mask & reached_mask)


def has_perfect_matching_between(g: Graph, a, b) -> bool:
    """True iff the bipartite graph induced by edges of g between the
    disjoint sets a and b has a matching saturating both sides.

    False whenever |a| != |b|; vacuously true for two empty sets.
    PreconditionError when a and b share a vertex.
    """
    am, bm = vertex_mask(g, a), vertex_mask(g, b)
    if am & bm:
        raise PreconditionError(f"sides overlap in {list(iter_bits(am & bm))}")
    size = am.bit_count()
    if size != bm.bit_count():
        return False
    if not size:
        return True
    return len(_hopcroft_karp(g.neighbor_masks, am, bm)) == size
