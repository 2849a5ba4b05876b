"""Bipartite maximum matching (Hopcroft-Karp) and the König minimum vertex
cover, the polynomial subroutines behind k-TS adjacency and the XP edge
oracle.

One Hopcroft-Karp routine serves all three callers. It matches along the
edges of a graph between two given disjoint sides and ignores every other
edge, so callers pass the sides they already know instead of building and
2-coloring a subgraph.

Tie-breaking is deterministic everywhere (lowest id first) so golden tests
stay stable. Isolated vertices are assigned to the left side of a
bipartition and never enter a matching or a König cover.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import PreconditionError
from .graph import Graph, VertexSet, check_vertex_set, set_to_mask

Matching = frozenset[tuple[int, int]]

_INF = float("inf")


@dataclass(frozen=True)
class Bipartition:
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


def _hopcroft_karp(g: Graph, left: VertexSet, right: VertexSet) -> dict[int, int]:
    """Maximum matching along the edges of g between the disjoint sets left
    and right, by Hopcroft-Karp phases in O(sqrt(n) * (n + m)).

    Edges inside either side or to other vertices are ignored. Returns the
    partner of every matched left vertex.
    """
    right_mask = set_to_mask(right)
    order = sorted(left)
    adj = {u: [v for v in g.neighbors(u) if (right_mask >> v) & 1] for u in order}
    pair_left: dict[int, int] = {}
    pair_right: dict[int, int] = {}
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

    def dfs(u: int) -> bool:
        for v in adj[u]:
            w = pair_right.get(v)
            if w is None or (dist[w] == dist[u] + 1 and dfs(w)):
                pair_left[u] = v
                pair_right[v] = u
                return True
        dist[u] = _INF
        return False

    while bfs():
        for u in order:
            if u not in pair_left:
                dfs(u)
    return pair_left


def maximum_matching(g: Graph, bp: Bipartition) -> Matching:
    """Maximum-cardinality matching along the edges of g between bp.left and
    bp.right; when bp is a 2-coloring of g, that is every edge.

    Returns edges as (u, v) pairs with u on the left side.
    """
    return frozenset(_hopcroft_karp(g, bp.left, bp.right).items())


def konig_min_vertex_cover(g: Graph, bp: Bipartition) -> VertexSet:
    """Minimum vertex cover of the edges of g between bp.left and bp.right,
    size equal to the maximum matching (König equality).

    Constructed by alternating-path reachability from unmatched left
    vertices along those edges only: cover = (left not reached) union
    (right reached).
    """
    matching = maximum_matching(g, bp)
    right_mask = set_to_mask(bp.right)
    match_of: dict[int, int] = {}
    for u, v in matching:
        match_of[u] = v
        match_of[v] = u
    reached: set[int] = set()
    queue: deque[int] = deque()
    for u in sorted(bp.left):
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
    cover = (bp.left - reached) | (bp.right & reached)
    # Left vertices never reached include matched-but-unreachable ones only;
    # isolated left vertices are unmatched hence reached, so never covered.
    return frozenset(cover)


def has_perfect_matching_between(g: Graph, a, b) -> bool:
    """True iff the bipartite graph induced by edges of g between the
    disjoint sets a and b has a matching saturating both sides.

    False whenever |a| != |b|; vacuously true for two empty sets.
    PreconditionError when a and b share a vertex.
    """
    sa = check_vertex_set(g, a)
    sb = check_vertex_set(g, b)
    if sa & sb:
        raise PreconditionError(f"sides overlap in {sorted(sa & sb)}")
    if len(sa) != len(sb):
        return False
    if not sa:
        return True
    return len(_hopcroft_karp(g, sa, sb)) == len(sa)
