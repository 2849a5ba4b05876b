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

xp_vcr_solve picks one such anchor in S and one in T and decides no more
than it must to join or separate them: first the edge between the anchors,
then edges between other size-mu subsets of S and of T (all subsets of one
cover are pairwise adjacent, so any such edge joins the anchors), then a
BFS from the first anchor over the coverable nodes (those some cover
contains) that stops once it reaches the second. Only a NO labels every
component. Coverability is closed under subsets, so when there are fewer
vertex pairs than size-mu subsets, the pass that lists the coverable nodes
first decides every pair: a node holding a pair that no cover contains is
not coverable, and a union holding one is no edge, so neither is decided
(the nogoods of constraint learning, Dechter, AI 1990). What a query
learns, the coverable nodes and those pairs, a union-find over the nodes
known to be connected, the input covers seen so far and whether the
labelling is complete, is a fact about the compressed graph of (G, |S|, mu).
So it is kept on the graph itself, in Graph.xp_labellings under (|S|, mu),
for later queries, lives exactly as long as the graph, and is never wrong
even when a budget cuts a query short. A later cover that shares mu
vertices with a seen one joins its class without a decision, whatever
route the earlier query took.
"""

from __future__ import annotations


from .budget import Budget, _BudgetClock
from .errors import PreconditionError
from .graph import (
    Graph,
    VertexSet,
    _independent_mask,
    check_vertex_set,
    is_vertex_cover,
    iter_bits,
    mask_to_set,
    set_to_mask,
)
# bipartition_of is unused here; the benchmark's tracer test reads xp.bipartition_of.
from .matching import Bipartition, _hopcroft_karp, bipartition_of, konig_min_vertex_cover
from .record import Record

from collections import deque
from collections.abc import Callable, Iterable
from itertools import combinations, islice
from math import comb


class CliqueCompressedGraph(Record):
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
        labels = _Labelling()
        for i, j in self.edges:
            labels.union(i, j)
        return tuple(labels.find(i) for i in range(len(self.nodes)))


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
    t_prime is skipped before any matching. The guess accepts iff that
    matching has at most spare = t_prime - |A| - |forced| edges, so the
    matching core is asked to stop at spare + 1 edges instead of building a
    maximum matching.
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
            if len(_hopcroft_karp(nbr, residue & s_p, residue & t_p, spare + 1)) <= spare:
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
        if not _independent_mask(nbr, rest & ~cover):
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

    xp_vcr_solve labels components without listing edges (_Labelling); this
    explicit build is the reference the tests check that labelling against.

    Each pair of nodes is decided by the query decider of xp_vcr_solve on
    its union Z, since the edge question only depends on Z; distinct node
    pairs with equal unions share one memoized decision. Every node, edge
    and memoized union is charged to budget.max_states as it is stored;
    budget.max_seconds is checked once per row of the pair loop.
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
    clock = _BudgetClock.begin(budget)
    nodes = []
    for c in combinations(range(g.vertex_count), mu):
        clock.charge()
        nodes.append(frozenset(c))
    node_masks = [set_to_mask(x) for x in nodes]
    decide = _decider(g, set_to_mask(ss), set_to_mask(st), mu, clock)
    edges = set()
    for i in range(len(nodes)):
        clock.check_time()
        for j in range(i + 1, len(nodes)):
            if decide(node_masks[i] | node_masks[j]):
                clock.charge()
                edges.add((i, j))
    return CliqueCompressedGraph(mu, len(ss), tuple(nodes), frozenset(edges))


def _decider(
    g: Graph, smask: int, tmask: int, mu: int, clock: _BudgetClock
) -> Callable[[int], bool]:
    """The decision "some cover of size |smask| contains Z" of one query
    or one build_clique_compressed_graph call, memoized on the unions Z of
    more than mu vertices and charged to clock once per union stored.
    smask and tmask are the input covers as vertex masks, which the caller
    has checked. Each Z is decided by _accepting_guess on masks, the same
    core clique_edge_oracle uses; covers of G also cover G - Z, so no call
    re-validates them. The answer does not depend on the covers, only the
    route to it does. A single node, of mu vertices, and a vertex pair are
    asked only by the coverable pass, once each, so their decisions are not
    stored: the memo holds unions of two distinct nodes, not an entry per
    node the pass visits."""
    nbr = g.neighbor_masks
    full = g.full_mask
    cover_size = smask.bit_count()
    z_memo: dict[int, bool] = {}

    def decide(z: int) -> bool:
        hit = z_memo.get(z)
        if hit is None:
            rest = full & ~z
            size = z.bit_count()
            t_prime = cover_size - size
            hit = 0 <= t_prime <= rest.bit_count() and (
                _accepting_guess(nbr, rest, t_prime, smask & rest, tmask & rest) is not None
            )
            if size > mu:
                clock.charge()
                z_memo[z] = hit
        return hit

    return decide


def _bits(mask: int) -> list[int]:
    """The single-bit masks of mask's vertices, in ascending order."""
    return [1 << v for v in iter_bits(mask)]


def _nogoods(
    g: Graph, covers: Iterable[int], decide: Callable[[int], bool], clock: _BudgetClock
) -> list[int]:
    """Per vertex u, the mask of the vertices v that no cover of the
    decider's size holds together with u. A pair inside one of covers,
    covers of that size, is not decided; the clock is read once per
    decision."""
    bad = [0] * g.vertex_count
    for u in range(g.vertex_count):
        bu = 1 << u
        later = g.full_mask & -(bu << 1)
        for c in covers:
            if c & bu:
                later &= ~c
        for v in iter_bits(later):
            clock.check_time()
            if not decide(bu | 1 << v):
                bad[u] |= 1 << v
                bad[v] |= bu
    return bad


def _cross_unions(smask: int, tmask: int, mu: int):
    """The unions X | Y of a size-mu subset X of the cover smask and one Y
    of tmask, both holding smask & tmask (which has fewer than mu vertices),
    lazily and in lexicographic order of the two parts outside it."""
    shared = smask & tmask
    r = mu - shared.bit_count()
    t_only = _bits(tmask & ~smask)
    for a in combinations(_bits(smask & ~tmask), r):
        xa = shared | sum(a)
        for b in combinations(t_only, r):
            yield xa | sum(b)


class _Labelling:
    """What is known so far about the components of one compressed graph,
    that of (g, cover size, mu).

    coverable lists, in lexicographic order, the size-mu node masks that some
    cover of that size contains; any edge X-Y needs a cover containing
    X union Y, so the other nodes are isolated. It stays None until a pass
    over all C(n, mu) nodes has finished. bad holds per vertex the mask of
    the vertices that no cover holds together with it, when that pass found
    such a pair, and is empty otherwise; it is set with coverable. parent is
    a union-find with path halving (Tarjan, JACM 1975) over nodes known to
    be connected: a union follows a decided edge, so classes only ever grow
    inside components. complete is set once every component has been
    labelled; find then answers every query. covers maps each input cover
    seen so far to a node inside it, until the labelling is complete. The
    size-mu subsets of one cover form a clique, so two covers that share mu
    vertices have their cliques in one component: a query whose cover
    shares mu vertices with a seen one joins that cover's class without a
    decision. Each field is written only when the knowledge it records
    holds, so a query that its budget aborts leaves a state that later
    queries can build on.
    """

    __slots__ = ("coverable", "bad", "parent", "complete", "covers")

    def __init__(self) -> None:
        self.coverable: list[int] | None = None
        self.bad: list[int] = []
        self.parent: dict[int, int] = {}
        self.complete = False
        self.covers: dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self.parent
        while (p := parent.get(x, x)) != x:
            parent[x] = grand = parent.get(p, p)
            x = grand
        return x

    def union(self, a: int, b: int) -> None:
        """Join b's class into a's; a's root stays the root."""
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def meet(self, cover: int, node: int, mu: int) -> None:
        """Join node, a size-mu subset of the input cover, with the node of
        every seen cover that shares at least mu vertices with it, then
        record the cover."""
        for seen, v in self.covers.items():
            if (seen & cover).bit_count() >= mu:
                self.union(v, node)
        self.covers.setdefault(cover, node)

    def nodes(
        self, g: Graph, mu: int, decide: Callable[[int], bool], clock: _BudgetClock
    ) -> list[int]:
        """The coverable nodes, from one pass that is run on first need.
        Each coverable node is charged to clock as it is found; the clock is
        read once per pair decided and once per node or walk step.

        When there are fewer vertex pairs than nodes, the pass first
        decides every pair that no seen input cover holds, and records in
        bad the pairs that lie in no cover. Only the nodes that hold no such
        pair can be coverable: an include-first walk over ascending
        vertices decides exactly those, in lexicographic order, pruning a
        branch once its candidates run short."""
        if self.coverable is None:
            n = g.vertex_count
            bad = _nogoods(g, self.covers, decide, clock) if comb(n, 2) < comb(n, mu) else [0] * n
            found = []
            stack = [(0, g.full_mask, mu)]  # (chosen, candidates, still to pick)
            while stack:
                x, candidates, need = stack.pop()
                if need == 1:  # each candidate completes a node
                    for v in iter_bits(candidates):
                        clock.check_time()
                        if decide(x | 1 << v):
                            clock.charge()
                            found.append(x | 1 << v)
                elif candidates.bit_count() >= need:
                    clock.check_time()
                    low = candidates & -candidates
                    rest = candidates ^ low
                    stack.append((x, rest, need))  # without low, after
                    stack.append((x | low, rest & ~bad[low.bit_length() - 1], need - 1))
            self.bad = bad if any(bad) else []
            self.coverable = found
        return self.coverable

    def grow(
        self,
        root: int,
        queue: deque[int],
        pending: list[int],
        decide: Callable[[int], bool],
        clock: _BudgetClock,
        target: int | None = None,
    ) -> list[int] | None:
        """BFS that joins into root's class every pending node reachable
        from the nodes in queue, testing each popped node only against the
        nodes not yet discovered, and deciding no union that holds a pair in
        bad; the clock is read once per pop. Returns the pending nodes left
        undiscovered, or None, with target joined, as soon as a discovered
        node is in target's class or has an edge to target."""
        bad = self.bad
        while queue:
            clock.check_time()
            u = queue.popleft()
            far = 0  # the vertices that no cover holds together with u
            if bad:
                for w in iter_bits(u):
                    far |= bad[w]
            undiscovered = []
            for v in pending:
                if not v & far and decide(u | v):
                    met = target is not None and (
                        self.find(v) == self.find(target) or decide(v | target)
                    )
                    self.union(root, v)
                    if met:
                        self.union(root, target)
                        return None
                    queue.append(v)
                else:
                    undiscovered.append(v)
            pending = undiscovered
        return pending

    def label_all(
        self, pending: list[int], decide: Callable[[int], bool], clock: _BudgetClock
    ) -> None:
        """Label every component of the pending nodes, each rooted at its
        first node, then mark the labelling complete: pending must hold
        every coverable node outside the components already finished."""
        while pending:
            root = pending[0]
            pending = self.grow(root, deque([root]), pending[1:], decide, clock)
        self.complete = True
        self.covers.clear()

    def connected(
        self, g: Graph, smask: int, tmask: int, mu: int, x: int, y: int, budget: Budget | None
    ) -> bool:
        """Whether x, a size-mu subset of the cover smask, and y, one of the
        cover tmask, lie in one component, deciding as little as it can:
        known classes, then the same after joining x and y to the seen covers
        they share mu vertices with, then the edge x-y, then edges between
        the cliques of the two covers, then a BFS from x's class that stops
        once it meets y, and only when x's component runs out without
        meeting y, the full labelling.
        The budget clock starts after the lookups that answer without a
        decision, and is read once per clique pair tried. It is charged once
        per union the query memoizes and once per coverable node the pass
        finds. Beyond x, y and the two covers, the union-find and the
        pending lists hold only nodes so charged."""
        if self.find(x) == self.find(y):
            return True
        if self.complete:
            return False
        self.meet(smask, x, mu)
        self.meet(tmask, y, mu)
        if self.find(x) == self.find(y):
            return True
        clock = _BudgetClock.begin(budget)
        decide = _decider(g, smask, tmask, mu, clock)
        if decide(x | y):
            self.union(x, y)
            return True
        # Any edge between the cliques of the covers joins x and y. Try the
        # pairs whose unions are smallest, both sides holding their overlap, at
        # most C(n, mu) of them, before the coverable pass. Each such union
        # has 2 mu - |smask & tmask| vertices; when that exceeds the cover
        # size no cover holds one, so none is tried.
        limit = comb(g.vertex_count, mu)
        if 2 * mu - (smask & tmask).bit_count() > smask.bit_count():
            limit = 0
        for z in islice(_cross_unions(smask, tmask, mu), limit):
            clock.check_time()
            if decide(z):
                self.union(x, y)
                return True
        rx = self.find(x)
        seeds: deque[int] = deque()
        pending: list[int] = []
        for v in self.nodes(g, mu, decide, clock):
            (seeds if self.find(v) == rx else pending).append(v)
        pending = self.grow(x, seeds, pending, decide, clock, target=y)
        if pending is None:
            return True
        self.label_all(pending, decide, clock)
        return False


def _vertex_mask(g: Graph, x) -> int:
    """The vertex mask of x, read in one pass that range-checks each vertex
    as check_vertex_set does; a repeated vertex counts once."""
    n = g.vertex_count
    m = 0
    for v in x:
        if not (0 <= v < n):
            raise PreconditionError(f"vertex {v} out of range for {n} vertices")
        m |= 1 << v
    return m


def _lowest_bits(mask: int, count: int) -> int:
    """The count lowest vertices of mask, as a mask."""
    out = 0
    for _ in range(count):
        low = mask & -mask
        out |= low
        mask ^= low
    return out


def xp_vcr_solve(g: Graph, s, t, mu: int, budget: Budget | None = None) -> bool:
    """Decide vertex-cover reconfiguration under k-TJ with k = |s| - mu.

    s and t are read once into vertex masks, and the checks and the search
    work on those masks; any iterable of vertices will do, repeats
    included. Immediate YES when mu = 0 (all tokens may jump at once) or
    when |s intersect t| >= mu (the two covers are already adjacent).
    Otherwise the answer is whether the lexicographically smallest size-mu
    subsets of s and of t (their mu lowest vertices) lie in one component
    of the compressed graph; by the compression equivalence the choice of
    subsets does not matter. The search stops as soon as it joins them, and
    what it learnt, the covers s and t included, stays in g.xp_labellings
    for later queries of the same cover size and mu: the compressed graph
    depends only on (g, |s|, mu), and s and t merely steer the decisions,
    so one labelling serves every cover pair of a size.
    """
    smask = _vertex_mask(g, s)
    tmask = _vertex_mask(g, t)
    nbr, full = g.neighbor_masks, g.full_mask
    for name, m in (("s", smask), ("t", tmask)):
        if not _independent_mask(nbr, full & ~m):  # V - m independent iff m covers
            raise PreconditionError(f"{name} is not a vertex cover")
    size = smask.bit_count()
    if size != tmask.bit_count():
        raise PreconditionError(f"cover sizes differ: {size} vs {tmask.bit_count()}")
    if not (0 <= mu <= size):
        raise PreconditionError(f"mu must lie in [0, {size}], got {mu}")
    if mu == 0 or (smask & tmask).bit_count() >= mu:
        return True
    k = size - mu
    if k < 1:
        raise PreconditionError(f"k = |s| - mu = {k} must be >= 1")
    labellings = g.xp_labellings
    state = labellings.get((size, mu))
    if state is None:
        state = labellings[size, mu] = _Labelling()
    # Both anchors lie inside a cover of size |s|, so both are coverable.
    x = _lowest_bits(smask, mu)
    y = _lowest_bits(tmask, mu)
    return state.connected(g, smask, tmask, mu, x, y, budget)
