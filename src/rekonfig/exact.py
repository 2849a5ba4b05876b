"""Brute-force ground truth: explicit state-space BFS for reconfiguration,
exact maximum independent set / minimum vertex cover, and token-addition-
removal (TAR) value computation.

One independent-set search, an iterative include-first DFS with a clique
bound, walks the sets of one size as blocks: a branch with one or two tokens
left is counted with popcounts instead of being split. Two thin callers
read the blocks. `_family` expands them into the feasible family, unless
their counts pass a cap or the walk passes a limit on DFS nodes. The
maximum independent set, the split's probes and the shortcut of
`bounds.find_simple_sequence` read the first set off the first block.

`solve_exact` decides a disconnected instance one component at a time when
no move can change how many tokens a component holds; otherwise, and for
every shortest certificate, it searches the whole instance from both ends.
Every search asks the rule's pair test (graph._rule_adjacency) of its ends
first. When they are not one move apart, it counts the family to choose
between scanning it and generating moves, but the count may cost at most
a sixteenth of the candidate groups one expansion tries: when that share
is below one pass over the vertices, or the count runs past it, moves are
generated. Under k-TJ the search then tries the sequences of L =
max(⌈|S △ T| / 2k⌉, 2) moves first, a lower bound on the length, since one
move changes at most 2k vertices and the pair test refuted one move: one
pass of the two-ended BFS stores only states that can lie on such a
sequence. A meet is a shortest sequence; a pass that runs out of states
having pruned none was the plain search and answers NO; otherwise the plain
two-ended BFS runs on the same clock. Under k-TS, where tokens that slide
round each other often make the shortest length exceed L, only the plain
search runs. The DFS and the search may be kept inside a vertex mask,
which gives those of the induced subgraph in the parent's ids: a component
is probed, settled by the pair test or searched without leaving the parent
graph.

Every solver here is deliberately exhaustive. Budgets cap the number of
enumerated states and wall-clock seconds; exceeding one raises
ResourceBudgetError so callers can distinguish "no" from "too big".
"""

from __future__ import annotations

from itertools import combinations, islice
from math import comb, inf
from typing import Callable, Iterable, Iterator

from .budget import Budget, _BudgetClock
from .errors import PreconditionError
from .graph import (
    FeasibilityKind,
    Graph,
    ReconfigInstance,
    ReconfigSequence,
    Rule,
    RuleKind,
    VertexSet,
    _rule_adjacency,
    complement_set,
    is_feasible,
    iter_bits,
    mask_to_set,
    set_to_mask,
    vertex_mask,
)
from .record import Record


def __getattr__(name: str):
    # The benchmark's tracer test reads `exact.has_perfect_matching_between`,
    # which this module does not call. It is resolved on read (PEP 562), so
    # that loading the solver does not load the matching core; not cached
    # here, the name always reads the current binding in `matching`.
    if name == "has_perfect_matching_between":
        from .matching import has_perfect_matching_between

        return has_perfect_matching_between
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SolveResult(Record):
    reachable: bool
    shortest: ReconfigSequence | None
    explored_states: int


class TarResult(Record):
    """Outcome of a TAR value computation.

    value is val_max (independent sets: largest achievable minimum
    intermediate size) or val_min (vertex covers: smallest achievable
    maximum). The witness walk changes exactly one vertex per step and
    realizes the value.
    """

    value: int
    witness: ReconfigSequence


def _vertex_list(g: Graph, within: int) -> Iterable[int]:
    """The vertices of `within` in id order. Walking a mask's bits costs O(n)
    per bit (0.26 s on 65,536 vertices), so the full mask is range(n)."""
    return range(g.vertex_count) if within == g.full_mask else list(iter_bits(within))


def _clique_partition_masks(g: Graph, clock: _BudgetClock, within: int) -> list[int]:
    """Greedy first-fit partition of the vertices of `within`, in id order,
    into cliques; the clock is read once per vertex.

    The number of cliques intersecting a candidate set upper-bounds its
    independence number, which is the pruning bound used below. A clique
    can take v only if all its members are v's neighbours, its first member
    included, and cliques are created in the order of their first members.
    So first-fit tries only the cliques led by v's neighbours, in id order.
    Only vertices of `within` lead or join a clique, so the partition is the
    one of the subgraph that `within` induces, in the parent's ids.
    """
    masks = g.neighbor_masks
    cliques: dict[int, int] = {}  # first member -> clique, in creation order
    leaders = 0
    for v in _vertex_list(g, within):
        clock.check_time()
        nv = masks[v]
        bit = 1 << v
        candidates = nv & leaders
        while candidates:
            low = candidates & -candidates
            u = low.bit_length() - 1
            if cliques[u] & ~nv == 0:  # v adjacent to every member
                cliques[u] |= bit
                break
            candidates ^= low
        else:
            cliques[v] = bit
            leaders |= bit
    return list(cliques.values())


def _clique_bound(cliques: list[int], candidates: int) -> int:
    """Number of cliques meeting `candidates`: an upper bound on the size of
    an independent set drawn from them."""
    b = 0
    for q in cliques:
        if q & candidates:
            b += 1
    return b


# Vertex ids per part of a block's expansion, so at most that many sets
# per part; also the candidates between two clock reads.
_CHUNK = 4096
_CHUNK_MASK = (1 << _CHUNK) - 1

# A block holds the independent sets of a DFS node that is at most two
# tokens short: (count, chosen, candidates, remaining). Its sets are chosen
# plus `remaining` mutually non-adjacent candidates; count is how many.
Block = tuple[int, int, int, int]


def _independent_blocks(
    g: Graph, size: int, clock: _BudgetClock, within: int, stop: float = inf
) -> Iterator[Block]:
    """The independent sets of exactly `size` inside the vertex mask `within`
    as blocks, in lexicographic order of the underlying vertex tuples
    (include-first DFS over ascending ids gives exactly that order); empty
    blocks are skipped. Candidates never leave `within`, so the blocks are
    those of the subgraph it induces, mapped back to the parent's ids.

    The DFS keeps its open nodes (candidates, chosen, tokens still to place)
    on an explicit stack, so no input is too deep for it. Each node is
    charged once. A node with three or more tokens to place is pruned by the
    clique bound or split; the bound scans every clique, so the clock is
    also read once per 4096 cliques scanned. A node one or two tokens short
    becomes a block at once, counted by popcounts, which decide it exactly:
    one token short, its candidates; two short, each candidate's later
    non-neighbours among them, with the clock read once per 4096
    candidates. Counting charges no set: a caller charges the sets it
    builds. The walk ends early, as if exhausted, once the clock has
    counted more than `stop`."""
    if size == 0:
        clock.charge()
        yield 1, 0, 0, 0
        return
    masks = g.neighbor_masks
    cliques = _clique_partition_masks(g, clock, within) if size > 2 else []
    stack = [(within, 0, size)]
    scanned = 0  # cliques scanned by the bound since the last clock read
    while stack:
        candidates, chosen, remaining = stack.pop()
        clock.charge()
        if clock.counted > stop:
            return
        if remaining > 2:
            if candidates.bit_count() < remaining:
                continue
            scanned += len(cliques)
            if scanned >= _CHUNK:
                scanned = 0
                clock.check_time()
            if _clique_bound(cliques, candidates) < remaining:
                continue
            bit = candidates & -candidates  # lowest remaining candidate, kept lexicographic
            rest = candidates ^ bit
            stack.append((rest, chosen, remaining))  # exclude it, after
            stack.append((rest & ~masks[bit.bit_length() - 1], chosen | bit, remaining - 1))
            continue
        if remaining == 1:
            count = candidates.bit_count()
        else:
            count = sum(later.bit_count() for _, later in _pairs(candidates, masks, clock))
        if count:
            yield count, chosen, candidates, remaining


def _pairs(
    candidates: int, masks: tuple[int, ...], clock: _BudgetClock
) -> Iterator[tuple[int, int]]:
    """(bit of v, the later candidates not adjacent to v) for every
    candidate v, ascending; the clock is read once per 4096 candidates."""
    left = candidates.bit_count()
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        left -= 1
        if left and not left % _CHUNK:
            clock.check_time()
        yield low, candidates & ~masks[low.bit_length() - 1]


def _block_sets(
    blocks: Iterable[Block], masks: tuple[int, ...], clock: _BudgetClock
) -> list[int]:
    """Every set of the blocks, in order. The sets of one chosen set are
    built in parts of at most 4096 vertex ids, each part charged before it
    is stored, so the clock is read at least once per 4096 sets."""
    out: list[int] = []

    def extend(chosen: int, bits: int) -> None:
        base = 0
        while bits:
            part = bits & _CHUNK_MASK
            clock.charge(part.bit_count())
            out.extend([chosen | 1 << (base + w) for w in iter_bits(part)])
            bits >>= _CHUNK
            base += _CHUNK

    for _, chosen, candidates, remaining in blocks:
        if remaining == 0:
            clock.charge()
            out.append(chosen)
        elif remaining == 1:
            extend(chosen, candidates)
        else:
            for low, later in _pairs(candidates, masks, clock):
                extend(chosen | low, later)
    return out


def _first_independent(g: Graph, size: int, clock: _BudgetClock, within: int) -> int | None:
    """The lexicographically first independent set of exactly `size` inside
    the vertex mask `within`, or None: read off the first block, whose other
    sets are neither built nor charged."""
    block = next(_independent_blocks(g, size, clock, within), None)
    if block is None:
        return None
    _, chosen, candidates, remaining = block
    if remaining == 2:
        low, candidates = next(p for p in _pairs(candidates, g.neighbor_masks, clock) if p[1])
        chosen |= low
    clock.charge()
    return chosen | candidates & -candidates


# Reverses the bits of each byte, so vertex 8i is the top bit of byte i.
_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _set_sort_key(mask: int) -> bytes:
    """Sort key for vertex sets: the mask's bytes, lowest first, each with
    its bits reversed, so vertex 0 is the first bit, at one bit per vertex.
    In descending order of the key, the least vertex where two sets differ
    decides, and the set that holds it comes first; for sets of one size
    that is the lexicographic order of their sorted vertex lists."""
    return mask.to_bytes((mask.bit_length() + 7) // 8, "little").translate(_BIT_REVERSED)


def _family(
    g: Graph, kind: FeasibilityKind, size: int, clock: _BudgetClock, within: int,
    cap: float = inf, nodes: float = inf,
) -> list[int] | None:
    """The feasible sets of exactly `size` inside the vertex mask `within`,
    lexicographically ordered, or None when they outnumber `cap` or walking
    them charges more than `nodes` DFS nodes. The block counts are added up
    as the blocks come, and the walk stops once they pass cap or the nodes
    charged pass `nodes`, with no set built or charged; otherwise the walked
    blocks are expanded, so the family is walked once. Vertex covers come
    through the complement identity: x is a cover of the subgraph that
    `within` induces iff `within` minus x is independent, and complementing
    sets of one size reverses their lexicographic order."""
    n = within.bit_count()
    if not (0 <= size <= n):
        raise PreconditionError(f"size {size} out of range for {n} vertices")
    cover = kind is FeasibilityKind.VERTEX_COVER
    walked: list[Block] = []
    total = 0
    stop = clock.counted + nodes
    for block in _independent_blocks(g, n - size if cover else size, clock, within, stop):
        total += block[0]
        if total > cap:
            return None
        walked.append(block)
    if clock.counted > stop:
        return None
    masks = _block_sets(walked, g.neighbor_masks, clock)
    return [within ^ m for m in reversed(masks)] if cover else masks


def feasible_masks(
    g: Graph, kind: FeasibilityKind, size: int, budget: Budget | None = None
) -> list[int]:
    """Bitmasks of every feasible set of exactly `size`, lexicographically
    ordered. Vertex covers are enumerated through the complement identity:
    x is a cover iff V minus x is independent."""
    return _family(g, kind, size, _BudgetClock.begin(budget), g.full_mask)


def max_independent_set(g: Graph, budget: Budget | None = None) -> VertexSet:
    """Exact maximum independent set, the lexicographically first one.

    First fit in id order gives the lexicographically first maximal set;
    while the search finds an independent set one larger, its first one
    takes over."""
    clock = _BudgetClock.begin(budget)
    best = 0
    for v, nv in enumerate(g.neighbor_masks):
        if not nv & best:
            best |= 1 << v
    while (larger := _first_independent(g, best.bit_count() + 1, clock, g.full_mask)) is not None:
        best = larger
    return mask_to_set(best)


def min_vertex_cover(g: Graph, budget: Budget | None = None) -> VertexSet:
    """Exact minimum vertex cover; complement of a maximum independent set
    (alpha + beta = n)."""
    return frozenset(range(g.vertex_count)) - max_independent_set(g, budget)


class _Fence:
    """A bound on the states one side of a search may store: b is kept only
    if |b △ far| <= room. `dropped` records whether it ever left one out."""

    __slots__ = ("far", "room", "dropped")

    def __init__(self, far: int):
        self.far = far
        self.room = 0
        self.dropped = False

    def admits(self, b: int) -> bool:
        if (b ^ self.far).bit_count() <= self.room:
            return True
        self.dropped = True
        return False

    def keep(self, states: list[int]) -> list[int]:
        return [b for b in states if self.admits(b)]


# A neighbour source maps (state, visited states, fence or None) to the
# unvisited states adjacent to it that the fence keeps, best first: in
# descending order of _set_sort_key.
Neighbours = Callable[[int, dict[int, int | None], _Fence | None], list[int]]


def _state_scan(
    states: list[int], adjacent: Callable[[int, int], bool], clock: _BudgetClock
) -> Neighbours:
    """Neighbour source that tests every unvisited state of an explicit,
    lexicographically ordered family: O(|F|) adjacency tests per expansion,
    but no edge list is kept. The family is scanned in parts of 4096 states,
    with the clock read before every part but the first. It holds no state
    of its own, so both sides of a search can share it."""
    parts = [states[i:i + _CHUNK] for i in range(0, len(states), _CHUNK)]

    def neighbours(
        a: int, visited: dict[int, int | None], fence: _Fence | None = None
    ) -> list[int]:
        out: list[int] = []
        for i, part in enumerate(parts):
            if i:
                clock.check_time()
            out += [b for b in part if b not in visited and adjacent(a, b)]
        return out if fence is None else fence.keep(out)

    return neighbours


def _candidates(
    a: int, vertices: Iterable[int], nbr: tuple[int, ...], k: int, slide: bool
) -> list[tuple[int, int]]:
    """(u, c(u)) for every vertex u of `vertices` outside the independent
    set A that a move may add: its conflicts c(u) = N(u) ∩ A must all leave,
    so |c(u)| <= k, and under k-TS (slide) a token must slide onto u, so
    c(u) is not empty."""
    out = []
    for u in vertices:
        if not (a >> u) & 1:
            c = nbr[u] & a
            if c.bit_count() <= k and (c or not slide):
                out.append((u, c))
    return out


def _move_generator(inst: ReconfigInstance, within: int, clock: _BudgetClock) -> Neighbours:
    """Neighbour source that generates a state's k-TJ or k-TS moves in
    `within`. Works on independent sets; a vertex cover is handled through its
    complement in `within`, which keeps |A △ B| and the k-TS matching (the
    removed and added vertices swap roles). Moves pivot on additions: only the
    _candidates of a state may enter it. One builder, _moves, serves both
    rules; it flips each move back and drops the visited ones, and those the
    fence leaves out, as it makes them, and it answers to `clock` while it
    builds.
    """
    nbr = inst.graph.neighbor_masks
    k = inst.rule.k
    flip = within if inst.kind is FeasibilityKind.VERTEX_COVER else 0
    slide = inst.rule.kind is RuleKind.KTS
    vertices = _vertex_list(inst.graph, within)
    # Only k-TS moves of three or more tokens test for a matching, so only
    # they load the matching core.
    match = None
    if slide and k >= 3:
        from .matching import _hopcroft_karp as match

    def neighbours(
        state: int, visited: dict[int, int | None], fence: _Fence | None = None
    ) -> list[int]:
        a = state ^ flip
        new = _moves(
            a, _candidates(a, vertices, nbr, k, slide), nbr, k, slide, flip, visited, match, clock,
            fence,
        )
        new.sort(key=_set_sort_key, reverse=True)
        return new

    return neighbours


def _moves(
    a: int, candidates: list[tuple[int, int]], nbr: tuple[int, ...], k: int, slide: bool,
    flip: int, visited: dict[int, int | None], match: Callable[..., dict[int, int]] | None,
    clock: _BudgetClock, fence: _Fence | None = None,
) -> list[int]:
    """The unvisited B ^ flip that the fence, if any, keeps, over the
    independent sets B with 0 < |A - B| = |B - A| <= k, under k-TS (slide)
    only those where every token of A - B slides along an edge to a vertex
    of B - A.

    E = B - A is an independent set of j candidates. Under k-TJ, A - B is
    the conflicts ∪c(E), at most j of them, plus j - |∪c(E)| further tokens.
    Under k-TS every dropped token slides to E, so A - B is exactly ∪c(E),
    which must have j tokens and a perfect matching to E; non-empty
    conflicts give one for j <= 2, and match, the Hopcroft-Karp core, looks
    for it for j >= 3 (k-TS with k >= 3 only; None otherwise). Groups grow
    depth-first in candidate order and skip a candidate next to a member.
    A group with more than min(k, t) conflicts is cut, since every group
    that contains it has them too; one with more than j is not, since
    further members can raise j. Under k-TS a group with fewer conflicts
    than members is cut too, since it breaks Hall's condition inside every
    group that contains it. Each B comes from one pair (E, A - B), so no B
    is made twice.

    Nothing is charged here: the search charges each move it stores. But
    the clock is read once per 4096 groups tried or moves made and once
    when the list is done, and the expansion stops with ResourceBudgetError
    as soon as its list holds more moves than the state budget has left,
    which storing them would exceed anyway: the fence filters each group's
    moves before they join the list.
    """
    cap = min(k, a.bit_count())
    out: list[int] = []
    work = 0  # groups tried and moves made since the clock was last read
    keep = fence.keep if fence is not None else None

    def grow(
        rest: list[tuple[int, int]], j: int, moved: int, conflicts: int, banned: int
    ) -> None:
        # moved is (A + the group so far) ^ flip; rest holds the candidates
        # after the group's last member.
        nonlocal work
        for i, (u, c) in enumerate(rest):
            work += 1
            if work >= _CHUNK:
                work = 0
                clock.check_room(len(out))
            bit = 1 << u
            if banned & bit:
                continue
            joined = conflicts | c
            count = joined.bit_count()
            if count > cap or (slide and count < j):
                continue
            if count <= j:
                b = moved ^ bit ^ joined
                if count < j:  # k-TJ only: j - count free tokens leave too
                    free = [1 << v for v in iter_bits(a & ~joined)]
                    if count == j - 1:
                        made = [b ^ d for d in free if b ^ d not in visited]
                        out.extend(keep(made) if keep else made)
                        work += len(free)
                    else:
                        drops = map(sum, combinations(free, j - count))
                        while part := list(islice(drops, _CHUNK)):
                            made = [b ^ d for d in part if b ^ d not in visited]
                            out.extend(keep(made) if keep else made)
                            clock.check_room(len(out))
                elif b not in visited and (
                    j < 3 or not slide
                    or len(match(nbr, (moved ^ flip ^ a) | bit, joined)) == j
                ):
                    if fence is None or fence.admits(b):
                        out.append(b)
            if j < cap:
                grow(rest[i + 1:], j + 1, moved ^ bit, joined, banned | nbr[u])

    grow(candidates, 1, a ^ flip, 0, 0)
    clock.check_room(len(out))
    return out


def _move_estimate(inst: ReconfigInstance, within: int) -> int:
    """Candidate groups the generator tries per expansion inside `within`:
    sum over j <= min(k, t) of C(m, j), where t is the number of tokens of the
    independent set (the cover's complement) and m the number of its
    _candidates; the larger value of the start and the target, masked by
    `within`. Counts groups only, so it costs one pass over the vertices."""
    flip = within if inst.kind is FeasibilityKind.VERTEX_COVER else 0
    k = inst.rule.k
    slide = inst.rule.kind is RuleKind.KTS
    vertices = _vertex_list(inst.graph, within)
    est = 0
    for end in inst.end_masks:
        a = (end & within) ^ flip
        m = len(_candidates(a, vertices, inst.graph.neighbor_masks, k, slide))
        est = max(est, sum(comb(m, j) for j in range(1, min(k, a.bit_count()) + 1)))
    return est


def _chain(parent: dict[int, int | None], end: int) -> ReconfigSequence:
    steps = []
    cur: int | None = end
    while cur is not None:
        steps.append(mask_to_set(cur))
        cur = parent[cur]
    return ReconfigSequence(tuple(reversed(steps)))


def _bfs_both_ends(
    source: int, target: int, neighbours: Neighbours, adjacent: Callable[[int, int], bool],
    cost: int, clock: _BudgetClock, bound: tuple[int, int] | None = None,
) -> tuple[int | None, dict[int, int | None], dict[int, int | None], int, bool]:
    """Level-synchronous BFS from source and from target at once.

    Each step takes the frontier of the side with fewer frontier states (the
    source side on a tie), in order. Before a level reaches the other side
    the two searched balls are disjoint, so every meeting state lies on the
    other side's frontier and closes a shortest path. The best one (the
    largest _set_sort_key) is returned, with the first frontier state
    adjacent to it as its parent: the meet and chains that expanding the
    whole level gives.

    The level is expanded only up to its first meet. After it, `better`
    holds the other frontier's states that beat the meet. Each remaining
    state a is tested against them, best first, with the rule's pair test
    `adjacent`; the first one adjacent to a becomes the meet, with parent a,
    and cuts the list. A state adjacent to an earlier frontier state would
    already have been met, so a is its first adjacent frontier state. While
    more than `cost` better states remain (what one expansion is worth in
    adjacency tests), a is expanded instead, as before the meet.

    A bound (L, w) asks for sequences of L moves only, where one move
    changes at most w vertices. A state b at depth d is stored only if
    d + ⌈|b △ e| / w⌉ <= L, where e is the far end: the target for the
    source side, the source for the target side. The bound is consistent
    (adjacent states differ by at most one in it), so every state of such a
    sequence passes it on both sides, and stored states keep the depths of
    the plain BFS. The pass stops once the depths of the two sides add up
    to L: a sequence of L moves would have had a state in both searched
    balls by then, so it would have met. Before that, a meet closes a
    sequence of at most L moves. Pruned states are neither stored nor
    charged.

    The budget is charged once per state stored on either side, and the
    clock is read once per frontier state taken.

    Returns (meeting state or None, parents from source, parents from
    target, number of expanded states, whether the bound cut the search
    short by a dropped state or the stop). Only a search that was not cut
    shows by its missing meet that there is no sequence.
    """
    parents: tuple[dict[int, int | None], dict[int, int | None]] = ({source: None}, {target: None})
    frontiers = [[source], [target]]
    depths = [0, 0]
    fences = (_Fence(target), _Fence(source)) if bound is not None else (None, None)
    length, width = bound or (inf, 0)
    clock.charge(2)
    expanded = 0
    meet: int | None = None
    while frontiers[0] and frontiers[1]:
        if depths[0] + depths[1] >= length:
            return None, parents[0], parents[1], expanded, True
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        mine, other = parents[side], parents[1 - side]
        fence = fences[side]
        if fence is not None:
            # |b △ far| <= room  <=>  depth + 1 + ⌈|b △ far| / w⌉ <= L
            fence.room = width * (length - depths[side] - 1)
        level: list[int] = []
        better: list[int] = []
        for a in frontiers[side]:
            if meet is not None and not better:
                break
            clock.check_time()
            if meet is not None and len(better) <= cost:
                first = next((i for i, c in enumerate(better) if adjacent(a, c)), None)
                if first is not None:
                    meet = better[first]
                    mine[meet] = a
                    clock.charge()
                    del better[first:]
                continue
            expanded += 1
            new = neighbours(a, mine, fence)
            for b in new:
                mine[b] = a
                clock.charge()
            level += new
            # new comes best first, so its first meet is the best of a's
            hit = next((b for b in new if b in other), None)
            if hit is None or (meet is not None and _set_sort_key(hit) < _set_sort_key(meet)):
                continue
            # c beats hit iff the least vertex where they differ is in c
            pool = frontiers[1 - side] if meet is None else better
            better = [c for c in pool if c & (x := c ^ hit) & -x]
            meet = hit
            if len(better) <= cost:  # pair tests from here on, best first
                better.sort(key=_set_sort_key, reverse=True)
        if meet is not None:
            break
        frontiers[side] = level
        depths[side] += 1
    cut = any(f is not None and f.dropped for f in fences)
    return meet, parents[0], parents[1], expanded, cut


def _search_both_ends(
    source: int, target: int, neighbours: Neighbours, adjacent: Callable[[int, int], bool],
    cost: int, clock: _BudgetClock, want_shortest: bool, bound: tuple[int, int] | None = None,
) -> SolveResult:
    """_bfs_both_ends from source to target, with the shortest sequence
    through the meet when want_shortest is set.

    With a bound (L, w), where L is at most the shortest length, one pass
    bounded by it runs first. A meet ends the search: its sequence has at
    most L moves, so it is a shortest one. A pass that the bound did not
    cut short was the plain search, so no meet means NO. Otherwise the
    plain search runs on the same clock. explored_states adds up the
    expansions of both passes."""
    meet, from_source, from_target, expanded, cut = _bfs_both_ends(
        source, target, neighbours, adjacent, cost, clock, bound
    )
    if meet is None and cut:
        del from_source, from_target  # the plain pass stores its own
        meet, from_source, from_target, plain, _ = _bfs_both_ends(
            source, target, neighbours, adjacent, cost, clock
        )
        expanded += plain
    if meet is None:
        return SolveResult(False, None, expanded)
    if not want_shortest:
        return SolveResult(True, None, expanded)
    to_meet = _chain(from_source, meet).steps
    from_meet = _chain(from_target, meet).steps[::-1]
    return SolveResult(True, ReconfigSequence(to_meet + from_meet[1:]), expanded)


def _components(g: Graph) -> list[list[int]]:
    """The vertex lists of g's connected components, by least vertex."""
    seen = [False] * g.vertex_count
    out = []
    for root in range(g.vertex_count):
        if not seen[root]:
            seen[root] = True
            comp = [root]
            for v in comp:  # comp grows while the loop walks it
                for u in g.adjacency[v]:
                    if not seen[u]:
                        seen[u] = True
                        comp.append(u)
            out.append(comp)
    return out


def _split_verdict(inst: ReconfigInstance, clock: _BudgetClock) -> SolveResult | None:
    """Decide a disconnected instance one component at a time, or None when
    its graph is connected or its tokens may not be confined.

    Components are vertex masks of the parent graph, and a component's ends
    are the parent's ends masked by it. Tokens are counted in
    independent-set space, as _move_generator moves them. They are confined
    when no move can change how many tokens a component holds: under k-TS
    always, since tokens slide along edges; under k-TJ when |A| = alpha(G),
    since a token that left a full component would push another past its
    independence number. alpha(G) is the sum over the components, so each
    one is probed inside its mask for an independent set one larger than its
    token count.

    A sequence projected onto one component is still a sequence there, and
    sequences of different components can run one after another, so the
    instance is YES iff every component is. A component whose ends hold
    different counts makes a k-TS instance NO at once; under k-TJ it is not
    full at one end (full components hold alpha(C) tokens at both), so the
    tokens are not confined. Every component where the ends differ is then
    decided in order by _search inside its mask, on the caller's clock,
    until one is NO; _search settles a part whose ends pass the rule's pair
    test in one move, with no count. explored_states is the sum of the
    parts' expansions, so a part settled by the pair test adds 0.

    The ends' vertices are counted per component through one vertex to
    component index, so a component costs O(its size) until its mask is
    needed, for the k-TJ probe or because its ends differ; the clock is read
    before each mask is built."""
    comps = _components(inst.graph)
    if len(comps) == 1:
        return None
    g = inst.graph
    jump = inst.rule.kind is RuleKind.KTJ
    cover = inst.kind is FeasibilityKind.VERTEX_COVER
    comp_of = [0] * g.vertex_count
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    held = [0] * len(comps)  # start's vertices per component
    for v in inst.start:
        held[comp_of[v]] += 1
    gap = held[:]  # start's minus target's vertices per component
    for v in inst.target:
        gap[comp_of[v]] -= 1
    differs = [False] * len(comps)
    for v in inst.start ^ inst.target:
        differs[comp_of[v]] = True
    parts: list[int] = []
    for i, comp in enumerate(comps):
        if gap[i]:
            return None if jump else SolveResult(False, None, 0)
        if not (jump or differs[i]):
            continue
        clock.check_time()
        mask = set_to_mask(comp)
        if jump:
            tokens = len(comp) - held[i] if cover else held[i]
            if _first_independent(g, tokens + 1, clock, mask) is not None:
                return None
        if differs[i]:
            parts.append(mask)
    explored = 0
    for comp in parts:
        res = _search(inst, comp, clock, want_shortest=False)
        explored += res.explored_states
        if not res.reachable:
            return SolveResult(False, None, explored)
    return SolveResult(True, None, explored)


def solve_exact(
    inst: ReconfigInstance, want_shortest: bool = False, budget: Budget | None = None
) -> SolveResult:
    """Decide an instance by BFS over the feasible sets of size |start|.
    When want_shortest is set, the returned certificate is a minimum-length
    sequence (BFS levels).

    On a disconnected graph whose tokens are confined to their components,
    the components are decided one at a time (_split_verdict): a NO, and a
    YES without want_shortest, is their answer. A YES with want_shortest,
    a connected graph and unconfined tokens take the search of the whole
    instance, on the same budget clock. Each search asks the rule's pair
    test of its ends first (_search): one move apart, it explores 0 states.
    Otherwise, under k-TJ, it tries the sequences of the lower bound L =
    max(⌈|S △ T| / 2k⌉, 2) moves in one bounded pass, and runs the plain
    search only when that pass finds none and the bound cut it short;
    explored_states counts the expansions of both passes, and both are
    charged to the one budget, so a fallback needs room for the two."""
    if inst.start == inst.target:
        seq = ReconfigSequence((inst.start,)) if want_shortest else None
        return SolveResult(True, seq, 0)
    clock = _BudgetClock.begin(budget)
    split = _split_verdict(inst, clock)
    if split is not None and not (split.reachable and want_shortest):
        return split
    return _search(inst, inst.graph.full_mask, clock, want_shortest)


# The count that picks _search's route may charge at most est // _COUNT_SHARE
# DFS nodes, where est is the move estimate of one expansion.
_COUNT_SHARE = 16


def _route_family(
    inst: ReconfigInstance, within: int, clock: _BudgetClock
) -> tuple[list[int] | None, int]:
    """_search's route inside `within`, and the move estimate est of one
    expansion: the feasible family to scan, or None to generate moves.
    Nothing is counted when est // _COUNT_SHARE is below the number of
    vertices in `within`; otherwise _family counts with the caps 2 * est
    sets and est // _COUNT_SHARE DFS nodes, on `clock`."""
    est = _move_estimate(inst, within)
    nodes = est // _COUNT_SHARE
    if nodes < within.bit_count():
        return None, est
    size = (inst.end_masks[0] & within).bit_count()
    return _family(inst.graph, inst.kind, size, clock, within, 2 * est, nodes), est


def _search(
    inst: ReconfigInstance, within: int, clock: _BudgetClock, want_shortest: bool
) -> SolveResult:
    """solve_exact's search inside the vertex mask `within`, from the ends
    masked by it, on the caller's clock: every candidate, conflict and slide
    of a set inside `within` stays there, so this is the search of the
    subgraph that `within` induces, in the parent's ids. Ends that pass the
    rule's pair test are one move apart: YES with [S, T], the certificate
    the BFS would return, and nothing counted or expanded.

    Otherwise the route is chosen by a count of the feasible sets whose
    cost is capped at B = est // 16, where est is the move estimate, the
    candidate groups one expansion tries: deciding may cost at most a
    sixteenth of the expansion it might save. When B is below the number
    of vertices in `within`, not even the count's clique cover, one pass
    over them, fits, so nothing is counted and moves are generated.
    Otherwise the sets are counted block by block (_family), and the count
    stops once they outnumber 2 * est or once it has charged more than B
    DFS nodes; then moves are generated and no set of the family is built.
    A count that stops at neither builds the complete small family from
    the counted blocks and scans it. Both sources list the same
    neighbours, so the route may change the time and `explored_states`
    (the BFS weighs a remaining meet test against `cost`), never the
    answer or the certificate.

    Either way the BFS runs from both ends. Under k-TJ it is first bounded
    by L = max(⌈|S △ T| / 2k⌉, 2): one move changes at most 2k vertices,
    and the pair test refuted one move, so no sequence is shorter. That
    pass stores only the states that can lie on a sequence of L moves
    (_bfs_both_ends). A meet is such a sequence, so a shortest one, and
    ends the search. A pass that neither pruned a state nor stopped early
    was the plain search, and answers NO. Otherwise the plain search runs
    with the same neighbour source. One budget clock covers counting and
    both passes, and explored_states adds up the expansions of both.
    Under k-TS the plain search runs alone: the bound holds there too, but
    about half of the searches need more than L moves, and a pass that
    falls back costs what it expanded."""
    source, target = (end & within for end in inst.end_masks)
    size = source.bit_count()
    adjacent = _rule_adjacency(inst.graph, inst.rule, size)
    if adjacent(source, target):
        seq = ReconfigSequence((mask_to_set(source), mask_to_set(target))) if want_shortest else None
        return SolveResult(True, seq, 0)
    states, est = _route_family(inst, within, clock)
    # cost: adjacency tests that one expansion is worth, for _bfs_both_ends
    if states is None:
        neighbours, cost = _move_generator(inst, within, clock), est
    else:
        neighbours, cost = _state_scan(states, adjacent, clock), len(states)
    # (L, 2k) under k-TJ; k-TS searches run plain, as the docstring says.
    bound = None
    if inst.rule.kind is RuleKind.KTJ:
        width = 2 * inst.rule.k
        bound = max(-(-(source ^ target).bit_count() // width), 2), width
    return _search_both_ends(
        source, target, neighbours, adjacent, cost, clock, want_shortest, bound
    )


def reachability_classes(
    g: Graph, kind: FeasibilityKind, size: int, rule: Rule, budget: Budget | None = None
) -> dict[VertexSet, int]:
    """Connected-component label for every feasible set of `size` under the
    rule. Two sets are mutually reachable iff their labels match; this is
    solve_exact's reachability relation computed for the whole family at
    once (used by sweep tests and scripts).

    Classes are numbered by their first set in lexicographic order. Each is
    labelled by a BFS from that set: every expanded set splits the still
    unlabelled rest of the family into its neighbours, the next frontier,
    and the others. One state is charged per labelled set, and the clock is
    read before every 4096 pair tests of an expansion, as in _state_scan,
    and before every 4096 labelled masks turned into sets."""
    clock = _BudgetClock.begin(budget)
    rest = _family(g, kind, size, clock, g.full_mask)
    adjacent = _rule_adjacency(g, rule, size)
    label: dict[int, int] = {}
    number = 0
    while rest:
        frontier, rest = rest[:1], rest[1:]
        clock.charge()
        label[frontier[0]] = number
        while frontier:
            level: list[int] = []
            for a in frontier:
                others = []
                for i in range(0, len(rest), _CHUNK):
                    clock.check_time()
                    for b in rest[i:i + _CHUNK]:
                        if adjacent(a, b):
                            clock.charge()
                            label[b] = number
                            level.append(b)
                        else:
                            others.append(b)
                rest = others
            frontier = level
        number += 1
    labelled = list(label.items())
    out: dict[VertexSet, int] = {}
    for i in range(0, len(labelled), _CHUNK):
        clock.check_time()
        for m, lab in labelled[i:i + _CHUNK]:
            out[mask_to_set(m)] = lab
    return out


def _tar_moves(g: Graph, theta: int) -> Neighbours:
    """Neighbour source for TAR over independent sets of size >= theta: add
    a vertex outside N[A], or remove one while |A| > theta. TAR searches run
    without a bound, so the fence is always None."""
    nbr = g.neighbor_masks

    def neighbours(
        a: int, visited: dict[int, int | None], fence: _Fence | None = None
    ) -> list[int]:
        blocked = a
        for v in iter_bits(a):
            blocked |= nbr[v]
        removable = a if a.bit_count() > theta else 0
        moves = [a ^ (1 << v) for v in iter_bits(removable | (g.full_mask & ~blocked))]
        new = [b for b in moves if b not in visited]
        new.sort(key=_set_sort_key, reverse=True)
        return new

    return neighbours


def solve_tar_maxmin(
    g: Graph, i, j, budget: Budget | None = None
) -> TarResult:
    """Largest floor theta such that i and j are connected inside the family
    of independent sets of size >= theta under single add/remove steps.

    Search descends theta from min(|i|, |j|); each theta asks solve_exact's
    path question, over generated single-vertex moves, with the same
    two-ended search: two sets of the family are adjacent iff they differ
    in one vertex, and an expansion is priced at n such pair tests. One
    budget clock, charged per stored state, covers every theta. theta = 0
    always connects (through the empty set), so the descent terminates; the
    witness is a shortest walk at the final theta.
    """
    im, jm = vertex_mask(g, i), vertex_mask(g, j)
    for name, m in (("i", im), ("j", jm)):
        if not is_feasible(g, FeasibilityKind.INDEPENDENT_SET, m):
            raise PreconditionError(f"{name} is not an independent set")
    clock = _BudgetClock.begin(budget)
    if im == jm:
        return TarResult(im.bit_count(), ReconfigSequence((mask_to_set(im),)))
    for theta in range(min(im.bit_count(), jm.bit_count()), -1, -1):
        res = _search_both_ends(
            im, jm, _tar_moves(g, theta), lambda a, b: (a ^ b).bit_count() == 1,
            g.vertex_count, clock, want_shortest=True,
        )
        if res.reachable:
            return TarResult(theta, res.shortest)
    raise AssertionError("TAR search must succeed at theta = 0")


def solve_tar_minmax(
    g: Graph, s, t, budget: Budget | None = None
) -> TarResult:
    """Smallest ceiling theta such that s and t are connected inside the
    family of vertex covers of size <= theta under single add/remove steps.

    x is a cover iff V - x is independent, so this is solve_tar_maxmin on
    the complements: val_min(s, t) = n - val_max(V - s, V - t), and the
    complemented witness realizes it.
    """
    sm, tm = vertex_mask(g, s), vertex_mask(g, t)
    for name, m in (("s", sm), ("t", tm)):
        if not is_feasible(g, FeasibilityKind.VERTEX_COVER, m):
            raise PreconditionError(f"{name} is not a vertex cover")
    full = g.full_mask
    dual = solve_tar_maxmin(g, mask_to_set(full & ~sm), mask_to_set(full & ~tm), budget)
    witness = ReconfigSequence(tuple(complement_set(g, x) for x in dual.witness))
    return TarResult(g.vertex_count - dual.value, witness)
