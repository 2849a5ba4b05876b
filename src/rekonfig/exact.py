"""Brute-force ground truth: explicit state-space BFS for reconfiguration,
exact maximum independent set / minimum vertex cover, and token-addition-
removal (TAR) value computation.

Every solver here is deliberately exhaustive. Budgets cap the number of
enumerated states and wall-clock seconds; exceeding one raises
ResourceBudgetError so callers can distinguish "no" from "too big".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Iterator

from .errors import PreconditionError, ResourceBudgetError
from .graph import (
    FeasibilityKind,
    Graph,
    ReconfigInstance,
    ReconfigSequence,
    Rule,
    RuleKind,
    VertexSet,
    check_vertex_set,
    is_independent_set,
    is_vertex_cover,
    iter_bits,
    mask_to_set,
    set_to_mask,
)
from .matching import has_perfect_matching_between

DEFAULT_MAX_STATES = 5_000_000
DEFAULT_MAX_SECONDS = 60.0


@dataclass(frozen=True)
class Budget:
    max_states: int = DEFAULT_MAX_STATES
    max_seconds: float = DEFAULT_MAX_SECONDS


@dataclass
class _BudgetClock:
    budget: Budget
    start: float
    counted: int = 0

    @classmethod
    def begin(cls, budget: Budget | None) -> "_BudgetClock":
        return cls(budget or Budget(), time.monotonic())

    def charge(self, states: int = 1) -> None:
        self.counted += states
        if self.counted > self.budget.max_states:
            raise ResourceBudgetError(
                f"state budget exceeded ({self.counted} > {self.budget.max_states})"
            )
        if self.counted % 4096 == 0:
            self.check_time()

    def check_time(self) -> None:
        """Read the clock now; for loops whose single steps are expensive."""
        if time.monotonic() - self.start > self.budget.max_seconds:
            raise ResourceBudgetError(f"time budget exceeded ({self.budget.max_seconds}s)")


@dataclass(frozen=True)
class SolveResult:
    reachable: bool
    shortest: ReconfigSequence | None
    explored_states: int


@dataclass(frozen=True)
class TarResult:
    """Outcome of a TAR value computation.

    value is val_max (independent sets: largest achievable minimum
    intermediate size) or val_min (vertex covers: smallest achievable
    maximum). The witness walk changes exactly one vertex per step and
    realizes the value.
    """

    value: int
    witness: ReconfigSequence


def _clique_partition_masks(g: Graph, vertices_mask: int) -> list[int]:
    """Greedy first-fit partition of the given vertices into cliques.

    The number of cliques intersecting a candidate set upper-bounds its
    independence number, which is the pruning bound used below.
    """
    cliques: list[int] = []
    masks = g.neighbor_masks
    for v in iter_bits(vertices_mask):
        bit = 1 << v
        for i, q in enumerate(cliques):
            if q & ~masks[v] == 0:  # v adjacent to every member
                cliques[i] = q | bit
                break
        else:
            cliques.append(bit)
    return cliques


def _clique_bound(cliques: list[int], candidates: int) -> int:
    """Number of cliques meeting `candidates`: an upper bound on the size of
    an independent set drawn from them."""
    b = 0
    for q in cliques:
        if q & candidates:
            b += 1
    return b


def _independent_masks(g: Graph, size: int, clock: _BudgetClock) -> list[int]:
    """All independent sets of exactly `size`, as bitmasks, in lexicographic
    order of the underlying vertex tuples (include-first DFS over ascending
    ids gives exactly that order)."""
    n = g.vertex_count
    masks = g.neighbor_masks
    cliques = _clique_partition_masks(g, g.full_mask)
    out: list[int] = []
    if size == 0:
        return [0]

    # suffix[i] = vertices with id >= i
    suffix = [((1 << n) - 1) ^ ((1 << i) - 1) for i in range(n + 1)]

    def rec(idx: int, chosen: int, count: int, banned: int) -> None:
        clock.charge()
        candidates = suffix[idx] & ~banned
        remaining = size - count
        if candidates.bit_count() < remaining or _clique_bound(cliques, candidates) < remaining:
            return
        bit = candidates & -candidates  # lowest remaining candidate, kept lexicographic
        v = bit.bit_length() - 1
        if remaining == 1:
            # flush every remaining candidate as a completion
            for w in iter_bits(candidates):
                out.append(chosen | (1 << w))
            return
        rec(v + 1, chosen | bit, count + 1, banned | masks[v] | bit)
        rec(v + 1, chosen, count, banned | bit)

    rec(0, 0, 0, 0)
    return out


def _set_sort_key(mask: int) -> tuple[int, ...]:
    return tuple(iter_bits(mask))


def _feasible_masks(g: Graph, kind: FeasibilityKind, size: int, clock: _BudgetClock) -> list[int]:
    if not (0 <= size <= g.vertex_count):
        raise PreconditionError(f"size {size} out of range for {g.vertex_count} vertices")
    if kind is FeasibilityKind.INDEPENDENT_SET:
        return _independent_masks(g, size, clock)
    full = g.full_mask
    covers = [full ^ m for m in _independent_masks(g, g.vertex_count - size, clock)]
    covers.sort(key=_set_sort_key)
    return covers


def feasible_masks(
    g: Graph, kind: FeasibilityKind, size: int, budget: Budget | None = None
) -> list[int]:
    """Bitmasks of every feasible set of exactly `size`, lexicographically
    ordered. Vertex covers are enumerated through the complement identity:
    x is a cover iff V minus x is independent."""
    return _feasible_masks(g, kind, size, _BudgetClock.begin(budget))


def enumerate_feasible(
    g: Graph, kind: FeasibilityKind, size: int, budget: Budget | None = None
) -> Iterator[VertexSet]:
    """Yield every independent set (or vertex cover) of exactly `size`, each
    once, in lexicographic order."""
    for m in feasible_masks(g, kind, size, budget):
        yield mask_to_set(m)


def max_independent_set(g: Graph, budget: Budget | None = None) -> VertexSet:
    """Exact maximum independent set via branch and bound (lexicographically
    smallest among the maximum ones found first by the search order)."""
    clock = _BudgetClock.begin(budget)
    masks = g.neighbor_masks
    cliques = _clique_partition_masks(g, g.full_mask)
    best_mask = 0
    best_count = -1

    def rec(candidates: int, chosen: int, count: int) -> None:
        nonlocal best_mask, best_count
        clock.charge()
        if count > best_count:
            best_mask, best_count = chosen, count
        if not candidates or count + _clique_bound(cliques, candidates) <= best_count:
            return
        v = (candidates & -candidates).bit_length() - 1
        bit = 1 << v
        rec(candidates & ~bit & ~masks[v], chosen | bit, count + 1)
        rec(candidates & ~bit, chosen, count)

    rec(g.full_mask, 0, 0)
    return mask_to_set(best_mask)


def min_vertex_cover(g: Graph, budget: Budget | None = None) -> VertexSet:
    """Exact minimum vertex cover; complement of a maximum independent set
    (alpha + beta = n)."""
    return frozenset(range(g.vertex_count)) - max_independent_set(g, budget)


def _rule_adjacency(g: Graph, rule: Rule, size: int) -> Callable[[int, int], bool]:
    threshold = size - rule.k  # |A ∩ B| >= size - k  <=>  |A △ B| <= 2k
    if rule.kind is RuleKind.KTJ:
        if threshold <= 0:
            return lambda a, b: True
        return lambda a, b: (a & b).bit_count() >= threshold

    def kts(a: int, b: int) -> bool:
        if (a & b).bit_count() < max(threshold, 0):
            return False
        return has_perfect_matching_between(g, mask_to_set(a & ~b), mask_to_set(b & ~a))

    return kts


# A neighbour source maps (state, visited states) to the unvisited states
# adjacent to it, in lexicographic order.
Neighbours = Callable[[int, dict[int, int | None]], list[int]]


def _bfs(
    source: int, neighbours: Neighbours, clock: _BudgetClock, target: int | None = None
) -> tuple[dict[int, int | None], int]:
    """BFS from `source`, stopping after the expansion that reaches `target`.

    Frontier states are expanded in order and each expansion appends its new
    neighbours in lexicographic order, so the parent map, and with it the
    certificate, does not depend on which neighbour source is used.

    Returns (parent map over reached states, number of expanded states).
    """
    parent: dict[int, int | None] = {source: None}
    frontier = [source]
    expanded = 0
    while frontier and (target is None or target not in parent):
        next_frontier: list[int] = []
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


def _state_scan(states: list[int], source: int, adjacent: Callable[[int, int], bool]) -> Neighbours:
    """Neighbour source that tests every still-unvisited state of an explicit
    family: O(|F|) adjacency tests per expansion, but no edge list is kept."""
    unvisited = [s for s in states if s != source]

    def neighbours(a: int, visited: dict[int, int | None]) -> list[int]:
        nonlocal unvisited
        hits: list[int] = []
        still: list[int] = []
        for b in unvisited:
            if adjacent(a, b):
                hits.append(b)
            else:
                still.append(b)
        unvisited = still
        return hits

    return neighbours


def _move_generator(inst: ReconfigInstance) -> Neighbours:
    """Neighbour source that generates the k-TJ or k-TS moves of a state.

    Works on independent sets; a vertex cover is handled through its
    complement, which keeps |A △ B| and the k-TS matching (the removed and
    added vertices swap roles). Moves pivot on additions: a vertex u outside
    A may enter only if its conflicts c(u) = N(u) ∩ A all leave, so only
    vertices with |c(u)| <= k are candidates.
    """
    g = inst.graph
    nbr = g.neighbor_masks
    k = inst.rule.k
    flip = g.full_mask if inst.kind is FeasibilityKind.VERTEX_COVER else 0
    moves = _slides if inst.rule.kind is RuleKind.KTS else _jumps

    def neighbours(state: int, visited: dict[int, int | None]) -> list[int]:
        a = state ^ flip
        candidates = []
        for u in range(g.vertex_count):
            if not (a >> u) & 1:
                c = nbr[u] & a
                if c.bit_count() <= k:
                    candidates.append((u, c))
        new = {b ^ flip for b in moves(a, candidates, nbr, k)}
        return sorted((b for b in new if b not in visited), key=_set_sort_key)

    return neighbours


def _jumps(a: int, candidates: list[tuple[int, int]], nbr: tuple[int, ...], k: int) -> list[int]:
    """Independent sets B with 0 < |A - B| = |B - A| <= k.

    E = B - A is an independent set of j candidates whose conflicts number at
    most j; A - B is those conflicts plus j - |∪c(E)| further tokens."""
    tokens = [1 << v for v in iter_bits(a)]
    out: list[int] = []
    for j in range(1, min(k, len(tokens)) + 1):
        for group in combinations(candidates, j):
            added = conflicts = banned = 0
            for u, c in group:
                if (banned >> u) & 1:
                    break
                added |= 1 << u
                conflicts |= c
                banned |= nbr[u]
            else:
                extra = j - conflicts.bit_count()
                if extra < 0:
                    continue
                base = (a & ~conflicts) | added
                if extra == 0:
                    out.append(base)
                    continue
                free = [t for t in tokens if not t & conflicts]
                for drop in combinations(free, extra):
                    out.append(base - sum(drop))
    return out


def _slides(a: int, candidates: list[tuple[int, int]], nbr: tuple[int, ...], k: int) -> list[int]:
    """Independent sets B reached by sliding j <= k tokens of A along edges.

    Each token of the dropped set D moves to a distinct neighbour u with
    c(u) ⊆ D (u is outside A ∪ N(A - D)), and the new vertices are pairwise
    non-adjacent, so the matching between A - B and B - A holds by
    construction."""
    tokens = list(iter_bits(a))
    out: list[int] = []

    def assign(
        base: int, dropped: tuple[int, ...], allowed: list[tuple[int, int]], added: int, banned: int
    ) -> None:
        if not dropped:
            out.append(base | added)
            return
        bit = 1 << dropped[0]
        for u, c in allowed:
            if c & bit and not ((added | banned) >> u) & 1:
                assign(base, dropped[1:], allowed, added | (1 << u), banned | nbr[u])

    for j in range(1, min(k, len(tokens)) + 1):
        for dropped in combinations(tokens, j):
            d_mask = set_to_mask(dropped)
            allowed = [(u, c) for u, c in candidates if c and not c & ~d_mask]
            assign(a & ~d_mask, dropped, allowed, 0, 0)
    return out


def _move_estimate(inst: ReconfigInstance) -> int:
    """Moves the generator may try per expansion: sum over j <= k of
    C(t, j) * C(n - t, j) under k-TJ and C(t, j) * Delta^j under k-TS, with
    t the number of tokens of the independent set (the cover's complement)."""
    g = inst.graph
    n = g.vertex_count
    t = len(inst.start) if inst.kind is FeasibilityKind.INDEPENDENT_SET else n - len(inst.start)
    if inst.rule.kind is RuleKind.KTS:
        return sum(comb(t, j) * g.max_degree**j for j in range(1, inst.rule.k + 1))
    return sum(comb(t, j) * comb(n - t, j) for j in range(1, inst.rule.k + 1))


def _chain(parent: dict[int, int | None], end: int) -> ReconfigSequence:
    steps = []
    cur: int | None = end
    while cur is not None:
        steps.append(mask_to_set(cur))
        cur = parent[cur]
    return ReconfigSequence(tuple(reversed(steps)))


def _search(
    inst: ReconfigInstance, neighbours: Neighbours, clock: _BudgetClock, want_shortest: bool
) -> SolveResult:
    target = set_to_mask(inst.target)
    parent, expanded = _bfs(set_to_mask(inst.start), neighbours, clock, target=target)
    if target not in parent:
        return SolveResult(False, None, expanded)
    seq = _chain(parent, target) if want_shortest else None
    return SolveResult(True, seq, expanded)


def solve_exact(
    inst: ReconfigInstance, want_shortest: bool = False, budget: Budget | None = None
) -> SolveResult:
    """Decide an instance by BFS over the feasible sets of size |start|.
    When want_shortest is set, the returned certificate is a minimum-length
    sequence (BFS levels).

    Neighbours are generated as moves when twice the per-state move estimate
    is below the number of feasible sets, and found by scanning the family
    otherwise; both give the same result. One budget clock covers the
    enumeration and the search."""
    start = set_to_mask(inst.start)
    if start == set_to_mask(inst.target):
        seq = ReconfigSequence((inst.start,)) if want_shortest else None
        return SolveResult(True, seq, 0)
    clock = _BudgetClock.begin(budget)
    size = len(inst.start)
    states = _feasible_masks(inst.graph, inst.kind, size, clock)
    if 2 * _move_estimate(inst) < len(states):
        neighbours = _move_generator(inst)
    else:
        neighbours = _state_scan(states, start, _rule_adjacency(inst.graph, inst.rule, size))
    return _search(inst, neighbours, clock, want_shortest)


def reachability_classes(
    g: Graph, kind: FeasibilityKind, size: int, rule: Rule, budget: Budget | None = None
) -> dict[VertexSet, int]:
    """Connected-component label for every feasible set of `size` under the
    rule. Two sets are mutually reachable iff their labels match; this is
    solve_exact's reachability relation computed for the whole family at
    once (used by sweep tests and scripts)."""
    clock = _BudgetClock.begin(budget)
    states = _feasible_masks(g, kind, size, clock)
    adjacent = _rule_adjacency(g, rule, size)
    label: dict[int, int] = {}
    next_label = 0
    unvisited = list(states)
    while unvisited:
        source = unvisited[0]
        parent, _ = _bfs(source, _state_scan(unvisited, source, adjacent), clock)
        for m in parent:
            label[m] = next_label
        next_label += 1
        unvisited = [s for s in unvisited if s not in parent]
    return {mask_to_set(m): lab for m, lab in label.items()}


def _all_independent_masks(g: Graph, clock: _BudgetClock) -> list[int]:
    masks = g.neighbor_masks
    out: list[int] = []

    def rec(idx: int, chosen: int, banned: int) -> None:
        clock.charge()
        out.append(chosen)
        for v in range(idx, g.vertex_count):
            if not ((banned >> v) & 1):
                rec(v + 1, chosen | (1 << v), banned | masks[v] | (1 << v))

    rec(0, 0, 0)
    return out


def _all_cover_masks(g: Graph, clock: _BudgetClock) -> list[int]:
    """Every vertex cover, by direct backtracking: excluding both endpoints
    of an edge is pruned as soon as the second endpoint is excluded."""
    masks = g.neighbor_masks
    n = g.vertex_count
    out: list[int] = []

    def rec(idx: int, chosen: int, excluded: int) -> None:
        clock.charge()
        if idx == n:
            out.append(chosen)
            return
        below = (1 << idx) - 1
        # exclude idx: every already-excluded neighbor below idx kills an edge
        if not (masks[idx] & excluded & below):
            rec(idx + 1, chosen, excluded | (1 << idx))
        rec(idx + 1, chosen | (1 << idx), excluded)

    rec(0, 0, 0)
    return out


def solve_tar_maxmin(
    g: Graph, i, j, budget: Budget | None = None
) -> TarResult:
    """Largest floor theta such that i and j are connected inside the family
    of independent sets of size >= theta under single add/remove steps.

    Search descends theta from min(|i|, |j|); each theta costs one BFS.
    theta = 0 always connects (through the empty set), so the descent
    terminates.
    """
    si = check_vertex_set(g, i)
    sj = check_vertex_set(g, j)
    for name, s in (("i", si), ("j", sj)):
        if not is_independent_set(g, s):
            raise PreconditionError(f"{name} is not an independent set")
    clock = _BudgetClock.begin(budget)
    if si == sj:
        return TarResult(len(si), ReconfigSequence((si,)))
    im, jm = set_to_mask(si), set_to_mask(sj)
    family = _all_independent_masks(g, clock)
    adjacent = lambda a, b: (a ^ b).bit_count() == 1
    for theta in range(min(len(si), len(sj)), -1, -1):
        states = [m for m in family if m.bit_count() >= theta]
        parent, _ = _bfs(im, _state_scan(states, im, adjacent), clock, target=jm)
        if jm in parent:
            return TarResult(theta, _chain(parent, jm))
    raise AssertionError("TAR search must succeed at theta = 0")


def solve_tar_minmax(
    g: Graph, s, t, budget: Budget | None = None
) -> TarResult:
    """Smallest ceiling theta such that s and t are connected inside the
    family of vertex covers of size <= theta under single add/remove steps.

    Dual of solve_tar_maxmin through complementation, but implemented
    independently (direct cover enumeration) for cross-checking. theta = n
    always connects (through the full vertex set).
    """
    ss = check_vertex_set(g, s)
    st = check_vertex_set(g, t)
    for name, x in (("s", ss), ("t", st)):
        if not is_vertex_cover(g, x):
            raise PreconditionError(f"{name} is not a vertex cover")
    clock = _BudgetClock.begin(budget)
    if ss == st:
        return TarResult(len(ss), ReconfigSequence((ss,)))
    sm, tm = set_to_mask(ss), set_to_mask(st)
    family = _all_cover_masks(g, clock)
    adjacent = lambda a, b: (a ^ b).bit_count() == 1
    for theta in range(max(len(ss), len(st)), g.vertex_count + 1):
        states = [m for m in family if m.bit_count() <= theta]
        parent, _ = _bfs(sm, _state_scan(states, sm, adjacent), clock, target=tm)
        if tm in parent:
            return TarResult(theta, _chain(parent, tm))
    raise AssertionError("TAR search must succeed at theta = n")
