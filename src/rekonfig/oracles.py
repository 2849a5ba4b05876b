"""Independent brute-force deciders for the reduction source problems:
satisfiability (plain and mixed), constraint-logic machine reachability, and
perfect matching reconfiguration. Compiled instances are validated against
these, never against the compilers themselves.

The caller's `Budget` (the default one when None) is their only limit, as
for the solvers: every configuration or matching they store is charged as
a state, and their loops read its clock. An input too large for the budget
raises ResourceBudgetError; any other is decided, whatever its size.

The input records and their checks live in `problems`, which the parsers
and compilers load without these deciders.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Iterable, Iterator, TypeVar

from .budget import Budget, _BudgetClock
from .errors import PreconditionError
from .graph import Graph
from .problems import (
    Assignment,
    CnfFormula,
    Matching,
    NclConfig,
    NclMachine,
    config_is_valid,
    is_perfect_matching,
)

T = TypeVar("T")


def _reading(items: Iterable[T], clock: _BudgetClock) -> Iterator[T]:
    """The items in order, with the clock read before every 4096th item, so
    its time limit bounds the loop."""
    for i, item in enumerate(items):
        if not i % 4096:
            clock.check_time()
        yield item


class SatMode(Enum):
    ANY = "any"
    MIXED = "mixed"


def sat_decide(
    phi: CnfFormula, mode: SatMode = SatMode.ANY, budget: Budget | None = None
) -> Assignment | None:
    """First satisfying assignment in enumeration order, or None.

    Variable 1 is the fastest-varying bit, so the witness is deterministic.
    MIXED skips the all-false and all-true assignments. The budget's time
    limit (the default Budget's when None) is checked once per 4096
    assignments.
    """
    n = phi.variable_count
    pos = []
    neg = []
    for c in phi.clauses:
        p = nmask = 0
        for l in c:
            if l > 0:
                p |= 1 << (l - 1)
            else:
                nmask |= 1 << (-l - 1)
        pos.append(p)
        neg.append(nmask)
    full = (1 << n) - 1
    for a in _reading(range(1 << n), _BudgetClock.begin(budget)):
        if mode is SatMode.MIXED and (a == 0 or a == full):
            continue
        if all(p & a or nm & ~a for p, nm in zip(pos, neg)):
            return Assignment(tuple(bool((a >> i) & 1) for i in range(n)))
    return None


def ncl_valid_configs(m: NclMachine) -> list[NclConfig]:
    """All valid configurations, in the deterministic order induced by
    orientation bit patterns (bit i set = edge i points to its larger
    endpoint). The default Budget applies: each valid configuration is
    charged as a state, and its clock is read before every 4096th
    orientation."""
    clock = _BudgetClock.begin(None)
    out = []
    for bits in _reading(range(1 << m.edge_count), clock):
        heads = tuple(
            (v if (bits >> i) & 1 else u) for i, (u, v, _) in enumerate(m.edges)
        )
        cfg = NclConfig(heads)
        if config_is_valid(m, cfg):
            clock.charge()
            out.append(cfg)
    return out


def _ncl_neighbors(m: NclMachine, cfg: NclConfig) -> list[NclConfig]:
    out = []
    for i, (u, v, _) in enumerate(m.edges):
        flipped = list(cfg.heads)
        flipped[i] = u if cfg.heads[i] == v else v
        cand = NclConfig(tuple(flipped))
        if config_is_valid(m, cand):
            out.append(cand)
    return out


def ncl_reachable(
    m: NclMachine, cs: NclConfig, ct: NclConfig, budget: Budget | None = None
) -> bool:
    """BFS over valid configurations under single-edge reversal. The
    budget (the default one when None) is charged a state for each
    configuration the BFS stores, and its time limit is checked once per
    configuration taken from the queue."""
    for name, c in (("source", cs), ("target", ct)):
        if not config_is_valid(m, c):
            raise PreconditionError(f"{name} configuration is invalid")
    if cs == ct:
        return True
    clock = _BudgetClock.begin(budget)
    seen = {cs.heads}
    queue = deque([cs])
    while queue:
        clock.check_time()
        cur = queue.popleft()
        for nxt in _ncl_neighbors(m, cur):
            if nxt.heads in seen:
                continue
            if nxt.heads == ct.heads:
                return True
            clock.charge()
            seen.add(nxt.heads)
            queue.append(nxt)
    return False


def enumerate_perfect_matchings(g: Graph) -> list[Matching]:
    """All perfect matchings by backtracking on the lowest-id uncovered
    vertex, partners tried in ascending order. Odd vertex count gives the
    empty list (not an error). The default Budget applies."""
    return _perfect_matchings(g, _BudgetClock.begin(None))


def _perfect_matchings(g: Graph, clock: _BudgetClock) -> list[Matching]:
    """enumerate_perfect_matchings on the caller's clock, charged a state
    for each matching found and read before every 4096th partial matching
    tried, the first one included."""
    if g.vertex_count % 2 == 1:
        return []
    out: list[Matching] = []
    chosen: list[tuple[int, int]] = []
    covered = 0
    full = g.full_mask
    tried = 0

    def rec() -> None:
        nonlocal covered, tried
        if not tried % 4096:
            clock.check_time()
        tried += 1
        if covered == full:
            clock.charge()
            out.append(frozenset(chosen))
            return
        free = (~covered) & full
        u = (free & -free).bit_length() - 1
        for v in g.neighbors(u):
            if (covered >> v) & 1:
                continue
            chosen.append((u, v) if u < v else (v, u))
            covered |= (1 << u) | (1 << v)
            rec()
            covered &= ~((1 << u) | (1 << v))
            chosen.pop()

    rec()
    return out


def pmr_reachable(g: Graph, ms: Matching, mt: Matching, budget: Budget | None = None) -> bool:
    """BFS over perfect matchings where adjacency is the flip operation:
    symmetric difference of exactly four edges (necessarily a 4-cycle). The
    budget (the default one when None) is charged a state for each perfect
    matching enumerated; its time limit covers the enumeration and the BFS,
    and is checked once per 4096 matchings either of them walks."""
    # The enumerated matchings write each edge low-to-high; so must the ends.
    ms, mt = (frozenset((min(u, v), max(u, v)) for u, v in m) for m in (ms, mt))
    for name, m in (("start", ms), ("target", mt)):
        if not is_perfect_matching(g, m):
            raise PreconditionError(f"{name} matching is not a perfect matching of the graph")
    if ms == mt:
        return True
    clock = _BudgetClock.begin(budget)
    matchings = _perfect_matchings(g, clock)
    seen = {ms}
    queue = deque([ms])
    while queue:
        cur = queue.popleft()
        for cand in _reading(matchings, clock):
            if cand in seen or len(cur ^ cand) != 4:
                continue
            if cand == mt:
                return True
            seen.add(cand)
            queue.append(cand)
    return False
