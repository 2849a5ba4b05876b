"""Independent brute-force deciders for the reduction source problems:
satisfiability (plain and mixed), constraint-logic machine reachability, and
perfect matching reconfiguration. Compiled instances are validated against
these, never against the compilers themselves.

The caller's `Budget` (the default one when None) is their only limit, as
for the solvers: every configuration or matching they store is charged as
a state, and their loops read its clock. An input too large for the budget
raises ResourceBudgetError; any other is decided, whatever its size.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, TypeVar

from .budget import Budget, _BudgetClock
from .errors import PreconditionError
from .graph import Graph
from .matching import Matching
from .record import Record

T = TypeVar("T")


def _reading(items: Iterable[T], clock: _BudgetClock) -> Iterator[T]:
    """The items in order, with the clock read before every 4096th item, so
    its time limit bounds the loop."""
    for i, item in enumerate(items):
        if not i % 4096:
            clock.check_time()
        yield item


class CnfFormula(Record):
    """CNF over variables 1..variable_count; clauses are literal tuples where
    literal +v is the variable and -v its negation. Duplicate literals inside
    a clause are allowed and counted positionally (E3 means three literal
    slots, not three distinct variables)."""

    variable_count: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.variable_count < 0:
            raise PreconditionError("negative variable count")
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        for c in self.clauses:
            if len(c) == 0:
                raise PreconditionError("empty clause")
            for lit in c:
                if lit == 0 or abs(lit) > self.variable_count:
                    raise PreconditionError(f"literal {lit} out of range")

    @cached_property
    def is_e3(self) -> bool:
        return all(len(c) == 3 for c in self.clauses)

    @cached_property
    def is_sandwiched(self) -> bool:
        """Every clause mixes polarities, i.e. the all-true and the all-false
        assignments both satisfy the formula."""
        return all(
            any(l > 0 for l in c) and any(l < 0 for l in c) for c in self.clauses
        )

    @property
    def clause_count(self) -> int:
        return len(self.clauses)


class Assignment(Record):
    values: tuple[bool, ...]  # values[i] is the value of variable i+1

    @property
    def is_mixed(self) -> bool:
        return any(self.values) and not all(self.values)

    def satisfies(self, phi: CnfFormula) -> bool:
        v = self.values
        return all(
            any(v[l - 1] if l > 0 else not v[-l - 1] for l in c) for c in phi.clauses
        )


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


class NclVertexKind(Enum):
    AND = "and"
    OR = "or"


class NclMachine(Record):
    """AND/OR constraint graph: weighted degree-3 machine whose edges carry
    weight 1 or 2. A vertex with incident weights {1,1,2} is an AND vertex,
    one with {2,2,2} an OR vertex; anything else is rejected."""

    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]  # (u, v, weight), u < v

    def __post_init__(self):
        if self.vertex_count < 0:
            raise PreconditionError(f"negative vertex count {self.vertex_count}")
        norm = []
        seen = set()
        for u, v, w in self.edges:
            if u == v:
                raise PreconditionError(f"self-loop ({u},{v}) in machine")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise PreconditionError(f"edge ({u},{v}) out of range")
            if w not in (1, 2):
                raise PreconditionError(f"edge weight {w} must be 1 or 2")
            a, b = min(u, v), max(u, v)
            if (a, b) in seen:
                raise PreconditionError(f"duplicate machine edge ({a},{b})")
            seen.add((a, b))
            norm.append((a, b, w))
        object.__setattr__(self, "edges", tuple(norm))
        self.vertex_kinds  # force the degree/weight validation

    @cached_property
    def vertex_kinds(self) -> tuple[NclVertexKind, ...]:
        incident: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v, w in self.edges:
            incident[u].append(w)
            incident[v].append(w)
        kinds = []
        for v, ws in enumerate(incident):
            if sorted(ws) == [1, 1, 2]:
                kinds.append(NclVertexKind.AND)
            elif sorted(ws) == [2, 2, 2]:
                kinds.append(NclVertexKind.OR)
            else:
                raise PreconditionError(
                    f"vertex {v} has incident weights {sorted(ws)}; "
                    "only AND {1,1,2} and OR {2,2,2} vertices are allowed"
                )
        return tuple(kinds)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def incident_edges(self, v: int) -> list[int]:
        return [i for i, (a, b, _) in enumerate(self.edges) if v in (a, b)]


class NclConfig(Record):
    """Edge orientation, stored as the head vertex per machine edge."""

    heads: tuple[int, ...]


def config_is_valid(m: NclMachine, cfg: NclConfig) -> bool:
    """Total incoming weight at least 2 at every vertex."""
    if len(cfg.heads) != m.edge_count:
        raise PreconditionError("orientation length differs from machine edge count")
    inweight = [0] * m.vertex_count
    for (u, v, w), h in zip(m.edges, cfg.heads):
        if h not in (u, v):
            raise PreconditionError(f"head {h} is not an endpoint of edge ({u},{v})")
        inweight[h] += w
    return all(x >= 2 for x in inweight)


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


def is_matching(g: Graph, m: Matching) -> bool:
    used: set[int] = set()
    for u, v in m:
        if not g.has_edge(u, v):
            return False
        if u in used or v in used:
            return False
        used.add(u)
        used.add(v)
    return True


def is_perfect_matching(g: Graph, m: Matching) -> bool:
    return is_matching(g, m) and 2 * len(m) == g.vertex_count


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
