"""The source problems of the reductions, as records with their checks:
CNF formulas and assignments, NCL machines and their configurations, and
perfect matchings.

The parsers, the compilers and the oracles share these types. This module
imports neither the oracles nor the matching core, so a process that only
parses or compiles a source instance loads neither.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property

from .errors import PreconditionError
from .graph import Graph
from .record import Record

Matching = frozenset[tuple[int, int]]


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
