"""Core graph types, feasibility predicates and reconfiguration adjacency.

Vertices are 0-based integers internally (file formats are 1-based, see
io_formats). Every public function reads caller-supplied ids with
vertex_mask into a vertex mask (bit v set iff v is in the set): any
iterable, a generator read once, a repeated id counted once, and
PreconditionError for an id outside [0, n). set_to_mask is its unchecked
core, for ids the library builds itself. Every value type is a frozen
record (record.py): its fields never change after construction, and every
operation here is a pure function. The one mutable part is
Graph.xp_labellings: xp_vcr_solve keeps there what it has learnt about the
graph, facts that hold for this graph only. Like any cache it is written
by queries, so a graph expects one XP query at a time; everything else can
be shared freely across threads.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .errors import GraphConstructionError, PreconditionError, SizeMismatchError
from .record import Record

if TYPE_CHECKING:
    from .xp import _Labelling

VertexSet = frozenset[int]


class Graph(Record):
    """Simple undirected graph with sorted adjacency lists.

    Invariants: no self-loops, no duplicate edges, adjacency is symmetric,
    and every neighbor id is < vertex_count. Use :func:`new_graph` instead of
    calling the constructor with raw adjacency.
    """

    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Bitmask of neighbors per vertex (bit i set iff i is adjacent)."""
        masks = []
        for nbrs in self.adjacency:
            m = 0
            for u in nbrs:
                m |= 1 << u
            masks.append(m)
        return tuple(masks)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.vertex_count) - 1

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def xp_labellings(self) -> dict[tuple[int, int], "_Labelling"]:
        """What xp_vcr_solve has learnt about this graph's compressed graphs,
        one labelling per (cover size, mu). It lives as long as the graph
        and stays empty until an XP query runs."""
        return {}

    @cached_property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.vertex_count):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    @cached_property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def induced_subgraph(self, keep: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Subgraph induced by `keep`. Returns (subgraph, new-id -> old-id map)."""
        old_ids = sorted(set(keep))
        index = {old: new for new, old in enumerate(old_ids)}
        edges = [
            (index[u], index[v])
            for u in old_ids
            for v in self.adjacency[u]
            if u < v and v in index
        ]
        return new_graph(len(old_ids), edges), tuple(old_ids)


def new_graph(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an edge list, deduplicating and symmetrizing.

    Raises GraphConstructionError naming the offending edge on a self-loop
    or an out-of-range endpoint.
    """
    if vertex_count < 0:
        raise GraphConstructionError(f"negative vertex count {vertex_count}")
    nbrs: list[set[int]] = [set() for _ in range(vertex_count)]
    for u, v in edges:
        if u == v:
            raise GraphConstructionError(f"self-loop ({u},{v})")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphConstructionError(
                f"edge ({u},{v}) out of range for {vertex_count} vertices"
            )
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(vertex_count, tuple(tuple(sorted(s)) for s in nbrs))


def set_to_mask(x: Iterable[int]) -> int:
    """The mask of the vertices in x, any iterable of ids. Each
    `m |= 1 << v` copies the mask so far, so building a wide mask bit by bit
    costs O(size * width); a set of 64 or more vertices that fills at least
    an eighth of its width is written instead as one row of binary digits,
    highest vertex first, and read by int(..., 2) in O(size + width)."""
    try:
        size = len(x)
    except TypeError:  # a generator: read it once here, since x is read twice
        x = list(x)
        size = len(x)
    if size >= 64 and (top := max(x)) < 8 * size:
        digits = bytearray(b"0") * (top + 1)
        for v in x:
            digits[top - v] = 49  # b"1"
        return int(digits, 2)
    m = 0
    for v in x:
        m |= 1 << v
    return m


# Maps the digits b"0" and b"1" to the bytes 0 and 1, false and true.
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def mask_to_set(m: int) -> VertexSet:
    """The vertices of a mask. Each step of iter_bits costs O(width), so a
    mask with many bits is read in one scan of its binary digits, lowest
    first; a sparse mask walks its bits, since the scan costs O(width)
    however few they are."""
    bits = m.bit_count()
    if bits < 6 or bits * 8 < m.bit_length():
        return frozenset(iter_bits(m))
    digits = bin(m)[:1:-1].encode().translate(_DIGIT_BYTES)
    return frozenset(itertools.compress(itertools.count(), digits))


def iter_bits(m: int) -> Iterator[int]:
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def vertex_mask(g: Graph, x: Iterable[int]) -> int:
    """The mask of the ids in x, any iterable read once; PreconditionError
    names the first id outside [0, n). 64 or more ids in range, by their min
    and max, go to set_to_mask, linear in their number; fewer, or any id out
    of range, are checked one by one as the mask is built."""
    n = g.vertex_count
    try:
        size = len(x)
    except TypeError:  # a generator: read it once, as the wide path reads x again
        x = list(x)
        size = len(x)
    if size >= 64 and min(x) >= 0 and max(x) < n:
        return set_to_mask(x)
    m = 0
    for v in x:
        if not (0 <= v < n):
            raise PreconditionError(f"vertex {v} out of range for {n} vertices")
        m |= 1 << v
    return m


def _independent_mask(masks: tuple[int, ...], xm: int) -> bool:
    """True iff no two vertices of the mask are adjacent: each vertex is
    tested against the higher ones still in the loop, so each edge once."""
    while xm:
        low = xm & -xm
        xm ^= low
        if masks[low.bit_length() - 1] & xm:
            return False
    return True


def is_independent_set(g: Graph, x: Iterable[int]) -> bool:
    """True iff no edge of g has both endpoints in x."""
    return _independent_mask(g.neighbor_masks, vertex_mask(g, x))


def is_vertex_cover(g: Graph, x: Iterable[int]) -> bool:
    """True iff every edge of g has at least one endpoint in x."""
    # x covers all edges iff V \ x is independent.
    return _independent_mask(g.neighbor_masks, g.full_mask & ~vertex_mask(g, x))


def complement_set(g: Graph, x: Iterable[int]) -> VertexSet:
    return mask_to_set(g.full_mask & ~vertex_mask(g, x))


def closed_neighborhood(g: Graph, x: Iterable[int]) -> VertexSet:
    """N[x]: x together with every vertex adjacent to x."""
    xm = vertex_mask(g, x)
    m = xm
    for v in iter_bits(xm):
        m |= g.neighbor_masks[v]
    return mask_to_set(m)


class FeasibilityKind(Enum):
    INDEPENDENT_SET = "is"
    VERTEX_COVER = "vc"


class RuleKind(Enum):
    KTJ = "ktj"
    KTS = "kts"


class Rule(Record):
    """Reconfiguration rule: jump or slide up to k tokens per step."""

    kind: RuleKind
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise PreconditionError(f"rule requires k >= 1, got {self.k}")


def is_feasible(g: Graph, kind: FeasibilityKind, mask: int) -> bool:
    """True iff the vertex mask is an independent set or a vertex cover of
    g, as kind says; a cover is a mask whose complement is independent."""
    if kind is FeasibilityKind.VERTEX_COVER:
        mask = g.full_mask & ~mask
    return _independent_mask(g.neighbor_masks, mask)


class ReconfigInstance(Record):
    """A reconfiguration question: transform start into target under rule.

    Each end is read once, into a frozenset and its vertex mask; end_masks
    holds the two masks, set at construction, for the solvers."""

    graph: Graph
    kind: FeasibilityKind
    start: VertexSet
    target: VertexSet
    rule: Rule

    def __post_init__(self):
        start, target = frozenset(self.start), frozenset(self.target)
        ends = vertex_mask(self.graph, start), vertex_mask(self.graph, target)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "end_masks", ends)
        if len(start) != len(target):
            raise SizeMismatchError(f"start has {len(start)} vertices, target has {len(target)}")
        for name, m in zip(("start", "target"), ends):
            if not is_feasible(self.graph, self.kind, m):
                raise PreconditionError(f"{name} set is not feasible for {self.kind.value}")


class ReconfigSequence(Record):
    """Ordered list of vertex sets; the certificate format for all solvers."""

    steps: tuple[VertexSet, ...]

    def __post_init__(self):
        if len(self.steps) < 1:
            raise PreconditionError("a reconfiguration sequence needs at least one step")
        object.__setattr__(self, "steps", tuple(frozenset(s) for s in self.steps))

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[VertexSet]:
        return iter(self.steps)

    def __getitem__(self, i):
        return self.steps[i]

    @property
    def length(self) -> int:
        """Number of transitions (one less than the number of steps)."""
        return len(self.steps) - 1


class Verdict(Record):
    accepted: bool
    index: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.accepted


def adjacent_ktj(g: Graph, a: Iterable[int], b: Iterable[int], k: int) -> bool:
    """k-token-jumping adjacency of two vertex sets of g: equal sizes and
    |a symmetric-diff b| <= 2k."""
    return _jump(vertex_mask(g, a), vertex_mask(g, b), k)


def _jump(am: int, bm: int, k: int) -> bool:
    """adjacent_ktj on vertex masks, with its checks of the sizes and k."""
    if am.bit_count() != bm.bit_count():
        raise SizeMismatchError(f"set sizes differ: {am.bit_count()} vs {bm.bit_count()}")
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    return (am ^ bm).bit_count() <= 2 * k


def adjacent_kts(g: Graph, a: Iterable[int], b: Iterable[int], k: int) -> bool:
    """k-token-sliding adjacency: k-TJ plus a perfect matching, along edges of
    g, between the removed vertices (a minus b) and the added ones (b minus a)."""
    am, bm = vertex_mask(g, a), vertex_mask(g, b)
    if not _jump(am, bm, k):
        return False
    return _rule_adjacency(g, Rule(RuleKind.KTS, k), am.bit_count())(am, bm)


def _rule_adjacency(g: Graph, rule: Rule, size: int) -> Callable[[int, int], bool]:
    """The rule's pair test on vertex masks of `size` vertices each: |A ∩ B| >=
    size - k, and under k-TS a perfect matching along edges of g from A - B
    onto B - A. One test serves verify_sequence and the exact search."""
    threshold = size - rule.k  # |A ∩ B| >= size - k  <=>  |A △ B| <= 2k
    if rule.kind is RuleKind.KTJ:
        if threshold <= 0:
            return lambda a, b: True
        return lambda a, b: (a & b).bit_count() >= threshold
    from .matching import _hopcroft_karp  # matching imports this module

    nbr = g.neighbor_masks

    def kts(a: int, b: int) -> bool:
        if (a & b).bit_count() < threshold:
            return False
        gone = a & ~b
        return len(_hopcroft_karp(nbr, gone, b & ~a)) == gone.bit_count()

    return kts


def verify_sequence(inst: ReconfigInstance, seq: ReconfigSequence) -> Verdict:
    """Check a certificate against an instance.

    ACCEPT iff the first step equals start, the last equals target, every
    step is feasible with cardinality |start|, and every consecutive pair is
    adjacent under the instance rule. All failures are REJECT verdicts with
    the index and reason of the first violation; nothing raises. Each step
    becomes a vertex mask once, for its feasibility and its pair tests.
    """
    g, steps = inst.graph, seq.steps
    size = len(inst.start)
    if steps[0] != inst.start:
        return Verdict(False, 0, "first step differs from the start set")
    if steps[-1] != inst.target:
        return Verdict(False, len(steps) - 1, "last step differs from the target set")
    masks = []
    for i, s in enumerate(steps):
        try:
            m = vertex_mask(g, s)
        except PreconditionError:
            return Verdict(False, i, "step contains an out-of-range vertex")
        if len(s) != size:
            return Verdict(False, i, f"step has size {len(s)}, expected {size}")
        if not is_feasible(g, inst.kind, m):
            return Verdict(False, i, f"step is not a feasible {inst.kind.value} set")
        masks.append(m)
    adjacent = _rule_adjacency(g, inst.rule, size)
    for i in range(1, len(masks)):
        if not adjacent(masks[i - 1], masks[i]):
            return Verdict(
                False, i, f"steps {i - 1} and {i} are not adjacent under the rule"
            )
    return Verdict(True)


def line_graph(g: Graph) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """Line graph of g plus the bijection line-vertex -> edge of g.

    Edge i and edge j are adjacent in the line graph iff they share an
    endpoint. Edges are numbered in lexicographic (u, v) order.
    """
    edge_list = tuple(g.edges())
    index_by_vertex: dict[int, list[int]] = {v: [] for v in range(g.vertex_count)}
    for i, (u, v) in enumerate(edge_list):
        index_by_vertex[u].append(i)
        index_by_vertex[v].append(i)
    line_edges = set()
    for incident in index_by_vertex.values():
        for i, j in itertools.combinations(incident, 2):
            line_edges.add((min(i, j), max(i, j)))
    return new_graph(len(edge_list), sorted(line_edges)), edge_list
