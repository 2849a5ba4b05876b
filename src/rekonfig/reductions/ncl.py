"""Compile a constraint-logic machine into an independent-set
reconfiguration instance under k-TJ or k-TS, k >= 2.

Each machine edge becomes a cycle of 2k vertices holding k tokens; the two
connectors (one per endpoint) sit on consecutive cycle positions, and the
occupied connector marks the edge as directed out of that endpoint. Each
machine vertex becomes an AND or OR gadget of internal vertices wired to
its three connectors, holding one internal token whose placement options
encode the vertex's constraint. A state of the compiled graph with
n + k*m tokens decomposes as one alternating cycle state per edge gadget
plus one internal token per vertex gadget, so reconfigurability coincides
with machine reachability.
"""

from __future__ import annotations

from ..errors import PreconditionError
from ..graph import (
    FeasibilityKind,
    ReconfigInstance,
    Rule,
    RuleKind,
    VertexSet,
    new_graph,
)
from ..problems import NclConfig, NclMachine, NclVertexKind, config_is_valid
from .annotations import GadgetAnnotation, GadgetTag


def ncl_to_isr(
    machine: NclMachine,
    cs: NclConfig,
    ct: NclConfig,
    k: int,
    rule_kind: RuleKind = RuleKind.KTJ,
) -> tuple[ReconfigInstance, GadgetAnnotation]:
    """Instance is YES iff cs reaches ct by single-edge reversals.

    Cycle position 0 of the gadget for edge (u, v) is the u-side connector
    and position 1 the v-side one; tokens fill alternating positions
    starting from the connector of the edge's tail. The internal token of a
    vertex gadget goes on the lowest-index internal vertex not blocked by an
    occupied connector (a valid configuration always leaves one).
    """
    if k < 2:
        raise PreconditionError(f"edge gadgets need k >= 2, got {k}")
    for name, cfg in (("source", cs), ("target", ct)):
        if not config_is_valid(machine, cfg):
            raise PreconditionError(f"{name} configuration is invalid")

    tags: list[GadgetTag] = []
    prov: list[tuple] = []
    edges: list[tuple[int, int]] = []

    # edge gadgets: 2k-cycles, connectors at positions 0 and 1
    gadget_base: list[int] = []
    for e_idx, (u, v, _) in enumerate(machine.edges):
        base = len(tags)
        gadget_base.append(base)
        for pos in range(2 * k):
            tags.append(GadgetTag.CONNECTOR if pos < 2 else GadgetTag.INTERNAL)
            prov.append(("ncl-edge", e_idx, pos))
        for pos in range(2 * k):
            edges.append((base + pos, base + (pos + 1) % (2 * k)))

    def connector(vertex: int, e_idx: int) -> int:
        u, v, _ = machine.edges[e_idx]
        if vertex == u:
            return gadget_base[e_idx]
        if vertex == v:
            return gadget_base[e_idx] + 1
        raise PreconditionError(f"vertex {vertex} is not an endpoint of edge {e_idx}")

    # vertex gadgets: internal vertices wired to the connectors
    internals: list[list[int]] = []
    for v in range(machine.vertex_count):
        incident = machine.incident_edges(v)
        kind = machine.vertex_kinds[v]
        base = len(tags)
        if kind is NclVertexKind.AND:
            weight2 = [e for e in incident if machine.edges[e][2] == 2]
            weight1 = sorted(e for e in incident if machine.edges[e][2] == 1)
            i1, i2 = base, base + 1
            internals.append([i1, i2])
            tags.extend((GadgetTag.INTERNAL, GadgetTag.INTERNAL))
            prov.extend((("ncl-vertex", v, 0), ("ncl-vertex", v, 1)))
            edges.append((i1, i2))
            edges.append((i1, connector(v, weight2[0])))
            edges.append((i2, connector(v, weight1[0])))
            edges.append((i2, connector(v, weight1[1])))
        else:
            tri = [base, base + 1, base + 2]
            internals.append(tri)
            for idx in range(3):
                tags.append(GadgetTag.INTERNAL)
                prov.append(("ncl-vertex", v, idx))
            edges.extend(((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])))
            for idx, e_idx in enumerate(sorted(incident)):
                edges.append((tri[idx], connector(v, e_idx)))

    g = new_graph(len(tags), edges)

    def tokens_for(cfg: NclConfig) -> VertexSet:
        occupied: set[int] = set()
        for e_idx, ((u, v, _), head) in enumerate(zip(machine.edges, cfg.heads)):
            base = gadget_base[e_idx]
            # tail's connector is occupied: start filling there, every other spot
            start_pos = 1 if head == u else 0
            occupied.update(base + p for p in range(start_pos, 2 * k, 2))
        for v in range(machine.vertex_count):
            blocked_mask = occupied
            choice = next(
                i
                for i in internals[v]
                if not any(w in blocked_mask for w in g.neighbors(i))
            )
            occupied.add(choice)
        return frozenset(occupied)

    start = tokens_for(cs)
    target = tokens_for(ct)
    inst = ReconfigInstance(
        g,
        FeasibilityKind.INDEPENDENT_SET,
        start,
        target,
        Rule(rule_kind, k),
    )
    return inst, GadgetAnnotation(tuple(tags), tuple(prov))


def decompose_state(
    machine: NclMachine, annotation: GadgetAnnotation, k: int, state: VertexSet
) -> NclConfig | None:
    """Read a machine configuration off a compiled-instance state.

    Returns None unless the state has exactly k alternating tokens on every
    edge gadget and exactly one internal token per vertex gadget (every
    feasible state of the full token count does).
    """
    per_edge: dict[int, set[int]] = {i: set() for i in range(machine.edge_count)}
    per_vertex: dict[int, int] = {}
    for v in state:
        prov = annotation.of(v)
        if prov[0] == "ncl-edge":
            per_edge[prov[1]].add(prov[2])
        elif prov[0] == "ncl-vertex":
            if prov[1] in per_vertex:
                return None
            per_vertex[prov[1]] = prov[2]
        else:
            return None
    if len(per_vertex) != machine.vertex_count:
        return None
    heads = []
    for e_idx, (u, v, _) in enumerate(machine.edges):
        positions = per_edge[e_idx]
        if positions == set(range(0, 2 * k, 2)):
            heads.append(v)  # u-side connector occupied: directed out of u
        elif positions == set(range(1, 2 * k, 2)):
            heads.append(u)
        else:
            return None
    return NclConfig(tuple(heads))
