"""Replace every drawing crossing with an 8-vertex crossover gadget,
yielding a planar max-degree-4 instance with the same answer.

The gadget has ports u1p, u2p on one crossed edge and v1p, v2p on the
other, plus an inner 4-cycle w1 w2 w3 w4; it always carries exactly three
tokens, and the token triple is a function of which endpoint of each
crossed edge is occupied. An edge crossed several times threads through its
gadgets in drawing order: original endpoint, near port, far port, next
gadget's near port, and so on. Both endpoint sets gain three tokens per
crossing, so sizes grow by 3 * crossings and k stays |start| - 1.
"""

from __future__ import annotations

from fractions import Fraction

from ..budget import Budget, _BudgetClock
from ..errors import NonGoodCrossingError, PreconditionError
from ..graph import (
    FeasibilityKind,
    ReconfigInstance,
    Rule,
    RuleKind,
    new_graph,
    set_to_mask,
)
from .annotations import GadgetAnnotation, GadgetTag
from .drawing import Crossing, Drawing, Edge

# gadget-internal edges, by role; ports attach outward separately
GADGET_ROLES = ("u1p", "u2p", "v1p", "v2p", "w1", "w2", "w3", "w4")
GADGET_EDGES = (
    ("u1p", "w1"),
    ("u1p", "w4"),
    ("u2p", "w2"),
    ("u2p", "w3"),
    ("v1p", "w1"),
    ("v1p", "w2"),
    ("v2p", "w3"),
    ("v2p", "w4"),
    ("w1", "w2"),
    ("w2", "w3"),
    ("w3", "w4"),
    ("w4", "w1"),
)

# tokens carried by the gadget, keyed by (occupied endpoint of the u-edge,
# occupied endpoint of the v-edge), endpoints indexed 1 = lower vertex id
_TOKEN_TABLE: dict[tuple[int, int], tuple[str, str, str]] = {
    (1, 1): ("w1", "u2p", "v2p"),
    (2, 1): ("w2", "u1p", "v2p"),
    (1, 2): ("w4", "u2p", "v1p"),
    (2, 2): ("w3", "u1p", "v1p"),
}


def build_crossover_gadget() -> tuple:
    """The isolated 8-vertex gadget as (graph, role -> vertex id map)."""
    role_id = {r: i for i, r in enumerate(GADGET_ROLES)}
    g = new_graph(8, [(role_id[a], role_id[b]) for a, b in GADGET_EDGES])
    return g, role_id


def _segment_param(polyline, point) -> tuple[int, Fraction]:
    """(segment index, offset) of a point lying on a polyline."""
    px, py = point
    for i in range(len(polyline) - 1):
        (x1, y1), (x2, y2) = polyline[i], polyline[i + 1]
        if min(x1, x2) <= px <= max(x1, x2) and min(y1, y2) <= py <= max(y1, y2):
            if (x2 - x1) * (py - y1) == (y2 - y1) * (px - x1):
                dx, dy = x2 - x1, y2 - y1
                off = (px - x1) / dx if dx else (py - y1) / dy if dy else Fraction(0)
                return i, Fraction(off)
    raise PreconditionError(f"crossing point {point} does not lie on its edge polyline")


def _endpoint_in(edge: Edge, s) -> int | None:
    """1 or 2 when exactly one endpoint of edge lies in s, else None."""
    first = edge[0] in s
    second = edge[1] in s
    if first == second:
        return None
    return 1 if first else 2


def _check_good(
    inst: ReconfigInstance,
    annotation: GadgetAnnotation,
    crossing: Crossing,
    clock: _BudgetClock,
) -> None:
    """Raise NonGoodCrossingError unless each feasible set of |start| takes
    exactly one endpoint of each crossed edge: probe for an independent set
    of |start| avoiding both, or for covers for the complement, of
    n - |start|, of a cover that takes both."""
    structural = True
    for e in (crossing.edge_a, crossing.edge_b):
        tags = [annotation.tags[v] for v in e]
        provs = [annotation.of(v) for v in e]
        if not all(t in (GadgetTag.TRUE_VERTEX, GadgetTag.FALSE_VERTEX) for t in tags):
            structural = False
        elif provs[0][1] != provs[1][1]:
            structural = False  # not a single variable's cycle edge
    if structural:
        return  # variable-cycle edges are always good: even cycle, alternating tokens
    from ..exact import _first_independent  # the only use of the solver in `reduce`

    g = inst.graph
    cover = inst.kind is FeasibilityKind.VERTEX_COVER
    size = g.vertex_count - len(inst.start) if cover else len(inst.start)
    for e in (crossing.edge_a, crossing.edge_b):
        if _first_independent(g, size, clock, g.full_mask & ~set_to_mask(e)) is not None:
            raise NonGoodCrossingError(
                f"crossing of {crossing.edge_a} and {crossing.edge_b} is not good: "
                f"a maximum-size feasible set takes {2 if cover else 0} "
                f"endpoints of edge {e}"
            )


def planarize(
    inst: ReconfigInstance,
    drawing: Drawing,
    annotation: GadgetAnnotation,
    budget: Budget | None = None,
) -> tuple[ReconfigInstance, GadgetAnnotation]:
    """Planarized instance plus its extended annotation.

    Requires the mu = 1 rule shape (k-TJ with k = |start| - 1) and good
    crossings. Goodness is known structurally for variable-cycle edges;
    for any other crossed edge, every feasible set of |start| must take
    exactly one of its endpoints, which one probe per edge decides
    (NonGoodCrossingError otherwise). An instance whose drawing has no
    crossing is returned unchanged.
    """
    if drawing.polylines.keys() != set(inst.graph.edges()):
        raise PreconditionError("drawing does not cover exactly the instance edges")
    if not drawing.crossings:
        return inst, annotation
    if inst.rule.kind is not RuleKind.KTJ or inst.rule.k != len(inst.start) - 1:
        raise PreconditionError(
            "planarization expects the mu = 1 core rule (k-TJ, k = |start| - 1)"
        )

    clock = _BudgetClock.begin(budget)
    for c in drawing.crossings:
        _check_good(inst, annotation, c, clock)
    for c in drawing.crossings:
        for e in (c.edge_a, c.edge_b):
            if _endpoint_in(e, inst.start) is None or _endpoint_in(e, inst.target) is None:
                raise NonGoodCrossingError(
                    f"edge {e} does not hold exactly one start and one target token"
                )

    crossed: set[Edge] = set()
    for c in drawing.crossings:
        crossed.add(c.edge_a)
        crossed.add(c.edge_b)

    n0 = inst.graph.vertex_count
    tags = list(annotation.tags)
    prov = list(annotation.provenance)
    role_of: list[dict[str, int]] = []
    for idx, c in enumerate(drawing.crossings):
        base = n0 + 8 * idx
        role_of.append({r: base + i for i, r in enumerate(GADGET_ROLES)})
        for r in GADGET_ROLES:
            tags.append(GadgetTag.CROSSOVER)
            prov.append(("crossing", idx, r))

    edges: list[tuple[int, int]] = [e for e in inst.graph.edges() if e not in crossed]
    for idx in range(len(drawing.crossings)):
        ids = role_of[idx]
        edges.extend((ids[a], ids[b]) for a, b in GADGET_EDGES)

    # thread each crossed edge through its gadgets in drawing order
    by_edge: dict[Edge, list[tuple[int, str]]] = {e: [] for e in crossed}
    for idx, c in enumerate(drawing.crossings):
        by_edge[c.edge_a].append((idx, "u"))
        by_edge[c.edge_b].append((idx, "v"))
    for e, hits in by_edge.items():
        poly = drawing.polylines[e]
        hits.sort(
            key=lambda h: _segment_param(poly, drawing.crossings[h[0]].point)
        )
        prev = e[0]
        for idx, side in hits:
            ids = role_of[idx]
            near, far = (ids["u1p"], ids["u2p"]) if side == "u" else (ids["v1p"], ids["v2p"])
            edges.append((prev, near))
            prev = far
        edges.append((prev, e[1]))

    start = set(inst.start)
    target = set(inst.target)
    for idx, c in enumerate(drawing.crossings):
        ids = role_of[idx]
        su_i, sv_i = _endpoint_in(c.edge_a, inst.start), _endpoint_in(c.edge_b, inst.start)
        su_j, sv_j = _endpoint_in(c.edge_a, inst.target), _endpoint_in(c.edge_b, inst.target)
        start.update(ids[r] for r in _TOKEN_TABLE[(su_i, sv_i)])
        target.update(ids[r] for r in _TOKEN_TABLE[(su_j, sv_j)])

    g = new_graph(n0 + 8 * len(drawing.crossings), edges)
    out = ReconfigInstance(
        g,
        inst.kind,
        frozenset(start),
        frozenset(target),
        Rule(RuleKind.KTJ, len(start) - 1),
    )
    return out, GadgetAnnotation(tuple(tags), tuple(prov))
