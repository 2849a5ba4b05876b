"""Deterministic grid drawing of compiled formula instances, exposing the
edge crossings that planarization will replace.

The drawing uses a (2n+3)-row by 6m-column grid (columns are x, rows y).
Clause corners sit on row 2 at the odd columns of their clause's 6-column
block, two corner edges run straight along row 2 and the third through the
bottom border row 1. The occurrence pair of a literal at column c puts the
true vertex at (c, 3) and the false vertex at (c+1, 3). A corner joins its
variable vertex by a vertical segment (negative literal, same column) or a
unit diagonal (positive literal, next column). Variable-cycle edges between
consecutive occurrence pairs run over the private row 2p+2 of variable p,
the closing edge over row 2p+3, with vertical risers on the columns of
their endpoints. Every crossing this produces is a riser of one variable
against a horizontal run of another, and variable-cycle edges always hold
exactly one token, so all crossings are good.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import PreconditionError
from ..graph import ReconfigInstance
from ..problems import CnfFormula
from ..record import Record
from .annotations import GadgetAnnotation, GadgetTag
from .isr_from_sat import inte3sat_to_isr

Point = tuple[Fraction, Fraction]
Edge = tuple[int, int]

_VAR_TAGS = (GadgetTag.TRUE_VERTEX, GadgetTag.FALSE_VERTEX)
_CORNER_TAGS = (GadgetTag.POSITIVE_VERTEX, GadgetTag.NEGATIVE_VERTEX)


class Crossing(Record):
    """Proper interior intersection of the polylines of two distinct edges.

    edge_a < edge_b canonically; the point is exact."""

    edge_a: Edge
    edge_b: Edge
    point: Point


class Drawing(Record):
    rows: int
    cols: int
    coords: tuple[tuple[int, int], ...]  # vertex -> (col, row)
    polylines: dict[Edge, tuple[tuple[int, int], ...]]
    crossings: tuple[Crossing, ...]


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(p, a, b) -> bool:
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def segment_intersection(seg1, seg2) -> Point | None:
    """Exact single intersection point of two closed segments, or None.

    Collinear segments may touch in at most one point; an overlap is a
    degenerate drawing and raises.
    """
    (p1, p2), (p3, p4) = seg1, seg2
    denom = (p1[0] - p2[0]) * (p3[1] - p4[1]) - (p1[1] - p2[1]) * (p3[0] - p4[0])
    if denom == 0:
        if _cross(p3, p4, p1) != 0 or _cross(p3, p4, p2) != 0:
            return None  # parallel, distinct lines
        touching = {p for p in (p1, p2) if _on_segment(p, p3, p4)}
        touching |= {p for p in (p3, p4) if _on_segment(p, p1, p2)}
        if not touching:
            return None
        if len(touching) == 1:
            q = touching.pop()
            return (Fraction(q[0]), Fraction(q[1]))
        raise PreconditionError("degenerate drawing: collinear overlapping segments")
    det1 = p1[0] * p2[1] - p1[1] * p2[0]
    det2 = p3[0] * p4[1] - p3[1] * p4[0]
    x = Fraction(det1 * (p3[0] - p4[0]) - (p1[0] - p2[0]) * det2, denom)
    y = Fraction(det1 * (p3[1] - p4[1]) - (p1[1] - p2[1]) * det2, denom)
    q = (x, y)
    if _on_segment(q, p1, p2) and _on_segment(q, p3, p4):
        return q
    return None


def _segments(points) -> list[tuple]:
    return [(points[i], points[i + 1]) for i in range(len(points) - 1)]


def find_crossings(
    polylines: dict[Edge, tuple[tuple[int, int], ...]],
    coords: tuple[tuple[int, int], ...],
) -> list[Crossing]:
    """All proper interior intersections between polylines of distinct edges.

    Edges sharing a graph vertex may touch at that vertex's coordinate only;
    contact at any other polyline endpoint is rejected as degenerate.
    """
    edges = sorted(polylines)
    frac = lambda p: (Fraction(p[0]), Fraction(p[1]))
    out: list[Crossing] = []
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            e, f = edges[i], edges[j]
            allowed = {frac(coords[v]) for v in set(e) & set(f)}
            terminals = {frac(coords[v]) for v in (*e, *f)}
            hits: set[Point] = set()
            for s1 in _segments(polylines[e]):
                for s2 in _segments(polylines[f]):
                    q = segment_intersection(s1, s2)
                    if q is not None:
                        hits.add(q)
            for q in sorted(hits):
                if q in allowed:
                    continue
                if q in terminals:
                    raise PreconditionError(
                        f"degenerate drawing: edges {e} and {f} meet at a vertex they do not share"
                    )
                out.append(Crossing(e, f, q))
    out.sort(key=lambda c: (c.edge_a, c.edge_b, c.point))
    return out


def _reconstruct_formula(annotation: GadgetAnnotation) -> CnfFormula:
    clause_lits: dict[int, dict[int, int]] = {}
    variables = 0
    for tag, prov in zip(annotation.tags, annotation.provenance):
        if tag in _VAR_TAGS:
            variables = max(variables, prov[1])
        elif tag in _CORNER_TAGS:
            _, h, slot, lit, _ = prov
            clause_lits.setdefault(h, {})[slot] = lit
            variables = max(variables, abs(lit))
        elif tag is GadgetTag.PAD:
            raise PreconditionError("drawing requires the mu = 1 core (no pad vertices)")
        else:
            raise PreconditionError(f"unexpected vertex tag {tag.value} for a formula instance")
    clauses = []
    for h in range(1, len(clause_lits) + 1):
        slots = clause_lits.get(h)
        if slots is None or sorted(slots) != [0, 1, 2]:
            raise PreconditionError(f"clause {h} is incomplete in the annotation")
        clauses.append((slots[0], slots[1], slots[2]))
    return CnfFormula(variables, tuple(clauses))


def grid_draw(inst: ReconfigInstance, annotation: GadgetAnnotation) -> Drawing:
    """Draw a compiled formula instance on the (2n+3) x 6m grid.

    The input must be exactly what inte3sat_to_isr produces for mu = 1: the
    formula is reconstructed from the annotation and recompiled as a check,
    so hand-altered instances are rejected. Every variable must occur in
    some clause (the grid has no spare columns for unused variables).
    """
    if len(annotation) != inst.graph.vertex_count:
        raise PreconditionError("annotation does not match the instance graph")
    phi = _reconstruct_formula(annotation)
    expect, _ = inte3sat_to_isr(phi, mu=1)
    if (
        expect.graph != inst.graph
        or expect.start != inst.start
        or expect.target != inst.target
        or expect.rule != inst.rule
        or expect.kind != inst.kind
    ):
        raise PreconditionError("instance was not produced by the formula compiler")

    n = phi.variable_count
    m = phi.clause_count
    rows, cols = 2 * n + 3, 6 * m

    coords: list[tuple[int, int] | None] = [None] * inst.graph.vertex_count
    corner_col: dict[tuple[int, int], int] = {}
    occ_col: dict[tuple[int, int], int] = {}  # (variable, occurrence) -> column of t
    for v, (tag, prov) in enumerate(zip(annotation.tags, annotation.provenance)):
        if tag in _CORNER_TAGS:
            _, h, slot, lit, occ = prov
            col = 6 * (h - 1) + 2 * slot + 1
            coords[v] = (col, 2)
            corner_col[(h, slot)] = col
            occ_col[(abs(lit), occ)] = col
    for v, (tag, prov) in enumerate(zip(annotation.tags, annotation.provenance)):
        if tag in _VAR_TAGS:
            _, x, occ = prov
            col = occ_col.get((x, occ))
            if col is None:
                raise PreconditionError(
                    f"variable {x} has no occurrence; its gadget cannot be placed on the grid"
                )
            coords[v] = (col, 3) if tag is GadgetTag.TRUE_VERTEX else (col + 1, 3)

    polylines: dict[Edge, tuple[tuple[int, int], ...]] = {}

    def put(u: int, v: int, points: list[tuple[int, int]]) -> None:
        pts = [tuple(p) for p in points]
        assert pts[0] == coords[u] and pts[-1] == coords[v]
        if u > v:
            u, v = v, u
            pts.reverse()
        polylines[(u, v)] = tuple(pts)

    for u, v in inst.graph.edges():
        tu, tv = annotation.tags[u], annotation.tags[v]
        if tu in _CORNER_TAGS and tv in _CORNER_TAGS:
            _, h, slot_u, _, _ = annotation.of(u)
            _, _, slot_v, _, _ = annotation.of(v)
            if {slot_u, slot_v} == {0, 2}:
                first = u if slot_u == 0 else v
                last = v if first == u else u
                c0, c2 = corner_col[(h, 0)], corner_col[(h, 2)]
                put(first, last, [(c0, 2), (c0, 1), (c2, 1), (c2, 2)])
            else:
                put(u, v, [coords[u], coords[v]])
        elif tu in _CORNER_TAGS or tv in _CORNER_TAGS:
            # attachment: vertical to a true vertex, unit diagonal to a false one
            put(u, v, [coords[u], coords[v]])
        else:
            _, x, occ_u = annotation.of(u)
            _, _, occ_v = annotation.of(v)
            if occ_u == occ_v:  # pair edge along row 3
                put(u, v, [coords[u], coords[v]])
            else:
                f_end = u if tu is GadgetTag.FALSE_VERTEX else v
                t_end = v if f_end == u else u
                f_occ = annotation.of(f_end)[2]
                t_occ = annotation.of(t_end)[2]
                # consecutive edges join f^j to t^(j+1) over row 2x+2; the
                # closing edge joins the last f back to t^1 over row 2x+3
                row = 2 * x + 2 if t_occ == f_occ + 1 else 2 * x + 3
                put(
                    f_end,
                    t_end,
                    [
                        coords[f_end],
                        (coords[f_end][0], row),
                        (coords[t_end][0], row),
                        coords[t_end],
                    ],
                )

    coords_t = tuple(c for c in coords)  # type: ignore[arg-type]
    if any(not (1 <= c[0] <= cols and 1 <= c[1] <= rows) for c in coords_t):
        raise AssertionError("vertex placed outside the grid")
    crossings = find_crossings(polylines, coords_t)
    for c in crossings:
        for e in (c.edge_a, c.edge_b):
            if not all(annotation.tags[w] in _VAR_TAGS for w in e):
                raise AssertionError(
                    f"drawing produced a crossing outside variable gadgets on edge {e}"
                )
    return Drawing(rows, cols, coords_t, polylines, tuple(crossings))
