"""Compile a sandwiched E3 formula into an independent-set reconfiguration
instance of maximum degree 3 whose answer is the existence of a mixed
satisfying assignment.

Construction: per variable an even cycle alternating true/false vertices,
one (true, false) pair per literal occurrence (a two-vertex path when the
variable occurs at most once); per clause a triangle whose corners attach to
the opposite-polarity variable vertex of their occurrence, so a corner can
hold a token exactly when its literal is satisfied. The start set I holds
all false vertices plus one negative corner per clause, the target J all
true vertices plus one positive corner, and k = |I| - 1 allows any move that
keeps at least one token in place. Guaranteed values mu >= 2 are realized by
mu - 1 isolated padding vertices added to the graph and to both sets.
"""

from __future__ import annotations

from ..errors import PreconditionError
from ..graph import (
    FeasibilityKind,
    ReconfigInstance,
    Rule,
    RuleKind,
    new_graph,
)
from ..problems import CnfFormula
from .annotations import GadgetAnnotation, GadgetTag


def inte3sat_to_isr(
    phi: CnfFormula, mu: int = 1
) -> tuple[ReconfigInstance, GadgetAnnotation]:
    """Instance is YES iff phi has a mixed satisfying assignment.

    Occurrences of a variable are numbered in clause order, left to right
    inside a clause; a clause corner for the i-th occurrence of x attaches
    to t_x^i when the literal is negative and to f_x^i otherwise. The corner
    placed in I (resp. J) is the lowest-position negative (resp. positive)
    literal of each clause. Variables with no occurrence still get a
    two-vertex path so the set-to-assignment correspondence stays total.
    """
    if not phi.is_e3:
        raise PreconditionError("formula must have exactly three literals per clause")
    if not phi.is_sandwiched:
        raise PreconditionError(
            "formula must be sandwiched; otherwise the start or target set does not exist"
        )
    if mu < 1:
        raise PreconditionError(f"mu must be >= 1, got {mu}")

    n = phi.variable_count
    occurrences = [0] * (n + 1)
    for clause in phi.clauses:
        for lit in clause:
            occurrences[abs(lit)] += 1
    cycle_len = [0] + [max(occurrences[x], 1) for x in range(1, n + 1)]

    tags: list[GadgetTag] = []
    provenance: list[tuple] = []
    true_vertex: dict[tuple[int, int], int] = {}
    false_vertex: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, int]] = []

    for x in range(1, n + 1):
        a = cycle_len[x]
        base = len(tags)
        for occ in range(1, a + 1):
            true_vertex[(x, occ)] = base + 2 * (occ - 1)
            false_vertex[(x, occ)] = base + 2 * (occ - 1) + 1
            tags.extend((GadgetTag.TRUE_VERTEX, GadgetTag.FALSE_VERTEX))
            provenance.extend((("var", x, occ), ("var", x, occ)))
        for occ in range(1, a + 1):
            edges.append((true_vertex[(x, occ)], false_vertex[(x, occ)]))
        if a >= 2:
            for occ in range(1, a):
                edges.append((false_vertex[(x, occ)], true_vertex[(x, occ + 1)]))
            edges.append((false_vertex[(x, a)], true_vertex[(x, 1)]))

    corner: dict[tuple[int, int], int] = {}
    counter = [0] * (n + 1)
    for h, clause in enumerate(phi.clauses, start=1):
        base = len(tags)
        for slot, lit in enumerate(clause):
            x = abs(lit)
            counter[x] += 1
            occ = counter[x]
            v = base + slot
            corner[(h, slot)] = v
            if lit < 0:
                tags.append(GadgetTag.NEGATIVE_VERTEX)
                edges.append((v, true_vertex[(x, occ)]))
            else:
                tags.append(GadgetTag.POSITIVE_VERTEX)
                edges.append((v, false_vertex[(x, occ)]))
            provenance.append(("clause", h, slot, lit, occ))
        edges.extend(
            ((base, base + 1), (base + 1, base + 2), (base, base + 2))
        )

    start = set(false_vertex.values())
    target = set(true_vertex.values())
    for h, clause in enumerate(phi.clauses, start=1):
        neg_slot = next(s for s, lit in enumerate(clause) if lit < 0)
        pos_slot = next(s for s, lit in enumerate(clause) if lit > 0)
        start.add(corner[(h, neg_slot)])
        target.add(corner[(h, pos_slot)])

    core = ReconfigInstance(
        new_graph(len(tags), edges),
        FeasibilityKind.INDEPENDENT_SET,
        frozenset(start),
        frozenset(target),
        Rule(RuleKind.KTJ, len(start) - 1),
    )
    return add_isolated_pads(core, GadgetAnnotation(tuple(tags), tuple(provenance)), mu - 1)


def add_isolated_pads(
    inst: ReconfigInstance, annotation: GadgetAnnotation, count: int
) -> tuple[ReconfigInstance, GadgetAnnotation]:
    """Append `count` isolated vertices to the graph and to both endpoint
    sets, keeping k unchanged. Raises the guaranteed value |start| - k by
    exactly `count`."""
    if count < 0:
        raise PreconditionError("pad count must be non-negative")
    if count == 0:
        return inst, annotation
    n = inst.graph.vertex_count
    g = new_graph(n + count, list(inst.graph.edges()))
    pads = frozenset(range(n, n + count))
    existing = sum(1 for t in annotation.tags if t is GadgetTag.PAD)
    new_inst = ReconfigInstance(
        g,
        inst.kind,
        inst.start | pads,
        inst.target | pads,
        inst.rule,
    )
    tags = annotation.tags + (GadgetTag.PAD,) * count
    prov = annotation.provenance + tuple(("pad", existing + i) for i in range(count))
    return new_inst, GadgetAnnotation(tags, prov)
