from fractions import Fraction

import networkx as nx
import pytest

from rekonfig.errors import NonGoodCrossingError, PreconditionError
from rekonfig.exact import solve_exact
from rekonfig.graph import (
    FeasibilityKind,
    ReconfigInstance,
    Rule,
    RuleKind,
    new_graph,
)
from rekonfig.oracles import CnfFormula
from rekonfig.reductions import (
    GadgetTag,
    build_crossover_gadget,
    grid_draw,
    inte3sat_to_isr,
    planarize,
    segment_intersection,
)
from rekonfig.reductions.drawing import Drawing, find_crossings

FIG_FORMULA = CnfFormula(4, ((1, -2, -4), (-1, -3, 4), (2, 3, -4)))
# two clauses, four crossings: variable 1 occurs twice in clause 1, so its
# cycle spans the column block where variable 2's first occurrence sits
MINIMAL_CROSSING = CnfFormula(3, ((1, -2, -1), (2, -3, 3)))


def test_segment_intersection_cases():
    f = Fraction
    assert segment_intersection(((0, 0), (2, 2)), ((0, 2), (2, 0))) == (f(1), f(1))
    assert segment_intersection(((0, 0), (1, 0)), ((2, 0), (3, 0))) is None
    assert segment_intersection(((0, 0), (1, 1)), ((1, 1), (2, 0))) == (f(1), f(1))
    assert segment_intersection(((0, 0), (0, 1)), ((1, 0), (1, 1))) is None
    with pytest.raises(PreconditionError):
        segment_intersection(((0, 0), (2, 0)), ((1, 0), (3, 0)))  # overlap


def test_fig_formula_grid_shape():
    inst, ann = inte3sat_to_isr(FIG_FORMULA, mu=1)
    d = grid_draw(inst, ann)
    assert (d.rows, d.cols) == (11, 18)
    assert all(1 <= c <= d.cols and 1 <= r <= d.rows for c, r in d.coords)


def test_fig_formula_crossings_variable_only():
    inst, ann = inte3sat_to_isr(FIG_FORMULA, mu=1)
    d = grid_draw(inst, ann)
    assert len(d.crossings) > 0
    for c in d.crossings:
        vars_a = {ann.of(v)[1] for v in c.edge_a}
        vars_b = {ann.of(v)[1] for v in c.edge_b}
        assert len(vars_a) == 1 and len(vars_b) == 1
        assert vars_a != vars_b  # distinct variable gadgets


def test_grid_draw_rejects_foreign_instances(c4):
    inst, ann = inte3sat_to_isr(FIG_FORMULA, mu=1)
    other = ReconfigInstance(
        c4,
        FeasibilityKind.INDEPENDENT_SET,
        frozenset({0, 2}),
        frozenset({1, 3}),
        Rule(RuleKind.KTJ, 1),
    )
    with pytest.raises(PreconditionError):
        grid_draw(other, ann)
    padded, padded_ann = inte3sat_to_isr(FIG_FORMULA, mu=2)
    with pytest.raises(PreconditionError, match="pad"):
        grid_draw(padded, padded_ann)


def test_crossover_gadget_basics():
    g, roles = build_crossover_gadget()
    assert g.vertex_count == 8 and g.edge_count == 12
    assert g.max_degree == 4


def test_minimal_crossing_instance():
    inst, ann = inte3sat_to_isr(MINIMAL_CROSSING, mu=1)
    d = grid_draw(inst, ann)
    assert len(d.crossings) == 4


def test_planarize_preserves_verdict_and_shape():
    inst, ann = inte3sat_to_isr(MINIMAL_CROSSING, mu=1)
    d = grid_draw(inst, ann)
    planar, pann = planarize(inst, d, ann)
    assert planar.graph.vertex_count == inst.graph.vertex_count + 8 * len(d.crossings)
    assert len(planar.start) == len(inst.start) + 3 * len(d.crossings)
    assert len(planar.target) == len(inst.target) + 3 * len(d.crossings)
    assert not (planar.start & planar.target)
    assert planar.graph.max_degree == 4
    G = nx.Graph(list(planar.graph.edges()))
    G.add_nodes_from(range(planar.graph.vertex_count))
    assert nx.check_planarity(G)[0]
    assert solve_exact(planar).reachable == solve_exact(inst).reachable
    crossover = pann.vertices_with_tag(GadgetTag.CROSSOVER)
    assert len(crossover) == 8 * len(d.crossings)


def test_planarize_no_crossings_returns_input():
    phi = CnfFormula(2, ((1, -2, 2),))
    inst, ann = inte3sat_to_isr(phi, mu=1)
    d = grid_draw(inst, ann)
    assert len(d.crossings) == 0
    out, out_ann = planarize(inst, d, ann)
    assert out is inst and out_ann is ann


def test_planarize_rejects_non_good_crossing():
    # two disjoint edges plus an isolated vertex: the maximum-size family
    # contains {0, 4}, which misses edge (2, 3) entirely
    g = new_graph(5, [(0, 1), (2, 3)])
    inst = ReconfigInstance(
        g,
        FeasibilityKind.INDEPENDENT_SET,
        frozenset({0, 2}),
        frozenset({1, 3}),
        Rule(RuleKind.KTJ, 1),
    )
    from rekonfig.reductions import GadgetAnnotation

    ann = GadgetAnnotation(
        (GadgetTag.INTERNAL,) * 5, tuple(("hand", i) for i in range(5))
    )
    coords = ((1, 1), (3, 3), (1, 3), (3, 1), (5, 5))
    polylines = {
        (0, 1): ((1, 1), (3, 3)),
        (2, 3): ((1, 3), (3, 1)),
    }
    crossings = tuple(find_crossings(polylines, coords))
    assert len(crossings) == 1
    d = Drawing(5, 5, coords, polylines, crossings)
    with pytest.raises(NonGoodCrossingError):
        planarize(inst, d, ann)


def test_planarize_accepts_a_good_non_structural_crossing():
    # two disjoint edges: every independent 2-set takes one endpoint of
    # each, so the probes find no fault and the crossing is replaced by a
    # gadget that keeps the verdict
    g = new_graph(4, [(0, 1), (2, 3)])
    inst = ReconfigInstance(
        g,
        FeasibilityKind.INDEPENDENT_SET,
        frozenset({0, 2}),
        frozenset({1, 3}),
        Rule(RuleKind.KTJ, 1),
    )
    from rekonfig.reductions import GadgetAnnotation

    ann = GadgetAnnotation(
        (GadgetTag.INTERNAL,) * 4, tuple(("hand", i) for i in range(4))
    )
    coords = ((1, 1), (3, 3), (1, 3), (3, 1))
    polylines = {
        (0, 1): ((1, 1), (3, 3)),
        (2, 3): ((1, 3), (3, 1)),
    }
    crossings = tuple(find_crossings(polylines, coords))
    assert len(crossings) == 1
    out, _ = planarize(inst, Drawing(4, 4, coords, polylines, crossings), ann)
    assert out.graph.vertex_count == 12 and len(out.start) == 5
    want = solve_exact(inst).reachable
    assert want
    assert solve_exact(out).reachable == want
