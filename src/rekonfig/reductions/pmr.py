"""Perfect matching reconfiguration as independent-set reconfiguration on
the line graph.

Matchings of a graph are exactly the independent sets of its line graph,
and a flip (exchanging the two matchings of a 4-cycle, symmetric difference
4) is exactly a 2-token move, so the compiled instance under 2-TJ or 2-TS
answers flip reachability between two perfect matchings.
"""

from __future__ import annotations

from ..errors import PreconditionError
from ..graph import (
    FeasibilityKind,
    Graph,
    ReconfigInstance,
    Rule,
    RuleKind,
    line_graph,
)
from ..problems import Matching, is_perfect_matching


def pmr_to_isr(
    g: Graph, ms: Matching, mt: Matching, rule_kind: RuleKind = RuleKind.KTJ
) -> ReconfigInstance:
    """Instance on the line graph with k = 2; YES iff ms reaches mt under
    flips. Start and target are the edge-index images of the matchings."""
    ms = frozenset(tuple(sorted(e)) for e in ms)
    mt = frozenset(tuple(sorted(e)) for e in mt)
    for name, m in (("start", ms), ("target", mt)):
        if not is_perfect_matching(g, m):
            raise PreconditionError(f"{name} matching is not a perfect matching")
    lg, edge_of = line_graph(g)
    index = {e: i for i, e in enumerate(edge_of)}
    start = frozenset(index[e] for e in ms)
    target = frozenset(index[e] for e in mt)
    return ReconfigInstance(
        lg, FeasibilityKind.INDEPENDENT_SET, start, target, Rule(rule_kind, 2)
    )
