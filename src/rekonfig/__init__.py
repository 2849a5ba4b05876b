"""Independent-set and vertex-cover reconfiguration under the k-token-
jumping and k-token-sliding rules: exact solvers, an XP vertex-cover
algorithm parameterized by the guaranteed value, and gadget reduction
compilers with brute-force oracles for cross-checking.

The names below load their module on first use (PEP 562), so importing one
module, such as ``rekonfig.cli``, does not load the others.
"""

from importlib import import_module

_EXPORTS = {
    "bounds": ("LengthBound", "find_simple_sequence", "shortest_length_bound"),
    "budget": ("Budget",),
    "errors": (
        "FormatSemanticsError",
        "FormatSyntaxError",
        "GraphConstructionError",
        "NonGoodCrossingError",
        "PreconditionError",
        "RekonfigError",
        "ResourceBudgetError",
        "SizeMismatchError",
    ),
    "exact": (
        "SolveResult",
        "TarResult",
        "max_independent_set",
        "min_vertex_cover",
        "reachability_classes",
        "solve_exact",
        "solve_tar_maxmin",
        "solve_tar_minmax",
    ),
    "graph": (
        "FeasibilityKind",
        "Graph",
        "ReconfigInstance",
        "ReconfigSequence",
        "Rule",
        "RuleKind",
        "Verdict",
        "VertexSet",
        "adjacent_ktj",
        "adjacent_kts",
        "closed_neighborhood",
        "complement_set",
        "is_independent_set",
        "is_vertex_cover",
        "line_graph",
        "new_graph",
        "verify_sequence",
    ),
    "matching": (
        "Bipartition",
        "bipartition_of",
        "has_perfect_matching_between",
        "konig_min_vertex_cover",
        "maximum_matching",
    ),
    "oracles": (
        "SatMode",
        "enumerate_perfect_matchings",
        "ncl_reachable",
        "ncl_valid_configs",
        "pmr_reachable",
        "sat_decide",
    ),
    "problems": (
        "Assignment",
        "CnfFormula",
        "Matching",
        "NclConfig",
        "NclMachine",
        "NclVertexKind",
        "config_is_valid",
        "is_perfect_matching",
    ),
    "xp": (
        "CliqueCompressedGraph",
        "build_clique_compressed_graph",
        "clique_edge_oracle",
        "xp_vcr_solve",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Not cached here: the name always reads the current binding in its module.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
