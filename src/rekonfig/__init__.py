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
__version__ = "0.1.0"


def _lazy_exports(namespace: dict, exports: dict[str, tuple[str, ...]]) -> None:
    """Set a package's `__all__`, `_MODULE_OF` and PEP 562 hooks, given its
    globals and its exported names per submodule; this package and
    `reductions` share it."""
    package = namespace["__name__"]
    module_of = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        # Not cached here: the name always reads the current binding in its module.
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(import_module(f".{module}", package), name)

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(module_of))

    namespace.update(
        _MODULE_OF=module_of, __all__=sorted(module_of), __getattr__=__getattr__, __dir__=__dir__
    )


_lazy_exports(globals(), _EXPORTS)
