"""In-memory span tracer that wraps rekonfig's layer functions from outside.

Nothing in ``src/`` is modified at rest: ``Tracer.install`` replaces every
binding of each wrapped function in the loaded ``rekonfig.*`` modules (names
imported by value, such as ``exact.has_perfect_matching_between`` or
``cli.solve_exact``, are separate bindings of one function object) and the
``Graph.induced_subgraph`` class attribute; ``uninstall`` puts the originals
back. Each call records one span (name, start, end, parent) in flat arrays,
so millions of calls cost a few tens of megabytes. Self time is a span's
duration minus the durations of its direct traced children.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from math import comb

# Traced functions per layer; a layer is a rekonfig module ("Class.method"
# names a method).
LAYERS = {
    "exact": ("feasible_masks", "solve_exact"),
    "matching": (
        "has_perfect_matching_between",
        "konig_min_vertex_cover",
        "maximum_matching",
        "bipartition_of",
    ),
    "graph": ("Graph.induced_subgraph", "new_graph", "verify_sequence"),
    "xp": ("xp_vcr_solve", "build_clique_compressed_graph", "clique_edge_oracle"),
    "reductions": (
        "e3sat_to_inte3sat",
        "inte3sat_to_isr",
        "grid_draw",
        "planarize",
        "ncl_to_isr",
        "pmr_to_isr",
    ),
    "io_formats": (
        "parse_instance",
        "serialize_instance",
        "parse_cnf",
        "parse_certificate",
        "serialize_certificate",
    ),
    "cli": ("main",),
}

TRACED = tuple(f"{layer}.{name.split('.')[-1]}" for layer, names in LAYERS.items() for name in names)


class Tracer:
    """Records spans for the functions in LAYERS while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # Counters measured where the work happens, keyed by metric name.
        self.counts: dict[str, int] = {}

    def _bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def _observe(self, metric: str, args, kwargs, result) -> None:
        if metric == "exact.feasible_masks":
            self._bump("exact.feasible_masks.states", len(result))
        elif metric == "exact.solve_exact":
            self._bump("exact.solve_exact.expanded", result.explored_states)
        elif metric == "matching.has_perfect_matching_between":
            self._bump("matching.has_perfect_matching_between.true", bool(result))
        elif metric == "xp.clique_edge_oracle":
            hit = result[0] if isinstance(result, tuple) else result
            self._bump("xp.clique_edge_oracle.true", bool(hit))
        elif metric == "xp.build_clique_compressed_graph":
            self._bump("xp.node_pairs", comb(len(result.nodes), 2))
        elif metric == "xp.xp_vcr_solve":
            g, s, t, mu = args[:4]
            if mu != 0 and len(frozenset(s) & frozenset(t)) < mu:
                self._bump("xp.nontrivial_solves")

    def _wrap(self, metric: str, fn):
        index = len(self.names)
        self.names.append(metric)
        stack, name_of, parent, start, end = (
            self._stack, self.name_of, self.parent, self.start, self.end,
        )
        clock = time.perf_counter_ns
        observe = self._observe

        def traced(*args, **kwargs):
            span = len(name_of)
            name_of.append(index)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            observe(metric, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self) -> None:
        """Patch every binding of every traced function in rekonfig.*."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, names in LAYERS.items():
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                module = importlib.import_module(f"rekonfig.{layer}")
                if owner_name:
                    owner = getattr(module, owner_name)
                    fn = owner.__dict__[attr]
                    wrapper = self._wrap(f"{layer}.{attr}", fn)
                    self._patch(owner, attr, wrapper)
                    continue
                fn = getattr(module, attr)
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is not None and (mod_name == "rekonfig" or mod_name.startswith("rekonfig.")):
                        for key, value in list(vars(mod).items()):
                            if value is fn:
                                self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def calls(self, metric: str) -> int:
        """Calls recorded so far for one traced function."""
        try:
            index = self.names.index(metric)
        except ValueError:
            return 0
        return self.name_of.count(index)

    def summary(self) -> dict[str, float]:
        """Per-function calls and self seconds, per-layer totals, and ratios."""
        n = len(self.names)
        calls = [0] * n
        child_ns = [0] * len(self.name_of)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        for span in range(len(name_of)):
            calls[name_of[span]] += 1
            if parent[span] >= 0:
                child_ns[parent[span]] += end[span] - start[span]
        self_ns = [0] * n
        for span in range(len(name_of)):
            self_ns[name_of[span]] += end[span] - start[span] - child_ns[span]
        out: dict[str, float] = {}
        layer_calls = {layer: 0 for layer in LAYERS}
        layer_self = {layer: 0 for layer in LAYERS}
        for metric in TRACED:
            i = self.names.index(metric) if metric in self.names else -1
            c = calls[i] if i >= 0 else 0
            s = self_ns[i] if i >= 0 else 0
            out[f"{metric}.calls"] = c
            out[f"{metric}.self_s"] = s / 1e9
            layer = metric.split(".")[0]
            layer_calls[layer] += c
            layer_self[layer] += s
        for layer in LAYERS:
            out[f"{layer}.calls"] = layer_calls[layer]
            out[f"{layer}.self_s"] = layer_self[layer] / 1e9
        get = self.counts.get
        states = get("exact.feasible_masks.states", 0)
        expanded = get("exact.solve_exact.expanded", 0)
        out["exact.feasible_masks.states"] = states
        out["exact.solve_exact.expanded"] = expanded
        out["exact.expanded_ratio"] = expanded / states if states else 0.0
        hpmb = out["matching.has_perfect_matching_between.calls"]
        out["matching.has_perfect_matching_between.true_ratio"] = (
            get("matching.has_perfect_matching_between.true", 0) / hpmb if hpmb else 0.0
        )
        oracle = out["xp.clique_edge_oracle.calls"]
        out["xp.clique_edge_oracle.true_ratio"] = (
            get("xp.clique_edge_oracle.true", 0) / oracle if oracle else 0.0
        )
        solves = get("xp.nontrivial_solves", 0)
        builds = out["xp.build_clique_compressed_graph.calls"]
        out["xp.cache_hit_ratio"] = 1 - builds / solves if solves else 0.0
        pairs = get("xp.node_pairs", 0)
        out["xp.oracle_per_pair"] = oracle / pairs if pairs else 0.0
        return out
