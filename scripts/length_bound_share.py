#!/usr/bin/env python3
"""How often the length bound is the shortest length, per workload and rule.

_search settles ends one move apart by the pair test; every other search
has length at least L = max(⌈|S △ T| / 2k⌉, 2). Under k-TJ it first runs one
pass bounded by L, which decides when the shortest length is L or the pass
ends with nothing pruned, and falls back to the plain search otherwise.
This script runs the instances of the benchmark workloads that search
(bfs_k1 and bfs_k2 through solve_exact, cli_pipeline through the CLI in
this process) and a random family off the benchmark, and prints, for each
workload and rule, the searches past the pair test, how many are YES, how
many of those have shortest length L, and how many the bounded pass
decided and how many fell back.

Usage (from the repository root):
    PYTHONPATH=src python scripts/length_bound_share.py [--seed 1] [--random 1200]
"""

import argparse
import contextlib
import io
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import workloads  # noqa: E402
from rekonfig import exact  # noqa: E402
from rekonfig.graph import (  # noqa: E402
    FeasibilityKind,
    ReconfigInstance,
    Rule,
    RuleKind,
    mask_to_set,
    new_graph,
)


def counting(rows: Counter, run) -> None:
    """Run `run()` with _search and _bfs_both_ends watched, counting into
    rows[rule, column]."""
    search, passes = exact._search, exact._bfs_both_ends
    passes_into = [rows]  # where watched_pass counts

    def watched_search(inst, within, clock, want_shortest):
        res = search(inst, within, clock, want_shortest)
        if res.explored_states:  # past the pair test
            rule = inst.rule.kind.value
            source, target = (end & within for end in inst.end_masks)
            bound = max(-(-(source ^ target).bit_count() // (2 * inst.rule.k)), 2)
            rows[rule, "searches"] += 1
            if res.reachable:
                if not want_shortest:  # a split's part: search again for the length
                    passes_into[0] = Counter()
                    res = search(inst, within, exact._BudgetClock.begin(None), True)
                    passes_into[0] = rows
                rows[rule, "yes"] += 1
                rows[rule, "at L"] += res.shortest.length == bound
        return res

    def watched_pass(*args):
        found = passes(*args)
        if len(args) > 6 and args[6] is not None:  # a bounded pass: k-TJ only
            meet, *_, cut = found
            passes_into[0]["ktj", "fallback" if meet is None and cut else "bounded"] += 1
        return found

    exact._search, exact._bfs_both_ends = watched_search, watched_pass
    try:
        run()
    finally:
        exact._search, exact._bfs_both_ends = search, passes


def random_instances(count: int, seed: int):
    """G(n, p) on 10-18 vertices, p up to 0.5, 2 to n/3 tokens, both kinds,
    both rules, k 1-3, two distinct feasible sets as the ends."""
    rng = random.Random(seed)
    kinds = (FeasibilityKind.INDEPENDENT_SET, FeasibilityKind.VERTEX_COVER)
    while count:
        n = rng.randint(10, 18)
        p = rng.uniform(0.1, 0.5)
        g = new_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        kind, rule, k = rng.choice(kinds), rng.choice(list(RuleKind)), rng.randint(1, 3)
        size = rng.randint(2, max(2, n // 3))
        family = exact.feasible_masks(g, kind, size if kind is kinds[0] else n - size)
        if len(family) < 2:
            continue
        s, t = rng.sample(family, 2)
        yield ReconfigInstance(g, kind, mask_to_set(s), mask_to_set(t), Rule(rule, min(k, size)))
        count -= 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--random", type=int, default=1200, help="random instances, 0 for none")
    args = parser.parse_args()

    runs = {}
    for k in (1, 2):
        cases = workloads.make_bfs(k)(args.seed, False, None)
        runs[f"bfs_k{k}"] = lambda cases=cases: [
            exact.solve_exact(case.data, want_shortest=True) for case in cases
        ]
    with tempfile.TemporaryDirectory() as tmp:
        cli_cases = workloads.make_cli(args.seed, False, Path(tmp))

        def cli():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                for _, _, argv in (case.data for case in cli_cases):
                    workloads._cli_call(argv, Path(tmp), in_process=True)

        runs["cli_pipeline"] = cli
        if args.random:
            runs["random"] = lambda: [
                exact.solve_exact(inst, want_shortest=True) for inst in random_instances(args.random, args.seed)
            ]
        columns = ("searches", "yes", "at L", "bounded", "fallback")
        print(f"{'workload':<13} {'rule':<5}" + "".join(f"{c:>9}" for c in columns))
        for name, run in runs.items():
            rows = Counter()
            counting(rows, run)
            for rule in ("ktj", "kts"):
                print(f"{name:<13} {rule:<5}" + "".join(f"{rows[rule, c]:>9}" for c in columns))


if __name__ == "__main__":
    main()
