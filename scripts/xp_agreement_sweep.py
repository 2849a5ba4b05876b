#!/usr/bin/env python3
"""Sweep the XP vertex-cover algorithm against exhaustive reachability.

For every graph in the chosen pool, every pair of equal-size vertex covers
and every guaranteed value mu, compares xp_vcr_solve with the connected
components of the explicit cover reconfiguration graph, and prints one
summary row per vertex count. The pairs of each cover size and mu are asked
in an order shuffled by the --seed generator, so different seeds exercise
the solver's shared cache in different query orders.

A last row sweeps K_{a,a} + C_{2c}, vertices relabelled by the same
generator. Its minimum covers hold a whole side of K_{a,a} and of the
cycle, so at that size and mu >= 3 it holds NO pairs (covers on different
sides of K_{a,a}, k < a) and YES pairs, and the vertex pairs across a side
lie in no cover. The nogood column counts the queries whose coverable pass
found such a pair and walked only the nodes that hold none. Exits non-zero
on a mismatch, or when the K_{a,a} + C_{2c} row has no such query.

Usage:
    python scripts/xp_agreement_sweep.py [--max-n 7] [--random 100] [--seed 1]
"""

import argparse
import itertools
import random
import sys
import time
from collections import defaultdict

from rekonfig.exact import feasible_masks
from rekonfig.graph import FeasibilityKind, mask_to_set, new_graph
from rekonfig.xp import xp_vcr_solve


def connected_edge_subsets(n):
    all_edges = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(all_edges)):
        edges = [all_edges[i] for i in range(len(all_edges)) if (bits >> i) & 1]
        if not edges and n > 1:
            continue
        seen = {0}
        frontier = [0]
        adj = defaultdict(list)
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        while frontier:
            u = frontier.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        if len(seen) == n:
            yield edges


def union_find_labels(count, edges):
    parent = list(range(count))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
    return [find(i) for i in range(count)]


def biclique_plus_cycle(a, c, rng):
    """K_{a,a} + C_{2c}, its vertices relabelled at random."""
    n = 2 * a + 2 * c
    order = list(range(n))
    rng.shuffle(order)
    edges = [(i, a + j) for i in range(a) for j in range(a)]
    edges += [(2 * a + i, 2 * a + (i + 1) % (2 * c)) for i in range(2 * c)]
    return new_graph(n, [(order[u], order[v]) for u, v in edges])


def sweep_graph(g, rng):
    """(checks, mismatches, queries whose coverable pass found a vertex pair
    in no cover) over every cover size, mu and ordered cover pair of g."""
    checks = mismatches = 0
    walked = set()
    for size in range(1, g.vertex_count + 1):
        covers = feasible_masks(g, FeasibilityKind.VERTEX_COVER, size)
        if len(covers) < 2:
            continue
        c = len(covers)
        sets = [mask_to_set(m) for m in covers]
        inter = [[(covers[i] & covers[j]).bit_count() for j in range(c)] for i in range(c)]
        for mu in range(1, size):
            labels = union_find_labels(
                c,
                ((i, j) for i in range(c) for j in range(i + 1, c) if inter[i][j] >= mu),
            )
            pairs = [(i, j) for i in range(c) for j in range(c)]
            rng.shuffle(pairs)
            for i, j in pairs:
                got = xp_vcr_solve(g, sets[i], sets[j], mu)
                checks += 1
                if got != (labels[i] == labels[j]):
                    mismatches += 1
                # A labelling's pass runs once, in one query, and sets bad
                # only when it found a pair in no cover.
                state = g.xp_labellings.get((size, mu))
                if state is not None and state.bad:
                    walked.add((size, mu))
    return checks, mismatches, len(walked)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-n", type=int, default=5, help="exhaustive sweep limit")
    parser.add_argument("--random", type=int, default=50, help="extra random graphs, n <= 10")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    pools = {}
    for n in range(1, args.max_n + 1):
        pools[f"exhaustive n={n}"] = [new_graph(n, e) for e in connected_edge_subsets(n)]
    randoms = []
    for _ in range(args.random):
        n = rng.randint(4, 10)
        p = rng.uniform(0.2, 0.7)
        randoms.append(
            new_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        )
    pools[f"random n<=10 ({args.random})"] = randoms
    bicliques = "K_a,a + C_2c"
    pools[bicliques] = [biclique_plus_cycle(a, c, rng) for a, c in ((2, 2), (3, 2), (2, 3))]

    total_mismatch = 0
    nogoods = {}
    print(f"{'pool':<24} {'graphs':>7} {'checks':>10} {'mismatch':>9} {'nogood':>7} {'secs':>7}")
    for name, graphs in pools.items():
        t0 = time.time()
        checks = mismatches = nogood = 0
        for g in graphs:
            dc, dm, dn = sweep_graph(g, rng)
            checks += dc
            mismatches += dm
            nogood += dn
        total_mismatch += mismatches
        nogoods[name] = nogood
        print(
            f"{name:<24} {len(graphs):>7} {checks:>10} {mismatches:>9} {nogood:>7} "
            f"{time.time()-t0:>7.1f}"
        )
    print("agreement:", "100%" if total_mismatch == 0 else f"{total_mismatch} mismatches")
    if not nogoods[bicliques]:
        print(f"no query of the {bicliques} row found a vertex pair in no cover")
    return 0 if total_mismatch == 0 and nogoods[bicliques] else 1


if __name__ == "__main__":
    sys.exit(main())
