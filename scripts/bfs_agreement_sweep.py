#!/usr/bin/env python3
"""Sweep solve_exact against reachability classes where it generates moves.

For seeded random graphs with 14 to 18 vertices, every k in {1, 2, 3}, both
kinds (independent sets, vertex covers) and both rules (k-TJ, k-TS), picks
the smallest token count t >= 2 at which solve_exact generates moves (the
feasible sets outnumber twice its move estimate) while the family stays
small enough to label. Then compares solve_exact on sampled start/target
pairs, half of them from one class, with the reachability_classes labels,
and checks every certificate with verify_sequence. Prints one row per rule
and k, with how many solves took each path. Under 3-TJ the move estimate
exceeds half of every family at these sizes, so those solves scan.

Usage:
    python scripts/bfs_agreement_sweep.py [--graphs 6] [--pairs 10] [--seed 1]
"""

import argparse
import random
import sys
import time

from rekonfig import exact
from rekonfig.exact import feasible_masks, reachability_classes, solve_exact
from rekonfig.graph import (
    FeasibilityKind,
    ReconfigInstance,
    Rule,
    RuleKind,
    mask_to_set,
    new_graph,
    verify_sequence,
)

IS = FeasibilityKind.INDEPENDENT_SET
VC = FeasibilityKind.VERTEX_COVER
# Largest family to label: reachability_classes scans it quadratically, and
# under k-TS each close pair costs a matching.
MAX_FAMILY = {RuleKind.KTJ: 2500, RuleKind.KTS: 800}


def pick_tokens(g, rule):
    """(t, generates) for the smallest t >= 2 whose family of independent
    t-sets is labelled cheaply and picks the move generator, else for the
    largest such family, which scans."""
    n = g.vertex_count
    fallback = None
    for t in range(2, n):
        masks = feasible_masks(g, IS, t)
        family = len(masks)
        if family < 2:
            break
        if family > MAX_FAMILY[rule.kind]:
            continue
        some = mask_to_set(masks[0])
        if family > 2 * exact._move_estimate(ReconfigInstance(g, IS, some, some, rule)):
            return t, True
        if fallback is None or family > fallback[1]:
            fallback = (t, family)
    return (fallback[0], False) if fallback else (None, False)


def pairs(rng, labels, count):
    sets = sorted(labels, key=sorted)
    classes = {}
    for s in sets:
        classes.setdefault(labels[s], []).append(s)
    shared = [c for c in classes.values() if len(c) > 1]
    for i in range(count):
        if i % 2 == 0 and shared:
            yield tuple(rng.sample(rng.choice(shared), 2))
        else:
            yield tuple(rng.sample(sets, 2))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--graphs", type=int, default=6, help="graphs per rule, k and kind")
    parser.add_argument("--pairs", type=int, default=10, help="start/target pairs per graph")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    total_mismatch = 0
    print(
        f"{'rule':<5} {'k':>2} {'solves':>7} {'yes':>5} {'generator':>10} {'scan':>5} "
        f"{'mismatch':>9} {'secs':>6}"
    )
    for rule_kind in (RuleKind.KTJ, RuleKind.KTS):
        for k in (1, 2, 3):
            rule = Rule(rule_kind, k)
            t0 = time.time()
            solves = yes = generated = mismatches = 0
            for kind in (IS, VC):
                for _ in range(args.graphs):
                    n = rng.randint(14, 18)
                    p = rng.uniform(0.04, 0.12)
                    g = new_graph(
                        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
                    )
                    t, generates = pick_tokens(g, rule)
                    if t is None:
                        continue
                    size = t if kind is IS else n - t
                    labels = reachability_classes(g, kind, size, rule)
                    for s, target in pairs(rng, labels, args.pairs):
                        inst = ReconfigInstance(g, kind, s, target, rule)
                        res = solve_exact(inst, want_shortest=True)
                        solves += 1
                        yes += res.reachable
                        generated += generates
                        agree = res.reachable == (labels[s] == labels[target])
                        if res.reachable:
                            agree = agree and verify_sequence(inst, res.shortest).accepted
                        mismatches += not agree
            total_mismatch += mismatches
            print(
                f"{rule_kind.value:<5} {k:>2} {solves:>7} {yes:>5} {generated:>10} {solves - generated:>5} "
                f"{mismatches:>9} {time.time() - t0:>6.1f}"
            )
    print("agreement:", "100%" if total_mismatch == 0 else f"{total_mismatch} mismatches")
    return 0 if total_mismatch == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
