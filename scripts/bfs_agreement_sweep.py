#!/usr/bin/env python3
"""Sweep solve_exact against reachability classes on both of its paths.

For every k in {1, 2, 3}, both kinds (independent sets, vertex covers) and
both rules (k-TJ, k-TS), draws seeded graphs of three sorts:

* sparse: G(n, 0.04-0.12) on 10 to 14 vertices plus a disjoint K_{k+1,k+1}
  and two to six disjoint K2s. At the independence number every token is
  stuck in its part, and the K_{k+1,k+1} switches sides only by moving
  k + 1 tokens at once, so its two sides split the family into classes. The
  K2s make the family large.
* dense: G(n, 0.6-0.9) on 7 to 10 vertices, plus the same K_{k+1,k+1} for
  k >= 2, because families this small rarely split under 2-TJ or 3-TJ on
  their own. Not at k = 1.
* chain, for the paper's regime k = t - mu: a path P_2r (4 <= r <= 9)
  plus a K_q (2 <= q <= 6) whose vertices all see both ends of one path
  edge, at its independence number t = r. Its family is small, while the
  odd path vertices and the clique are all candidates, so under a large k
  the move estimate is large: solve_exact scans where a sixteenth of it
  pays for the count, and generates moves otherwise.

At k <= 3, sparse and dense graphs never scan: a sixteenth of their move
estimate is below their vertex count, so solve_exact generates moves with
no count. So each row of k in {1, 2, 3} holds sparse and dense graphs
under k-TJ or k-TS and chain graphs under (t - k)-TJ or (t - k)-TS.

For each sparse or dense graph, goes down from the independence number
while the family of t-sets is small enough to label and splits into at
least two classes, one of them with two or more sets, and keeps the last
such t; a graph where even the independence number fails is redrawn. Then compares solve_exact on
sampled start/target pairs, alternately from one class (YES) and from two
classes (NO), with the reachability_classes labels, and checks every
certificate with verify_sequence and its length against the BFS levels
from the start over the labelled family. Under 1-TJ it also checks every
pair against TAR: 1-TJ reachability between t-sets is TAR reachability
with floor t - 1 (Kaminski, Medvedev and Milanic, TCS 2012), so
solve_tar_maxmin(g, s, t).value >= t - 1 for independent sets, and
solve_tar_minmax(g, s, t).value <= |S| + 1 for covers, must hold iff the
two labels agree. Every graph with a K_{k+1,k+1} is a disjoint union, and
where its tokens cannot leave their parts, solve_exact decides a pair part
by part; each pair that takes that split is also checked on its own, YES
and NO, against the labels. A chain graph is labelled at t, and its pairs
are sampled the same way, all from one class when there is only one, and
kept only when the pair test does not settle them.

A last row, 4-TS, checks fixed graphs whose start and target are no move
only because three vertices of the target share two tokens: Hall's
condition fails on a 3-subset (hall_graphs). The random rows did not catch
a move generator that skips the matching test of a k-TS move; here such a
generator answers YES on every graph it decides. Each of these graphs is
checked on that pair and on sampled pairs, as above, and chain graphs
under 4-TS join them.

Prints one row per rule and k with how many solves took each route of the
whole search, how many took the split and how many pairs were checked
against TAR. A solve whose ends pass the rule's pair test is settled by it
(pair); any other one generates moves or scans the family, by the same
capped count as the search. Exits non-zero on a mismatch, when a row has
no generator or no scan solve, or when no row has a split solve.

Usage:
    python scripts/bfs_agreement_sweep.py [--graphs 10] [--pairs 10] [--seed 1]
"""

import argparse
import itertools
import random
import sys
import time
from collections import Counter

from rekonfig import exact
from rekonfig.exact import (
    feasible_masks,
    max_independent_set,
    reachability_classes,
    solve_exact,
    solve_tar_maxmin,
    solve_tar_minmax,
)
from rekonfig.graph import (
    FeasibilityKind,
    ReconfigInstance,
    Rule,
    RuleKind,
    complement_set,
    new_graph,
    set_to_mask,
    verify_sequence,
)

IS = FeasibilityKind.INDEPENDENT_SET
VC = FeasibilityKind.VERTEX_COVER
# Largest family to label: reachability_classes scans it quadratically, and
# under k-TS each close pair costs a matching.
MAX_FAMILY = {RuleKind.KTJ: 2500, RuleKind.KTS: 800}
MAX_DRAWS = 1000


def sweep_graph(rng, k, dense):
    """One graph of either sort, as described above."""
    n = rng.randint(7, 10) if dense else rng.randint(10, 14)
    p = rng.uniform(0.6, 0.9) if dense else rng.uniform(0.04, 0.12)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    if not dense or k > 1:
        side = k + 1
        edges += [(n + i, n + side + j) for i in range(side) for j in range(side)]
        n += 2 * side
    if not dense:
        for _ in range(rng.randint(2, 6)):
            edges.append((n, n + 1))
            n += 2
    return new_graph(n, edges)


def chain_graph(rng):
    """A chain graph, as described above."""
    r, q = rng.randint(4, 9), rng.randint(2, 6)
    a = rng.randrange(2 * r - 1)
    edges = [(i, i + 1) for i in range(2 * r - 1)]
    edges += [(2 * r + i, 2 * r + j) for i in range(q) for j in range(i + 1, q)]
    edges += [(2 * r + i, v) for i in range(q) for v in (a, a + 1)]
    return new_graph(2 * r + q, edges)


def chain_labels(g, kind, rule_at):
    """rule_at(t) at the independence number t and the labels of its
    family, or None when it is no rule or the family is too large to
    label."""
    n = g.vertex_count
    t = len(max_independent_set(g))
    rule = rule_at(t)
    size = t if kind is IS else n - t
    if rule is None or len(feasible_masks(g, kind, size)) > MAX_FAMILY[rule.kind]:
        return None
    return rule, reachability_classes(g, kind, size, rule)


def pick_tokens(g, kind, rule):
    """Labels of the feasible family for the smallest token count t of a run
    of split families that starts at the independence number: t goes down
    while the independent t-sets are few enough to label and fall into two
    or more classes, one of them with two or more sets. Below the
    independence number, tokens have free vertices to move to, which moves
    at the independence number never see. None if even the largest t fails."""
    n = g.vertex_count
    picked = None
    for t in range(len(max_independent_set(g)), 1, -1):
        size = t if kind is IS else n - t
        if len(feasible_masks(g, kind, size)) > MAX_FAMILY[rule.kind]:
            break
        labels = reachability_classes(g, kind, size, rule)
        classes = Counter(labels.values())
        if len(classes) < 2 or max(classes.values()) < 2:
            break
        picked = labels
    return picked


def shortest_length(inst, family):
    """BFS levels from the start to the target over the family, by the
    rule's pair test alone: the length of a shortest sequence, or None if
    the target is not reached."""
    adjacent = exact._rule_adjacency(inst.graph, inst.rule, len(inst.start))
    start, target = set_to_mask(inst.start), set_to_mask(inst.target)
    frontier, rest = [start], [m for m in family if m != start]
    level = 0
    while frontier and target not in frontier:
        level += 1
        reached = set()
        for a in frontier:
            reached.update(b for b in rest if b not in reached and adjacent(a, b))
        frontier = [b for b in rest if b in reached]
        rest = [b for b in rest if b not in reached]
    return level if frontier else None


def tar_connects(inst):
    """Whether TAR connects the start and the target with one vertex fewer
    (independent sets) or more (covers) than they hold, which is 1-TJ
    reachability."""
    g, s, t = inst.graph, inst.start, inst.target
    if inst.kind is IS:
        return solve_tar_maxmin(g, s, t).value >= len(s) - 1
    return solve_tar_minmax(g, s, t).value <= len(s) + 1


def pairs(rng, labels, count):
    """Start/target pairs, alternately from one class and from two; all
    from one class when there is only one."""
    classes = {}
    for s in sorted(labels, key=sorted):
        classes.setdefault(labels[s], []).append(s)
    shared = [c for c in classes.values() if len(c) > 1]
    groups = list(classes.values())
    for i in range(count):
        if i % 2 == 0 or len(groups) < 2:
            yield tuple(rng.sample(rng.choice(shared), 2))
        else:
            a, b = rng.sample(groups, 2)
            yield rng.choice(a), rng.choice(b)


def route(inst):
    """The route of the whole search, asked as _search asks it: the pair
    test of the ends, then _route_family, which answers the family to scan
    or None to generate moves."""
    g = inst.graph
    if exact._rule_adjacency(g, inst.rule, len(inst.start))(*inst.end_masks):
        return "pair"
    family, _ = exact._route_family(inst, g.full_mask, exact._BudgetClock.begin(None))
    return "generator" if family is None else "scan"


def check(inst, labels, row):
    """Solve one pair, compare it with the labels as described above and
    count it into the row."""
    s, target = inst.start, inst.target
    res = solve_exact(inst, want_shortest=True)
    row["solves"] += 1
    row["yes"] += res.reachable
    row[route(inst)] += 1
    agree = res.reachable == (labels[s] == labels[target])
    by_parts = exact._split_verdict(inst, exact._BudgetClock.begin(None))
    if by_parts is not None:
        row["split"] += 1
        agree = agree and by_parts.reachable == res.reachable
    if res.reachable:
        family = [set_to_mask(x) for x in labels]
        agree = (
            agree
            and verify_sequence(inst, res.shortest).accepted
            and res.shortest.length == shortest_length(inst, family)
        )
    if inst.rule == Rule(RuleKind.KTJ, 1):
        row["tar"] += 1
        agree = agree and tar_connects(inst) == (labels[s] == labels[target])
    row["mismatch"] += not agree


def hall_graphs():
    """The graphs of the 4-TS row. c(4) = {2, 3} and c(5) = c(6) = c(7) =
    {0, 1}: the group {4, 5, 6, 7} has four conflicts and every pair of it
    meets Hall's condition, but the 3-subset {5, 6, 7} shares the two tokens
    0 and 1, so {0, 1, 2, 3} -> {4, 5, 6, 7} is no 4-TS move. 5, 6 and 7 see
    only 0 and 1, and a token on one of them keeps 0 and 1 empty, so at most
    two tokens ever sit on them and the target is unreachable. A hub 8 next
    to 0 and 2 connects the graph, so the split cannot decide it by counts,
    and its r leaves enlarge the family. Each takes the move generator,
    which must check Hall's condition itself."""
    for r in range(4):
        edges = [(4, 2), (4, 3), (0, 8), (2, 8)] + [(v, u) for v in (5, 6, 7) for u in (0, 1)]
        yield new_graph(9 + r, edges + [(8, 9 + i) for i in range(r)])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--graphs", type=int, default=10, help="graphs of each sort per rule, k and kind")
    parser.add_argument("--pairs", type=int, default=10, help="start/target pairs per graph")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    failed = False
    any_split = False
    print(
        f"{'rule':<5} {'k':>2} {'solves':>7} {'yes':>5} {'pair':>5} {'generator':>10} {'scan':>5} "
        f"{'split':>6} {'tar':>5} {'mismatch':>9} {'secs':>6}"
    )

    def chains(rule_at, row):
        """Chain graphs of both kinds under rule_at(t), with their pairs
        checked into the row."""
        for kind, _ in itertools.product((IS, VC), range(args.graphs)):
            g = chain_graph(rng)
            picked = chain_labels(g, kind, rule_at)
            if picked is None:
                continue
            rule, labels = picked
            adjacent = exact._rule_adjacency(g, rule, len(next(iter(labels))))
            far = [p for p in pairs(rng, labels, 4 * args.pairs) if not adjacent(*map(set_to_mask, p))]
            for s, target in far[:args.pairs]:
                check(ReconfigInstance(g, kind, s, target, rule), labels, row)

    def report(rule, t0, row):
        nonlocal failed, any_split
        failed |= row["mismatch"] > 0 or row["generator"] == 0 or row["scan"] == 0
        any_split |= row["split"] > 0
        print(
            f"{rule.kind.value:<5} {rule.k:>2} {row['solves']:>7} {row['yes']:>5} {row['pair']:>5} "
            f"{row['generator']:>10} {row['scan']:>5} {row['split']:>6} {row['tar']:>5} {row['mismatch']:>9} "
            f"{time.time() - t0:>6.1f}"
        )

    for rule_kind in (RuleKind.KTJ, RuleKind.KTS):
        for k in (1, 2, 3):
            rule = Rule(rule_kind, k)
            t0 = time.time()
            row = Counter()
            for kind, dense, _ in itertools.product((IS, VC), (False, True), range(args.graphs)):
                for _ in range(MAX_DRAWS):
                    g = sweep_graph(rng, k, dense)
                    labels = pick_tokens(g, kind, rule)
                    if labels is not None:
                        break
                else:
                    sys.exit(f"no graph with a split family in {MAX_DRAWS} draws")
                for s, target in pairs(rng, labels, args.pairs):
                    check(ReconfigInstance(g, kind, s, target, rule), labels, row)
            chains(lambda t, kind=rule_kind, mu=k: Rule(kind, t - mu) if t > mu else None, row)
            report(rule, t0, row)
    rule = Rule(RuleKind.KTS, 4)
    t0 = time.time()
    row = Counter()
    for g, kind in itertools.product(hall_graphs(), (IS, VC)):
        s, target = frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7})
        if kind is VC:
            s, target = complement_set(g, s), complement_set(g, target)
        labels = reachability_classes(g, kind, len(s), rule)
        check(ReconfigInstance(g, kind, s, target, rule), labels, row)
        for s, target in pairs(rng, labels, args.pairs):
            check(ReconfigInstance(g, kind, s, target, rule), labels, row)
    chains(lambda t: rule, row)
    report(rule, t0, row)
    failed |= not any_split
    print("agreement, every route and the split:", "FAIL" if failed else "OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
