"""Seeded inputs, timed calls and reference checks for each workload.

Every workload has three phases, run in one fresh interpreter:

* ``make(seed, smoke, workdir)`` builds the instance list from the seed (and,
  for the CLI workload, writes the input files). The hashed text of each
  instance comes from the benchmark's own generators and serializer, so it
  stays byte-identical across commits of the library.
* ``run(cases, tracer)`` is the timed window: the solver or CLI calls only.
* ``check(cases, outcomes)`` compares each verdict with a reference that does
  not come from the code path under test, outside the window.

Why these workloads:

* ``bfs_k1`` and ``bfs_k2``: ``solve_exact`` (explicit-state BFS) at k = 1,
  where the state graph is sparse and the quadratic state scan dominates, and
  at k = 2, where it is dense and move generation stops paying. Half of the
  instances use k-TS, whose adjacency test is a bipartite matching.
* ``xp_vcr``: only the XP layers (compressed graph, edge oracle, Koenig), on
  YES and NO families, each followed by a warm query the build cache answers.
* ``cli_pipeline``: fresh ``python -m rekonfig.cli`` processes; the only
  workload that pays for interpreter start, import, parsing and compilers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from rekonfig import cli, exact, graph, oracles, xp
from rekonfig.graph import FeasibilityKind, ReconfigInstance, Rule, RuleKind

IS = FeasibilityKind.INDEPENDENT_SET
VC = FeasibilityKind.VERTEX_COVER

CLI_STEP_SECONDS = 60.0


@dataclass
class Case:
    """One instance: its hashed serialization, the data the timed call needs,
    and the reference answer when the construction fixes it."""

    id: str
    text: str
    data: object
    expect: bool | None = None
    length: int | None = None


@dataclass
class Outcome:
    id: str
    seconds: float
    verdict: bool | None = None
    length: int | None = None
    error: str | None = None
    detail: object = None
    ok: bool = False
    why: str = ""


@dataclass(frozen=True)
class Workload:
    make: Callable
    run: Callable
    check: Callable
    # Layers the traced run must see called, and layers it must never see.
    expect_layers: tuple[str, ...]
    forbid_layers: tuple[str, ...] = ()


def inputs_hash(cases: list[Case]) -> str:
    h = hashlib.sha256()
    for case in cases:
        h.update(case.id.encode() + b"\0" + case.text.encode() + b"\0")
    return h.hexdigest()[:16]


def isr_text(n, edges, kind, rule_kind, k, start, target) -> str:
    """The .isr instance format, written by the benchmark itself."""
    edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
    lines = [f"p reconfig {n} {len(edges)} {kind.value} {rule_kind.value} {k}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    lines.append("s " + " ".join(str(v + 1) for v in sorted(start)))
    lines.append("t " + " ".join(str(v + 1) for v in sorted(target)))
    return "\n".join(lines) + "\n"


def _relabel(rng: random.Random, n: int, edges, *sets):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges], [{perm[v] for v in s} for s in sets]


def _timed(fn, case_id: str) -> Outcome:
    t0 = time.perf_counter()
    try:
        detail = fn()
        return Outcome(case_id, time.perf_counter() - t0, detail=detail)
    except Exception as exc:  # a failed instance is recorded, the pass goes on
        return Outcome(case_id, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------- BFS ----

def planted_cubic(rng: random.Random, n: int, s: int):
    """Random 3-regular graph with disjoint independent sets S and T of size s
    whose only edges inside S u T are the matching S_i - T_i.

    Exact degrees (rather than G(n, p) at p ~ 3/n) keep the feasible-family
    size, and so the BFS cost, nearly the same for every seed. With S u T
    independent apart from the matching, moving S_i to T_i one pair at a time
    stays feasible under k-TJ and k-TS, and any sequence must move all s
    tokens, so the shortest length is exactly ceil(s / k).
    """
    order = rng.sample(range(n), n)
    S, T, rest = order[:s], order[s : 2 * s], order[2 * s :]
    u_stubs = [v for v in S + T for _ in range(2)]
    while True:
        r_stubs = [v for v in rest for _ in range(3)]
        rng.shuffle(r_stubs)
        pairs = list(zip(u_stubs, r_stubs))
        left = r_stubs[len(u_stubs) :]
        pairs += list(zip(left[::2], left[1::2]))
        pairs += list(zip(S, T))
        edges = {(min(u, v), max(u, v)) for u, v in pairs}
        if len(edges) == len(pairs) and all(u != v for u, v in edges):
            return sorted(edges), set(S), set(T)


def _max_independent_sets(h: int, edges) -> list[int]:
    nbr = [0] * h
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    best, out = -1, []
    for m in range(1 << h):
        if any(nbr[v] & m for v in range(h) if m >> v & 1):
            continue
        size = bin(m).count("1")
        if size > best:
            best, out = size, [m]
        elif size == best:
            out.append(m)
    return out


def _connected_under(sets: list[int], edges, k: int, slide: bool) -> bool:
    """Brute-force check that the maximum independent sets form one class
    under k-TJ (or k-TS: a perfect matching along edges between the moved
    vertices)."""
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}

    def adjacent(a: int, b: int) -> bool:
        if bin(a ^ b).count("1") > 2 * k:
            return False
        if not slide:
            return True
        out = [v for v in range(32) if (a & ~b) >> v & 1]
        into = [v for v in range(32) if (b & ~a) >> v & 1]
        return any(
            all((min(x, y), max(x, y)) in edge_set for x, y in zip(out, p))
            for p in itertools.permutations(into)
        )

    seen, frontier = {sets[0]}, [sets[0]]
    while frontier:
        frontier = [b for a in frontier for b in sets if b not in seen and adjacent(a, b) and not seen.add(b)]
    return len(seen) == len(sets)


def frozen_no(rng: random.Random, k: int, slide: bool, free_pairs: int):
    """NO instance by construction: H + frozen gadget + free K2 matching.

    H is G(6, 0.3), resampled until it has exactly four maximum
    independent sets, all in one class under the rule, so the explored
    component has the same size for every seed. The start and target take a
    maximum independent set of every part, so every feasible set of that size
    is maximum in every part and no token can leave its part. The gadget
    K_{k+1,k+1} can only switch sides by moving k + 1 tokens at once, and
    start and target sit on opposite sides. The K2 tokens move
    freely and make the component 2^free_pairs times larger.
    """
    h = 6
    while True:
        edges = [(u, v) for u in range(h) for v in range(u + 1, h) if rng.random() < 0.3]
        sets = _max_independent_sets(h, edges)
        if len(sets) == 4 and _connected_under(sets, edges, k, slide):
            break
    core = {v for v in range(h) if sets[0] >> v & 1}
    side = k + 1  # K_{k+1,k+1}: C4 for k = 1, K3,3 for k = 2
    edges += [(h + i, h + side + j) for i in range(side) for j in range(side)]
    start, target = set(range(h, h + side)), set(range(h + side, h + 2 * side))
    n = h + 2 * side
    start |= core
    target |= core
    for _ in range(free_pairs):
        edges.append((n, n + 1))
        start.add(n)
        target.add(n + 1)
        n += 2
    edges, (start, target) = _relabel(rng, n, edges, start, target)
    return n, edges, start, target


def _bfs_instance(case_id, n, edges, start, target, kind, rule_kind, k, expect, length) -> Case:
    if kind is VC:
        start = set(range(n)) - start
        target = set(range(n)) - target
    text = isr_text(n, edges, kind, rule_kind, k, start, target)
    inst = ReconfigInstance(
        graph.new_graph(n, edges), kind, frozenset(start), frozenset(target), Rule(rule_kind, k)
    )
    return Case(case_id, text, inst, expect, length)


BFS_SIZES = {
    # k: (vertices of the YES graphs, |S|, YES and NO instances per kind and
    #     rule, free K2 pairs of the NO instances). Many short instances rather
    #     than a few long ones: each instance keeps its fastest pass, so short
    #     ones ride out the host's speed swings better.
    1: (20, 6, 4, 4, 6),
    2: (20, 6, 6, 4, 7),
}


def make_bfs(k: int):
    def make(seed: int, smoke: bool, workdir: Path) -> list[Case]:
        rng = random.Random(f"bfs_k{k}:{seed}")
        n, s, yes, no, free = BFS_SIZES[k]
        if smoke:
            n, s, yes, no, free = 12, 3, 1, 1, 2
        cases = []
        for rule_kind in (RuleKind.KTJ, RuleKind.KTS):
            for kind in (IS, VC):
                tag = f"{kind.value}-{rule_kind.value}"
                for i in range(yes):
                    edges, S, T = planted_cubic(rng, n, s)
                    edges, (S, T) = _relabel(rng, n, edges, S, T)
                    cases.append(
                        _bfs_instance(f"yes-{tag}-{i}", n, edges, S, T, kind, rule_kind, k, True, -(-s // k))
                    )
                for i in range(no):
                    nn, edges, S, T = frozen_no(rng, k, rule_kind is RuleKind.KTS, free)
                    cases.append(_bfs_instance(f"no-{tag}-{i}", nn, edges, S, T, kind, rule_kind, k, False, None))
        return cases

    return make


def run_bfs(cases: list[Case], tracer=None) -> list[Outcome]:
    outcomes = []
    for case in cases:
        before = tracer.calls("matching.has_perfect_matching_between") if tracer else 0
        out = _timed(lambda: exact.solve_exact(case.data, want_shortest=True), case.id)
        if out.error is None:
            res = out.detail
            out.verdict = res.reachable
            out.length = res.shortest.length if res.reachable else None
        if tracer and case.data.rule.kind is RuleKind.KTJ:
            if tracer.calls("matching.has_perfect_matching_between") != before:
                raise RuntimeError(f"{case.id}: k-TJ instance called has_perfect_matching_between")
        outcomes.append(out)
    return outcomes


def check_bfs(cases: list[Case], outcomes: list[Outcome]) -> None:
    for case, out in zip(cases, outcomes):
        if out.error:
            out.why = out.error
        elif out.verdict != case.expect:
            out.why = f"verdict {out.verdict}, constructed answer {case.expect}"
        elif case.expect:
            if not graph.verify_sequence(case.data, out.detail.shortest).accepted:
                out.why = "certificate rejected by verify_sequence"
            elif out.length != case.length:
                out.why = f"length {out.length}, shortest is {case.length}"
        out.ok = not out.why


# ----------------------------------------------------------------- XP ----

XP_SIZES = {
    # cycles C_2m (YES), and (a, c, k) for K_a,a + C_2c (NO)
    "full": ((6, 7), ((3, 2, 1), (3, 3, 1), (4, 2, 2))),
    "smoke": ((3,), ((2, 1, 1),)),
}


def make_xp(seed: int, smoke: bool, workdir: Path) -> list[Case]:
    """Each graph gets a cold query and then a warm one of the same cover size
    and mu, which the compressed-graph cache answers."""
    rng = random.Random(f"xp_vcr:{seed}")
    cycles, bicliques = XP_SIZES["smoke" if smoke else "full"]
    cases = []

    def add(name, n, edges, pairs, mu, expect):
        edges, sets = _relabel(rng, n, edges, *[x for p in pairs for x in p])
        g = graph.new_graph(n, edges)
        for (S, T), which in zip(zip(sets[::2], sets[1::2]), ("cold", "warm")):
            k = len(S) - mu
            text = isr_text(n, edges, VC, RuleKind.KTJ, k, S, T)
            cases.append(Case(f"{name}-{which}", text, (g, frozenset(S), frozenset(T), mu), expect))

    for m in cycles:
        n = 2 * m
        edges = [(i, (i + 1) % n) for i in range(n)]
        evens, odds = set(range(0, n, 2)), set(range(1, n, 2))
        j = rng.choice(sorted(odds - {1}))
        i = rng.choice(sorted(evens - {0}))
        # S and T share two vertices, one short of mu = 3, so the solve is
        # not trivial; C_2m is YES (checked against solve_exact).
        add(f"yes-c{n}", n, edges, [(evens | {1}, odds | {0}), (evens | {j}, odds | {i})], 3, True)
    for a, c, k in bicliques:
        n = 2 * a + 2 * c
        edges = [(i, a + j) for i in range(a) for j in range(a)]
        edges += [(2 * a + i, 2 * a + (i + 1) % (2 * c)) for i in range(2 * c)]
        left, right = set(range(a)), set(range(a, 2 * a))
        evens = {2 * a + i for i in range(0, 2 * c, 2)}
        odds = {2 * a + i for i in range(1, 2 * c, 2)}
        # Every cover of size a + c is minimum, so it holds one whole side of
        # K_a,a; switching sides moves a > k tokens at once: NO.
        add(
            f"no-k{a}{a}-c{2 * c}-k{k}",
            n,
            edges,
            [(left | evens, right | odds), (right | evens, left | odds)],
            a + c - k,
            False,
        )
    return cases


def run_xp(cases: list[Case], tracer=None) -> list[Outcome]:
    outcomes = []
    for case in cases:
        out = _timed(lambda: xp.xp_vcr_solve(*case.data), case.id)
        if out.error is None:
            out.verdict = out.detail
        outcomes.append(out)
    return outcomes


def check_xp(cases: list[Case], outcomes: list[Outcome]) -> None:
    for case, out in zip(cases, outcomes):
        g, S, T, mu = case.data
        ref = exact.solve_exact(ReconfigInstance(g, VC, S, T, Rule(RuleKind.KTJ, len(S) - mu)))
        if out.error:
            out.why = out.error
        elif ref.reachable != case.expect:
            out.why = f"solve_exact says {ref.reachable}, construction says {case.expect}"
        elif out.verdict != ref.reachable:
            out.why = f"verdict {out.verdict}, solve_exact says {ref.reachable}"
        out.ok = not out.why


# ---------------------------------------------------------------- CLI ----

K4_NCL_EDGES = [(0, 1, 2), (0, 2, 2), (0, 3, 2), (1, 2, 2), (1, 3, 2), (2, 3, 2)]
# Head vertex per edge of the K4 machine fixture, start and target.
K4_NCL_HEADS = ((0, 0, 3, 1, 1, 2), (1, 0, 0, 1, 3, 2))
PRISM_NCL_EDGES = [
    (0, 1, 2), (1, 2, 2), (0, 2, 2), (3, 4, 2), (4, 5, 2), (3, 5, 2), (0, 3, 2), (1, 4, 2), (2, 5, 2),
]
C4_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0)]
GRID23_EDGES = [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]
# The smallest compiled instance with a crossing in acceptance criterion 05's
# corpus: 4 crossings, 50 vertices once planarized.
MINIMAL_CROSSING = ((1, -2, -1), (2, -3, 3))
# Unsatisfied by both constant assignments, so the E3 compiler accepts it;
# with m = 2 clauses over n = 2 variables its output has 7 m n^2 = 56 clauses
# over n + 2 m n^2 = 18 variables.
COUNTING_FORMULA = ((-1, -2, -1), (1, 2, 1))
COUNTING_HEADER = "p cnf 18 56"


def _cnf_text(nvars: int, clauses) -> str:
    lines = [f"p cnf {nvars} {len(clauses)}"] + [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def _random_sandwiched(rng: random.Random):
    n = rng.randint(2, 4)
    clauses = []
    for _ in range(rng.randint(1, 2)):
        lits = [rng.randint(1, n), -rng.randint(1, n)]
        third = rng.randint(1, n)
        lits.append(third if rng.random() < 0.5 else -third)
        rng.shuffle(lits)
        clauses.append(tuple(lits))
    return n, tuple(clauses)


def _ncl_text(n, edges, cs_heads, ct_heads) -> str:
    lines = [f"p ncl {n} {len(edges)}"] + [f"e {u + 1} {v + 1} {w}" for u, v, w in edges]
    for name, heads in (("s", cs_heads), ("t", ct_heads)):
        lines.append(f"config {name}")
        lines += [f"a {(v if h == u else u) + 1} {h + 1}" for (u, v, _), h in zip(edges, heads)]
    return "\n".join(lines) + "\n"


def _pmr_text(n, edges, ms, mt) -> str:
    lines = [f"p pmr {n} {len(edges)}"] + [f"e {u + 1} {v + 1}" for u, v in sorted(edges)]
    for name, m in (("s", ms), ("t", mt)):
        lines.append(f"matching {name}")
        lines += [f"m {u + 1} {v + 1}" for u, v in sorted(m)]
    return "\n".join(lines) + "\n"


def _perfect_matchings(n, edges) -> list[frozenset]:
    edges = sorted((min(u, v), max(u, v)) for u, v in edges)
    return [
        frozenset(combo)
        for combo in itertools.combinations(edges, n // 2)
        if len({x for e in combo for x in e}) == n
    ]


@dataclass
class CliCase:
    """Input files, the pipeline's argv lists, and the reference answer.

    roles: reduce | solve | verify | oracle | xp. ``answer`` comes from the
    brute-force oracles (or, for the C4 fixtures, is known by hand); None
    means the pipeline only compiles, and ``output`` names the file whose
    first line must equal the given header.
    """

    files: dict[str, str]
    steps: list[tuple[str, list[str]]]
    answer: bool | None = None
    output: tuple[str, str] | None = None


def _solve_steps(name: str) -> list[tuple[str, list[str]]]:
    return [
        ("solve", ["solve", "--certificate", f"{name}.cert", f"{name}.isr"]),
        ("verify", ["verify", "--certificate", f"{name}.cert", f"{name}.isr"]),
    ]


def make_cli(seed: int, smoke: bool, workdir: Path) -> list[Case]:
    """The same pipelines, with the same verdicts, for every seed; the seed
    picks the sandwiched formula, the prism orientations and the grid
    matchings (each resampled until the oracle says YES)."""
    rng = random.Random(f"cli_pipeline:{seed}")
    cases = []

    def add(name, pipeline: CliCase):
        """One instance per command; a NO pipeline has no certificate to verify."""
        files = "".join(f"# {fname}\n{body}" for fname, body in sorted(pipeline.files.items()))
        for role, argv in pipeline.steps:
            if role != "verify" or pipeline.answer is not False:
                cases.append(Case(f"{name}/{role}", files + " ".join(argv) + "\n", (pipeline, role, argv)))

    # C4 opposite corners: 2-TJ swaps them in one step, 1-TJ cannot; the
    # vertex-cover twin also goes through the XP solver.
    for name, kind, k, answer in (("c4-is-ktj2", IS, 2, True), ("c4-vc-ktj1", VC, 1, False))[: 1 if smoke else 2]:
        steps = _solve_steps(name) + ([("xp", ["xp-vcr", f"{name}.isr"])] if kind is VC else [])
        files = {f"{name}.isr": isr_text(4, C4_EDGES, kind, RuleKind.KTJ, k, {0, 2}, {1, 3})}
        add(name, CliCase(files, steps, answer))

    # Sandwiched formulas: the smallest one that needs a crossing goes
    # through the planarizer, a seeded one through the plain compiler and
    # the mixed-SAT oracle. Compilation preserves the mixed-SAT answer.
    while True:
        nvars, clauses = _random_sandwiched(rng)
        if oracles.sat_decide(oracles.CnfFormula(nvars, clauses), oracles.SatMode.MIXED):
            break
    formulas = [("sat0", "planarize", 3, MINIMAL_CROSSING), ("sat1", "int2isr", nvars, clauses)]
    for name, compiler, nvars, clauses in formulas[1:] if smoke else formulas:
        answer = oracles.sat_decide(oracles.CnfFormula(nvars, clauses), oracles.SatMode.MIXED) is not None
        steps = [("reduce", ["reduce", compiler, "--mu", "1", f"{name}.cnf", "-o", f"{name}.isr"])]
        steps += _solve_steps(name)
        if compiler == "int2isr":
            steps.append(("oracle", ["oracle", "sat", "--mode", "mixed", f"{name}.cnf"]))
        add(f"{name}-{compiler}", CliCase({f"{name}.cnf": _cnf_text(nvars, clauses)}, steps, answer))
    if not smoke:
        steps = [("reduce", ["reduce", "sat2int", "count.cnf", "-o", "count-e3.cnf"])]
        files = {"count.cnf": _cnf_text(2, COUNTING_FORMULA)}
        add("sat2int", CliCase(files, steps, output=("count-e3.cnf", COUNTING_HEADER)))

    # Constraint-logic machines: the K4 fixture under 2-TJ, and a seeded pair
    # of valid orientations of the all-OR prism under 2-TS.
    machines = [("k4", "ktj", 4, K4_NCL_EDGES, K4_NCL_HEADS)]
    if not smoke:
        prism = oracles.NclMachine(6, tuple(PRISM_NCL_EDGES))
        valid = oracles.ncl_valid_configs(prism)
        while True:
            cs, ct = rng.sample(valid, 2)
            if oracles.ncl_reachable(prism, cs, ct):
                break
        machines.append(("prism", "kts", 6, PRISM_NCL_EDGES, (cs.heads, ct.heads)))
    for name, rule, n, medges, (hs, ht) in machines:
        answer = oracles.ncl_reachable(oracles.NclMachine(n, tuple(medges)), oracles.NclConfig(hs), oracles.NclConfig(ht))
        steps = [("reduce", ["reduce", "ncl2isr", "--k", "2", "--rule", rule, f"{name}.ncl", "-o", f"{name}.isr"])]
        steps += _solve_steps(name)
        if name == "k4":
            steps.append(("oracle", ["oracle", "ncl", f"{name}.ncl"]))
        add(f"ncl-{name}-{rule}", CliCase({f"{name}.ncl": _ncl_text(n, medges, hs, ht)}, steps, answer))

    # Perfect-matching reconfiguration: the C4 fixture under 2-TJ, and a
    # seeded pair of perfect matchings of the 2x3 grid under 2-TS.
    graphs = [("c4", "ktj", 4, C4_EDGES)] + ([] if smoke else [("grid23", "kts", 6, GRID23_EDGES)])
    for name, rule, n, gedges in graphs:
        pms = _perfect_matchings(n, gedges)
        g = graph.new_graph(n, gedges)
        while True:
            ms, mt = (pms[0], pms[1]) if name == "c4" else rng.sample(pms, 2)
            if oracles.pmr_reachable(g, ms, mt):
                break
        steps = [("reduce", ["reduce", "pmr2isr", "--rule", rule, f"{name}.pmr", "-o", f"{name}.isr"])]
        steps += _solve_steps(name)
        if name == "c4":
            steps.append(("oracle", ["oracle", "pmr", f"{name}.pmr"]))
        add(f"pmr-{name}-{rule}", CliCase({f"{name}.pmr": _pmr_text(n, gedges, ms, mt)}, steps, True))

    for case in cases:
        for fname, body in case.data[0].files.items():
            (workdir / fname).write_text(body, encoding="ascii")
    return cases


def _cli_call(argv: list[str], workdir: Path, in_process: bool) -> int:
    """Exit code of one CLI command: a fresh interpreter, or (traced run) a
    call of ``rekonfig.cli.main`` in this process."""
    if not in_process:
        # Popen.wait(timeout) polls in steps of up to 50 ms, which would
        # quantize every timing; a timer thread enforces the cap instead.
        proc = subprocess.Popen(
            [sys.executable, "-m", "rekonfig.cli", *argv],
            cwd=workdir,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        hung = threading.Event()
        timer = threading.Timer(CLI_STEP_SECONDS, lambda: (hung.set(), proc.kill()))
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        if hung.is_set():
            raise subprocess.TimeoutExpired(argv, CLI_STEP_SECONDS)
        return code
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)
    finally:
        os.chdir(cwd)


def make_run_cli(workdir: Path):
    """Each CLI command is one instance: the user waits for its exit code."""

    def run(cases: list[Case], tracer=None) -> list[Outcome]:
        outcomes = []
        for case in cases:
            _, role, argv = case.data
            out = Outcome(case.id, 0.0)
            t0 = time.perf_counter()
            try:
                out.detail = _cli_call(argv, workdir, tracer is not None)
            except subprocess.TimeoutExpired:
                out.error = f"exceeded {CLI_STEP_SECONDS:.0f}s"
            out.seconds = time.perf_counter() - t0
            if role != "reduce" and out.detail is not None:
                out.verdict = out.detail == 0
            if role == "solve" and out.detail == 0:
                out.length = len((workdir / argv[2]).read_text().splitlines()) - 1
            outcomes.append(out)
        return outcomes

    return run


def make_check_cli(workdir: Path):
    def check(cases: list[Case], outcomes: list[Outcome]) -> None:
        for case, out in zip(cases, outcomes):
            pipeline, role, _ = case.data
            out.why = out.error or _cli_mismatch(pipeline, role, out.detail, workdir)
            out.ok = not out.why

    return check


def _cli_mismatch(pipeline: CliCase, role: str, code: int, workdir: Path) -> str:
    if role in ("reduce", "verify") or pipeline.answer is not None:
        want = 0 if role in ("reduce", "verify") or pipeline.answer else 1
        if code != want:
            return f"exit {code}, expected {want}"
    if role == "reduce" and pipeline.output:
        name, header = pipeline.output
        first = (workdir / name).read_text(encoding="ascii").split("\n", 1)[0]
        if first != header:
            return f"{name} starts with {first!r}, expected {header!r}"
    return ""


def workloads(workdir: Path) -> dict[str, Workload]:
    return {
        "bfs_k1": Workload(make_bfs(1), run_bfs, check_bfs, ("exact",), ("xp",)),
        "bfs_k2": Workload(make_bfs(2), run_bfs, check_bfs, ("exact",), ("xp",)),
        "xp_vcr": Workload(make_xp, run_xp, check_xp, ("xp",), ("exact",)),
        "cli_pipeline": Workload(
            make_cli, make_run_cli(workdir), make_check_cli(workdir), ("cli", "io_formats", "reductions")
        ),
    }
