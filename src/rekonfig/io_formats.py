"""Line-oriented text formats, DIMACS-flavored: 1-based vertex ids, `c`
comment lines, one `p` header per file. Parsers give line/column
diagnostics and distinguish syntax faults from semantic ones (a start set
that is not feasible is semantics, a stray token is syntax); serializers
emit canonical ordering so parse-serialize round trips are bit-stable.

Instance        p reconfig <n> <m> <is|vc> <ktj|kts> <k>
                e <u> <v>            (m times)
                s <ids...>           (start set)
                t <ids...>           (target set)

Certificate     v <ids...>           (one line per step, in order)

CNF             standard DIMACS: p cnf <vars> <clauses>, clauses end in 0

NCL machine     p ncl <n> <m>
                e <u> <v> <1|2>      (m times)
                config s             then `a <u> <v>` arcs (u -> v), one per edge
                config t             same

PMR instance    p pmr <n> <m>
                e <u> <v>            (m times)
                matching s           then `m <u> <v>` edges of the start matching
                matching t           same for the target
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import (
    FormatSemanticsError,
    FormatSyntaxError,
    PreconditionError,
    RekonfigError,
    SizeMismatchError,
)
from .graph import (
    FeasibilityKind,
    Graph,
    ReconfigInstance,
    ReconfigSequence,
    Rule,
    RuleKind,
    new_graph,
)
from .matching import Matching

if TYPE_CHECKING:  # the parsers import them when called
    from .oracles import CnfFormula, NclConfig, NclMachine

# Largest vertex count a header may announce. Parsers check it before any
# graph or per-vertex list is sized, so a one-line file cannot exhaust memory.
MAX_VERTICES = 1 << 16


def _tokenized(text: str):
    """(line_number, [tokens]) for every non-comment, non-blank line.

    A comment line's first token is exactly `c` (so `config` stays a
    keyword)."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if not toks or toks[0] == "c":
            continue
        yield ln, toks


def _int(tok: str, ln: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatSyntaxError(f"expected an integer {what}, got {tok!r}", ln, 1)


def _vertex_count(tok: str, ln: int) -> int:
    n = _int(tok, ln, "vertex count")
    if n < 0:
        raise FormatSemanticsError(f"negative vertex count {n}", ln)
    if n > MAX_VERTICES:
        raise FormatSemanticsError(f"vertex count {n} exceeds the limit {MAX_VERTICES}", ln)
    return n


def _vertex(tok: str, ln: int, n: int) -> int:
    v = _int(tok, ln, "vertex id")
    if not (1 <= v <= n):
        raise FormatSyntaxError(f"vertex id {v} outside 1..{n}", ln, 1)
    return v - 1


def parse_instance(text: str) -> ReconfigInstance:
    n = m = None
    kind = rule_kind = k = None
    edges: list[tuple[int, int]] = []
    sets: dict[str, frozenset[int]] = {}
    for ln, toks in _tokenized(text):
        head = toks[0]
        if head == "p":
            if n is not None:
                raise FormatSyntaxError("duplicate p line", ln, 1)
            if len(toks) != 7 or toks[1] != "reconfig":
                raise FormatSyntaxError(
                    "expected `p reconfig <n> <m> <is|vc> <ktj|kts> <k>`", ln, 1
                )
            n = _vertex_count(toks[2], ln)
            m = _int(toks[3], ln, "edge count")
            try:
                kind = FeasibilityKind(toks[4])
                rule_kind = RuleKind(toks[5])
            except ValueError:
                raise FormatSyntaxError(
                    f"unknown kind/rule token {toks[4]!r} {toks[5]!r}", ln, 1
                )
            k = _int(toks[6], ln, "k")
        elif head == "e":
            if n is None:
                raise FormatSyntaxError("e line before the p line", ln, 1)
            if len(toks) != 3:
                raise FormatSyntaxError("expected `e <u> <v>`", ln, 1)
            edges.append((_vertex(toks[1], ln, n), _vertex(toks[2], ln, n)))
        elif head in ("s", "t"):
            if n is None:
                raise FormatSyntaxError(f"{head} line before the p line", ln, 1)
            if head in sets:
                raise FormatSyntaxError(f"duplicate {head} line", ln, 1)
            sets[head] = frozenset(_vertex(tok, ln, n) for tok in toks[1:])
        else:
            raise FormatSyntaxError(f"unknown line type {head!r}", ln, 1)
    if n is None:
        raise FormatSyntaxError("missing p line", 1, 1)
    if len(edges) != m:
        raise FormatSemanticsError(f"header announces {m} edges, found {len(edges)}")
    if "s" not in sets or "t" not in sets:
        raise FormatSemanticsError("missing s or t line")
    try:
        graph = new_graph(n, edges)
        return ReconfigInstance(graph, kind, sets["s"], sets["t"], Rule(rule_kind, k))
    except (PreconditionError, SizeMismatchError, RekonfigError) as exc:
        raise FormatSemanticsError(str(exc))


def serialize_instance(inst: ReconfigInstance) -> str:
    lines = [
        f"p reconfig {inst.graph.vertex_count} {inst.graph.edge_count} "
        f"{inst.kind.value} {inst.rule.kind.value} {inst.rule.k}"
    ]
    lines += [f"e {u + 1} {v + 1}" for u, v in inst.graph.edges()]
    lines.append("s " + " ".join(str(v + 1) for v in sorted(inst.start)))
    lines.append("t " + " ".join(str(v + 1) for v in sorted(inst.target)))
    return "\n".join(lines) + "\n"


def parse_certificate(text: str, vertex_count: int) -> ReconfigSequence:
    steps = []
    for ln, toks in _tokenized(text):
        if toks[0] != "v":
            raise FormatSyntaxError(f"expected a v line, got {toks[0]!r}", ln, 1)
        steps.append(frozenset(_vertex(tok, ln, vertex_count) for tok in toks[1:]))
    if not steps:
        raise FormatSyntaxError("certificate has no steps", 1, 1)
    return ReconfigSequence(tuple(steps))


def serialize_certificate(seq: ReconfigSequence) -> str:
    return (
        "\n".join("v " + " ".join(str(v + 1) for v in sorted(step)) for step in seq)
        + "\n"
    )


def parse_cnf(text: str) -> CnfFormula:
    from .oracles import CnfFormula

    nvars = nclauses = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for ln, toks in _tokenized(text):
        if toks[0] == "p":
            if nvars is not None:
                raise FormatSyntaxError("duplicate p line", ln, 1)
            if len(toks) != 4 or toks[1] != "cnf":
                raise FormatSyntaxError("expected `p cnf <vars> <clauses>`", ln, 1)
            nvars = _int(toks[2], ln, "variable count")
            if nvars > MAX_VERTICES // 2:
                # The compilers give every variable two vertices.
                raise FormatSemanticsError(
                    f"{nvars} variables compile to {2 * nvars} vertices or more, "
                    f"which exceeds the limit {MAX_VERTICES}",
                    ln,
                )
            nclauses = _int(toks[3], ln, "clause count")
            continue
        if nvars is None:
            raise FormatSyntaxError("clause line before the p line", ln, 1)
        for tok in toks:
            lit = _int(tok, ln, "literal")
            if lit == 0:
                if not pending:
                    raise FormatSemanticsError("empty clause", ln)
                clauses.append(tuple(pending))
                pending.clear()
            else:
                if abs(lit) > nvars:
                    raise FormatSemanticsError(f"literal {lit} exceeds {nvars} variables", ln)
                pending.append(lit)
    if nvars is None:
        raise FormatSyntaxError("missing p line", 1, 1)
    if pending:
        raise FormatSyntaxError("last clause is not terminated by 0", 1, 1)
    if len(clauses) != nclauses:
        raise FormatSemanticsError(
            f"header announces {nclauses} clauses, found {len(clauses)}"
        )
    try:
        return CnfFormula(nvars, tuple(clauses))
    except (PreconditionError, RekonfigError) as exc:
        raise FormatSemanticsError(str(exc))


def serialize_cnf(phi: CnfFormula) -> str:
    lines = [f"p cnf {phi.variable_count} {phi.clause_count}"]
    lines += [" ".join(str(l) for l in c) + " 0" for c in phi.clauses]
    return "\n".join(lines) + "\n"


def parse_ncl(text: str) -> tuple[NclMachine, NclConfig, NclConfig]:
    from .oracles import NclConfig, NclMachine

    n = m = None
    edges: list[tuple[int, int, int]] = []
    arcs: dict[str, list[tuple[int, int]]] = {}
    section: str | None = None
    for ln, toks in _tokenized(text):
        head = toks[0]
        if head == "p":
            if n is not None:
                raise FormatSyntaxError("duplicate p line", ln, 1)
            if len(toks) != 4 or toks[1] != "ncl":
                raise FormatSyntaxError("expected `p ncl <n> <m>`", ln, 1)
            n = _vertex_count(toks[2], ln)
            m = _int(toks[3], ln, "edge count")
        elif head == "e":
            if section is not None:
                raise FormatSyntaxError("e line inside a config section", ln, 1)
            if n is None or len(toks) != 4:
                raise FormatSyntaxError("expected `e <u> <v> <1|2>` after the p line", ln, 1)
            w = _int(toks[3], ln, "weight")
            edges.append((_vertex(toks[1], ln, n), _vertex(toks[2], ln, n), w))
        elif head == "config":
            if len(toks) != 2 or toks[1] not in ("s", "t"):
                raise FormatSyntaxError("expected `config s` or `config t`", ln, 1)
            section = toks[1]
            if section in arcs:
                raise FormatSyntaxError(f"duplicate config {section}", ln, 1)
            arcs[section] = []
        elif head == "a":
            if n is None:
                raise FormatSyntaxError("a line before the p line", ln, 1)
            if section is None:
                raise FormatSyntaxError("a line outside a config section", ln, 1)
            if len(toks) != 3:
                raise FormatSyntaxError("expected `a <u> <v>`", ln, 1)
            arcs[section].append((_vertex(toks[1], ln, n), _vertex(toks[2], ln, n)))
        else:
            raise FormatSyntaxError(f"unknown line type {head!r}", ln, 1)
    if n is None:
        raise FormatSyntaxError("missing p line", 1, 1)
    if len(edges) != m:
        raise FormatSemanticsError(f"header announces {m} edges, found {len(edges)}")
    if set(arcs) != {"s", "t"}:
        raise FormatSemanticsError("need both `config s` and `config t` sections")
    try:
        machine = NclMachine(n, tuple(edges))
    except (PreconditionError, RekonfigError) as exc:
        raise FormatSemanticsError(str(exc))

    def to_config(which: str) -> NclConfig:
        heads: list[int | None] = [None] * machine.edge_count
        index = {}
        for i, (u, v, _) in enumerate(machine.edges):
            index[(u, v)] = i
            index[(v, u)] = i
        for tail, head_v in arcs[which]:
            i = index.get((tail, head_v))
            if i is None:
                raise FormatSemanticsError(
                    f"config {which}: arc {tail + 1}->{head_v + 1} is not a machine edge"
                )
            if heads[i] is not None:
                raise FormatSemanticsError(
                    f"config {which}: edge {tail + 1}-{head_v + 1} oriented twice"
                )
            heads[i] = head_v
        missing = [i for i, h in enumerate(heads) if h is None]
        if missing:
            u, v, _ = machine.edges[missing[0]]
            raise FormatSemanticsError(
                f"config {which}: edge {u + 1}-{v + 1} has no orientation"
            )
        return NclConfig(tuple(heads))

    return machine, to_config("s"), to_config("t")


def serialize_ncl(machine: NclMachine, cs: NclConfig, ct: NclConfig) -> str:
    lines = [f"p ncl {machine.vertex_count} {machine.edge_count}"]
    lines += [f"e {u + 1} {v + 1} {w}" for u, v, w in machine.edges]
    for name, cfg in (("s", cs), ("t", ct)):
        lines.append(f"config {name}")
        for (u, v, _), h in zip(machine.edges, cfg.heads):
            tail = v if h == u else u
            lines.append(f"a {tail + 1} {h + 1}")
    return "\n".join(lines) + "\n"


def parse_pmr(text: str) -> tuple[Graph, Matching, Matching]:
    n = m = None
    edges: list[tuple[int, int]] = []
    matchings: dict[str, set[tuple[int, int]]] = {}
    section: str | None = None
    for ln, toks in _tokenized(text):
        head = toks[0]
        if head == "p":
            if n is not None:
                raise FormatSyntaxError("duplicate p line", ln, 1)
            if len(toks) != 4 or toks[1] != "pmr":
                raise FormatSyntaxError("expected `p pmr <n> <m>`", ln, 1)
            n = _vertex_count(toks[2], ln)
            m = _int(toks[3], ln, "edge count")
        elif head == "e":
            if section is not None or n is None:
                raise FormatSyntaxError("misplaced e line", ln, 1)
            if len(toks) != 3:
                raise FormatSyntaxError("expected `e <u> <v>`", ln, 1)
            edges.append((_vertex(toks[1], ln, n), _vertex(toks[2], ln, n)))
        elif head == "matching":
            if len(toks) != 2 or toks[1] not in ("s", "t"):
                raise FormatSyntaxError("expected `matching s` or `matching t`", ln, 1)
            section = toks[1]
            if section in matchings:
                raise FormatSyntaxError(f"duplicate matching {section}", ln, 1)
            matchings[section] = set()
        elif head == "m":
            if n is None:
                raise FormatSyntaxError("m line before the p line", ln, 1)
            if section is None:
                raise FormatSyntaxError("m line outside a matching section", ln, 1)
            if len(toks) != 3:
                raise FormatSyntaxError("expected `m <u> <v>`", ln, 1)
            u, v = _vertex(toks[1], ln, n), _vertex(toks[2], ln, n)
            matchings[section].add((min(u, v), max(u, v)))
        else:
            raise FormatSyntaxError(f"unknown line type {head!r}", ln, 1)
    if n is None:
        raise FormatSyntaxError("missing p line", 1, 1)
    if len(edges) != m:
        raise FormatSemanticsError(f"header announces {m} edges, found {len(edges)}")
    if set(matchings) != {"s", "t"}:
        raise FormatSemanticsError("need both `matching s` and `matching t` sections")
    try:
        graph = new_graph(n, edges)
    except RekonfigError as exc:
        raise FormatSemanticsError(str(exc))
    return graph, frozenset(matchings["s"]), frozenset(matchings["t"])


def serialize_pmr(g: Graph, ms: Matching, mt: Matching) -> str:
    lines = [f"p pmr {g.vertex_count} {g.edge_count}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    for name, matching in (("s", ms), ("t", mt)):
        lines.append(f"matching {name}")
        lines += [f"m {u + 1} {v + 1}" for u, v in sorted(matching)]
    return "\n".join(lines) + "\n"
