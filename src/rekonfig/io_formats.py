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

The instance, NCL and PMR formats share one reader and its rules: the `p`
line comes first and once, announcing at most MAX_VERTICES vertices and
exactly the edges that follow; ids lie in 1..n; no `e` line follows a
section header; the s and t parts each appear once. Faults of order,
repetition or tokens are syntax errors with a line number; a negative or
oversized vertex count, a wrong edge count or a missing part is a
semantic error.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .errors import (
    FormatSemanticsError,
    FormatSyntaxError,
    RekonfigError,
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

if TYPE_CHECKING:  # annotations only; the parsers import the oracles' types when called
    from .matching import Matching
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


def _read_parts(
    text: str,
    usage: str,
    header: Callable[[list[str], int], tuple] | None = None,
    weighted: bool = False,
    section: str | None = None,
    item: str | None = None,
) -> tuple[int, tuple | None, list[tuple[int, ...]], list, list]:
    """Read the grammar shared by the instance, NCL and PMR formats: a `p`
    line shaped like `usage`, `e` lines, an `s` part and a `t` part.

    Returns (n, header(tokens after `<n> <m>`), edges, s part, t part);
    `header` runs on the p line, so its faults come before later ones.
    Edges are (u, v), plus the weight when `weighted`. Without a `section`
    keyword a part is an `s <ids...>` or `t <ids...>` line of vertex ids;
    with one it is a `<section> s|t` line and the (u, v) of the
    `<item> <u> <v>` lines after it, and no `e` line may follow it."""
    shape = usage.split()
    n = m = extra = current = None
    edges: list[tuple[int, ...]] = []
    parts: dict[str, list] = {}
    label = f"{section} " if section else ""
    for ln, toks in _tokenized(text):
        head = toks[0]
        if n is None and head != "p":
            raise FormatSyntaxError(f"{head} line before the p line", ln, 1)
        if head == "p":
            if n is not None:
                raise FormatSyntaxError("duplicate p line", ln, 1)
            if len(toks) != len(shape) or toks[1] != shape[1]:
                raise FormatSyntaxError(f"expected `{usage}`", ln, 1)
            n = _vertex_count(toks[2], ln)
            m = _int(toks[3], ln, "edge count")
            if header is not None:
                extra = header(toks[4:], ln)
        elif head == "e":
            if current is not None:
                raise FormatSyntaxError(f"e line inside a {section} section", ln, 1)
            if len(toks) != (4 if weighted else 3):
                raise FormatSyntaxError(f"expected `e <u> <v>{' <1|2>' if weighted else ''}`", ln, 1)
            edge = (_vertex(toks[1], ln, n), _vertex(toks[2], ln, n))
            edges.append(edge + (_int(toks[3], ln, "weight"),) if weighted else edge)
        elif head == section or (section is None and head in ("s", "t")):
            if section is None:
                part, payload = head, [_vertex(tok, ln, n) for tok in toks[1:]]
            elif len(toks) == 2 and toks[1] in ("s", "t"):
                part = current = toks[1]
                payload = []
            else:
                raise FormatSyntaxError(f"expected `{section} s` or `{section} t`", ln, 1)
            if part in parts:
                raise FormatSyntaxError(f"duplicate `{label}{part}`", ln, 1)
            parts[part] = payload
        elif head == item:
            if current is None:
                raise FormatSyntaxError(f"{item} line outside a {section} section", ln, 1)
            if len(toks) != 3:
                raise FormatSyntaxError(f"expected `{item} <u> <v>`", ln, 1)
            parts[current].append((_vertex(toks[1], ln, n), _vertex(toks[2], ln, n)))
        else:
            raise FormatSyntaxError(f"unknown line type {head!r}", ln, 1)
    if n is None:
        raise FormatSyntaxError("missing p line", 1, 1)
    if len(edges) != m:
        raise FormatSemanticsError(f"header announces {m} edges, found {len(edges)}")
    if len(parts) != 2:
        raise FormatSemanticsError(f"need both `{label}s` and `{label}t`")
    return n, extra, edges, parts["s"], parts["t"]


def _instance_header(toks: list[str], ln: int) -> tuple[FeasibilityKind, RuleKind, int]:
    try:
        kind, rule_kind = FeasibilityKind(toks[0]), RuleKind(toks[1])
    except ValueError:
        raise FormatSyntaxError(f"unknown kind/rule token {toks[0]!r} {toks[1]!r}", ln, 1)
    return kind, rule_kind, _int(toks[2], ln, "k")


def parse_instance(text: str) -> ReconfigInstance:
    n, (kind, rule_kind, k), edges, s, t = _read_parts(
        text, "p reconfig <n> <m> <is|vc> <ktj|kts> <k>", header=_instance_header
    )
    try:
        graph = new_graph(n, edges)
        return ReconfigInstance(graph, kind, frozenset(s), frozenset(t), Rule(rule_kind, k))
    except RekonfigError as exc:
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
    except RekonfigError as exc:
        raise FormatSemanticsError(str(exc))


def serialize_cnf(phi: CnfFormula) -> str:
    lines = [f"p cnf {phi.variable_count} {phi.clause_count}"]
    lines += [" ".join(str(l) for l in c) + " 0" for c in phi.clauses]
    return "\n".join(lines) + "\n"


def parse_ncl(text: str) -> tuple[NclMachine, NclConfig, NclConfig]:
    from .oracles import NclConfig, NclMachine

    n, _, edges, arcs_s, arcs_t = _read_parts(
        text, "p ncl <n> <m>", weighted=True, section="config", item="a"
    )
    try:
        machine = NclMachine(n, tuple(edges))
    except RekonfigError as exc:
        raise FormatSemanticsError(str(exc))
    index = {arc: i for i, (u, v, _) in enumerate(machine.edges) for arc in ((u, v), (v, u))}

    def to_config(which: str, arcs: list[tuple[int, int]]) -> NclConfig:
        heads: list[int | None] = [None] * machine.edge_count
        for tail, head_v in arcs:
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
        if None in heads:
            u, v, _ = machine.edges[heads.index(None)]
            raise FormatSemanticsError(f"config {which}: edge {u + 1}-{v + 1} has no orientation")
        return NclConfig(tuple(heads))

    return machine, to_config("s", arcs_s), to_config("t", arcs_t)


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
    n, _, edges, ms, mt = _read_parts(text, "p pmr <n> <m>", section="matching", item="m")
    try:
        graph = new_graph(n, edges)
    except RekonfigError as exc:
        raise FormatSemanticsError(str(exc))
    ms, mt = (frozenset({(min(u, v), max(u, v)) for u, v in part}) for part in (ms, mt))
    return graph, ms, mt


def serialize_pmr(g: Graph, ms: Matching, mt: Matching) -> str:
    lines = [f"p pmr {g.vertex_count} {g.edge_count}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    for name, matching in (("s", ms), ("t", mt)):
        lines.append(f"matching {name}")
        lines += [f"m {u + 1} {v + 1}" for u, v in sorted(matching)]
    return "\n".join(lines) + "\n"
