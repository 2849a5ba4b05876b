import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rekonfig.errors import FormatSemanticsError, FormatSyntaxError, PreconditionError, RekonfigError
from rekonfig.graph import (
    FeasibilityKind,
    ReconfigInstance,
    ReconfigSequence,
    Rule,
    RuleKind,
)
from rekonfig import io_formats, oracles
from rekonfig.io_formats import (
    MAX_VERTICES,
    parse_certificate,
    parse_cnf,
    parse_instance,
    parse_ncl,
    parse_pmr,
    serialize_certificate,
    serialize_cnf,
    serialize_instance,
    serialize_ncl,
    serialize_pmr,
)
from rekonfig.oracles import CnfFormula, enumerate_perfect_matchings

from conftest import brute_feasible, random_graph

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize(
    "parse, header",
    [
        (parse_instance, "p reconfig {} 0 is ktj 1"),
        (parse_ncl, "p ncl {} 0"),
        (parse_pmr, "p pmr {} 0"),
        (parse_cnf, "p cnf {} 0"),
    ],
)
def test_oversized_header_rejected_before_allocation(monkeypatch, parse, header):
    def no_allocation(*args, **kwargs):
        raise AssertionError("sized a graph or machine before the header check")

    monkeypatch.setattr(io_formats, "new_graph", no_allocation)
    monkeypatch.setattr(oracles, "NclMachine", no_allocation)  # parse_ncl imports it when called
    for n in (MAX_VERTICES + 1, 10**12):
        with pytest.raises(FormatSemanticsError, match="exceeds the limit"):
            parse(header.format(n) + "\n")


def test_header_at_the_vertex_limit_parses():
    inst = parse_instance(f"p reconfig {MAX_VERTICES} 0 is ktj 1\ns 1\nt 2\n")
    assert inst.graph.vertex_count == MAX_VERTICES
    # Every variable compiles to two vertices.
    assert parse_cnf(f"p cnf {MAX_VERTICES // 2} 0\n").variable_count == MAX_VERTICES // 2
    with pytest.raises(FormatSemanticsError, match="exceeds the limit"):
        parse_cnf(f"p cnf {MAX_VERTICES // 2 + 1} 0\n")


def test_instance_fixture_round_trip(c4):
    text = (FIXTURES / "c4_is_ktj1.isr").read_text()
    inst = parse_instance(text)
    assert inst.graph == c4
    assert inst.start == {0, 2} and inst.target == {1, 3}
    assert inst.kind is FeasibilityKind.INDEPENDENT_SET
    assert inst.rule == Rule(RuleKind.KTJ, 1)
    assert parse_instance(serialize_instance(inst)) == inst


def test_instance_semantic_errors():
    base = "p reconfig 4 4 is ktj 1\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n"
    with pytest.raises(FormatSemanticsError):
        parse_instance(base + "s 1 3\nt 2\n")  # unequal sizes
    with pytest.raises(FormatSemanticsError):
        parse_instance(base + "s 1 2\nt 3 4\n")  # infeasible start


def test_instance_syntax_errors():
    with pytest.raises(FormatSyntaxError):
        parse_instance("p reconfig 2 0 is bogus 1\ns 1\nt 2\n")
    with pytest.raises(FormatSyntaxError) as err:
        parse_instance("p reconfig 2 0 is ktj 1\ne 1\ns 1\nt 2\n")
    assert err.value.line == 2
    # A bad header token is reported before a fault further down.
    with pytest.raises(FormatSyntaxError) as err:
        parse_instance("p reconfig 2 5 is bogus 1\ns 1\nt 2\n")
    assert err.value.line == 1


def test_certificate_round_trip():
    seq = ReconfigSequence((frozenset({0, 2}), frozenset({1, 3})))
    text = serialize_certificate(seq)
    assert parse_certificate(text, 4) == seq


def test_empty_certificate_rejected():
    with pytest.raises(FormatSyntaxError):
        parse_certificate("c nothing here\n", 4)


def test_cnf_fixture_round_trip():
    phi = parse_cnf((FIXTURES / "fig_formula.cnf").read_text())
    assert phi == CnfFormula(4, ((1, -2, -4), (-1, -3, 4), (2, 3, -4)))
    assert parse_cnf(serialize_cnf(phi)) == phi


def test_cnf_errors():
    with pytest.raises(FormatSemanticsError):
        parse_cnf("p cnf 2 1\n3 0\n")
    with pytest.raises(FormatSyntaxError):
        parse_cnf("p cnf 2 1\n1 2\n")  # missing terminating 0
    with pytest.raises(FormatSemanticsError):
        parse_cnf("p cnf 2 2\n1 0\n")  # clause count mismatch


def test_ncl_fixture_round_trip():
    machine, cs, ct = parse_ncl((FIXTURES / "k4.ncl").read_text())
    assert machine.vertex_count == 4 and machine.edge_count == 6
    text = serialize_ncl(machine, cs, ct)
    again = parse_ncl(text)
    assert again == (machine, cs, ct)


def test_ncl_errors():
    head = "p ncl 4 6\n" + "".join(
        f"e {u+1} {v+1} 2\n" for u in range(4) for v in range(u + 1, 4)
    )
    with pytest.raises(FormatSemanticsError):
        parse_ncl(head + "config s\nconfig t\n")  # unoriented edges
    with pytest.raises(FormatSyntaxError):
        parse_ncl(head + "config s\nz 1 2\nconfig t\n")


def test_pmr_fixture_round_trip(c4):
    g, ms, mt = parse_pmr((FIXTURES / "c4.pmr").read_text())
    assert g == c4
    assert ms in enumerate_perfect_matchings(c4)
    assert parse_pmr(serialize_pmr(g, ms, mt)) == (g, ms, mt)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=80, deadline=None)
def test_instance_round_trip_random(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    g = random_graph(rng, n, rng.uniform(0.1, 0.7))
    kind = rng.choice(list(FeasibilityKind))
    size = rng.randint(0, n)
    family = brute_feasible(g, kind, size)
    if len(family) < 1:
        return
    inst = ReconfigInstance(
        g,
        kind,
        rng.choice(family),
        rng.choice(family),
        Rule(rng.choice(list(RuleKind)), rng.randint(1, n + 1)),
    )
    assert parse_instance(serialize_instance(inst)) == inst


@given(st.text(max_size=200))
@settings(max_examples=200, deadline=None)
@example("config s\na 1 2\n")  # a section line before the p line
@example("matching s\nm 1 2\n")
@example("p ncl -3 0\nconfig s\nconfig t\n")  # a negative vertex count
def test_parsers_never_crash(text):
    for parser in (parse_instance, parse_cnf, parse_ncl, parse_pmr):
        try:
            parser(text)
        except RekonfigError:
            pass
    try:
        parse_certificate(text, 5)
    except RekonfigError:
        pass


@pytest.mark.parametrize(
    "parse, fixture, section",
    [
        (parse_instance, "c4_is_ktj1.isr", None),
        (parse_ncl, "k4.ncl", "config"),
        (parse_pmr, "c4.pmr", "matching"),
    ],
    ids=["isr", "ncl", "pmr"],
)
def test_shared_grammar_rules(parse, fixture, section):
    lines = [line for line in (FIXTURES / fixture).read_text().splitlines() if line[:2] != "c "]
    opener = f"{section} " if section else ""
    s_at = next(i for i, line in enumerate(lines) if line.startswith(opener + "s"))
    t_at = next(i for i, line in enumerate(lines) if line.startswith(opener + "t"))
    body, s_part, t_part = lines[:s_at], lines[s_at:t_at], lines[t_at:]

    def text(*blocks):
        return "".join(line + "\n" for block in blocks for line in block)

    parse(text(body, s_part, t_part))
    # Nothing comes before the p line, a part's opening line included.
    for stray in (s_part[0], t_part[0], s_part[-1], body[1], "z 1 2"):
        with pytest.raises(FormatSyntaxError, match="before the p line") as err:
            parse(text(["c a comment", stray], body, s_part, t_part))
        assert err.value.line == 2
    for again in (s_part[:1], body[:1]):
        with pytest.raises(FormatSyntaxError, match="duplicate") as err:
            parse(text(body, s_part, t_part, again))
        assert err.value.line == len(lines) + 1
    if section:  # an .isr part is one line, so no e line can be inside one
        with pytest.raises(FormatSyntaxError, match="inside") as err:
            parse(text(body, s_part, body[1:2], t_part))
        assert err.value.line == t_at + 1
    for missing in (text(body, s_part), text(body, t_part)):
        with pytest.raises(FormatSemanticsError, match="need both"):
            parse(missing)


def test_section_line_before_p_line_and_negative_counts_are_input_errors():
    with pytest.raises(FormatSyntaxError, match="before the p line"):
        parse_ncl("config s\na 1 2\n")
    with pytest.raises(FormatSyntaxError, match="before the p line"):
        parse_pmr("matching s\nm 1 2\n")
    with pytest.raises(FormatSemanticsError, match="negative vertex count"):
        parse_ncl("p ncl -3 0\nconfig s\nconfig t\n")
    with pytest.raises(FormatSemanticsError, match="negative vertex count"):
        parse_pmr("p pmr -1 0\nmatching s\nmatching t\n")
    with pytest.raises(PreconditionError, match="negative vertex count"):
        oracles.NclMachine(-3, ())
