import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rekonfig
from rekonfig import cli
from rekonfig.cli import main
from rekonfig.io_formats import MAX_VERTICES, parse_instance

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_no(capsys):
    code, out, _ = run(capsys, "solve", str(FIXTURES / "c4_is_ktj1.isr"))
    assert code == 1 and out.strip() == "no"


def test_solve_yes_with_certificate(capsys, tmp_path):
    cert = tmp_path / "cert"
    code, out, err = run(
        capsys,
        "solve",
        "--shortest",
        "--certificate",
        str(cert),
        str(FIXTURES / "c4_is_ktj2.isr"),
    )
    assert code == 0 and out.strip() == "yes"
    assert "shortest 1" in err
    code, out, _ = run(
        capsys,
        "verify",
        str(FIXTURES / "c4_is_ktj2.isr"),
        "--certificate",
        str(cert),
    )
    assert code == 0 and out.strip() == "yes"


def test_verify_rejects_wrong_certificate(capsys, tmp_path):
    cert = tmp_path / "cert"
    cert.write_text("v 1 3\nv 2 4\n")
    code, out, err = run(
        capsys, "verify", str(FIXTURES / "c4_is_ktj1.isr"), "--certificate", str(cert)
    )
    assert code == 1 and out.strip() == "no" and "reject" in err


def test_xp_vcr_agrees_with_solve(capsys):
    vcr = str(FIXTURES / "c4_vc_ktj1.isr")
    code_xp, out_xp, _ = run(capsys, "xp-vcr", "--mu", "1", vcr)
    code_solve, out_solve, _ = run(capsys, "solve", vcr)
    assert code_xp == code_solve == 1
    assert out_xp == out_solve == "no\n"


def test_xp_vcr_mu_mismatch(capsys):
    code, _, err = run(capsys, "xp-vcr", "--mu", "2", str(FIXTURES / "c4_vc_ktj1.isr"))
    assert code == 2 and "contradicts" in err


@pytest.mark.parametrize(
    "argv, text, code, expect",
    [
        (("xp-vcr",), (FIXTURES / "c4_is_ktj1.isr").read_text(), 2,
         "needs a vertex-cover instance"),
        (("xp-vcr",), (FIXTURES / "c4_vc_ktj1.isr").read_text().replace("vc ktj", "vc kts"), 2,
         "needs the ktj rule"),
        # without -o the reduced instance goes to stdout
        (("reduce", "pmr2isr"), (FIXTURES / "c4.pmr").read_text(), 0, "p reconfig "),
    ],
    ids=["xp-vcr-is", "xp-vcr-kts", "reduce-stdout"],
)
def test_command_checks_and_default_output(capsys, tmp_path, argv, text, code, expect):
    path = tmp_path / "input"
    path.write_text(text)
    got, out, err = run(capsys, *argv, str(path))
    assert got == code and expect in (err if code else out)


def test_bound_output(capsys):
    code, out, _ = run(capsys, "bound", "--n", "10", "--size", "5", "--mu", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "max_length 7"
    assert lines[1] == "binomial_bound 9/2"


def test_oracle_sat_modes(capsys):
    cnf = str(FIXTURES / "fig_formula.cnf")
    code, out, err = run(capsys, "oracle", "sat", "--mode", "mixed", cnf)
    assert code == 0 and out.strip() == "yes" and err.startswith("model ")
    code, out, _ = run(capsys, "oracle", "sat", str(FIXTURES / "forced_chain.cnf"))
    assert code == 1 and out.strip() == "no"


def test_reduce_int2isr_then_solve_matches_oracle(capsys, tmp_path):
    cnf = str(FIXTURES / "fig_formula.cnf")
    out_path = tmp_path / "fig.isr"
    code, _, _ = run(capsys, "reduce", "int2isr", "--mu", "1", cnf, "-o", str(out_path))
    assert code == 0
    code_solve, out_solve, _ = run(capsys, "solve", str(out_path))
    code_oracle, out_oracle, _ = run(capsys, "oracle", "sat", "--mode", "mixed", cnf)
    assert (code_solve, out_solve) == (code_oracle, out_oracle)


def test_reduce_sat2int_counts(capsys, tmp_path):
    out_path = tmp_path / "chain.cnf"
    code, _, _ = run(
        capsys, "reduce", "sat2int", str(FIXTURES / "forced_chain.cnf"), "-o", str(out_path)
    )
    assert code == 0
    from rekonfig.io_formats import parse_cnf

    phi = parse_cnf(out_path.read_text())
    assert phi.clause_count == 7 * 2 * 1 and phi.variable_count == 1 + 2 * 2 * 1


def test_reduce_sat2int_rejects_output_beyond_the_vertex_limit(capsys, tmp_path):
    # 200 variables and 2 clauses widen to 160,200 variables, more than
    # int2isr can give two vertices each: usage error before any widening.
    path = tmp_path / "wide.cnf"
    path.write_text("p cnf 200 2\n1 2 3 0\n-1 -2 -3 0\n")
    began = time.monotonic()
    code, out, err = run(capsys, "reduce", "sat2int", str(path))
    assert code == 2 and out == "" and "exceeds the limit" in err
    assert time.monotonic() - began < 0.5


def test_reduce_ncl2isr_then_solve_matches_oracle(capsys, tmp_path):
    ncl = str(FIXTURES / "k4.ncl")
    out_path = tmp_path / "k4.isr"
    code, _, _ = run(capsys, "reduce", "ncl2isr", "--k", "2", ncl, "-o", str(out_path))
    assert code == 0
    inst = parse_instance(out_path.read_text())
    assert inst.graph.vertex_count == 36
    code_solve, out_solve, _ = run(capsys, "solve", str(out_path))
    code_oracle, out_oracle, _ = run(capsys, "oracle", "ncl", ncl)
    assert (code_solve, out_solve) == (code_oracle, out_oracle)


def test_reduce_pmr2isr_then_solve_matches_oracle(capsys, tmp_path):
    pmr = str(FIXTURES / "c4.pmr")
    out_path = tmp_path / "pmr.isr"
    for rule in ("ktj", "kts"):
        code, _, _ = run(
            capsys, "reduce", "pmr2isr", "--rule", rule, pmr, "-o", str(out_path)
        )
        assert code == 0
        code_solve, out_solve, _ = run(capsys, "solve", str(out_path))
        code_oracle, out_oracle, _ = run(capsys, "oracle", "pmr", pmr)
        assert (code_solve, out_solve) == (code_oracle, out_oracle)


def test_reduce_planarize_roundtrip(capsys, tmp_path):
    cnf_path = tmp_path / "mini.cnf"
    cnf_path.write_text("p cnf 3 2\n1 -2 -1 0\n2 -3 3 0\n")
    out_path = tmp_path / "mini.isr"
    code, _, _ = run(capsys, "reduce", "planarize", str(cnf_path), "-o", str(out_path))
    assert code == 0
    inst = parse_instance(out_path.read_text())
    assert inst.graph.max_degree == 4
    code_planar, out_planar, _ = run(capsys, "solve", str(out_path))
    code_oracle, out_oracle, _ = run(capsys, "oracle", "sat", "--mode", "mixed", str(cnf_path))
    assert (code_planar, out_planar) == (code_oracle, out_oracle)


def test_usage_errors(capsys, tmp_path):
    code, _, _ = run(capsys, "solve", str(tmp_path / "missing.isr"))
    assert code == 2
    assert main(["bogus-subcommand"]) == 2
    bad = tmp_path / "bad.isr"
    bad.write_text("p reconfig 2 0 is ktj 1\ns 1\nt 1 2\n")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2 and "input error" in err


def test_budget_exit_code(capsys, tmp_path):
    big = tmp_path / "big.isr"
    n = 24
    lines = [f"p reconfig {n} 0 is ktj 1"]
    lines.append("s " + " ".join(str(i) for i in range(1, 13)))
    lines.append("t " + " ".join(str(i) for i in range(13, 25)))
    big.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "--budget-states", "50", "solve", str(big))
    assert code == 3 and "budget" in err


def test_budget_env_override(capsys, tmp_path, monkeypatch):
    big = tmp_path / "big.isr"
    lines = ["p reconfig 24 0 is ktj 1"]
    lines.append("s " + " ".join(str(i) for i in range(1, 13)))
    lines.append("t " + " ".join(str(i) for i in range(13, 25)))
    big.write_text("\n".join(lines) + "\n")
    monkeypatch.setenv("REKONFIG_BUDGET_STATES", "50")
    code, _, _ = run(capsys, "solve", str(big))
    assert code == 3


@pytest.mark.parametrize(
    "argv, env",
    [
        (["--budget-secs", "nan"], {}),
        ([], {"REKONFIG_BUDGET_STATES": "abc"}),
        ([], {"REKONFIG_BUDGET_SECS": "nan"}),
        ([], {"REKONFIG_BUDGET_SECS": "soon"}),
    ],
)
def test_unusable_budget_is_a_usage_error(capsys, monkeypatch, argv, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, _ = run(capsys, *argv, "solve", str(FIXTURES / "c4_is_ktj1.isr"))
    assert code == 2 and out == ""


def test_xp_vcr_time_budget_exit_code(capsys, tmp_path):
    # The cycle C40 on 1-40; s = {1, 3, ..., 39} + {2}, t = {2, 4, ..., 40}
    # + {1}, mu = 5 so k = 16: a YES that the tries between the cliques of
    # s and t find after 396,322 decisions, about 3.3 s without a budget.
    n = 40
    edges = [(v, v % n + 1) for v in range(1, n + 1)]
    lines = [f"p reconfig {n} {len(edges)} vc ktj 16"]
    lines += [f"e {u} {v}" for u, v in edges]
    lines.append("s " + " ".join(str(v) for v in list(range(1, n, 2)) + [2]))
    lines.append("t " + " ".join(str(v) for v in list(range(2, n + 1, 2)) + [1]))
    path = tmp_path / "c40.isr"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "--budget-secs", "0.3", "xp-vcr", str(path))
    assert code == 3 and out == "" and "budget" in err


def _unsat_cnf_24() -> str:
    # 24 variables, clauses x1 and -x1: every one of the 2^24 assignments
    # is tried, about 20 s without a budget.
    return "p cnf 24 2\n1 0\n-1 0\n"


def _k16_pmr() -> str:
    # K_16, from {1-2, 3-4, ...} to {1-3, 2-4, 5-7, 6-8, ...}: the oracle
    # enumerates all 2,027,025 perfect matchings before its BFS, which ran
    # on past 30 s without a budget.
    n = 16
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    lines = [f"p pmr {n} {len(edges)}"] + [f"e {u} {v}" for u, v in edges]
    lines.append("matching s")
    lines += [f"m {v} {v + 1}" for v in range(1, n, 2)]
    lines.append("matching t")
    lines += [f"m {b + i} {b + i + 2}" for b in range(1, n, 4) for i in (0, 1)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "problem, text", [("sat", _unsat_cnf_24()), ("pmr", _k16_pmr())], ids=["sat", "pmr"]
)
def test_oracle_time_budget_exit_code(capsys, tmp_path, problem, text):
    path = tmp_path / f"input.{problem}"
    path.write_text(text)
    began = time.monotonic()
    code, out, err = run(capsys, "--budget-secs", "1", "oracle", problem, str(path))
    assert code == 3 and out == "" and "budget" in err
    assert time.monotonic() - began < 1 + 1.0


@pytest.mark.parametrize(
    "argv, header",
    [
        (("solve",), "p reconfig {} 0 is ktj 1"),
        (("oracle", "ncl"), "p ncl {} 0"),
        (("oracle", "pmr"), "p pmr {} 0"),
        (("reduce", "int2isr"), "p cnf {} 0"),
    ],
)
def test_oversized_header_exit_code(capsys, tmp_path, argv, header):
    path = tmp_path / "huge"
    path.write_text(header.format(10**12) + "\n")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == "" and f"exceeds the limit {MAX_VERTICES}" in err


@pytest.mark.parametrize(
    "argv, text",
    [
        (("oracle", "ncl"), "config s\na 1 2\n"),
        (("reduce", "ncl2isr"), "config s\na 1 2\n"),
        (("oracle", "pmr"), "matching s\nm 1 2\n"),
        (("oracle", "ncl"), "p ncl -3 0\nconfig s\nconfig t\n"),
        (("reduce", "ncl2isr"), "p ncl -3 0\nconfig s\nconfig t\n"),
        (("oracle", "ncl"), "config s\nconfig t\np ncl 0 0\n"),
        (("oracle", "pmr"), "matching s\nmatching t\np pmr 0 0\n"),
    ],
)
def test_malformed_section_input_exit_code(capsys, tmp_path, argv, text):
    # A section line before the p line, even a section's opening line, or a
    # negative vertex count, is an input error: no crash, no verdict and no
    # output instance.
    path = tmp_path / "input"
    path.write_text(text)
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == "" and "input error" in err


def test_solve_answers_on_a_path_deeper_than_the_recursion_limit(capsys, tmp_path):
    # P_3000 with s = the even vertices and t = the odd ones under 1-TJ: the
    # tokens walk off one end, one at a time. A recursion per decided vertex
    # of the feasible-set search ended this YES in a RecursionError and
    # exit 1, the NO code.
    n = 3000
    lines = [f"p reconfig {n} {n - 1} is ktj 1"]
    lines += [f"e {v} {v + 1}" for v in range(1, n)]
    lines.append("s " + " ".join(str(v) for v in range(1, n + 1, 2)))
    lines.append("t " + " ".join(str(v) for v in range(2, n + 1, 2)))
    path = tmp_path / "p3000.isr"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0 and out == "yes\n"


def test_verify_accepts_a_kts_step_with_a_long_augmenting_path(capsys, tmp_path):
    # The path 1999 - 2000 - 0 - 2001 - 1 - ... - 1998 - 3999 (0-based ids),
    # s = the left vertices 0..1999 and t = the right ones, under 2000-TS:
    # one legal step. The greedy start matches i to 2000 + i and leaves
    # 1999 alone, so the only augmenting path runs through all 4000
    # vertices; augmenting by recursion crashed and rejected the step.
    h = 2000
    edges = [(i, h + i) for i in range(h - 1)] + [(i, h + 1 + i) for i in range(h - 1)]
    edges.append((h - 1, h))
    lines = [f"p reconfig {2 * h} {len(edges)} is kts {h}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    left = " ".join(str(v) for v in range(1, h + 1))
    right = " ".join(str(v) for v in range(h + 1, 2 * h + 1))
    lines += [f"s {left}", f"t {right}"]
    path = tmp_path / "path.isr"
    path.write_text("\n".join(lines) + "\n")
    cert = tmp_path / "cert"
    cert.write_text(f"v {left}\nv {right}\n")
    code, out, _ = run(capsys, "verify", str(path), "--certificate", str(cert))
    assert code == 0 and out == "yes\n"


@pytest.mark.parametrize("error", [RecursionError, ValueError, KeyError])
def test_unexpected_error_is_neither_a_verdict_nor_a_usage_error(capsys, monkeypatch, error):
    def crash(args):
        raise error("boom")

    monkeypatch.setattr(cli, "_cmd_solve", crash)
    code, out, err = run(capsys, "solve", str(FIXTURES / "c4_is_ktj2.isr"))
    assert code == cli.EXIT_INTERNAL == 4
    assert out == "" and "internal error" in err and "boom" in err


def _fresh(probe: str, *argv: str, cwd=None) -> str:
    """Run `probe` in a new interpreter, where no rekonfig module is loaded
    yet (in this process the tests have loaded them all), and return its
    stdout."""
    src = str(Path(rekonfig.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=env, cwd=cwd, capture_output=True, text=True, check=True
    )
    return out.stdout


# The front end and the core layers; every other rekonfig module is one
# that a command runs.
_FRONT_END = {"rekonfig", "cli", "budget", "errors", "graph", "io_formats", "matching", "record"}

# Standard-library modules that no command needs: `dataclasses` loads
# `inspect`, `ast` and `dis`, several milliseconds of every process.
_NOT_LOADED = {"dataclasses", "inspect"}


def _command_modules(stdout: str) -> set[str]:
    return {m.removeprefix("rekonfig.") for m in stdout.split() if m.startswith("rekonfig")} - _FRONT_END


def test_cli_import_loads_no_command_modules():
    # Importing the front end loads no solver, compiler, oracle or bound.
    loaded = _fresh("import sys, rekonfig.cli; print(*sys.modules)")
    assert "rekonfig.cli" in loaded.split()
    assert _command_modules(loaded) == set()
    assert _NOT_LOADED.isdisjoint(loaded.split())


# Each command, its exit code, and the command modules its process loads:
# only `solve` loads the exact solver, and each compiler loads only its own
# reductions submodules (`reduce` also reads the oracles' data types).
_COMMANDS = [
    (["solve", "c4_is_ktj2.isr", "--certificate", "c4.cert"], 0, {"exact"}),
    (["verify", "c4_is_ktj2.isr", "--certificate", "c4.cert"], 0, set()),
    (["xp-vcr", "c4_vc_ktj1.isr"], 1, {"xp"}),
    (["oracle", "sat", "fig_formula.cnf"], 0, {"oracles"}),
    (["oracle", "ncl", "k4.ncl"], 0, {"oracles"}),
    (["oracle", "pmr", "c4.pmr"], 0, {"oracles"}),
    (["bound", "--n", "6", "--size", "3", "--mu", "1"], 0, {"bounds"}),
    (["reduce", "sat2int", "forced_chain.cnf", "-o", "out"], 0, {"oracles", "reductions", "reductions.sat"}),
    (["reduce", "int2isr", "fig_formula.cnf", "-o", "out"], 0,
     {"oracles", "reductions", "reductions.isr_from_sat", "reductions.annotations"}),
    (["reduce", "planarize", "fig_formula.cnf", "-o", "out"], 0,
     {"oracles", "reductions", "reductions.isr_from_sat", "reductions.annotations", "reductions.drawing",
      "reductions.crossover"}),
    (["reduce", "ncl2isr", "k4.ncl", "-o", "out"], 0,
     {"oracles", "reductions", "reductions.ncl", "reductions.annotations"}),
    (["reduce", "pmr2isr", "c4.pmr", "-o", "out"], 0, {"oracles", "reductions", "reductions.pmr"}),
]


@pytest.mark.parametrize(
    "argv, code, modules",
    _COMMANDS,
    ids=[" ".join(argv[:2]) if argv[0] in ("oracle", "reduce") else argv[0] for argv, _, _ in _COMMANDS],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, code, modules):
    for name in FIXTURES.iterdir():
        (tmp_path / name.name).write_bytes(name.read_bytes())
    if argv[0] == "verify":
        assert main(["solve", "--certificate", str(tmp_path / "c4.cert"), str(tmp_path / "c4_is_ktj2.isr")]) == 0
    probe = "import sys; from rekonfig.cli import main; code = main(sys.argv[1:]); print(code, *sys.modules)"
    *_, last = _fresh(probe, *argv, cwd=tmp_path).splitlines()
    assert int(last.split()[0]) == code
    assert _command_modules(last) == modules
    assert _NOT_LOADED.isdisjoint(last.split())


def test_reductions_export_no_submodule():
    # With every submodule loaded first, each exported name must still be
    # the function or type of its home module: a submodule named like a
    # function it exports would shadow it once loaded.
    probe = """
import importlib, pkgutil, types
import rekonfig.reductions as package
for info in pkgutil.iter_modules(package.__path__):
    importlib.import_module(f"{package.__name__}.{info.name}")
for name in package.__all__:
    value = getattr(package, name)
    home = importlib.import_module(f"{package.__name__}.{package._MODULE_OF[name]}")
    assert not isinstance(value, types.ModuleType), name
    assert value is getattr(home, name), name
namespace = {}
exec("from rekonfig.reductions import *", namespace)
assert set(package.__all__) <= set(namespace)
print(len(package.__all__))
"""
    import rekonfig.reductions

    assert int(_fresh(probe)) == len(rekonfig.reductions.__all__) > 0


def test_package_exports_every_name():
    namespace: dict = {}
    exec("from rekonfig import *", namespace)
    assert set(rekonfig.__all__) <= set(namespace) and "solve_exact" in namespace
    with pytest.raises(AttributeError):
        rekonfig.no_such_name
