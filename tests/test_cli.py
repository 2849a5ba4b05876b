from pathlib import Path

from rekonfig.cli import main
from rekonfig.io_formats import parse_instance

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


def test_xp_vcr_time_budget_exit_code(capsys, tmp_path):
    # C20, s = evens + {1}, t = odds + {0} (1-based below), mu = 3 so k = 8.
    n = 20
    lines = [f"p reconfig {n} {n} vc ktj 8"]
    lines += [f"e {i + 1} {(i + 1) % n + 1}" for i in range(n)]
    lines.append("s " + " ".join(str(v) for v in [2] + list(range(1, n + 1, 2))))
    lines.append("t " + " ".join(str(v) for v in [1] + list(range(2, n + 1, 2))))
    path = tmp_path / "c20.isr"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "--budget-secs", "0.3", "xp-vcr", str(path))
    assert code == 3 and out == "" and "budget" in err
