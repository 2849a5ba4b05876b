import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rekonfig.errors import PreconditionError
from rekonfig.oracles import Assignment, CnfFormula, SatMode, sat_decide
from rekonfig.reductions import e3sat_to_inte3sat, replace_long_clause


def all_neg(n):
    return tuple(-v for v in n)


def restricted_e3(n, clauses):
    """An E3 formula that neither constant assignment satisfies."""
    phi = CnfFormula(n, clauses)
    assert not Assignment((True,) * n).satisfies(phi)
    assert not Assignment((False,) * n).satisfies(phi)
    return phi


def test_output_counts():
    phi = restricted_e3(3, ((-1, -2, -3), (1, 2, 3)))
    out = e3sat_to_inte3sat(phi)
    assert out.clause_count == 7 * 2 * 9 == 126
    assert out.variable_count == 3 + 2 * 2 * 9 == 39
    assert out.is_e3 and out.is_sandwiched


def test_rejects_constant_satisfiable():
    with pytest.raises(PreconditionError, match="all-true"):
        e3sat_to_inte3sat(CnfFormula(2, ((1, 2, 1),)))
    with pytest.raises(PreconditionError, match="all-false"):
        e3sat_to_inte3sat(CnfFormula(2, ((-1, -2, -1),)))


def _replacement_loop(phi: CnfFormula) -> CnfFormula:
    """Reference compiler: widen every clause by (x_i or not x_j) over all
    variable pairs, then call replace_long_clause until the formula is E3."""
    n = phi.variable_count
    rng = range(1, n + 1)
    out = CnfFormula(n, tuple(c + (i, -j) for c in phi.clauses for i in rng for j in rng))
    while not out.is_e3:
        out = replace_long_clause(out)
    return out


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=40, deadline=None)
def test_one_pass_equals_the_replacement_loop(n, extra, seed):
    # One all-positive and one all-negative clause keep both constant
    # assignments from satisfying the formula; the rest are random E3.
    rng = random.Random(seed)
    clauses = [tuple(rng.randint(1, n) for _ in range(3))]
    clauses.append(all_neg(rng.randint(1, n) for _ in range(3)))
    clauses += [tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3)) for _ in range(extra)]
    rng.shuffle(clauses)
    phi = restricted_e3(n, tuple(clauses))
    assert e3sat_to_inte3sat(phi) == _replacement_loop(phi)


def test_one_pass_is_linear_in_its_output():
    # n = 14, m = 3: 4,116 output clauses; rebuilding the formula once per
    # replacement took about 5 s.
    phi = restricted_e3(14, ((1, 2, 3), (-4, -5, -6), (7, -8, 14)))
    began = time.monotonic()
    out = e3sat_to_inte3sat(phi)
    assert time.monotonic() - began < 0.5
    assert out.clause_count == 7 * 3 * 14 * 14


def test_rejects_output_beyond_the_vertex_limit():
    # n + 2 * 2 * n^2 output variables: 33,215 for n = 91 and 160,200 for
    # n = 200, both over MAX_VERTICES // 2 = 32,768.
    for n in (91, 200):
        phi = restricted_e3(n, ((1, 2, 3), (-1, -2, -3)))
        with pytest.raises(PreconditionError, match="exceeds the limit"):
            e3sat_to_inte3sat(phi)


def test_rejects_non_e3():
    with pytest.raises(PreconditionError):
        e3sat_to_inte3sat(CnfFormula(2, ((1, -2),)))


def test_replace_long_clause_golden():
    # (a or b or -c or d or -e) loses its positive pair to a fresh variable
    psi = CnfFormula(5, ((1, 2, -3, 4, -5),))
    out = replace_long_clause(psi)
    assert out.variable_count == 6
    assert out.clauses == ((6, -3, 4, -5), (1, 2, -6), (-1, -1, 6), (-2, -2, 6))
    assert out.is_sandwiched


def test_replace_long_clause_negative_pair():
    psi = CnfFormula(4, ((1, -2, -3, -4),))
    out = replace_long_clause(psi)
    assert out.clauses[0] == (-5, 1, -4)
    assert out.clauses[1:] == ((-2, -3, 5), (2, 2, -5), (3, 3, -5))


def test_replace_long_clause_counts():
    psi = CnfFormula(4, ((1, -2, 3, -4),))
    out = replace_long_clause(psi)
    assert out.clause_count == psi.clause_count + 3
    assert out.variable_count == psi.variable_count + 1


def test_replace_long_clause_errors():
    with pytest.raises(PreconditionError):
        replace_long_clause(CnfFormula(2, ((1, -2),)))  # nothing long
    with pytest.raises(PreconditionError):
        replace_long_clause(CnfFormula(2, ((1, 2, 1, 2),)))  # not sandwiched


def _mixed_sat(phi: CnfFormula) -> bool:
    return sat_decide(phi, SatMode.MIXED) is not None


def test_replacement_preserves_mixed_satisfiability():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 5)
        clauses = []
        for _ in range(rng.randint(1, 3)):
            width = rng.randint(4, 5)
            lits = [rng.randint(1, n), -rng.randint(1, n)]
            lits += [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(width - 2)]
            rng.shuffle(lits)
            clauses.append(tuple(lits))
        psi = CnfFormula(n, tuple(clauses))
        out = replace_long_clause(psi)
        assert _mixed_sat(psi) == _mixed_sat(out)


def test_full_chain_smallest_case():
    # one variable, forced both ways: unsatisfiable, so no mixed assignment
    # survives the chain; the output stays small enough to enumerate fully
    phi = restricted_e3(1, ((-1, -1, -1), (1, 1, 1)))
    out = e3sat_to_inte3sat(phi)
    assert out.clause_count == 14 and out.variable_count == 5
    assert not _mixed_sat(out)
    assert sat_decide(out, SatMode.ANY) is not None  # sandwiched: all-T works


def test_full_chain_satisfiable_case():
    # two variables, satisfiable only by mixed assignments
    phi = restricted_e3(2, ((-1, -1, -1), (1, 1, 2)))
    assert sat_decide(phi, SatMode.ANY) is not None
    out = e3sat_to_inte3sat(phi)
    assert out.clause_count == 7 * 2 * 4 and out.variable_count == 2 + 2 * 2 * 4
    assert _mixed_sat(out)
