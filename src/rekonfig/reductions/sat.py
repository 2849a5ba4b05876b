"""Formula-level reduction: exactly-3 SAT to its sandwiched variant whose
question is the existence of a mixed satisfying assignment.

The two stages: first widen every clause C_h to (C_h or x_i or not x_j) over
all variable pairs (i, j), which yields a sandwiched E5 formula of m*n^2
clauses that a mixed assignment satisfies iff it satisfies the input; then
shrink clauses back to width 3 by repeatedly replacing a same-polarity pair
with a fresh definitional variable,

    x or y  <->  z   becoming   (x or y or -z)(-x or -x or z)(-y or -y or z)

and the all-negative dual for a negative pair. Each size-5 clause takes two
replacements, so the output has exactly 7*m*n^2 clauses over n + 2*m*n^2
variables, and every replacement preserves mixed satisfiability in both
directions.
"""

from __future__ import annotations

from ..errors import PreconditionError
from ..io_formats import MAX_VERTICES
from ..problems import Assignment, CnfFormula


def _all_const_assignment_satisfies(phi: CnfFormula, value: bool) -> bool:
    return Assignment((value,) * phi.variable_count).satisfies(phi)


def e3sat_to_inte3sat(phi: CnfFormula) -> CnfFormula:
    """Compile an E3 formula into a sandwiched E3 formula with the same
    mixed satisfiability.

    Requires that neither the all-true nor the all-false assignment
    satisfies phi (so plain satisfiability of phi coincides with mixed
    satisfiability of the output), and that the output's n + 2*m*n^2
    variables stay within MAX_VERTICES // 2: inte3sat_to_isr gives every
    variable two vertices, and no parser accepts more than MAX_VERTICES.

    The output equals repeated replace_long_clause calls: those replace the
    widened clauses in order, two replacements each, and append the
    defining clauses at the end, so this builds both halves in one pass.
    """
    if not phi.is_e3:
        raise PreconditionError("input must have exactly three literals per clause")
    n, m = phi.variable_count, phi.clause_count
    if n + 2 * m * n * n > MAX_VERTICES // 2:
        raise PreconditionError(
            f"{m} clauses over {n} variables compile to {n + 2 * m * n * n} variables, "
            f"which exceeds the limit {MAX_VERTICES // 2}"
        )
    for value, name in ((True, "all-true"), (False, "all-false")):
        if _all_const_assignment_satisfies(phi, value):
            raise PreconditionError(f"the {name} assignment satisfies the input formula")
    shrunk: list[tuple[int, ...]] = []
    defining: list[tuple[int, ...]] = []
    z = n
    for clause in phi.clauses:
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                widened = clause + (i, -j)
                while len(widened) > 3:
                    z += 1
                    widened, triple = _replace_pair(widened, z)
                    defining += triple
                shrunk.append(widened)
    out = CnfFormula(z, tuple(shrunk + defining))
    assert out.clause_count == 7 * m * n * n
    assert out.variable_count == n + 2 * m * n * n
    return out


def _replace_pair(
    clause: tuple[int, ...], z: int
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Replace the first same-polarity pair of clause by the fresh variable
    z: the shrunk clause and the three clauses defining z. A positive pair
    is preferred over a negative one, taking the two earliest occurrences."""
    positives = [p for p, l in enumerate(clause) if l > 0]
    if len(positives) >= 2:
        pa, pb = positives[0], positives[1]
        x, y = clause[pa], clause[pb]
        replacement = z
        defining = ((x, y, -z), (-x, -x, z), (-y, -y, z))
    else:
        negatives = [p for p, l in enumerate(clause) if l < 0]
        if len(negatives) < 2:
            raise PreconditionError("clause of width >= 4 with no same-polarity pair")
        pa, pb = negatives[0], negatives[1]
        x, y = -clause[pa], -clause[pb]
        replacement = -z
        defining = ((-x, -y, z), (x, x, -z), (y, y, -z))
    shrunk = (replacement,) + tuple(l for p, l in enumerate(clause) if p not in (pa, pb))
    return shrunk, defining


def replace_long_clause(psi: CnfFormula) -> CnfFormula:
    """Apply one definitional replacement to the first clause of width >= 4.

    Scans clauses left to right; inside the clause a positive literal pair is
    preferred over a negative one, taking the two earliest occurrences. The
    fresh variable gets the next free index and the three defining clauses
    are appended at the end, keeping the formula sandwiched.
    """
    if not psi.is_sandwiched:
        raise PreconditionError("input formula must be sandwiched")
    target = next((idx for idx, c in enumerate(psi.clauses) if len(c) >= 4), None)
    if target is None:
        raise PreconditionError("no clause of width >= 4 to replace")
    z = psi.variable_count + 1
    shrunk, defining = _replace_pair(psi.clauses[target], z)
    clauses = psi.clauses[:target] + (shrunk,) + psi.clauses[target + 1 :] + defining
    return CnfFormula(z, clauses)
