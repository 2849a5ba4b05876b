"""Quantitative machinery around the guaranteed value mu = |I| - k: the
intersecting-family bound on shortest sequence length and the constructive
three-move shortcut sequence.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .budget import Budget, _BudgetClock
from .errors import PreconditionError
from .graph import (
    FeasibilityKind,
    Graph,
    ReconfigSequence,
    closed_neighborhood,
    is_feasible,
    mask_to_set,
    set_to_mask,
    vertex_mask,
)
from .record import Record


class LengthBound(Record):
    """Upper bound on the length of a shortest k-TJ sequence, k = set_size - mu.

    Every second set of a shortest sequence pairwise intersects in fewer than
    mu vertices, so those sets form a family whose size is at most
    C(n, mu) / C(set_size, mu); hence floor(length/2) + 1 cannot exceed that
    ratio. binomial_bound keeps the ratio exact (no floats); loose_bound is
    the (n / (set_size - mu))^mu form reported for display.
    """

    n: int
    set_size: int
    mu: int
    binomial_bound: Fraction
    loose_bound: Fraction
    max_length: int


def shortest_length_bound(n: int, set_size: int, mu: int) -> LengthBound:
    """Exact-arithmetic length bound; mu = 0 forces max_length = 1."""
    if not (0 <= mu < set_size <= n):
        raise PreconditionError(
            f"need 0 <= mu < set_size <= n, got mu={mu}, set_size={set_size}, n={n}"
        )
    bound = Fraction(comb(n, mu), comb(set_size, mu))
    # floor(l/2) + 1 <= bound, with floor(l/2) integral, gives
    # l <= 2*(floor(bound) - 1) + 1.
    max_length = 2 * (int(bound) - 1) + 1
    loose = Fraction(n, set_size - mu) ** mu
    return LengthBound(n, set_size, mu, bound, loose, max_length)


def find_simple_sequence(
    g: Graph, i, j, mu: int, budget: Budget | None = None
) -> ReconfigSequence | None:
    """Constructive shortcut: anchors A in i and B in j of size mu, residue
    independent set I* of size k = |i| - mu found outside N[A union B], and
    the four-step walk <i, A+I*, B+I*, j>.

    Returns None when the shortcut fails; that means nothing about
    reachability (fall back to the exact solver). The anchor sets are the
    lexicographically smallest mu-subsets, and I* is the lexicographically
    first independent k-set of the residue graph: the independent-set DFS,
    kept inside the residue's vertex mask, reads it off its first block and
    builds no other set.
    """
    from .exact import _first_independent  # the length bound needs no solver

    si, sj = frozenset(i), frozenset(j)
    for name, m in (("i", vertex_mask(g, si)), ("j", vertex_mask(g, sj))):
        if not is_feasible(g, FeasibilityKind.INDEPENDENT_SET, m):
            raise PreconditionError(f"{name} is not an independent set")
    if len(si) != len(sj):
        raise PreconditionError(f"set sizes differ: {len(si)} vs {len(sj)}")
    if si == sj:
        return ReconfigSequence((si,))
    if mu < 1 or 2 * mu > len(si):
        # 2*mu == |i| still works: the middle hop swaps exactly mu <= k tokens
        raise PreconditionError(f"need 1 <= mu and 2*mu <= |i|, got mu={mu}, |i|={len(si)}")
    a = frozenset(sorted(si)[:mu])
    b = frozenset(sorted(sj)[:mu])
    residue = g.full_mask & ~set_to_mask(closed_neighborhood(g, a | b))
    first = _first_independent(g, len(si) - mu, _BudgetClock.begin(budget), residue)
    if first is None:
        return None
    star = mask_to_set(first)
    return ReconfigSequence((si, a | star, b | star, sj))
