"""Betti-splitting verification and the related additivity identities.

A generator partition I = J + K is a Betti splitting when every graded
Betti number of I is the sum of those of J and K plus the once-shifted
table of J ∩ K.  A standard sufficient condition: if J collects all the
generators divisible by one fixed variable, K the rest, and J has a
linear resolution, the partition is a splitting.  Splittings make pd and
reg of I the max of simple expressions in J, K and J ∩ K, and for ideals
in disjoint variables pd and reg of sums and products are additive up to
a constant; all of these are checked here against computed tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .betti import BettiTable, betti_table, invariants_of
from .fields import GF2, FieldSpec
from .monomials import (
    MonomialIdeal,
    ideal_intersect,
    ideal_product_disjoint,
    ideal_sum,
)


@dataclass(frozen=True)
class SplitCase:
    """A generator partition with its four tables, verdict and witness."""

    I: MonomialIdeal
    J: MonomialIdeal
    K: MonomialIdeal
    table_I: BettiTable
    table_J: BettiTable
    table_K: BettiTable
    table_JK: BettiTable
    verdict: bool
    witness: Optional[tuple[int, int]]


@dataclass(frozen=True)
class FhtResult:
    """The fixed-variable partition, whether the linearity condition applies,
    and the checked split case, which is a splitting whenever it applies."""

    var: int
    J: MonomialIdeal
    K: MonomialIdeal
    applies: bool
    case: SplitCase


@dataclass(frozen=True)
class DisjointReport:
    """Additivity identities for ideals in disjoint variables."""

    pd_sum: tuple[int, int]       # (computed, predicted)
    reg_sum: tuple[int, int]
    reg_product: tuple[int, int]

    @property
    def ok(self) -> bool:
        return all(got == want for got, want in (self.pd_sum, self.reg_sum, self.reg_product))


def _is_linear(ideal: MonomialIdeal, table: Callable[[], BettiTable]) -> bool:
    """True iff all generators share one degree d and the regularity of
    ``table()``, the ideal's table, equals d; mixed degrees call no table."""
    degrees = ideal.degree_histogram()
    return len(degrees) == 1 and invariants_of(table()).reg in degrees


def has_linear_resolution(ideal: MonomialIdeal, field: FieldSpec = GF2) -> bool:
    """True iff all generators share one degree d and the regularity equals d."""
    if not ideal.is_proper_nonzero:
        raise ValueError("linear resolution is only defined for proper nonzero ideals")
    return _is_linear(ideal, lambda: betti_table(ideal, field))


def is_betti_splitting(
    I: MonomialIdeal,
    J: MonomialIdeal,
    K: MonomialIdeal,
    field: FieldSpec = GF2,
) -> SplitCase:
    """Check the splitting identity over all (i, j), reporting the first failure."""
    if I.n != J.n or I.n != K.n:
        raise ValueError("ambient size mismatch")
    gens_j, gens_k, gens_i = set(J.gens), set(K.gens), set(I.gens)
    if not gens_j or not gens_k or gens_j & gens_k or gens_j | gens_k != gens_i:
        raise ValueError("generators of J and K do not partition those of I")
    t_i = betti_table(I, field)
    t_j = betti_table(J, field)
    t_k = betti_table(K, field)
    t_jk = betti_table(ideal_intersect(J, K), field)
    points = set(t_i.entries) | set(t_j.entries) | set(t_k.entries)
    points |= {(i + 1, j) for (i, j) in t_jk.entries}
    witness = None
    for (i, j) in sorted(points):
        shifted = t_jk.get(i - 1, j) if i >= 1 else 0
        if t_i.get(i, j) != t_j.get(i, j) + t_k.get(i, j) + shifted:
            witness = (i, j)
            break
    return SplitCase(I, J, K, t_i, t_j, t_k, t_jk, witness is None, witness)


def fht_condition(I: MonomialIdeal, var: int, field: FieldSpec = GF2) -> FhtResult:
    """Partition at a variable: J takes every generator divisible by it.

    ``applies`` is true when J has a linear resolution, read off the case's
    table of J; then the partition is necessarily a Betti splitting.  The
    case, with its four tables, is computed and checked in either event.
    """
    if not 1 <= var <= I.n:
        raise ValueError(f"variable index {var} outside [1, {I.n}]")
    bit = 1 << (var - 1)
    div = tuple(g for g in I.gens if g.mask & bit)
    rest = tuple(g for g in I.gens if not g.mask & bit)
    if not div or not rest:
        raise ValueError(f"degenerate partition at x{var}: all or none of the generators divisible")
    J = MonomialIdeal(I.n, div)
    K = MonomialIdeal(I.n, rest)
    case = is_betti_splitting(I, J, K, field)
    applies = _is_linear(J, lambda: case.table_J)
    return FhtResult(var=var, J=J, K=K, applies=applies, case=case)


def splitting_invariant_bounds(case: SplitCase) -> tuple[bool, bool]:
    """Check the max-formulas for pd and reg that follow from a splitting."""
    inv_i = invariants_of(case.table_I)
    inv_j = invariants_of(case.table_J)
    inv_k = invariants_of(case.table_K)
    inv_jk = invariants_of(case.table_JK)
    ok_pd = inv_i.pd == max(inv_j.pd, inv_k.pd, inv_jk.pd + 1)
    ok_reg = inv_i.reg == max(inv_j.reg, inv_k.reg, inv_jk.reg - 1)
    return ok_pd, ok_reg


def verify_disjoint_identities(
    I: MonomialIdeal, J: MonomialIdeal, field: FieldSpec = GF2
) -> DisjointReport:
    """Additivity of pd and reg for ideals in disjoint variables.

    Checks, on computed tables: pd(I+J) = pd(I)+pd(J)+1,
    reg(I+J) = reg(I)+reg(J)-1 and reg(I·J) = reg(I)+reg(J).
    """
    if I.support & J.support:
        raise ValueError("supports overlap; identities require disjoint variables")
    if not I.is_proper_nonzero or not J.is_proper_nonzero:
        raise ValueError("identities require proper nonzero ideals")
    inv_i = invariants_of(betti_table(I, field))
    inv_j = invariants_of(betti_table(J, field))
    inv_sum = invariants_of(betti_table(ideal_sum(I, J), field))
    inv_prod = invariants_of(betti_table(ideal_product_disjoint(I, J), field))
    return DisjointReport(
        pd_sum=(inv_sum.pd, inv_i.pd + inv_j.pd + 1),
        reg_sum=(inv_sum.reg, inv_i.reg + inv_j.reg - 1),
        reg_product=(inv_prod.reg, inv_i.reg + inv_j.reg),
    )
