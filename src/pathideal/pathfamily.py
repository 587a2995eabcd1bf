"""The path-ideal family of the line graph: construction, regimes, closed forms.

The family is parametrized by a path length ``m``, an overlap ``l`` between
consecutive paths, and a generator count ``k``; the ambient variable count is
``n = k(m-l) + l``.  Generator ``i`` is supported on the integer interval
``[(i-1)(m-l)+1, (i-1)(m-l)+m]``, so consecutive supports overlap in exactly
``l`` indices.

Every parameter choice falls into exactly one of three regimes, decided by
the overlap and by the residue ``s = m mod (m-l)``:

* small overlap (``l < ceil(m/2)``): projective dimension ``k-1`` and an
  exact regularity formula;
* large overlap with the step ``m-l`` dividing ``m``: formulas driven by the
  decomposition ``n = p(2m-l) + d``;
* large overlap with nonzero residue ``s``: projective dimension driven by
  ``n = p(2m-l-s) + d``; no closed regularity formula is known, so the
  regularity evaluator returns ``None`` in this regime.

The classical ideal of all length-m paths on n vertices (``--m --n`` on the
command line) is the member ``l = m-1``, ``k = n-m+1`` of the family, so it
has no constructor or closed forms of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .monomials import Monomial, MonomialIdeal, minimalize


class Branch(Enum):
    SMALL_OVERLAP = "small_overlap"
    EXACT_STEP = "exact_step"
    OFFSET_STEP = "offset_step"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class PathParams:
    """Parameters (m, l, k) of a generalized path ideal of the line graph."""

    m: int
    l: int
    k: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"path length m={self.m} must be >= 2")
        if not 1 <= self.l <= self.m - 1:
            raise ValueError(f"overlap l={self.l} outside [1, m-1] for m={self.m}")
        if self.k < 1:
            raise ValueError(f"generator count k={self.k} must be >= 1")

    @property
    def n(self) -> int:
        """Ambient variable count k(m-l)+l."""
        return self.k * (self.m - self.l) + self.l

    def __str__(self) -> str:
        return f"m={self.m},l={self.l},k={self.k}"


@dataclass(frozen=True)
class Regime:
    """Regime data: branch, residue s, and the decomposition n = p*period + d.

    ``period``, ``p`` and ``d`` are ``None`` in the small-overlap branch,
    where the formulas do not use them.
    """

    branch: Branch
    s: int
    period: Optional[int]
    p: Optional[int]
    d: Optional[int]


@dataclass(frozen=True)
class FormulaResult:
    """Closed-form invariants; ``reg`` is None where no formula is known."""

    pd: int
    reg: Optional[int]
    depth_I: int
    depth_RI: int


def classify_branch(m: int, l: int) -> Branch:
    """Decide the regime branch from (m, l) alone."""
    if m < 2 or not 1 <= l <= m - 1:
        raise ValueError(f"illegal (m, l) = ({m}, {l})")
    if l < (m + 1) // 2:  # l below ceil(m/2)
        return Branch.SMALL_OVERLAP
    return Branch.EXACT_STEP if m % (m - l) == 0 else Branch.OFFSET_STEP


def classify(params: PathParams) -> Regime:
    """Classify params into their regime and fill the (p, d) decomposition."""
    m, l = params.m, params.l
    branch = classify_branch(m, l)
    s = m % (m - l)
    if branch is Branch.SMALL_OVERLAP:
        return Regime(branch, s, None, None, None)
    period = 2 * m - l if branch is Branch.EXACT_STEP else 2 * m - l - s
    p, d = divmod(params.n, period)
    return Regime(branch, s, period, p, d)


def make_path_ideal(params: PathParams) -> MonomialIdeal:
    """Build the ideal with k interval generators overlapping in l indices."""
    m, l, k = params.m, params.l, params.k
    window = (1 << m) - 1
    gens = [Monomial(window << ((i - 1) * (m - l))) for i in range(1, k + 1)]
    return minimalize(params.n, gens)


def _full_path(m: int, n: int) -> PathParams:
    """The family member l = m-1, k = n-m+1 of all length-m paths of the
    line graph on n vertices."""
    if m < 2:
        raise ValueError(f"path length m={m} must be >= 2")
    if m > n:
        raise ValueError(f"path length m={m} exceeds vertex count n={n}")
    return PathParams(m, m - 1, n - m + 1)


def make_full_path_ideal(m: int, n: int) -> MonomialIdeal:
    """The ideal of all n-m+1 paths of length m in the line graph on n vertices."""
    return make_path_ideal(_full_path(m, n))


# formula_pd, formula_reg and formula_depth read p, d and period unchecked in the
# large-overlap branches: classify fills them there, and a None would raise
# TypeError anyway.
def formula_pd(params: PathParams) -> int:
    """Closed-form projective dimension of the ideal."""
    regime = classify(params)
    if regime.branch is Branch.SMALL_OVERLAP:
        return params.k - 1
    return 2 * regime.p - 1 if regime.d != params.m else 2 * regime.p


def _small_overlap_reg(params: PathParams) -> int:
    """The small-overlap regularity (k-1)(m-l-1)+m, at any (m, l, k)."""
    return (params.k - 1) * (params.m - params.l - 1) + params.m


def formula_reg(params: PathParams) -> Optional[int]:
    """Closed-form regularity, or None in the offset-step regime."""
    regime = classify(params)
    if regime.branch is Branch.SMALL_OVERLAP:
        return _small_overlap_reg(params)
    if regime.branch is Branch.OFFSET_STEP:
        return None
    base = regime.p * (2 * params.m - params.l - 2)
    return base + 1 if regime.d != params.m else base + params.m


def formula_depth(params: PathParams) -> int:
    """Closed-form depth of the ideal as a module (one more than depth of R/I)."""
    n = params.n
    regime = classify(params)
    if regime.branch is Branch.SMALL_OVERLAP:
        return n - params.k + 1
    # s = 0 in the exact-step regime, so one expression serves both branches
    num, den = n + params.m - params.l - regime.s, regime.period
    return n + 2 - -(-num // den) - num // den  # ceil and floor of num / den


def formula_result(params: PathParams) -> FormulaResult:
    pd = formula_pd(params)
    depth = formula_depth(params)
    return FormulaResult(pd=pd, reg=formula_reg(params), depth_I=depth, depth_RI=depth - 1)


def formula_full_path(m: int, n: int) -> FormulaResult:
    """Closed forms for the ideal of all length-m paths of the line graph on n
    vertices, the family member l = m-1, k = n-m+1.

    Its step m-l = 1 divides m, so it lies in the exact-step regime with
    period 2m-l = m+1: the classical decomposition n = p(m+1) + d.
    """
    return formula_result(_full_path(m, n))
