"""Exact rank computation over GF(2), GF(p) and the rationals.

The same column reduction serves every field: a column is reduced against
earlier pivot columns, always on its largest row index, until it vanishes or
starts a new pivot.  There is one reducer per field, and :func:`reducer`
picks it; each returns the pivot columns keyed by their largest row, so the
rank is the number of pivots, and a caller can also read which rows are
pivots (``complexes.FaceIndex.homology`` clears the columns of those rows
one size down).  Two callers put columns into a reducer's form:
``complexes.FaceIndex.homology`` the simplicial boundary columns, which the
index keeps as row masks with a parity mask for their signs, and
:func:`rank_sparse` sparse integer columns ``[(row, coeff), ...]``, as the
strand route builds them.

* GF(2) — columns are Python-int bitmasks, so a reduction step is one XOR.
* GF(p), p an odd prime below 2^16 — dict columns with entries mod p.
* rationals — dict columns of Python ints, reduced fraction-free; Python
  ints do not overflow, so no guard or fallback is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gcd
from typing import Callable, Iterable, Mapping, Optional, Sequence

SparseColumn = Sequence[tuple[int, int]]

_PRIME_LIMIT = 1 << 16


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: GF(p) for a small prime p, or rationals (p=None)."""

    p: Optional[int]

    def __post_init__(self) -> None:
        if self.p is not None:
            if not _is_prime(self.p) or self.p >= _PRIME_LIMIT:
                raise ValueError(f"p={self.p} must be a prime below 2^16")

    @property
    def label(self) -> str:
        return "QQ" if self.p is None else f"GF({self.p})"

    def __str__(self) -> str:
        return self.label


GF2 = FieldSpec(2)
QQ = FieldSpec(None)


def parse_field(text: str) -> FieldSpec:
    s = text.strip().lower()
    if s in ("rat", "q", "qq", "rationals"):
        return QQ
    if s.startswith("gf"):
        try:
            p = int(s[2:].strip("()"))
        except ValueError:
            pass
        else:
            return FieldSpec(p)
    raise ValueError(f"cannot parse field {text!r} (expected gf2, gf<p> or rat)")


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------


def pivots_gf2(column_masks: Iterable[int]) -> dict[int, int]:
    """Column reduction over GF(2) of a matrix given by column bitmasks.

    Each column is reduced against the pivot columns found so far, always on
    its largest row, until it vanishes or its largest row has no pivot yet;
    it then becomes that row's pivot.  Returns the pivot columns keyed by
    their largest row; there is one per unit of rank.
    """
    pivots: dict[int, int] = {}
    for v in column_masks:
        while v:
            h = v.bit_length() - 1
            w = pivots.get(h)
            if w is None:
                pivots[h] = v
                break
            v ^= w
    return pivots


def pivots_gfp(columns: Iterable[Mapping[int, int]], p: int) -> dict[int, dict[int, int]]:
    """Column reduction over GF(p), p odd, as :func:`pivots_gf2` does it.

    Columns are dicts row -> entry with entries in 1..p-1; they are not
    changed.  A pivot is scaled to leading entry 1.
    """
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        v = dict(col)
        while v:
            h = max(v)
            w = pivots.get(h)
            if w is None:
                if v[h] != 1:
                    inv = pow(v[h], -1, p)
                    v = {row: c * inv % p for row, c in v.items()}
                pivots[h] = v
                break
            c = v[h]
            for row, x in w.items():
                y = (v.get(row, 0) - c * x) % p
                if y:
                    v[row] = y
                else:
                    del v[row]
    return pivots


def pivots_qq(columns: Iterable[Mapping[int, int]]) -> dict[int, dict[int, int]]:
    """Column reduction over the rationals, as :func:`pivots_gf2` does it.

    Columns are dicts row -> nonzero Python int; they are not changed.  The
    reduction is fraction-free: a step multiplies the column by the pivot's
    leading entry and subtracts a multiple of the pivot (both factors divided
    by their gcd), and a new pivot column is divided by the gcd of its
    entries.  Python ints do not overflow, so no guard is needed.
    """
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        v = dict(col)
        while v:
            h = max(v)
            w = pivots.get(h)
            if w is None:
                g = gcd(*v.values())
                if g != 1:
                    v = {row: c // g for row, c in v.items()}
                pivots[h] = v
                break
            a, c = w[h], v[h]
            g = gcd(a, c)
            a, c = a // g, c // g
            if a != 1:
                v = {row: a * x for row, x in v.items()}
            for row, x in w.items():
                y = v.get(row, 0) - c * x
                if y:
                    v[row] = y
                else:
                    del v[row]
    return pivots


@cache
def _pivots_mod(p: int) -> Callable[[Iterable], dict]:
    """:func:`pivots_gfp` with p bound, built once per prime.  It looks
    ``pivots_gfp`` up when it runs, so that a replaced ``fields.pivots_gfp``
    (the counting tests replace it) is the one called, as it is for the
    other two reducers, which :func:`reducer` returns by name."""

    def reduce(columns: Iterable[Mapping[int, int]]) -> dict[int, dict[int, int]]:
        return pivots_gfp(columns, p)

    return reduce


def reducer(field: FieldSpec) -> Callable[[Iterable], dict]:
    """The column reducer of the field, one callable per field:
    :func:`pivots_gf2`, which takes bitmask columns, or :func:`pivots_gfp`
    (with p bound, built on the first call for p) or :func:`pivots_qq`,
    which take dict columns row -> entry."""
    p = field.p
    if p == 2:
        return pivots_gf2
    if p:
        return _pivots_mod(p)
    return pivots_qq


def rank_sparse(columns: Sequence[SparseColumn], nrows: int, field: FieldSpec) -> int:
    """Rank of a matrix given by sparse integer columns.

    Entries of a column that share a row are summed and reduced into the
    field; the columns then go to the field's :func:`reducer`, as bitmasks
    over GF(2) and as dicts row -> entry otherwise.
    """
    if nrows == 0 or not columns:
        return 0
    p = field.p
    reduce = reducer(field)
    if p == 2:
        masks = []
        for col in columns:
            mask = 0
            for row, coeff in col:
                if coeff % 2:
                    mask ^= 1 << row
            masks.append(mask)
        return len(reduce(masks))
    dicts = []
    for col in columns:
        v: dict[int, int] = {}
        for row, coeff in col:
            v[row] = v.get(row, 0) + coeff
        if p:
            dicts.append({row: c % p for row, c in v.items() if c % p})
        else:
            dicts.append({row: c for row, c in v.items() if c})
    return len(reduce(dicts))
