"""Exact rank computation over GF(2), GF(p) and the rationals.

Matrices arrive as sparse integer columns ``[(row, coeff), ...]``, which is
how boundary matrices are produced, and one column reduction serves every
field: a column is reduced against earlier pivot columns, always on its
largest row index, until it vanishes or starts a new pivot.

* GF(2) — columns are Python-int bitmasks, so a reduction step is one XOR.
* GF(p), p an odd prime below 2^16 — dict columns with entries mod p.
* rationals — dict columns of Python ints, reduced fraction-free; Python
  ints do not overflow, so no guard or fallback is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

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
        return FieldSpec(int(s[2:].strip("()")))
    raise ValueError(f"cannot parse field {text!r} (expected gf2, gf<p> or rat)")


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------


def rank_gf2(column_masks: Sequence[int]) -> int:
    """Rank over GF(2) of a matrix given by column bitmasks."""
    pivots: dict[int, int] = {}
    rank = 0
    for v in column_masks:
        while v:
            h = v.bit_length() - 1
            w = pivots.get(h)
            if w is None:
                pivots[h] = v
                rank += 1
                break
            v ^= w
    return rank


def rank_sparse(columns: Sequence[SparseColumn], nrows: int, field: FieldSpec) -> int:
    """Rank of a matrix given by sparse integer columns.

    Entries of a column that share a row are summed.  Over GF(2) the columns
    become bitmasks for :func:`rank_gf2`.  Otherwise each column, a dict
    row -> entry, is reduced against the pivot columns found so far,
    pivoting on its largest row index as :func:`rank_gf2` does, until it
    vanishes or its largest row has no pivot yet; it then becomes that row's
    pivot.  Over GF(p) entries are kept mod p and a pivot is scaled to
    leading entry 1.  Over QQ the reduction is fraction-free on Python ints:
    a step multiplies the column by the pivot's leading entry and subtracts
    a multiple of the pivot (both factors divided by their gcd), and a new
    pivot column is divided by the gcd of its entries.
    """
    if nrows == 0 or not columns:
        return 0
    p = field.p
    if p == 2:
        masks = []
        for col in columns:
            mask = 0
            for row, coeff in col:
                if coeff % 2:
                    mask ^= 1 << row
            masks.append(mask)
        return rank_gf2(masks)
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        v: dict[int, int] = {}
        for row, coeff in col:
            v[row] = v.get(row, 0) + coeff
        if p:
            v = {row: c % p for row, c in v.items() if c % p}
        else:
            v = {row: c for row, c in v.items() if c}
        while v:
            h = max(v)
            w = pivots.get(h)
            if w is None:
                if p:
                    inv = pow(v[h], -1, p)
                    pivots[h] = {row: c * inv % p for row, c in v.items()}
                else:
                    g = gcd(*v.values())
                    pivots[h] = {row: c // g for row, c in v.items()}
                break
            a, c = w[h], v[h]  # a == 1 over GF(p)
            if not p:
                g = gcd(a, c)
                a, c = a // g, c // g
            if a != 1:
                v = {row: a * x for row, x in v.items()}
            for row, x in w.items():
                y = v.get(row, 0) - c * x
                if p:
                    y %= p
                if y:
                    v[row] = y
                else:
                    del v[row]
    return len(pivots)
