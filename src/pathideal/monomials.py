"""Squarefree monomials and monomial-ideal algebra on bitmask supports.

A monomial is a set of 1-based variable indices stored as a bitmask
(bit ``i-1`` set means ``x_i`` divides the monomial), so divisibility,
lcm and support tests are single word operations.  Ideals are kept in a
canonical form: the generating family is the divisibility antichain of
minimal generators, sorted lexicographically on index lists, so
structural equality of values is equality of ideals.

Only squarefree data is representable.  Products of ideals with
overlapping variable supports are rejected rather than generalized to
exponent vectors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Iterator, Sequence


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the 1-based indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def _lex_less(a: int, b: int) -> bool:
    """True iff the ascending index list of mask ``a`` sorts before that of ``b``.

    This is the canonical order, compared without building the lists.  Below
    the lowest bit where the masks differ, the lists agree.  The mask that
    has that bit continues with it; the other continues with a larger index,
    or ends there and is a prefix, which sorts first.
    """
    low = (a ^ b) & -(a ^ b)
    return b > low if a & low else a < low


def _in_canonical_order(masks: Sequence[int]) -> bool:
    """True iff each mask is equal to or sorts canonically before the next."""
    return all(a == b or _lex_less(a, b) for a, b in zip(masks, masks[1:]))


# swaps the binary digits, so that a set bit reads "0"
_SWAP_DIGITS = str.maketrans("01", "10")


def _lex_key(mask: int) -> str:
    """A sort key for the canonical order of ``_lex_less``: the binary
    digits of ``mask`` from bit 0 up, each swapped, and "" for 0.

    Proof.  Let a != b, with i the lowest bit where they differ, held by a.
    The key of a has "0" at position i.  Below i the keys agree, as far as
    each goes.  If b has a bit above i, its key has "1" at position i, so
    a's key is less, and ``_lex_less(a, b)`` holds, as b > 2^i.  Otherwise
    b's key ends before position i and is a prefix of a's, so it is less,
    and ``_lex_less(b, a)`` holds, as b < 2^i.
    """
    return bin(mask)[:1:-1].translate(_SWAP_DIGITS) if mask else ""


def _canonical_sorted(masks: Iterable[int]) -> list[int]:
    """``masks`` in canonical order.  Increasing masks often are already (the
    intervals of a path ideal are); only others get the key sort."""
    out = sorted(masks)
    if not _in_canonical_order(out):
        out.sort(key=_lex_key)
    return out


def _minimal_masks(masks: Iterable[int]) -> list[int]:
    """The inclusion-minimal masks among ``masks``, each once, by increasing size.

    Distinct masks of one size never lie inside each other (distinct
    squarefree monomials of one degree never divide each other), so a mask
    is compared only with the kept masks of smaller size: a family of one
    size costs one pass.
    """
    kept: list[int] = []
    for _, group in groupby(sorted(set(masks), key=int.bit_count), key=int.bit_count):
        # the new group is filtered against the kept masks of smaller size
        # before it joins them
        kept += [m for m in group if not any(h & m == h for h in kept)]
    return kept


def _canonical_antichain(masks: Iterable[int]) -> tuple[int, ...]:
    """The minimal masks, each once, canonically sorted: a set family's normal form."""
    return tuple(_canonical_sorted(_minimal_masks(masks)))


def _check_canonical(masks: Sequence[int], noun: str, fixer: str) -> None:
    """Raise unless ``masks`` is in the normal form ``_canonical_antichain`` gives."""
    if not _in_canonical_order(masks) or len(set(masks)) != len(masks):
        raise ValueError(f"{noun} not canonically sorted; use {fixer}()")
    if len(_minimal_masks(masks)) != len(masks):
        raise ValueError(f"{noun} are not an antichain; use {fixer}()")


def _is_run(mask: int) -> bool:
    """True iff ``mask`` is one nonzero run of bits: adding its lowest bit leaves none set."""
    return mask != 0 and mask & (mask + (mask & -mask)) == 0


@dataclass(frozen=True)
class Monomial:
    """A squarefree monomial as a bitmask of 1-based variable indices."""

    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0:
            raise ValueError("monomial mask must be nonnegative")

    @classmethod
    def from_vars(cls, indices: Iterable[int]) -> "Monomial":
        mask = 0
        for i in indices:
            if i < 1:
                raise ValueError(f"variable index {i} out of range (indices are 1-based)")
            mask |= 1 << (i - 1)
        return cls(mask)

    @property
    def vars(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.mask))

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    def fits(self, n: int) -> bool:
        return self.mask >> n == 0

    def divides(self, other: "Monomial") -> bool:
        return self.mask | other.mask == other.mask

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(self.mask | other.mask)

    def __lt__(self, other: "Monomial") -> bool:
        # canonical order: lexicographic on sorted index lists
        return _lex_less(self.mask, other.mask)

    def __str__(self) -> str:
        return monomial_to_text(self)


@dataclass(frozen=True)
class MonomialIdeal:
    """A squarefree monomial ideal: ambient size plus minimal generators.

    The constructor is strict: it expects the canonical form (antichain,
    canonically sorted).  Use :func:`minimalize` to build an ideal from an
    arbitrary generating family.
    """

    n: int
    gens: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"ambient size {self.n} must be at least 1")
        for g in self.gens:
            if not g.fits(self.n):
                raise ValueError(f"generator {g} does not fit ambient size {self.n}")
        _check_canonical(self.gen_masks(), "generators", "minimalize")

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].mask == 0

    @property
    def is_proper_nonzero(self) -> bool:
        return bool(self.gens) and not self.is_unit

    @property
    def support(self) -> int:
        """Bitmask union of all generator supports."""
        s = 0
        for g in self.gens:
            s |= g.mask
        return s

    def gen_masks(self) -> tuple[int, ...]:
        return tuple(g.mask for g in self.gens)

    def degree_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for g in self.gens:
            hist[g.degree] = hist.get(g.degree, 0) + 1
        return hist

    def __str__(self) -> str:
        return ideal_to_text(self)


def minimalize(n: int, raw: Iterable[Monomial]) -> MonomialIdeal:
    """Reduce a generating family to the canonical minimal antichain.

    Args:
        n: ambient variable count.
        raw: any finite family of monomials generating the ideal.

    Returns:
        The ideal with its unique set of minimal generators, canonically
        ordered.  An empty family yields the zero ideal.
    """
    monomials = set(raw)
    bad = [g for g in monomials if not g.fits(n)]
    if bad:
        g = min(bad, key=lambda g: g.degree)
        raise ValueError(f"generator {g} does not fit ambient size {n}")
    by_mask = {g.mask: g for g in monomials}
    kept = _canonical_antichain(by_mask)
    return MonomialIdeal(n, tuple(by_mask[m] for m in kept))


def contains(ideal: MonomialIdeal, m: Monomial) -> bool:
    """Membership test: true iff some minimal generator divides ``m``."""
    if not m.fits(ideal.n):
        raise ValueError(f"monomial {m} does not fit ambient size {ideal.n}")
    return any(g.divides(m) for g in ideal.gens)


def _check_same_ambient(a: MonomialIdeal, b: MonomialIdeal) -> None:
    if a.n != b.n:
        raise ValueError(f"ambient size mismatch: {a.n} != {b.n}")


def ideal_sum(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """Sum of ideals: minimalized union of the generating families."""
    _check_same_ambient(a, b)
    return minimalize(a.n, a.gens + b.gens)


def ideal_intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """Intersection: minimalized family of pairwise lcms."""
    _check_same_ambient(a, b)
    return minimalize(a.n, (g.lcm(h) for g in a.gens for h in b.gens))


def ideal_product_disjoint(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """Product of ideals living in disjoint sets of variables, where each lcm
    of generators is their product.

    Rejects overlapping supports: the product would not be squarefree.
    """
    _check_same_ambient(a, b)
    if a.support & b.support:
        overlap = tuple(iter_bits(a.support & b.support))
        raise ValueError(f"overlapping support {overlap}: product would not be squarefree")
    return ideal_intersect(a, b)


# ---------------------------------------------------------------------------
# text forms: `x1*x2*x3` (and `{1,2,3}` on input), ideal `n=5; (x1*x2*x3, x3*x4*x5)`
# ---------------------------------------------------------------------------


def monomial_to_text(m: Monomial) -> str:
    if m.mask == 0:
        return "1"
    return "*".join(f"x{i}" for i in m.vars)


def monomial_from_text(text: str) -> Monomial:
    """Parse ``x1*x3``, ``{1,3}`` or ``1``.  A repeated variable is refused:
    the monomial would not be squarefree."""
    s = text.strip()
    if s == "1":
        return Monomial(0)
    if s.startswith("{") and s.endswith("}"):
        body = s[1:-1].strip()
        if not body:
            return Monomial(0)
        indices = [int(t) for t in body.split(",")]
    else:
        indices = []
        for part in s.split("*"):
            part = part.strip()
            match = re.fullmatch(r"x(\d+)", part)
            if not match:
                raise ValueError(f"cannot parse monomial factor {part!r}")
            indices.append(int(match.group(1)))
    if len(set(indices)) != len(indices):
        raise ValueError(f"monomial {s!r} repeats a variable (monomials are squarefree)")
    return Monomial.from_vars(indices)


def ideal_to_text(ideal: MonomialIdeal) -> str:
    if ideal.is_zero:
        body = "0"
    else:
        body = ", ".join(monomial_to_text(g) for g in ideal.gens)
    return f"n={ideal.n}; ({body})"


def _family_to_text(n: int, masks: Iterable[int]) -> str:
    """``n=N; {1,2},{3}``: the text of a clutter's edges or a complex's facets."""
    body = ",".join("{" + ",".join(map(str, iter_bits(m))) + "}" for m in masks)
    return f"n={n}; {body}"


def ideal_from_text(text: str) -> MonomialIdeal:
    match = re.fullmatch(r"\s*n\s*=\s*(\d+)\s*;\s*\((.*)\)\s*", text, re.DOTALL)
    if not match:
        raise ValueError(f"cannot parse ideal text {text!r}")
    n = int(match.group(1))
    body = match.group(2).strip()
    if body in ("", "0"):
        return MonomialIdeal(n, ())
    # split on commas not inside braces
    parts = re.split(r",(?![^{]*\})", body)
    return minimalize(n, (monomial_from_text(p) for p in parts))
