"""Simplicial complexes on bitmask vertex sets, their face index, and exact
reduced homology.

A complex is stored by its facets (inclusion-maximal faces) as bitmasks.
Reduced homology uses the augmented chain complex: the empty face spans
the degree -1 term, so the irrelevant complex {∅} has one dimension of
homology in degree -1 and nonempty complexes have none there.

``FaceIndex`` is the one builder of simplicial boundary columns, the same
for every field: each a row mask, with its signs in a second mask.  It also
marks for each vertex the rows whose face contains it and the rows of its
closed star, and its ``pivots`` restricts columns and reduces them over a
field.  The Hochster route of ``betti`` ranks each induced subcomplex
relative to the closed star of one of its vertices; the sequential
Cohen-Macaulay test of ``topology`` reads every skeleton and link off the
index, and ``reduced_homology_dims`` ranks its columns as they are.  The
strand route of ``betti`` builds its own columns, so the two exponential
Betti routes share no inner loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .caps import SUBSET_CAP_N, CapExceeded
from .fields import FieldSpec, reducer
from .monomials import _canonical_sorted, _in_canonical_order, _minimal_masks, iter_bits


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet (maximal-face) representation of a simplicial complex.

    ``facets == ()`` is the void complex (no faces at all);
    ``facets == (0,)`` is the irrelevant complex whose only face is empty.
    """

    n: int
    facets: tuple[int, ...]

    def __post_init__(self) -> None:
        facets = self.facets
        if not _in_canonical_order(facets) or len(set(facets)) != len(facets):
            raise ValueError("facets not canonically sorted; use from_faces()")
        if len(_minimal_masks(self.facets)) != len(self.facets):
            raise ValueError("facets are not an antichain; use from_faces()")
        if any(a >> self.n for a in self.facets):
            raise ValueError("facet does not fit vertex count")

    @classmethod
    def from_faces(cls, n: int, faces: Iterable[int]) -> "SimplicialComplex":
        """Build from any face family, keeping only the maximal ones."""
        unique = set(faces)
        union = 0
        for f in unique:
            union |= f
        # complements within the union reverse inclusion
        maximal = [union ^ m for m in _minimal_masks(union ^ f for f in unique)]
        return cls(n, tuple(_canonical_sorted(maximal)))

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int:
        """Dimension; -1 for the irrelevant complex. Undefined (error) if void."""
        if self.is_void:
            raise ValueError("void complex has no dimension")
        return max(f.bit_count() for f in self.facets) - 1

    @property
    def vertices(self) -> int:
        mask = 0
        for f in self.facets:
            mask |= f
        return mask

    def faces(self) -> set[int]:
        """All faces, the empty face included (unless the complex is void)."""
        out: set[int] = set()
        stack = list(self.facets)
        while stack:
            f = stack.pop()
            if f in out:
                continue
            out.add(f)
            for i in iter_bits(f):
                stack.append(f & ~(1 << (i - 1)))
        return out

    def has_face(self, mask: int) -> bool:
        return any(mask & f == mask for f in self.facets)

    def __str__(self) -> str:
        body = ",".join("{" + ",".join(str(i) for i in iter_bits(f)) + "}" for f in self.facets)
        return f"n={self.n}; {body}"


class FaceIndex:
    """The faces of a downward-closed family numbered within each size, with
    their boundary columns and per-vertex row masks; nothing in it depends
    on a field.

    ``faces[g]`` lists the faces of size g in increasing mask order; a face's
    row is its position there.  ``columns[g][r]`` is the boundary of the face
    f in row r of size g, the sum of (-1)^pos (f minus its pos-th vertex)
    over the rows of size g - 1, as the mask of those rows; ``odd[g][r]``
    marks the rows of sign -1, those at odd pos (the empty face has the zero
    column).  ``holding[g][v]`` marks the rows of size g whose face contains
    vertex v, for v < n, the largest vertex of a face plus one.
    ``star[g][v]`` marks the rows of size g in the closed star of v: the
    faces that contain v, and the faces F without v for which F + {v} is a
    face.  It is empty unless {v} is a face.
    """

    def __init__(self, faces: Iterable[int]):
        ordered = sorted(faces)
        self.n = ordered[-1].bit_length() if ordered else 0
        top = max((f.bit_count() for f in ordered), default=-1)
        self.faces: list[list[int]] = [[] for _ in range(top + 1)]
        for f in ordered:
            self.faces[f.bit_count()].append(f)
        row = {f: r for sized in self.faces for r, f in enumerate(sized)}
        self.columns: list[list[int]] = []
        self.odd: list[list[int]] = []
        self.holding: list[list[int]] = []
        self.star: list[list[int]] = []
        for sized in self.faces:
            columns, odd = [], []
            holding = [0] * self.n
            # f minus its vertex v is a face of the closed star of v; the
            # empty face, the only one without a face below, has no terms
            star_below = self.star[-1] if self.star else []
            for r, f in enumerate(sized):
                terms = []
                rest = f
                while rest:
                    low = rest & -rest
                    term = 1 << row[f ^ low]
                    terms.append(term)
                    v = low.bit_length() - 1
                    holding[v] |= 1 << r
                    star_below[v] |= term
                    rest ^= low
                columns.append(sum(terms))
                odd.append(sum(terms[1::2]))
            self.columns.append(columns)
            self.odd.append(odd)
            self.holding.append(holding)
            self.star.append(list(holding))

    def pivots(self, g: int, rows: int, below: int, field: FieldSpec) -> dict:
        """The pivot dict of ``fields.reducer(field)`` on the columns of the
        rows of size g set in ``rows``, each restricted to the rows of size
        g - 1 set in ``below``; its length is their rank.  A column goes in
        as its mask over GF(2), otherwise as a dict row -> 1, or -1 (p - 1
        over GF(p)) on the rows ``odd`` marks.
        """
        columns, odd, p = self.columns[g], self.odd[g], field.p
        minus = p - 1 if p else -1
        cols: list = []
        while rows:
            low = rows & -rows
            rows ^= low
            r = low.bit_length() - 1
            column = columns[r] & below
            if p != 2:
                # iter_bits counts from 1: the sign of row t - 1 is bit t of 2 * odd
                signs = odd[r] << 1
                column = {t - 1: minus if signs >> t & 1 else 1 for t in iter_bits(column)}
            cols.append(column)
        return reducer(field)(cols)


def reduced_homology_dims(
    cx: SimplicialComplex, field: FieldSpec, cap: int = SUBSET_CAP_N
) -> dict[int, int]:
    """Reduced homology of a complex given by facets: a map face dimension
    -> dim of reduced homology, for dimensions -1 up to the complex's
    dimension.

    The irrelevant complex {∅} has one dimension in degree -1; any complex
    with a vertex has none there.  The void complex has no homology at all.
    """
    if cx.is_void:
        return {}
    if cx.vertices.bit_count() > cap:
        raise CapExceeded(f"complex has {cx.vertices.bit_count()} vertices, cap is {cap}")
    index = FaceIndex(cx.faces())
    # ranks[g]: rank of the boundary of the faces of size g (below = -1 keeps every row)
    ranks = [len(index.pivots(g, (1 << len(f)) - 1, -1, field)) for g, f in enumerate(index.faces)]
    ranks.append(0)
    return {
        g - 1: len(faces) - ranks[g] - ranks[g + 1] for g, faces in enumerate(index.faces)
    }
