"""Simplicial complexes on bitmask vertex sets, their face index, and exact
reduced homology.

A complex is stored by its facets (inclusion-maximal faces) as bitmasks.
Reduced homology uses the augmented chain complex: the empty face spans
the degree -1 term, so the irrelevant complex {∅} has one dimension of
homology in degree -1 and nonempty complexes have none there.

``FaceIndex`` is the one builder of simplicial boundary columns, the same
for every field: it numbers all faces in one sequence of rows, by size and
then by mask, and marks for each vertex, with one mask, the rows whose face
contains it.  A face's boundary column, a mask of rows from which the signs
follow, as the rows follow the masks, is built the first time a reduction
walks its row, and a vertex's closed star the first time it is asked for.
Its ``pivots`` restricts columns and reduces them over a field, and its
``homology`` splits a mask of cells by size and reduces their boundaries
from the top size down with clearing.  The Hochster route of ``betti``
ranks each induced subcomplex relative to the closed star of one of its
vertices, whose complement it builds from the generators and not from the
index, and the sequential Cohen-Macaulay test of ``topology`` ranks each
link of a pure skeleton, in that skeleton's own index, relative to the
closed star of one of its vertices; both call ``homology``, as
``reduced_homology_dims`` does on the whole complex.  The strand route of
``betti`` builds its own columns and ranks every one of them, so the two
exponential Betti routes share no inner loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Optional

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
        for facet in self.facets:
            # every sub-mask of the facet, from the facet itself down to 0
            f = facet
            while f:
                out.add(f)
                f = (f - 1) & facet
            out.add(0)
        return out

    def has_face(self, mask: int) -> bool:
        return any(mask & f == mask for f in self.facets)

    def __str__(self) -> str:
        body = ",".join("{" + ",".join(str(i) for i in iter_bits(f)) + "}" for f in self.facets)
        return f"n={self.n}; {body}"


# _BIT_CHARS[b]: translates each byte to the digit "0" or "1" of its bit b,
# which is 1 on the second half of each run of 2^(b + 1) byte values
_BIT_CHARS = [(b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8)]


class FaceIndex:
    """The faces of a downward-closed family in one row numbering, with
    per-vertex row masks, and their boundary columns and closed stars built
    on first use; nothing in it depends on a field.

    ``faces`` lists the faces by size, and within a size in increasing mask
    order; a face's row is its position there, ``row`` maps each face to
    its row, and ``sized[g]`` marks the rows of size g.  ``holding[v]``
    marks the rows whose face contains vertex v, for v < n, the largest
    vertex of a face plus one.  These four are built with the index; the
    rest is built when first asked for, and kept.

    ``column(r)`` is the boundary of the face f in row r, the sum of
    (-1)^pos (f minus its pos-th vertex), as the mask of the rows of those
    faces (the empty face has the zero column).  ``pivots`` builds the
    columns of the rows it walks, and only those.  The signs need no mask
    of their own: the pos of a term is the number of terms of the column in
    higher rows.  Proof: for vertices u < w of f, the masks f - u and f - w
    differ only at u and w, and f - u holds w, so f - u is the larger;
    within a size the rows follow the masks, so the term of pos 0 has the
    highest row, and pos grows as the rows fall.

    ``star(v)`` marks the rows of the closed star of v, the faces F with
    F + {v} a face; it is empty unless {v} is a face.  It is the faces that
    contain v and the faces f - v of the faces f that contain v.  Proof: a
    face that contains v is its own F + {v}, and f - v has (f - v) + {v} = f
    a face.  Conversely a face F without v, with F + {v} a face f, is f - v.
    So f -> f - v matches the faces that contain v with the other faces of
    the star, and |star(v)| = 2 |holding[v]|, which is how ``apexes``
    orders the vertices without building a star.
    """

    def __init__(self, faces: Iterable[int]):
        # sorted is stable: by size, and within a size by mask
        self.faces: list[int] = sorted(sorted(faces), key=int.bit_count)
        self.n = max(self.faces, default=0).bit_length()
        self.row = {f: r for r, f in enumerate(self.faces)}
        # a downward-closed family has faces of every size up to its top
        self.sized: list[int] = []
        start = 0
        for _, group in groupby(self.faces, int.bit_count):
            end = start + sum(1 for _ in group)
            self.sized.append((1 << end) - (1 << start))
            start = end
        # holding[v] transposes the faces: bit r of it is bit v of the face
        # in row r.  Each face goes into ``width`` bytes, the last face
        # first; byte v // 8 of every face is one slice of them, and
        # translating its bytes to the digits of bit v % 8 spells holding[v]
        # in binary, highest row first.
        width = (self.n + 7) // 8
        packed = b"".join([f.to_bytes(width, "little") for f in reversed(self.faces)])
        self.holding: list[int] = [
            int(packed[v >> 3 :: width].translate(_BIT_CHARS[v & 7]), 2) for v in range(self.n)
        ]
        self._columns: list[Optional[int]] = [None] * len(self.faces)
        self._stars: list[Optional[int]] = [None] * self.n

    def _column(self, r: int) -> int:
        """Builds the boundary column of row r."""
        f, row = self.faces[r], self.row
        column = 0
        rest = f
        while rest:
            low = rest & -rest
            rest ^= low
            column |= 1 << row[f ^ low]
        return column

    def column(self, r: int) -> int:
        """The boundary column of the face in row r (see the class
        docstring), built on the first call."""
        column = self._columns[r]
        if column is None:
            column = self._columns[r] = self._column(r)
        return column

    def _star(self, v: int) -> int:
        """Builds the closed star of vertex v."""
        faces, row = self.faces, self.row
        bit = 1 << v
        star = held = self.holding[v]
        while held:
            low = held & -held
            held ^= low
            star |= 1 << row[faces[low.bit_length() - 1] ^ bit]
        return star

    def star(self, v: int) -> int:
        """The rows of the closed star of vertex v < n (see the class
        docstring), built on the first call."""
        star = self._stars[v]
        if star is None:
            star = self._stars[v] = self._star(v)
        return star

    def pivots(self, rows: int, below: int, field: FieldSpec) -> int:
        """The mask of the pivot rows of ``fields.reducer(field)`` on the
        columns of the rows set in ``rows``, each restricted to the rows set
        in ``below``; their number is the rank.  A column not built yet is
        built here (``column``) and kept.  A column goes in as its mask
        over GF(2), otherwise as a dict row -> (-1)^pos (p - 1 for -1 over
        GF(p)), pos counted on the whole column (see the class docstring).
        Rows and columns are counted from the first of each set, so that the
        walks and the reducer handle masks no wider than the rows in use.
        With no rows, or none below, the rank is 0 and the reducer is not
        called.
        """
        if not rows or not below:
            return 0
        p = field.p
        minus = p - 1 if p else -1
        first = (rows & -rows).bit_length() - 1
        base = (below & -below).bit_length() - 1
        rows >>= first
        below >>= base
        cols: list = []
        while rows:
            low = rows & -rows
            rows ^= low
            r = first + low.bit_length() - 1
            column = self.column(r) >> base
            kept = column & below
            if p != 2:
                # iter_bits counts from 1: the terms above row t - 1 are the
                # bits from t up, and the rows cut off below base are lower
                kept = {t - 1: minus if (column >> t).bit_count() & 1 else 1 for t in iter_bits(kept)}
            cols.append(kept)
        pivots = 0
        for h in reducer(field)(cols):
            pivots |= 1 << h
        return pivots << base

    def homology(self, cells: int, field: FieldSpec) -> list[int]:
        """The homology of the chain complex with the rows set in ``cells``
        as its basis and each boundary column restricted to the cells one
        size down, over the field: its dimension at each size, a list as
        long as ``sized``.

        The restricted boundaries must compose to zero.  They do when the
        cells are the faces of a downward-closed family K outside a
        subcomplex S of it: the restriction is then the differential of the
        quotient C~(K) / C~(S) of augmented chain complexes.

        Relative to a vertex star.  When S is the closed star in K of a
        vertex v of K (the faces F of K with F + {v} in K), the homology of
        the quotient is the reduced homology of K over every field.  Proof:
        S is a subcomplex of K and a cone with apex v, so its augmented
        chain complex is exact, as S contains {v} (the cone operator
        F -> F + {v} is a contracting homotopy).  The long exact sequence of
        the pair then gives H~_i(K) = H_i(C~(K) / C~(S)).  The quotient has
        the faces outside S as its basis, and its differential is the
        boundary with the rows of S deleted, which is what the restriction
        keeps (Mischaikow-Nanda, "Morse theory for filtrations and efficient
        computation of persistent homology", 2013, in its simplest case).

        Clearing.  The boundaries are reduced from the largest size down,
        and the reduction of d_g (cells of size g to cells of size g - 1)
        skips every cell of size g that is the pivot row of a reduced column
        of d_{g+1} (Chen-Kerber, "Persistent homology computation with a
        twist", 2011).  This leaves rank d_g unchanged over every field.
        Proof: the reducer pivots each column on its largest row.  A reduced
        column z of d_{g+1} is a combination of columns of d_{g+1}, so
        d_g z = 0; its pivot sigma is its entry of largest index, which is
        nonzero.  Solving d_g z = 0 for the column of sigma writes it as a
        combination of the columns of d_g of cells of smaller index.  Drop
        the cleared columns from the largest index down: each, when dropped,
        is a combination of columns of smaller index, none of which is
        dropped yet, so no drop changes the column space.  The skipped
        columns would have reduced to zero anyway; skipping them saves that
        work, and the rows they would have pivoted are read off the
        reducer's pivots.  With no cells one size down every column
        restricts to zero, and d_g has rank 0 without a reduction.
        """
        sized = self.sized
        dims = [0] * len(sized)
        if not cells:
            return dims
        # from the size of the last cell down; above: the rank of the
        # boundary of the cells one size up, cleared: its pivot rows
        top = self.faces[cells.bit_length() - 1].bit_count()
        rows = cells & sized[top]
        above = cleared = 0
        for g in range(top, 0, -1):
            below = cells & sized[g - 1]
            kept = rows & ~cleared
            cleared = self.pivots(kept, below, field) if kept and below else 0
            rank = cleared.bit_count()
            dims[g] = rows.bit_count() - rank - above
            above = rank
            rows = below
        dims[0] = rows.bit_count() - above
        return dims

    def apexes(self) -> list[int]:
        """The vertices of the family (the v with {v} a face) by the size of
        their closed star, largest first, ties to the lower vertex.  The
        callers rank a subcomplex relative to the closed star of the first
        of them that it holds, its apex.  A closed star has twice as many
        faces as ``holding`` marks (see the class docstring), so the order
        is read off ``holding`` and builds no star."""
        holding = self.holding
        # sorted is stable, so ties keep the lower vertex first
        return sorted((v for v in range(self.n) if holding[v]), key=lambda v: -holding[v].bit_count())


def reduced_homology_dims(
    cx: SimplicialComplex, field: FieldSpec, cap: int = SUBSET_CAP_N
) -> dict[int, int]:
    """Reduced homology of a complex given by facets: a map face dimension
    -> dim of reduced homology, for dimensions -1 up to the complex's
    dimension.

    The irrelevant complex {∅} has one dimension in degree -1; any complex
    with a vertex has none there.  The void complex has no homology at all.
    Every face is a cell, and ``FaceIndex.homology`` reduces the boundaries
    with clearing.
    """
    if cx.is_void:
        return {}
    if cx.vertices.bit_count() > cap:
        raise CapExceeded(f"complex has {cx.vertices.bit_count()} vertices, cap is {cap}")
    index = FaceIndex(cx.faces())
    every = (1 << len(index.faces)) - 1
    return {g - 1: h for g, h in enumerate(index.homology(every, field))}
