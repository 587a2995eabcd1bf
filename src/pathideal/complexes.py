"""Simplicial complexes on bitmask vertex sets, their face index, and exact
reduced homology.

A complex is stored by its facets (inclusion-maximal faces) as bitmasks.
Reduced homology uses the augmented chain complex: the empty face spans
the degree -1 term, so the irrelevant complex {∅} has one dimension of
homology in degree -1 and nonempty complexes have none there.

``FaceIndex`` is the one builder of simplicial boundary columns, the same
for every field: each a row mask, with its signs in a second mask.  It also
marks for each vertex the rows whose face contains it and, with one method
(``stars``), the rows of its closed star within any downward-closed set of
rows: the whole family, or one pure skeleton (``skeleton``).  Its
``pivots`` restricts columns and reduces them over a field, and its
``homology`` reduces the boundaries of a chain complex given by rows of
each size from the top size down with clearing.  The Hochster
route of ``betti`` ranks each induced subcomplex relative to the closed star
of one of its vertices, and the sequential Cohen-Macaulay test of
``topology`` ranks each link of a skeleton relative to the closed star of
one of its vertices; both call ``homology``, as ``reduced_homology_dims``
does on the whole complex.  The strand route of ``betti`` builds its own
columns and ranks every one of them, so the two exponential Betti routes
share no inner loop.
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
    ``star[g][v]`` marks the rows of size g in the closed star of v, the
    faces F with F + {v} a face (see ``stars``).
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
        for sized in self.faces:
            columns, odd = [], []
            holding = [0] * self.n
            for r, f in enumerate(sized):
                bit = 1 << r
                terms = []
                rest = f
                while rest:
                    low = rest & -rest
                    rest ^= low
                    terms.append(1 << row[f ^ low])
                    holding[low.bit_length() - 1] |= bit
                columns.append(sum(terms))
                odd.append(sum(terms[1::2]))
            self.columns.append(columns)
            self.odd.append(odd)
            self.holding.append(holding)
        self.star = self.stars([(1 << len(sized)) - 1 for sized in self.faces])

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

    def homology(self, cells: list[int], field: FieldSpec) -> list[int]:
        """The homology of the chain complex with the rows set in
        ``cells[g]`` as its basis in size g and each boundary column
        restricted to the cells one size down, over the field: its
        dimension at each size, a list as long as ``cells``.

        The restricted boundaries must compose to zero.  They do when the
        cells of each size are the faces of a downward-closed family K
        outside a subcomplex S of it: the restriction is then the
        differential of the quotient C~(K) / C~(S) of augmented chain
        complexes.

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
        reducer's pivot dict.
        """
        dims = [0] * len(cells)
        # above: the rank of the boundary of the cells one size up
        above = cleared = 0
        for g in range(len(cells) - 1, 0, -1):
            rows = cells[g] & ~cleared
            rank = cleared = 0
            if rows:
                pivots = self.pivots(g, rows, cells[g - 1], field)
                rank = len(pivots)
                for h in pivots:
                    cleared |= 1 << h
            dims[g] = cells[g].bit_count() - rank - above
            above = rank
        dims[0] = cells[0].bit_count() - above
        return dims

    def stars(self, rows: list[int]) -> list[list[int]]:
        """The closed stars of the vertices in the subfamily K with the rows
        set in ``rows[g]`` as its faces of size g, which must be downward
        closed: ``stars[g][v]`` marks the rows of size g of the faces F of K
        with F + {v} in K.  It is empty unless {v} is in K.

        They are the faces of K that contain v, and the terms F - u of the
        boundary columns of the faces F of K one size up that contain v.
        Proof: a face of K that contains v is its own F + {v}.  Of the terms
        of such a column, F - v has F - v + {v} = F in K, and every other
        term F - u is a face of K that contains v.  Conversely a face G of K
        without v, with G + {v} in K, is the term (G + {v}) - v.
        """
        stars = [[held & kept for held in holding] for holding, kept in zip(self.holding, rows)]
        for g in range(1, len(rows)):
            columns, kept, below = self.columns[g], rows[g], stars[g - 1]
            for v, held in enumerate(self.holding[g]):
                walk = held & kept
                star = below[v]
                while walk:
                    low = walk & -walk
                    walk ^= low
                    star |= columns[low.bit_length() - 1]
                below[v] = star
        return stars

    def skeleton(self, t: int) -> tuple[list[int], list[list[int]]]:
        """The pure skeleton generated by the faces of size t: ``rows[g]``
        marks its faces of size g, for g up to t, the rows in the columns of
        its rows one size up, and ``star`` its closed stars, from ``stars``.
        """
        rows = [0] * t + [(1 << len(self.faces[t])) - 1]
        for g in range(t, 0, -1):
            columns, walk = self.columns[g], rows[g]
            while walk:
                low = walk & -walk
                walk ^= low
                rows[g - 1] |= columns[low.bit_length() - 1]
        return rows, self.stars(rows)

    def apexes(self) -> list[int]:
        """The vertices of the family (the v with {v} a face) by the size of
        their closed star, largest first, ties to the lower vertex.  The
        callers rank a subcomplex relative to the closed star of the first
        of them that it holds, its apex."""
        star = self.star
        # sorted is stable, so ties keep the lower vertex first
        return sorted(
            (v for v in range(self.n) if star[0][v]),
            key=lambda v: -sum(stars[v].bit_count() for stars in star),
        )


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
    every = [(1 << len(faces)) - 1 for faces in index.faces]
    return {g - 1: h for g, h in enumerate(index.homology(every, field))}
