"""Simplicial complexes on bitmask vertex sets and exact reduced homology.

A complex is stored by its facets (inclusion-maximal faces) as bitmasks.
Reduced homology uses the augmented chain complex: the empty face spans
the degree -1 term, so the irrelevant complex {∅} has one dimension of
homology in degree -1 and nonempty complexes have none there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .caps import SUBSET_CAP_N, CapExceeded
from .fields import FieldSpec, rank_sparse
from .monomials import _minimal_masks, iter_bits


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet (maximal-face) representation of a simplicial complex.

    ``facets == ()`` is the void complex (no faces at all);
    ``facets == (0,)`` is the irrelevant complex whose only face is empty.
    """

    n: int
    facets: tuple[int, ...]

    def __post_init__(self) -> None:
        keys = [tuple(iter_bits(f)) for f in self.facets]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
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
        maximal.sort(key=lambda f: tuple(iter_bits(f)))
        return cls(n, tuple(maximal))

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


class ChainComplex:
    """A bounded chain complex of based vector spaces with integer matrices.

    ``sizes[g]`` is the dimension in grade g and ``boundaries[g]`` holds the
    sparse columns of the map grade g -> grade g-1 (g >= 1).  Grades are the
    face dimensions shifted by one, so grade 0 is the span of the empty face.
    """

    def __init__(self, sizes: list[int], boundaries: list[list[list[tuple[int, int]]]]):
        self.sizes = sizes
        self.boundaries = boundaries  # boundaries[g] defined for g >= 1

    def composition_is_zero(self) -> bool:
        """Check d∘d = 0 symbolically over the integers (hence over any field)."""
        for g in range(2, len(self.sizes)):
            upper = self.boundaries[g]
            lower = self.boundaries[g - 1]
            for col in upper:
                acc: dict[int, int] = {}
                for mid, c1 in col:
                    for row, c2 in lower[mid]:
                        acc[row] = acc.get(row, 0) + c1 * c2
                if any(v != 0 for v in acc.values()):
                    return False
        return True


def chain_complex_of_faces(faces: Iterable[int]) -> ChainComplex:
    """Augmented simplicial chain complex of a downward-closed face family.

    The family must contain the empty face and every subface of each member.
    """
    by_dim: dict[int, list[int]] = {}
    for f in faces:
        by_dim.setdefault(f.bit_count(), []).append(f)
    top = max(by_dim) if by_dim else 0
    sizes = []
    index: list[dict[int, int]] = []
    for g in range(top + 1):
        masks = sorted(by_dim.get(g, []))
        sizes.append(len(masks))
        index.append({mask: i for i, mask in enumerate(masks)})
    boundaries: list[list[list[tuple[int, int]]]] = [[]]
    for g in range(1, top + 1):
        cols = []
        prev = index[g - 1]
        for mask in sorted(by_dim.get(g, [])):
            entries = []
            for pos, v in enumerate(iter_bits(mask)):
                sub = mask & ~(1 << (v - 1))
                entries.append((prev[sub], -1 if pos % 2 else 1))
            cols.append(entries)
        boundaries.append(cols)
    return ChainComplex(sizes, boundaries)


def homology_dims_of_faces(faces: Iterable[int], field: FieldSpec) -> dict[int, int]:
    """Reduced homology dimensions of a downward-closed face family.

    Returns a map face-dimension -> dim of reduced homology, for dimensions
    -1 up to the top face dimension; an empty family gives an empty map.
    """
    complex_ = chain_complex_of_faces(faces)
    sizes = complex_.sizes
    if not sizes or sizes[0] == 0:
        return {}
    top = len(sizes) - 1
    ranks = [0] * (top + 2)
    for g in range(1, top + 1):
        ranks[g] = rank_sparse(complex_.boundaries[g], sizes[g - 1], field)
    dims: dict[int, int] = {}
    for g in range(top + 1):
        dims[g - 1] = sizes[g] - ranks[g] - ranks[g + 1]
    return dims


def reduced_homology_dims(
    cx: SimplicialComplex, field: FieldSpec, cap: int = SUBSET_CAP_N
) -> dict[int, int]:
    """Reduced homology of a complex given by facets.

    The irrelevant complex {∅} has one dimension in degree -1; any complex
    with a vertex has none there.  The void complex has no homology at all.
    """
    if cx.is_void:
        return {}
    if cx.vertices.bit_count() > cap:
        raise CapExceeded(f"complex has {cx.vertices.bit_count()} vertices, cap is {cap}")
    return homology_dims_of_faces(cx.faces(), field)
