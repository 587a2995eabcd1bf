"""The face index, and reduced homology on known spaces, including one
with 2-torsion, and against a dense oracle."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathideal.caps import CapExceeded
from pathideal.complexes import FaceIndex, SimplicialComplex, reduced_homology_dims
from pathideal.fields import GF2, QQ, FieldSpec

from oracles import homology_dims, reference_rank


def cx(n, *facets):
    masks = []
    for f in facets:
        mask = 0
        for v in f:
            mask |= 1 << (v - 1)
        masks.append(mask)
    return SimplicialComplex.from_faces(n, masks)


def nonzero(dims):
    return {d: h for d, h in dims.items() if h}


def signed_column(index, r):
    """Column r of the index as a dict row -> +-1 over the integers, with
    the sign rule of ``FaceIndex.pivots``: -1 to the number of terms in
    higher rows."""
    column = index.column(r)
    return {
        t: (-1) ** (column >> t + 1).bit_count()
        for t in range(column.bit_length()) if column >> t & 1
    }


def rows(*numbers):
    """The mask of the given row numbers."""
    return sum(1 << r for r in numbers)


def test_triangle_boundary_is_a_circle():
    circle = cx(3, [1, 2], [2, 3], [1, 3])
    for field in (GF2, QQ, FieldSpec(5)):
        assert nonzero(reduced_homology_dims(circle, field)) == {1: 1}


def test_two_points():
    assert nonzero(reduced_homology_dims(cx(2, [1], [2]), GF2)) == {0: 1}


def test_full_simplex_contractible():
    assert nonzero(reduced_homology_dims(cx(3, [1, 2, 3]), QQ)) == {}


def test_irrelevant_complex_has_empty_face_class():
    irrelevant = SimplicialComplex(2, (0,))
    assert nonzero(reduced_homology_dims(irrelevant, GF2)) == {-1: 1}
    assert irrelevant.dim == -1


def test_void_complex():
    void = SimplicialComplex(2, ())
    assert reduced_homology_dims(void, GF2) == {}
    with pytest.raises(ValueError):
        void.dim


def test_tetrahedron_boundary_is_a_sphere():
    from itertools import combinations

    sphere = cx(4, *combinations(range(1, 5), 3))
    for field in (GF2, QQ):
        assert nonzero(reduced_homology_dims(sphere, field)) == {2: 1}


def test_projective_plane_depends_on_characteristic():
    # minimal 6-vertex triangulation; 2-torsion shows over GF(2) only
    triangles = [
        (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
        (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
    ]
    plane = cx(6, *triangles)
    assert nonzero(reduced_homology_dims(plane, GF2)) == {1: 1, 2: 1}
    assert nonzero(reduced_homology_dims(plane, QQ)) == {}
    assert nonzero(reduced_homology_dims(plane, FieldSpec(3))) == {}


def test_homology_cap_enforced():
    too_big = cx(17, list(range(1, 18)))
    with pytest.raises(CapExceeded):
        reduced_homology_dims(too_big, GF2, cap=16)


def test_boundary_composition_is_zero():
    rng = random.Random(99)
    complexes = [
        cx(3, [1, 2], [2, 3], [1, 3]),
        cx(4, [1, 2, 3], [2, 3, 4]),
        cx(5, [1, 2, 3, 4], [2, 3, 4, 5], [1, 5]),
    ]
    for _ in range(20):
        n = rng.randint(2, 6)
        facets = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 5))]
        complexes.append(SimplicialComplex.from_faces(n, facets))
    for complex_ in complexes:
        index = FaceIndex(complex_.faces())
        for r in range(len(index.faces)):
            acc = {}
            for mid, c1 in signed_column(index, r).items():
                for row, c2 in signed_column(index, mid).items():
                    acc[row] = acc.get(row, 0) + c1 * c2
            assert not any(acc.values()), (str(complex_), r)


def test_face_index_of_a_triangle_and_an_edge():
    faces = cx(4, [1, 2, 3], [3, 4]).faces()
    # rows 0 | 1-4 | 5-8 | 9, by size and then by mask
    ordered = [0, 0b1, 0b10, 0b100, 0b1000, 0b11, 0b101, 0b110, 0b1100, 0b111]
    index = FaceIndex(faces)
    assert index.faces == ordered
    assert index.n == 4
    assert index.row == {f: r for r, f in enumerate(ordered)}
    assert index.sized == [rows(0), rows(1, 2, 3, 4), rows(5, 6, 7, 8), rows(9)]
    # the triangle's boundary {2,3} - {1,3} + {1,2}, in rows 7, 6 and 5
    assert index.column(9) == rows(5, 6, 7)
    assert signed_column(index, 9) == {7: 1, 6: -1, 5: 1}
    # the edge {3,4}: {4} - {3}
    assert signed_column(index, 8) == {4: 1, 3: -1}
    assert index.column(0) == 0 and all(index.column(r) == 1 for r in range(1, 5))
    assert index.holding == [
        rows(*(r for r, f in enumerate(ordered) if f >> v & 1)) for v in range(4)
    ] == [rows(1, 5, 6, 9), rows(2, 5, 7, 9), rows(3, 6, 7, 8, 9), rows(4, 8)]
    # the closed stars of vertices 1 and 2 are the triangle, that of 3 is
    # everything, that of 4 the edge {3,4}
    triangle = rows(0, 1, 2, 3, 5, 6, 7, 9)
    stars = [index.star(v) for v in range(4)]
    assert stars == [triangle, triangle, rows(*range(10)), rows(0, 3, 4, 8)]
    assert index.apexes() == [2, 0, 1, 3]
    irrelevant = FaceIndex([0])
    assert irrelevant.faces == [0] and irrelevant.row == {0: 0}
    assert irrelevant.sized == [1]
    assert irrelevant.column(0) == 0
    assert irrelevant.n == 0 and irrelevant.holding == [] and irrelevant.apexes() == []
    void = FaceIndex([])
    assert void.faces == void.sized == void.holding == [] and void.n == 0


def closed_stars_by_definition(index, faces):
    """star(v) of a face family for each v < n, by definition: the rows of
    the faces F with F + {v} in the family."""
    return [
        sum(1 << r for r, f in enumerate(index.faces) if f | 1 << v in faces)
        for v in range(index.n)
    ]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=6))))
@example((3, [0]))  # the irrelevant complex {∅}
def test_face_index_star_is_the_closed_star(family):
    """The closed stars of the whole family, and for each size t those of
    the index of the pure skeleton, the faces lying in a face of size t."""
    n, facets = family
    faces = SimplicialComplex.from_faces(n, facets).faces()
    index = FaceIndex(faces)
    assert [index.star(v) for v in range(index.n)] == closed_stars_by_definition(index, faces), facets
    assert index.holding == [
        sum(1 << r for r, f in enumerate(index.faces) if f >> v & 1) for v in range(index.n)
    ], facets
    assert sorted(index.faces) == sorted(faces)
    for g, mask in enumerate(index.sized):
        assert mask == sum(1 << r for r, f in enumerate(index.faces) if f.bit_count() == g)
    for t in range(1, len(index.sized)):
        tops = [f for f in faces if f.bit_count() == t]
        skeleton = {f for f in faces if any(f & top == f for top in tops)}
        part = FaceIndex(skeleton)
        assert len(part.sized) == t + 1
        stars = [part.star(v) for v in range(part.n)]
        assert stars == closed_stars_by_definition(part, skeleton), (facets, t)


@st.composite
def restricted_boundaries(draw):
    """A face index of a random complex and two masks of its rows, of any
    sizes."""
    n = draw(st.integers(1, 8))
    facets = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6))
    index = FaceIndex(SimplicialComplex.from_faces(n, facets).faces())
    every = (1 << len(index.faces)) - 1
    return index, draw(st.integers(0, every)), draw(st.integers(0, every))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(restricted_boundaries())
def test_face_index_pivots_rank_the_restricted_boundary(case):
    index, kept_rows, below = case
    # the dense signed matrix, rows in below by columns in kept_rows
    kept = [f for r, f in enumerate(index.faces) if kept_rows >> r & 1]
    kept_below = [f for t, f in enumerate(index.faces) if below >> t & 1]
    row_of = {f: i for i, f in enumerate(kept_below)}
    matrix = [[0] * len(kept) for _ in row_of]
    for c, face in enumerate(kept):
        for pos, v in enumerate(v for v in range(face.bit_length()) if face >> v & 1):
            i = row_of.get(face & ~(1 << v))
            if i is not None:
                matrix[i][c] = (-1) ** pos
    for field in (GF2, FieldSpec(3), QQ):
        pivots = index.pivots(kept_rows, below, field)
        assert pivots & below == pivots, (index.faces, kept_rows, below, field.label)
        assert pivots.bit_count() == reference_rank(matrix, field.p), (
            index.faces, kept_rows, below, field.label)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=6))))
@example((3, []))  # the void complex
@example((3, [0]))  # the irrelevant complex {∅}
def test_reduced_homology_matches_dense_oracle(family):
    n, facets = family
    complex_ = SimplicialComplex.from_faces(n, facets)
    for field in (GF2, FieldSpec(3), QQ):
        assert reduced_homology_dims(complex_, field) == homology_dims(complex_.faces(), field), (
            str(complex_), field)


def test_from_faces_keeps_maximal_only():
    got = cx(3, [1, 2], [1], [2, 3], [2])
    assert got.facets == cx(3, [1, 2], [2, 3]).facets
    assert got.has_face(0b001)
    assert not got.has_face(0b101)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=10))))
def test_from_faces_matches_brute_force_maximal(family):
    n, faces = family
    maximal = {f for f in faces if not any(g != f and f & g == f for g in faces)}
    got = SimplicialComplex.from_faces(n, faces)
    assert sorted(got.facets) == sorted(maximal)
    assert SimplicialComplex(n, got.facets) == got


def test_strict_constructor_rejects_non_canonical():
    with pytest.raises(ValueError, match="antichain"):
        SimplicialComplex(3, (0b011, 0b111))
    with pytest.raises(ValueError, match="antichain"):
        SimplicialComplex(3, (0b111, 0b100))  # the smaller facet sorts last
    with pytest.raises(ValueError, match="canonically sorted"):
        SimplicialComplex(3, (0b110, 0b011))
    with pytest.raises(ValueError, match="does not fit"):
        SimplicialComplex(2, (0b100,))
    assert SimplicialComplex(2, (0,)).dim == -1
    assert SimplicialComplex.from_faces(2, []).is_void


def test_faces_enumeration():
    got = cx(3, [1, 2, 3])
    assert got.faces() == {0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111}
