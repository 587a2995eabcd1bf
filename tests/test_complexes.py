"""The face index, and reduced homology on known spaces, including one
with 2-torsion, and against a dense oracle."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathideal.caps import CapExceeded
from pathideal.complexes import FaceIndex, SimplicialComplex, reduced_homology_dims
from pathideal.fields import GF2, QQ, FieldSpec

from oracles import boundary_ranks, homology_dims


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
    the sign rule of the class docstring of ``FaceIndex``: -1 to the number
    of terms in higher rows."""
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
        reduced_homology_dims(too_big, GF2)


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
            # the parity mask marks the terms of sign -1
            negative = [t for t, c in signed_column(index, r).items() if c < 0]
            assert index._odd[r] == rows(*negative), (str(complex_), r)


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
    assert index._odd[9] == rows(6) and index._odd[8] == rows(3)
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


def test_face_index_holding_past_64_vertices():
    # faces wider than one 64-bit word are transposed word by word
    faces = SimplicialComplex.from_faces(140, [1 | 1 << 70 | 1 << 139, 1 << 63 | 1 << 64]).faces()
    index = FaceIndex(faces)
    assert index.n == 140
    assert index.holding == [
        sum(1 << r for r, f in enumerate(index.faces) if f >> v & 1) for v in range(140)
    ]
    assert sum(map(bool, index.holding)) == 5


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
def relative_cell_sets(draw):
    """The faces of a random complex K, its face index, a random subcomplex
    S (the faces below some faces of K: none, a vertex, or all of K, among
    others) and the mask of the rows of the faces of K outside S."""
    n = draw(st.integers(1, 8))
    facets = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6))
    faces = SimplicialComplex.from_faces(n, facets).faces()
    index = FaceIndex(faces)
    tops = draw(st.lists(st.sampled_from(index.faces), max_size=4))
    sub = {f for f in faces if any(f & top == f for top in tops)}
    cells = sum(1 << r for r, f in enumerate(index.faces) if f not in sub)
    return faces, index, sub, cells


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(relative_cell_sets())
def test_face_index_homology_ranks_the_restricted_boundaries(case):
    """``homology`` of the faces of K outside a subcomplex S is the homology
    of C~(K) / C~(S) by dense signed matrices.  Read from the top size
    down, the dimensions fix the rank of every restricted boundary, so each
    rank the one-pass kernel computes is checked."""
    faces, index, sub, cells = case
    for field in (GF2, FieldSpec(3), QQ):
        sizes, ranks = boundary_ranks(faces, field, drop=sub)
        ranks.append(0)
        expected = [sizes[g] - ranks[g] - ranks[g + 1] for g in range(len(sizes))]
        assert index.homology(cells, field) == expected, (sorted(faces), sorted(sub), field.label)


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
    assert 0b001 in got.faces()
    assert 0b101 not in got.faces()


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
