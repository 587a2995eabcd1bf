"""Betti tables: spec examples, the two-route equivalence, field behaviour."""

import random
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pathideal.betti
import pathideal.fields
from pathideal.betti import (
    BettiTable,
    _face_masks,
    _intervals,
    _off_stars,
    _union_closure,
    betti_hochster,
    betti_interval,
    betti_table,
    betti_taylor_tor,
    depth_of,
    invariants_of,
    lyubeznik_cells,
    lyubeznik_order,
    taylor_strand_complexes,
)
from pathideal.caps import CapExceeded
from pathideal.complexes import FaceIndex
from pathideal.fields import GF2, QQ, FieldSpec
from pathideal.monomials import (
    Monomial,
    MonomialIdeal,
    contains,
    ideal_from_text,
    minimalize,
)
from pathideal.pathfamily import (
    PathParams,
    formula_result,
    make_full_path_ideal,
    make_path_ideal,
)

from oracles import (
    admissible_sets_by_definition,
    apex_order,
    boundary_ranks,
    closed_star,
    columns_sent,
    composition_is_zero,
    documented_order,
    homology_dims,
    stanley_reisner_complex,
    strand_table,
    taylor_strands_by_definition,
)


def table(entries):
    return BettiTable(entries)


def brute_minimal_covers(n, edge_masks):
    """Independent oracle for facet checks: minimal transversals by brute force."""
    covers = []
    for a in range(1 << n):
        if all(a & e for e in edge_masks):
            covers.append(a)
    return [c for c in covers if not any(d != c and d & c == d for d in covers)]


# ---------------------------------------------------------------------------
# Stanley-Reisner complex
# ---------------------------------------------------------------------------


def test_sr_complex_examples():
    got = stanley_reisner_complex(ideal_from_text("n=2; (x1*x2)"))
    assert got.facets == (0b01, 0b10)
    got = stanley_reisner_complex(ideal_from_text("n=3; (x1*x2*x3)"))
    assert got.facets == (0b011, 0b101, 0b110)


def test_sr_complex_path_matches_cover_complements():
    ideal = ideal_from_text("n=4; (x1*x2, x2*x3, x3*x4)")
    got = stanley_reisner_complex(ideal)
    full = 0b1111
    expected = sorted(full & ~c for c in brute_minimal_covers(4, ideal.gen_masks()))
    assert sorted(got.facets) == expected
    assert set(got.facets) == {0b0101, 0b1001, 0b1010}  # {1,3},{1,4},{2,4}


def test_sr_complex_rejects_degenerate_ideals():
    with pytest.raises(ValueError):
        stanley_reisner_complex(MonomialIdeal(3, ()))
    with pytest.raises(ValueError):
        stanley_reisner_complex(MonomialIdeal(3, (Monomial(0),)))


# ---------------------------------------------------------------------------
# spec example tables
# ---------------------------------------------------------------------------


def test_hochster_examples():
    got = betti_hochster(ideal_from_text("n=2; (x1*x2)"), GF2)
    assert got == table({(0, 2): 1})
    got = betti_hochster(make_path_ideal(PathParams(3, 1, 2)), GF2)
    assert got == table({(0, 3): 2, (1, 5): 1})
    got = betti_hochster(make_full_path_ideal(2, 4), GF2)
    assert got == table({(0, 2): 3, (1, 3): 2})


def test_taylor_examples():
    got = betti_taylor_tor(ideal_from_text("n=3; (x1*x2, x2*x3)"), GF2)
    assert got == table({(0, 2): 2, (1, 3): 1})
    got = betti_taylor_tor(make_path_ideal(PathParams(5, 3, 2)), GF2)
    assert got == table({(0, 5): 2, (1, 7): 1})
    got = betti_taylor_tor(ideal_from_text("n=3; (x1*x2, x2*x3, x1*x3)"), GF2)
    assert got == table({(0, 2): 3, (1, 3): 2})


def test_invariants_examples():
    inv = invariants_of(table({(0, 3): 2, (1, 5): 1}))
    assert (inv.pd, inv.reg) == (1, 4)
    inv = invariants_of(table({(0, 2): 1}))
    assert (inv.pd, inv.reg) == (0, 2)
    inv = invariants_of(table({(0, 2): 3, (1, 3): 2}))
    assert (inv.pd, inv.reg) == (1, 2)
    with pytest.raises(ValueError):
        invariants_of(table({}))


def test_depth_examples():
    ideal = make_path_ideal(PathParams(3, 1, 2))
    depths = depth_of(ideal, betti_table(ideal, GF2))
    assert (depths.depth_I, depths.depth_RI) == (4, 3)
    principal = ideal_from_text("n=4; (x1*x2*x3*x4)")
    assert depth_of(principal, betti_table(principal, GF2)).depth_I == 4
    big = make_path_ideal(PathParams(4, 1, 3))
    assert depth_of(big, betti_table(big, GF2)).depth_I == 8


# ---------------------------------------------------------------------------
# route equivalence and field behaviour
# ---------------------------------------------------------------------------


def random_proper_ideal(rng, n, max_gens):
    while True:
        gens = [
            Monomial(rng.randint(1, (1 << n) - 1))
            for _ in range(rng.randint(1, max_gens))
        ]
        ideal = minimalize(n, gens)
        if ideal.is_proper_nonzero:
            return ideal


def test_routes_agree_on_random_ideals():
    rng = random.Random(20260101)
    for _ in range(40):
        n = rng.randint(2, 6)
        ideal = random_proper_ideal(rng, n, 4)
        for field in (GF2, QQ, FieldSpec(3)):
            assert betti_hochster(ideal, field) == betti_taylor_tor(ideal, field)


def test_cone_pruning_changes_nothing():
    rng = random.Random(20260102)
    for _ in range(25):
        n = rng.randint(2, 5)
        ideal = random_proper_ideal(rng, n, 3)
        for field in (GF2, FieldSpec(3), QQ):
            assert betti_hochster(ideal, field, prune_cones=True) == betti_hochster(
                ideal, field, prune_cones=False
            ), (str(ideal), field.label)


@st.composite
def non_interval_ideals(draw, n_max=8, max_gens=6):
    """Minimalized ideals of random squarefree generators on 1..n, kept
    only when some generator is not an interval, so that ``auto`` would not
    take the interval route."""
    n = draw(st.integers(2, n_max))
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=max_gens))
    ideal = minimalize(n, [Monomial(m) for m in masks])
    assume(ideal.is_proper_nonzero and _intervals(ideal) is None)
    return ideal


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(non_interval_ideals())
def test_exponential_routes_agree_on_random_non_interval_ideals(ideal):
    for field in (GF2, FieldSpec(3), QQ):
        assert betti_hochster(ideal, field) == betti_taylor_tor(ideal, field), (
            str(ideal),
            field.label,
        )


@st.composite
def half_table_ideals(draw):
    """Ideals on n = 1..14 variables, odd and even, drawn to stress the half
    tables of ``betti_hochster``: the generators use only the first s <= n
    variables, so the top ones may lie outside the support, and degree-1
    generators are common, so some variables lie in no face and the face
    index has n below the ideal's, and a W made of them holds no vertex of
    Delta."""
    n = draw(st.integers(1, 14))
    s = draw(st.integers(1, n))
    supports = st.sets(st.integers(0, s - 1), min_size=1, max_size=4)
    chosen = draw(st.lists(supports, min_size=1, max_size=8))
    ideal = minimalize(n, [Monomial(sum(1 << v for v in vs)) for vs in chosen])
    assume(ideal.is_proper_nonzero)
    return ideal


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(half_table_ideals())
@example(ideal_from_text("n=1; (x1)"))  # no lower half at all
@example(ideal_from_text("n=5; (x1, x2, x3*x4)"))  # W = {1, 2} holds no vertex
@example(ideal_from_text("n=13; (x1*x2, x2*x3*x4, x5, x3*x6)"))  # x7..x13 are cone points
@example(ideal_from_text("n=14; (x1*x2*x3, x3*x4, x4*x5*x7, x7*x8, x1*x9*x10, x11*x12, x14)"))
def test_both_routes_agree_where_the_half_tables_are_uneven(ideal):
    """``--method both`` insists that the two exponential routes agree; up
    to n = 10 every W is also visited, without cone pruning, so that every
    entry of both half tables is read."""
    for field in (GF2, FieldSpec(3), QQ):
        got = betti_table(ideal, field, method="both")
        if ideal.n <= 10:
            assert betti_hochster(ideal, field, prune_cones=False) == got, (str(ideal), field.label)


def test_hochster_builds_one_face_index_per_ideal(monkeypatch):
    built = []

    class CountingIndex(FaceIndex):
        def __init__(self, faces):
            built.append(faces)
            super().__init__(faces)

    monkeypatch.setattr(pathideal.betti, "FaceIndex", CountingIndex)
    ideals = [projective_plane_ideal(), make_path_ideal(PathParams(3, 1, 4))]
    calls = 0
    for ideal in ideals:
        for field in (GF2, FieldSpec(3), QQ):
            for prune in (True, False):
                assert betti_hochster(ideal, field, prune_cones=prune) == betti_taylor_tor(ideal, field)
                calls += 1
                assert len(built) == calls, (str(ideal), field.label, prune)
    assert calls == 12


@st.composite
def ideals_with_linear_generators(draw, n_max=8, max_gens=6):
    """Minimalized ideals of random squarefree generators on 1..n, with up
    to two variables among the generators, which then lie in no face of
    the associated complex."""
    n = draw(st.integers(1, n_max))
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=max_gens))
    variables = draw(st.lists(st.integers(0, n - 1), max_size=2))
    return minimalize(n, [Monomial(m) for m in masks + [1 << v for v in variables]])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ideals_with_linear_generators())
@example(ideal_from_text("n=3; (x1, x2, x3)"))  # Delta = {∅}: no vertex at all
@example(ideal_from_text("n=5; (x1, x2*x3, x3*x4, x5)"))  # the top variable in no face
def test_off_stars_and_apexes_without_building_a_star(ideal):
    """The off-star masks built from the generators are every row but the
    closed star by its definition, for each of the n variables, and the
    apexes are the vertices by closed-star size, ties to the lower vertex."""
    faces = _face_masks(ideal.n, ideal.gen_masks())
    index = FaceIndex(faces)
    every = (1 << len(index.faces)) - 1
    in_family = set(faces)
    off_stars = [
        every ^ sum(1 << r for r, f in enumerate(index.faces) if f | 1 << v in in_family)
        for v in range(ideal.n)
    ]
    assert _off_stars(index, ideal.n, ideal.gen_masks()) == off_stars, str(ideal)
    assert index.apexes() == apex_order(faces), str(ideal)
    by_star = sorted(range(index.n), key=lambda v: (-index.star(v).bit_count(), v))
    assert index.apexes() == [v for v in by_star if 1 << v in in_family], str(ideal)


def random_full_support_ideals(seed, count=60, n=10):
    """Seeded random ideals with at least n minimal generators of degree 2-4
    and full support, the draw of pass 0 of the benchmark's random-ideals
    workload (``perfbench/workloads.py``)."""
    rng = random.Random(f"{seed}:0")
    out = []
    while len(out) < count:
        k = rng.randint(n, 2 * n)
        gens = [
            Monomial.from_vars(rng.sample(range(1, n + 1), rng.randint(2, 4)))
            for _ in range(k)
        ]
        ideal = minimalize(n, gens)
        if len(ideal.gens) >= n and ideal.support == (1 << n) - 1:
            out.append(ideal)
    return out


class WalkedColumns(list):
    """A face index's column cache that records, as a row mask, every row
    whose column is read from it."""

    def __init__(self, columns):
        super().__init__(columns)
        self.walked = 0

    def __getitem__(self, r):
        self.walked |= 1 << r
        return super().__getitem__(r)


def test_hochster_builds_each_walked_column_once_and_no_star(monkeypatch):
    """The index builds the column of a row once, the first time
    ``homology`` walks it (reads it from the column cache), and no other;
    every walked row is a cell of a reduced mask; ``betti_hochster`` builds
    no closed star, as its off-star masks come from the generators."""
    indexes = []

    class CountingIndex(FaceIndex):
        def __init__(self, faces):
            self.built_columns, self.built_stars, self.cells = [], [], 0
            super().__init__(faces)
            self._columns = WalkedColumns(self._columns)
            indexes.append(self)

        def _column(self, r):
            self.built_columns.append(r)
            return super()._column(r)

        def _star(self, v):
            self.built_stars.append(v)
            return super()._star(v)

        def homology(self, cells, field):
            self.cells |= cells
            return super().homology(cells, field)

    monkeypatch.setattr(pathideal.betti, "FaceIndex", CountingIndex)
    jobs = [(ideal, GF2) for ideal in random_full_support_ideals(1)]
    jobs += [
        (ideal, field)
        for field in (FieldSpec(3), QQ)
        for ideal in crossval_ideals()
        if ideal.n <= 10
    ]
    walked = every = 0
    for ideal, field in jobs:
        indexes.clear()
        betti_hochster(ideal, field)
        (index,) = indexes
        walked_rows = index._columns.walked
        rows = [r for r in range(len(index.faces)) if walked_rows >> r & 1]
        assert sorted(index.built_columns) == rows, (str(ideal), field.label)
        assert walked_rows & index.cells == walked_rows, (str(ideal), field.label)
        assert index.built_stars == [], (str(ideal), field.label)
        walked += len(rows)
        every += len(index.faces)
    # most rows are never walked, so most columns are never built
    assert 0 < walked < every / 4


def induced_faces(gen_masks, w):
    """The faces of the induced subcomplex on W: the subsets of W that
    contain no generator."""
    faces = []
    f = w
    while True:
        if all(f & g != g for g in gen_masks):
            faces.append(f)
        if not f:
            break
        f = (f - 1) & w
    return faces


def hochster_without_clearing(ideal, field):
    """Hochster's formula summed over every nonempty W, each induced
    subcomplex built from scratch and all its boundary columns ranked."""
    gens = ideal.gen_masks()
    entries = {}
    for w in range(1, 1 << ideal.n):
        j = w.bit_count()
        for d, h in homology_dims(induced_faces(gens, w), field).items():
            if h and j - d - 2 >= 0:
                entries[(j - d - 2, j)] = entries.get((j - d - 2, j), 0) + h
    return BettiTable(entries)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(non_interval_ideals())
def test_hochster_equals_a_clearing_free_oracle(ideal):
    for field in (GF2, FieldSpec(3), QQ):
        expected = hochster_without_clearing(ideal, field)
        for prune in (True, False):
            assert betti_hochster(ideal, field, prune_cones=prune) == expected, (
                str(ideal),
                field.label,
                prune,
            )


@pytest.mark.parametrize("text", [
    "n=3; (x1, x2, x3)",  # Delta = {∅}: no W has an apex
    "n=5; (x1, x2*x3, x3*x4)",  # x1 is no vertex of Delta; W = {1} has no apex
    "n=5; (x1*x2, x2*x3, x1*x3*x4)",  # x5 is in no generator: a cone point
])
def test_hochster_where_some_w_has_no_apex_or_a_cone_apex(text):
    ideal = ideal_from_text(text)
    for field in (GF2, FieldSpec(3), QQ):
        expected = hochster_without_clearing(ideal, field)
        assert betti_taylor_tor(ideal, field) == expected, field.label
        for prune in (True, False):
            assert betti_hochster(ideal, field, prune_cones=prune) == expected, (
                field.label,
                prune,
            )
    if ideal.n == 3:  # the Koszul complex
        assert expected == table({(0, 1): 3, (1, 2): 3, (2, 3): 1})


def relative_cells(faces, order, w):
    """The faces of Delta_W, given the faces of Delta, and the closed star of
    the apex of W in it, the first vertex of ``order`` in W (no star when W
    holds no vertex); the cells of W are the faces outside the star."""
    inside = [f for f in faces if not f & ~w]
    apex = next((v for v in order if w >> v & 1), None)
    return inside, set() if apex is None else closed_star(inside, apex)


def test_clearing_skips_exactly_the_pivot_faces(monkeypatch):
    """For each distinct relative cell set of the visited W (the faces of
    Delta_W outside the apex's closed star) the reducers receive its faces
    but the pivot rows of the relative boundary one size up, and none of a
    size with no such face one size down (the vertices, as the empty face
    is in the star); that is fewer than clearing alone would send.  A W
    whose cell set an earlier W had sends no column; on the third ideal
    such repeats occur."""
    ideals = [
        projective_plane_ideal(),
        make_path_ideal(PathParams(3, 1, 4)),
        random_full_support_ideals(1)[9],
    ]
    for ideal in ideals:
        gens = ideal.gen_masks()
        every_face = induced_faces(gens, (1 << ideal.n) - 1)
        order = apex_order(every_face)
        # with cone pruning the visited W are the unions of generator supports
        visited = {0}
        for g in gens:
            visited |= {w | g for w in visited}
        visited.discard(0)
        # distinct: each distinct cell set, with the faces and star of a W
        # that has it
        distinct = {}
        for w in visited:
            faces, star = relative_cells(every_face, order, w)
            distinct.setdefault(frozenset(faces) - star, (faces, star))
        if ideal is ideals[-1]:
            assert len(distinct) < len(visited), str(ideal)
        for field, name in ((GF2, "pivots_gf2"), (FieldSpec(3), "pivots_gfp"), (QQ, "pivots_qq")):
            expected = skipped = cleared_only = 0
            for faces, star in distinct.values():
                cleared_only += columns_sent(*boundary_ranks(faces, field))
                sizes, ranks = boundary_ranks(faces, field, drop=star)
                expected += columns_sent(sizes, ranks)
                skipped += sum(ranks[2:])
            received = []
            original = getattr(pathideal.fields, name)

            def counting(columns, *args, **kwargs):
                columns = list(columns)
                received.append(len(columns))
                return original(columns, *args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(pathideal.fields, name, counting)
                got = betti_hochster(ideal, field)
            assert got == betti_taylor_tor(ideal, field)
            assert sum(received) == expected, (str(ideal), field.label)
            assert skipped > 0 and sum(received) < cleared_only


def test_hochster_reduces_each_relative_complex_once(monkeypatch):
    """Within one call ``homology`` runs exactly once for each distinct cell
    mask of the visited W, and so less often than there are visited W on
    every random ideal and on the jobs together; the table is the sum over
    every visited W of the homology of its cells."""
    indexes = []

    class CountingIndex(FaceIndex):
        def __init__(self, faces):
            self.reduced = []
            super().__init__(faces)
            indexes.append(self)

        def homology(self, cells, field):
            self.reduced.append(cells)
            return super().homology(cells, field)

    jobs = [(ideal, [GF2]) for ideal in random_full_support_ideals(1)]
    jobs += [(ideal, [FieldSpec(3), QQ]) for ideal in crossval_ideals() if ideal.n <= 10]
    reductions = visits = 0
    for ideal, fields in jobs:
        gens = ideal.gen_masks()
        faces = induced_faces(gens, (1 << ideal.n) - 1)
        order = apex_order(faces)
        plain = FaceIndex(faces)
        # masks[w]: the rows of the cells of W
        masks = {}
        for w in _union_closure(gens):
            faces_w, star = relative_cells(faces, order, w)
            masks[w] = sum(1 << plain.row[f] for f in faces_w if f not in star)
        if fields == [GF2]:
            assert len(set(masks.values())) < len(masks), str(ideal)
        for field in fields:
            entries = {}
            for w, cells in masks.items():
                j = w.bit_count()
                for g, h in enumerate(plain.homology(cells, field)):
                    if h and j - g - 1 >= 0:
                        entries[(j - g - 1, j)] = entries.get((j - g - 1, j), 0) + h
            indexes.clear()
            with monkeypatch.context() as patch:
                patch.setattr(pathideal.betti, "FaceIndex", CountingIndex)
                got = betti_hochster(ideal, field)
            assert got == BettiTable(entries), (str(ideal), field.label)
            (index,) = indexes
            assert sorted(index.reduced) == sorted(set(masks.values())), (str(ideal), field.label)
            reductions += len(index.reduced)
            visits += len(masks)
    assert reductions < visits / 2


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(non_interval_ideals())
@example(random_full_support_ideals(1)[9])  # 140 visited W, 34 distinct cell sets
def test_visited_w_with_equal_cells_have_equal_homology(ideal):
    """The claims that make the per-mask counts of ``betti_hochster`` exact
    and their repeats common, on the reduced homology of Delta_W by the
    oracle: two visited W with the same relative cells have the same
    homology, and taking from W a vertex other than its apex that lies in
    no cell leaves the cells and the homology unchanged."""
    gens = ideal.gen_masks()
    every_face = induced_faces(gens, (1 << ideal.n) - 1)
    order = apex_order(every_face)

    def cells_of(w):
        faces, star = relative_cells(every_face, order, w)
        return frozenset(faces) - star

    def homology_of(w, field):
        return {d: h for d, h in homology_dims(induced_faces(gens, w), field).items() if h}

    for field in (GF2, QQ):
        by_cells = {}
        for w in _union_closure(gens):
            cells = cells_of(w)
            homology = homology_of(w, field)
            assert by_cells.setdefault(cells, homology) == homology, (str(ideal), bin(w))
            apex = next((v for v in order if w >> v & 1), None)
            in_cells = 0
            for f in cells:
                in_cells |= f
            for u in range(ideal.n):
                if not (w & ~in_cells) >> u & 1 or u == apex:
                    continue
                smaller = w ^ 1 << u
                assert cells_of(smaller) == cells, (str(ideal), bin(w), u)
                assert homology_of(smaller, field) == homology, (str(ideal), bin(w), u)


def test_generator_row_matches_degree_histogram():
    rng = random.Random(20260103)
    for _ in range(30):
        ideal = random_proper_ideal(rng, rng.randint(2, 6), 4)
        row = {
            j: b for (i, j), b in betti_taylor_tor(ideal, GF2).entries.items() if i == 0
        }
        assert row == ideal.degree_histogram()


def test_a_table_whose_generator_row_is_wrong_raises(monkeypatch):
    ideal = ideal_from_text("n=3; (x1*x2, x2*x3)")
    assert betti_interval(ideal) == table({(0, 2): 2, (1, 3): 1})
    # the interval memo hands back the table with one generator a degree up
    moved = {(0, 2): 1, (0, 3): 1, (1, 3): 1}
    monkeypatch.setattr(pathideal.betti._INTERVAL_MEMO, "table", lambda key: moved)
    message = "column 0 of the table {2: 1, 3: 1} does not match generator degrees {2: 2}"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        betti_interval(ideal)


def test_routes_that_disagree_raise_under_both(monkeypatch):
    ideal = ideal_from_text("n=3; (x1*x2, x2*x3)")
    via_homology = betti_hochster(ideal, GF2)
    # the strand route's table with its one syzygy a degree up
    moved = table({(0, 2): 2, (1, 4): 1})
    monkeypatch.setattr(pathideal.betti, "betti_taylor_tor", lambda *args, **kwargs: moved)
    message = (f"the two Betti routes disagree on {ideal} over {GF2}: "
               f"{via_homology.digest()} vs {moved.digest()}")
    with pytest.raises(RuntimeError, match=re.escape(message)):
        betti_table(ideal, GF2, "both")


def projective_plane_ideal():
    """Generators: complements of the projective-plane triangles on 6
    vertices; the full-support column of its table sees their 2-torsion."""
    triangles = [
        (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
        (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
    ]
    full = (1 << 6) - 1
    return minimalize(6, [Monomial(full & ~Monomial.from_vars(t).mask) for t in triangles])


def test_torsion_ideal_distinguishes_fields():
    ideal = projective_plane_ideal()
    t2 = betti_taylor_tor(ideal, GF2)
    tq = betti_taylor_tor(ideal, QQ)
    assert t2 != tq  # characteristic matters in general...
    path = make_path_ideal(PathParams(3, 2, 4))
    assert betti_taylor_tor(path, GF2) == betti_taylor_tor(path, QQ)  # ...not here
    for field in (GF2, QQ):
        assert betti_hochster(ideal, field) == betti_taylor_tor(ideal, field)


def test_dispatcher_and_caps(monkeypatch):
    ideal = make_path_ideal(PathParams(2, 1, 3))
    auto = betti_table(ideal, GF2, "auto")
    assert auto == betti_table(ideal, GF2, "both")
    with pytest.raises(CapExceeded):
        betti_hochster(make_path_ideal(PathParams(2, 1, 17)), GF2)
    # k = 20 is in reach: 147,456 of the 2^20 subsets are admissible
    full = make_full_path_ideal(2, 21)
    assert betti_taylor_tor(full, GF2) == betti_interval(full)
    # on (3, 1, 20) all 2^20 subsets are admissible (the Taylor complex is
    # minimal there), and the search refuses before any rank
    ranks = []
    monkeypatch.setattr(pathideal.betti, "rank_sparse", lambda *args: ranks.append(args))
    with pytest.raises(CapExceeded, match="cell count exceeds cap 262144"):
        betti_taylor_tor(make_path_ideal(PathParams(3, 1, 20)), GF2)
    assert ranks == []
    monkeypatch.undo()
    # auto falls back on the homology route beyond the cell cap
    triangle = ideal_from_text("n=5; (x1*x2, x2*x3, x1*x3)")  # 6 cells, n > k
    assert betti_table(triangle, QQ, "auto", cap_cells=5) == betti_hochster(triangle, QQ)
    with pytest.raises(CapExceeded, match="n=5 exceeds cap 4 and k=3: cell count exceeds cap 5"):
        betti_table(triangle, QQ, "auto", cap_n=4, cap_cells=5)
    with pytest.raises(ValueError):
        betti_table(ideal, GF2, "magic")
    with pytest.raises(ValueError):
        betti_table(MonomialIdeal(3, ()), GF2)


# ---------------------------------------------------------------------------
# the interval route
# ---------------------------------------------------------------------------


@st.composite
def interval_ideals(draw, n_max=12, max_width=5):
    """Ideals generated by intervals of 1..n, minimalized: at each start a,
    either no interval or one of a random width up to ``max_width``."""
    n = draw(st.integers(1, n_max))
    widths = draw(st.lists(st.integers(0, max_width), min_size=n, max_size=n))
    gens = [
        Monomial.from_vars(range(a, min(n, a + w - 1) + 1))
        for a, w in enumerate(widths, start=1)
        if w
    ]
    ideal = minimalize(n, gens)
    assume(ideal.is_proper_nonzero)
    return ideal


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(interval_ideals())
def test_interval_route_equals_both_exponential_routes(ideal):
    via_intervals = betti_interval(ideal)
    for field in (GF2, FieldSpec(3), QQ):
        assert betti_taylor_tor(ideal, field) == via_intervals, (str(ideal), field.label)
        assert betti_hochster(ideal, field) == via_intervals, (str(ideal), field.label)


def test_auto_takes_interval_route_beyond_the_exponential_caps():
    params = PathParams(3, 1, 60)  # n = 121, k = 60: both exponential routes refuse
    ideal = make_path_ideal(params)
    with pytest.raises(CapExceeded):
        betti_table(ideal, GF2, "both")
    table = betti_table(ideal, GF2, "auto")
    assert table == betti_table(ideal, QQ, "interval")
    formula = formula_result(params)
    assert invariants_of(table).pd == formula.pd
    assert invariants_of(table).reg == formula.reg
    assert depth_of(ideal, table).depth_I == formula.depth_I


def test_interval_memo_eviction_keeps_every_table(monkeypatch):
    """Past its ``LIMIT`` the memo empties itself before a call; the tables
    it computes afterwards are those of the default limit."""
    ideals = [
        make_path_ideal(PathParams(m, l, k))
        for m, l in ((2, 1), (3, 2), (4, 2), (5, 3)) for k in range(1, 41)
    ]
    rng = random.Random(23)
    while len(ideals) < 200:
        n = rng.randint(1, 24)
        gens = [
            Monomial.from_vars(range(a, min(n, a + w - 1) + 1))
            for a in range(1, n + 1) if (w := rng.randint(0, 5))
        ]
        ideal = minimalize(n, gens)
        if ideal.is_proper_nonzero:
            ideals.append(ideal)
    expected = [betti_interval(ideal) for ideal in ideals]
    memo = pathideal.betti._IntervalMemo()
    evictions = []
    clear = memo.clear
    monkeypatch.setattr(memo, "clear", lambda: evictions.append(memo.entries) or clear())
    monkeypatch.setattr(memo, "LIMIT", 64)
    monkeypatch.setattr(pathideal.betti, "_INTERVAL_MEMO", memo)
    for ideal, table in zip(ideals, expected):
        assert betti_interval(ideal) == table, str(ideal)
        if len(ideal.gens) <= 18:
            assert betti_taylor_tor(ideal, GF2) == table, str(ideal)
    assert len(evictions) > 10 and all(entries > 64 for entries in evictions)


def test_interval_route_rejects_other_ideals():
    with pytest.raises(ValueError):
        betti_interval(ideal_from_text("n=3; (x1*x3)"))
    with pytest.raises(ValueError):
        betti_table(ideal_from_text("n=3; (x1*x2, x1*x3)"), GF2, "interval")
    # auto still serves ideals that are not interval ideals
    triangle = ideal_from_text("n=3; (x1*x2, x2*x3, x1*x3)")
    assert betti_table(triangle, GF2) == betti_table(triangle, GF2, "both")


def test_golden_text_format():
    got = betti_table(make_path_ideal(PathParams(3, 1, 2)), GF2)
    assert got.to_text() == "0 3 2\n1 5 1\n"
    assert got.digest() == "0,3:2;1,5:1"


def test_table_validation():
    with pytest.raises(ValueError):
        table({(0, 2): -1})
    with pytest.raises(ValueError):
        table({(-1, 2): 1})
    with pytest.raises(ValueError):
        table({(0, 2): 1, (1, 2): 1})  # j below i + min generator degree
    assert table({(0, 2): 1, (1, 0): 0}).entries == {(0, 2): 1}


def test_taylor_strand_complexes_compose_to_zero():
    rng = random.Random(20260104)
    ideals = [
        make_path_ideal(PathParams(2, 1, 4)),
        make_path_ideal(PathParams(3, 2, 4)),
        make_full_path_ideal(3, 7),
    ]
    for _ in range(15):
        ideals.append(random_proper_ideal(rng, rng.randint(2, 6), 4))
    for ideal in ideals:
        for sizes, boundaries in taylor_strand_complexes(ideal).values():
            assert composition_is_zero(sizes, boundaries)


def crossval_ideals():
    """The path ideals with m <= 5, n <= 12 and k <= 10, and the all-paths
    ideals for m <= 4 with at most 10 generators."""
    ideals = set()
    for m in range(2, 6):
        for l in range(1, m):
            k = 1
            while k <= 10 and k * (m - l) + l <= 12:
                ideals.add(make_path_ideal(PathParams(m, l, k)))
                k += 1
    ideals |= {make_full_path_ideal(m, n) for m in range(2, 5) for n in range(m, 13) if n - m < 10}
    return sorted(ideals, key=lambda ideal: (ideal.n, ideal.gen_masks()))


def test_taylor_strand_complexes_match_the_definition():
    # the cells are the admissible sets found by checking every subset
    # literally, under the documented order, and the strands are the
    # definition's, restricted to those cells
    rng = random.Random(20260105)
    ideals = crossval_ideals() + [projective_plane_ideal(), make_path_ideal(PathParams(5, 3, 12))]
    ideals += [random_proper_ideal(rng, rng.randint(2, 8), 8) for _ in range(40)]
    for ideal in ideals:
        order = documented_order(ideal.gen_masks())
        assert lyubeznik_order(ideal.gen_masks()) == order, str(ideal)
        admissible = admissible_sets_by_definition(order)
        assert sorted(lyubeznik_cells(order)) == admissible, str(ideal)
        strands = taylor_strand_complexes(ideal)
        assert strands == taylor_strands_by_definition(ideal, order, admissible), str(ideal)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(non_interval_ideals(max_gens=8))
@example(projective_plane_ideal())
def test_strand_tables_equal_the_homology_of_the_taylor_complex(ideal):
    # the Lyubeznik strands and all 2^k Taylor cells have the same homology
    strands = taylor_strands_by_definition(ideal)
    for field in (GF2, FieldSpec(3), QQ):
        got = betti_taylor_tor(ideal, field)
        assert got.entries == strand_table(strands, field), (str(ideal), field.label)


def test_pinned_admissible_cell_counts():
    large_overlap = lyubeznik_order(make_path_ideal(PathParams(5, 3, 14)).gen_masks())
    assert len(lyubeznik_cells(large_overlap)) == 4352  # of 2^14 = 16,384
    # the count passes a cap only above it, the empty set counted
    assert len(lyubeznik_cells(large_overlap, cap=4352)) == 4352
    with pytest.raises(CapExceeded):
        lyubeznik_cells(large_overlap, cap=4351)
    small_overlap = lyubeznik_order(make_path_ideal(PathParams(3, 1, 14)).gen_masks())
    assert len(lyubeznik_cells(small_overlap)) == 1 << 14


def test_face_masks_are_the_subsets_without_a_generator():
    rng = random.Random(20260106)
    ideals = crossval_ideals() + [projective_plane_ideal()]
    ideals += [random_proper_ideal(rng, rng.randint(2, 9), 8) for _ in range(60)]
    for ideal in ideals:
        gens = ideal.gen_masks()
        expected = [f for f in range(1 << ideal.n) if all(f & g != g for g in gens)]
        assert _face_masks(ideal.n, gens) == expected, str(ideal)


def test_membership_sanity_of_sr_faces():
    # faces of the complex are exactly the non-members among squarefree monomials
    ideal = make_path_ideal(PathParams(3, 2, 3))
    cx = stanley_reisner_complex(ideal)
    faces = cx.faces()
    for w in range(1 << ideal.n):
        assert (w in faces) == (not contains(ideal, Monomial(w)))
