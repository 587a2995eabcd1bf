"""Betti tables: spec examples, the two-route equivalence, field behaviour."""

import random

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
    betti_hochster,
    betti_interval,
    betti_table,
    betti_taylor_tor,
    depth_of,
    invariants_of,
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
    apex_order,
    boundary_ranks,
    closed_star,
    columns_sent,
    composition_is_zero,
    homology_dims,
    stanley_reisner_complex,
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


def test_hochster_builds_each_walked_column_once_and_no_star(monkeypatch):
    """The index builds the column of a row once, the first time ``pivots``
    walks it, and no other; ``betti_hochster`` builds no closed star, as
    its off-star masks come from the generators."""
    indexes = []

    class CountingIndex(FaceIndex):
        def __init__(self, faces):
            self.built_columns, self.built_stars, self.walked = [], [], 0
            super().__init__(faces)
            indexes.append(self)

        def _column(self, r):
            self.built_columns.append(r)
            return super()._column(r)

        def _star(self, v):
            self.built_stars.append(v)
            return super()._star(v)

        def pivots(self, rows, below, field):
            if rows and below:
                self.walked |= rows
            return super().pivots(rows, below, field)

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
        rows = [r for r in range(len(index.faces)) if index.walked >> r & 1]
        assert sorted(index.built_columns) == rows, (str(ideal), field.label)
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


def test_clearing_skips_exactly_the_pivot_faces(monkeypatch):
    """For each visited W the reducers receive the faces of Delta_W outside
    the apex's closed star but the pivot rows of the relative boundary one
    size up, and none of a size with no such face one size down (the
    vertices, as the empty face is in the star); that is fewer than clearing
    alone would send."""
    for ideal in (projective_plane_ideal(), make_path_ideal(PathParams(3, 1, 4))):
        gens = ideal.gen_masks()
        order = apex_order(induced_faces(gens, (1 << ideal.n) - 1))
        # with cone pruning the visited W are the unions of generator supports
        visited = {0}
        for g in gens:
            visited |= {w | g for w in visited}
        visited.discard(0)
        for field, name in ((GF2, "pivots_gf2"), (FieldSpec(3), "pivots_gfp"), (QQ, "pivots_qq")):
            expected = skipped = cleared_only = 0
            for w in visited:
                faces = induced_faces(gens, w)
                cleared_only += columns_sent(*boundary_ranks(faces, field))
                apex = next(v for v in order if w >> v & 1)
                sizes, ranks = boundary_ranks(faces, field, drop=closed_star(faces, apex))
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


def test_generator_row_matches_degree_histogram():
    rng = random.Random(20260103)
    for _ in range(30):
        ideal = random_proper_ideal(rng, rng.randint(2, 6), 4)
        row = {
            j: b for (i, j), b in betti_taylor_tor(ideal, GF2).entries.items() if i == 0
        }
        assert row == ideal.degree_histogram()


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


def test_dispatcher_and_caps():
    ideal = make_path_ideal(PathParams(2, 1, 3))
    auto = betti_table(ideal, GF2, "auto")
    assert auto == betti_table(ideal, GF2, "both")
    with pytest.raises(CapExceeded):
        betti_hochster(make_path_ideal(PathParams(2, 1, 17)), GF2)
    with pytest.raises(CapExceeded):
        betti_taylor_tor(make_full_path_ideal(2, 21), GF2, cap=18)
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
        for chain in taylor_strand_complexes(ideal).values():
            assert composition_is_zero(chain)


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
    rng = random.Random(20260105)
    ideals = crossval_ideals() + [projective_plane_ideal()]
    ideals += [random_proper_ideal(rng, rng.randint(2, 8), 8) for _ in range(40)]
    for ideal in ideals:
        strands = taylor_strand_complexes(ideal)
        built = {j: (chain.sizes, chain.boundaries) for j, chain in strands.items()}
        assert built == taylor_strands_by_definition(ideal), str(ideal)


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
