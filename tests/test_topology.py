"""Clutters, covers, shellings, minors, free vertices, sequential CM."""

import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pathideal.fields
from pathideal.caps import CapExceeded
from pathideal import topology
from pathideal.complexes import FaceIndex, SimplicialComplex
from pathideal.fields import GF2, QQ, FieldSpec
from pathideal.monomials import Monomial, ideal_from_text, iter_bits, minimalize
from pathideal.pathfamily import PathParams, make_path_ideal
from pathideal.topology import (
    Clutter,
    apply_assignment,
    clutter_from_text,
    clutter_of,
    cover_complex,
    find_shelling,
    free_vertex_property,
    has_free_vertex,
    is_interval_clutter,
    is_sequentially_cm,
    is_shelling,
    minimal_vertex_covers,
)

from oracles import (
    apex_order,
    boundary_ranks,
    closed_star,
    columns_sent,
    homology_dims,
    minors,
    shells_by_definition,
    stanley_reisner_complex,
)


def masks_to_sets(masks):
    return [set(iter_bits(m)) for m in masks]


def clutter(n, *edges):
    out = []
    for e in edges:
        mask = 0
        for v in e:
            mask |= 1 << (v - 1)
        out.append(mask)
    return Clutter.from_edges(n, out)


PATH_L4 = clutter(4, [1, 2], [2, 3], [3, 4])
TRIANGLE = clutter(3, [1, 2], [2, 3], [1, 3])
C312 = clutter_of(make_path_ideal(PathParams(3, 1, 2)))


# ---------------------------------------------------------------------------
# construction and covers
# ---------------------------------------------------------------------------


def test_clutter_of_examples():
    assert masks_to_sets(C312.edges) == [{1, 2, 3}, {3, 4, 5}]
    assert masks_to_sets(clutter_of(ideal_from_text("n=4; (x1*x2, x2*x3, x3*x4)")).edges) == [
        {1, 2}, {2, 3}, {3, 4}
    ]
    assert masks_to_sets(clutter_of(ideal_from_text("n=4; (x1*x2*x3*x4)")).edges) == [
        {1, 2, 3, 4}
    ]


def test_clutter_constructor_rejects_non_canonical():
    with pytest.raises(ValueError, match="antichain"):
        Clutter(3, (0b001, 0b011))
    with pytest.raises(ValueError, match="antichain"):
        Clutter(3, (0b111, 0b010))  # the smaller edge sorts last
    with pytest.raises(ValueError, match="canonically sorted"):
        Clutter(3, (0b110, 0b011))
    with pytest.raises(ValueError, match="empty or outside"):
        Clutter(2, (0b100,))
    assert Clutter(4, (0b0011, 0b0110, 0b1100)).edges == (0b0011, 0b0110, 0b1100)


def test_clutter_text_roundtrip():
    text = "n=5; {1,2,3},{3,4,5}"
    assert clutter_from_text(text) == C312
    assert str(C312) == text


def test_minimal_vertex_covers_examples():
    got = masks_to_sets(minimal_vertex_covers(PATH_L4))
    assert sorted(map(sorted, got)) == [[1, 3], [2, 3], [2, 4]]
    got = masks_to_sets(minimal_vertex_covers(clutter(2, [1, 2])))
    assert sorted(map(sorted, got)) == [[1], [2]]
    got = masks_to_sets(minimal_vertex_covers(C312))
    assert sorted(map(sorted, got)) == [[1, 4], [1, 5], [2, 4], [2, 5], [3]]


def test_minimal_covers_against_brute_force():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 7)
        edges = [Monomial(rng.randint(1, (1 << n) - 1)) for _ in range(rng.randint(1, 4))]
        c = Clutter.from_edges(n, [e.mask for e in edges])
        covers = [
            a
            for a in range(1 << n)
            if all(a & e for e in c.edges)
        ]
        expected = sorted(
            a for a in covers if not any(b != a and b & a == b for b in covers)
        )
        assert sorted(minimal_vertex_covers(c)) == expected


def covers_by_definition(c):
    """Every transversal by a 2^n scan, kept when inclusion-minimal.  Transversals
    are closed upwards, so a transversal is minimal iff dropping any one of its
    vertices leaves a set that is not one."""
    transversals = {a for a in range(1 << c.n) if all(a & e for e in c.edges)}
    minimal = [a for a in transversals
               if not any(a & ~(1 << (v - 1)) in transversals for v in iter_bits(a))]
    return tuple(sorted(minimal, key=lambda a: tuple(iter_bits(a))))


@st.composite
def random_clutters(draw, n_max=10, max_edges=8):
    n = draw(st.integers(1, n_max))
    edges = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=max_edges))
    return Clutter.from_edges(n, edges)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(random_clutters())
def test_minimal_covers_match_definition(c):
    assert minimal_vertex_covers(c) == covers_by_definition(c), str(c)


def test_length_two_path_covers_follow_padovan():
    counts = [len(minimal_vertex_covers(clutter_of(make_path_ideal(PathParams(2, 1, k)))))
              for k in range(1, 16)]
    assert counts == [2, 2, 3, 4, 5, 7, 9, 12, 16, 21, 28, 37, 49, 65, 86]
    assert all(counts[i] == counts[i - 2] + counts[i - 3] for i in range(3, len(counts)))
    # n = 17 is above the cover cap unless the caller raises it
    beyond = clutter_of(make_path_ideal(PathParams(2, 1, 16)))
    with pytest.raises(CapExceeded):
        minimal_vertex_covers(beyond)
    assert len(minimal_vertex_covers(beyond, cap=17)) == 65 + 49


def path_family_clutters(n_max):
    """The clutter of every path ideal (m, l, k) with n = k(m-l)+l <= n_max."""
    out = []
    for m in range(2, n_max + 1):
        for l in range(1, m):
            k = 1
            while k * (m - l) + l <= n_max:
                out.append(clutter_of(make_path_ideal(PathParams(m, l, k))))
                k += 1
    return out


def test_path_family_covers_are_minimal_and_distinct():
    clutters = path_family_clutters(16)
    assert max(c.n for c in clutters) == 16
    for c in clutters:
        covers = minimal_vertex_covers(c)
        assert len(set(covers)) == len(covers), str(c)
        for a in covers:
            assert all(a & e for e in c.edges), (str(c), a)
            for v in iter_bits(a):
                assert any(a & e == 1 << (v - 1) for e in c.edges), (str(c), a, v)


def test_cover_complex_examples():
    got = cover_complex(PATH_L4)
    assert masks_to_sets(got.facets) == [{1, 3}, {1, 4}, {2, 4}]
    got = cover_complex(clutter(2, [1, 2]))
    assert masks_to_sets(got.facets) == [{1}, {2}]
    got = cover_complex(C312)
    assert sorted(map(sorted, masks_to_sets(got.facets))) == [
        [1, 2, 4, 5], [1, 3, 4], [1, 3, 5], [2, 3, 4], [2, 3, 5]
    ]


def test_cover_complex_equals_sr_complex():
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randint(2, 6)
        ideal = minimalize(
            n, [Monomial(rng.randint(1, (1 << n) - 1)) for _ in range(rng.randint(1, 4))]
        )
        if not ideal.is_proper_nonzero:
            continue
        assert cover_complex(clutter_of(ideal)) == stanley_reisner_complex(ideal)


# ---------------------------------------------------------------------------
# shellings
# ---------------------------------------------------------------------------


def test_find_shelling_examples():
    order = find_shelling(SimplicialComplex.from_faces(4, [0b0101, 0b1001, 0b1010]))
    assert masks_to_sets(order) == [{1, 3}, {1, 4}, {2, 4}]
    points = SimplicialComplex.from_faces(3, [0b001, 0b010, 0b100])
    assert find_shelling(points) is not None
    disjoint = SimplicialComplex.from_faces(4, [0b0011, 0b1100])
    assert find_shelling(disjoint) is None


def test_returned_orders_pass_definitional_recheck():
    rng = random.Random(8)
    found = 0
    for _ in range(60):
        n = rng.randint(2, 6)
        facets = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 5))]
        cx = SimplicialComplex.from_faces(n, facets)
        order = find_shelling(cx)
        if order is not None:
            assert is_shelling(order)
            assert sorted(order) == sorted(cx.facets)
            found += 1
    assert found > 10


def test_is_shelling_rejects_wrong_order():
    assert not is_shelling([0b0011, 0b1100])


def test_shelling_cap():
    # the cap bounds only the search: 13 points shell in the canonical order,
    # 13 disjoint edges do not, and the search on them is refused
    points = SimplicialComplex.from_faces(13, [1 << i for i in range(13)])
    assert find_shelling(points, cap=12) == points.facets
    edges = SimplicialComplex.from_faces(26, [0b11 << 2 * i for i in range(13)])
    with pytest.raises(CapExceeded):
        find_shelling(edges, cap=12)


def test_a_search_result_that_does_not_shell_raises(monkeypatch):
    cx = cover_complex(PATH_L4)
    order = list(find_shelling(cx))
    # the check refuses every order, the canonical one first, so the search
    # runs, finds the same order and must not return it
    monkeypatch.setattr(topology, "is_shelling", lambda facets: False)
    message = f"the search returned a non-shelling order {order}"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        find_shelling(cx)


@st.composite
def random_complexes(draw, n_max=7, max_facets=8):
    n = draw(st.integers(1, n_max))
    facets = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=max_facets))
    return SimplicialComplex.from_faces(n, facets)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(random_complexes())
def test_find_shelling_returns_the_canonical_order_when_it_shells(cx):
    canonical = sorted(cx.facets, key=lambda f: (-f.bit_count(), tuple(iter_bits(f))))
    order = find_shelling(cx)
    if is_shelling(canonical):
        assert order == tuple(canonical)
    elif order is not None:
        assert is_shelling(order) and sorted(order) == sorted(cx.facets)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(random_complexes(), st.randoms(use_true_random=False))
def test_shelling_search_and_check_agree_with_the_definition(cx, rng):
    # the check and the search share one test of whether a facet may follow
    # the ones placed, so both are held against the definition here
    canonical = sorted(cx.facets, key=lambda f: (-f.bit_count(), tuple(iter_bits(f))))
    shuffled = list(cx.facets)
    rng.shuffle(shuffled)
    for order in (canonical, shuffled):
        assert is_shelling(order) == shells_by_definition(order), order
    found = find_shelling(cx)
    assert (found == tuple(canonical)) == is_shelling(canonical)
    if found is not None:
        assert is_shelling(found) and shells_by_definition(found)
        assert sorted(found) == sorted(cx.facets)
    elif len(cx.facets) <= 5:
        assert not any(shells_by_definition(p) for p in itertools.permutations(cx.facets))


# ---------------------------------------------------------------------------
# minors, free vertices
# ---------------------------------------------------------------------------


def test_apply_assignment_examples():
    got = apply_assignment(C312, zeros=0, ones=0b00100)
    assert masks_to_sets(got.edges) == [{1, 2}, {4, 5}]
    got = apply_assignment(C312, zeros=0b00001, ones=0)
    assert masks_to_sets(got.edges) == [{3, 4, 5}]
    got = apply_assignment(C312, zeros=0, ones=0b00011)
    assert masks_to_sets(got.edges) == [{3}]
    assert apply_assignment(C312, zeros=0b00100, ones=0b00011) is None  # unit
    assert apply_assignment(clutter(2, [1, 2]), zeros=0b01, ones=0) is None  # zero


def test_minors_include_identity_and_dedupe():
    seen = list(minors(C312))
    assert seen[0][1] == C312
    edge_families = [m.edges for _, m in seen]
    assert len(edge_families) == len(set(edge_families))


def test_minors_match_assignment_enumeration():
    for c in [C312, PATH_L4, TRIANGLE, clutter(5, [1, 2], [2, 3, 4], [1, 5])]:
        support = list(iter_bits(c.support))
        expected, seen = [], set()
        for choice in itertools.product((None, 0, 1), repeat=len(support)):
            zeros = sum(1 << (v - 1) for v, x in zip(support, choice) if x == 0)
            ones = sum(1 << (v - 1) for v, x in zip(support, choice) if x == 1)
            minor = apply_assignment(c, zeros, ones)
            if minor is not None and minor.edges not in seen:
                seen.add(minor.edges)
                expected.append(((zeros, ones), minor))
        assert list(minors(c)) == expected


def test_has_free_vertex_examples():
    assert has_free_vertex(C312) == 1
    assert has_free_vertex(TRIANGLE) is None
    assert has_free_vertex(clutter(4, [2, 3])) == 2
    assert has_free_vertex(clutter(5, [1, 2], [1, 3], [2, 3], [3, 5])) == 5


def test_free_vertex_property_examples():
    ok, counterexample = free_vertex_property(C312)
    assert ok and counterexample is None
    ok, witness = free_vertex_property(TRIANGLE)
    assert not ok and witness == ((0, 0), TRIANGLE)
    # the free vertex 4 is set to 0, leaving the triangle
    ok, witness = free_vertex_property(clutter(4, [1, 2], [1, 3], [2, 3], [3, 4]))
    assert not ok and witness == ((0b1000, 0), clutter(4, [1, 2], [1, 3], [2, 3]))
    ok, _ = free_vertex_property(PATH_L4)
    assert ok


def free_vertices_by_count(c):
    """The vertices lying in exactly one edge, by counting."""
    counts = {}
    for e in c.edges:
        for v in iter_bits(e):
            counts[v] = counts.get(v, 0) + 1
    return sorted(v for v, k in counts.items() if k == 1)


def free_vertex_property_by_walk(c):
    """Whether every minor of the assignment walk has a free vertex."""
    return all(free_vertices_by_count(minor) for _, minor in minors(c))


def check_free_vertex_witness(c):
    """The verdict of ``free_vertex_property`` is the walk's, and a failure's
    witness assignment re-derives a minor with no free vertex; returns the
    witness."""
    ok, witness = free_vertex_property(c)
    assert ok == free_vertex_property_by_walk(c), str(c)
    if ok:
        assert witness is None
        return None
    (zeros, ones), minor = witness
    assert zeros & ones == 0
    assert apply_assignment(c, zeros, ones) == minor, str(c)
    assert not free_vertices_by_count(minor), str(c)
    return witness


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(random_clutters(n_max=8, max_edges=7))
def test_free_vertex_property_matches_assignment_walk(c):
    check_free_vertex_witness(c)
    free = free_vertices_by_count(c)
    assert has_free_vertex(c) == (free[0] if free else None)


def test_free_vertex_property_fails_on_random_clutters():
    # the property test above must meet failures, with counterexamples other
    # than the clutter itself
    rng = random.Random(14)
    proper_minor = 0
    for _ in range(300):
        n = rng.randint(3, 7)
        c = Clutter.from_edges(n, [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(2, 6))])
        witness = check_free_vertex_witness(c)
        proper_minor += witness is not None and witness[1] != c
    assert proper_minor > 5


def union_with_twins(rng):
    """A disjoint union of 1-3 random clutters on 1-4 vertices each, 6 at
    most, with edges of 2 or more vertices where a piece has them; then up
    to 8 vertices in all, each new one a twin of an old one (in the same
    edges)."""
    edges, n = [], 0
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, 4)
        if n and n + size > 6:
            break
        choices = [e for e in range(1, 1 << size) if e.bit_count() >= min(2, size)]
        edges += [rng.choice(choices) << n for _ in range(rng.randint(1, 6))]
        n += size
    for v in [rng.randrange(n) for _ in range(rng.randint(0, 8 - n))]:
        edges = [e | 1 << n if e >> v & 1 else e for e in edges]
        n += 1
    return Clutter.from_edges(n, edges)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False).map(union_with_twins))
# a triangle beside an edge: the failing minor is one component
@example(clutter(5, [1, 2], [2, 3], [1, 3], [4, 5]))
# the same with vertex 1 doubled (6) and the edge's vertices twins
@example(clutter(6, [1, 2, 6], [2, 3], [1, 3, 6], [4, 5]))
# the triangle second, after a path
@example(clutter(7, [1, 2], [2, 3], [4, 5], [5, 6], [4, 6], [6, 7]))
def test_free_vertex_property_on_unions_with_twins(c):
    check_free_vertex_witness(c)


def test_unions_with_twins_meet_split_and_twin_failures():
    # the property test above must meet failures whose minor keeps one of
    # several components, and failures of clutters with twins
    rng = random.Random(20)
    split = twinned = 0
    for _ in range(200):
        c = union_with_twins(rng)
        witness = check_free_vertex_witness(c)
        if witness is not None:
            pieces = topology._components(list(c.edges))
            split += len(pieces) > 1 and len(topology._components(list(witness[1].edges))) == 1
            twinned += len(topology._reduced(list(c.edges))[1]) < c.support.bit_count()
    assert split > 5 and twinned > 5


def test_free_vertex_search_is_linear_on_the_length_two_path(monkeypatch):
    # counts the pieces the search visits, not time; the minors up to
    # relabelling number 23, 115 and 559 at n = 6, 9 and 12
    reduced = topology._reduced
    keys = set()

    def counting(part):
        out = reduced(part)
        keys.add(out[0])
        return out

    monkeypatch.setattr(topology, "_reduced", counting)
    for k in range(2, 12):
        keys.clear()
        c = clutter_of(make_path_ideal(PathParams(2, 1, k)))
        assert free_vertex_property(c) == (True, None)
        assert len(keys) <= k + 1, (k, len(keys))


def test_passing_free_vertex_property_walks_no_assignments(monkeypatch):
    # the search works on edge tuples: a passing clutter builds no Clutter,
    # a failing one only its witness minor
    built = []
    check = Clutter.__post_init__
    monkeypatch.setattr(Clutter, "__post_init__", lambda self: built.append(self) or check(self))
    for c in [C312, PATH_L4, clutter(4, [1, 2], [3, 4])] + path_family_clutters(9):
        del built[:]
        assert free_vertex_property(c) == (True, None), str(c)
        assert built == []
    for c in [TRIANGLE, clutter(5, [1, 2], [2, 3], [3, 1], [3, 4], [4, 5])]:
        del built[:]
        ok, (_, minor) = free_vertex_property(c)
        assert not ok and built == [minor]


def test_free_vertex_witness_is_checked(monkeypatch):
    # the check is a RuntimeError, so it survives python -O
    monkeypatch.setattr(topology, "_minor_without_free_vertex", lambda c: (0, 0))
    with pytest.raises(RuntimeError, match="names no counterexample"):
        free_vertex_property(C312)


def test_free_vertex_property_checks_the_cap():
    with pytest.raises(CapExceeded):
        free_vertex_property(clutter(13, [1, 2]))
    assert free_vertex_property(clutter(13, [1, 2]), cap=13) == (True, None)


def test_free_vertex_property_closed_under_minors():
    for base in [C312, PATH_L4, clutter(4, [1, 2], [3, 4])]:
        ok, _ = free_vertex_property(base)
        if ok:
            for _, minor in minors(base):
                assert free_vertex_property(minor)[0]


def interval_clutters(n):
    """Every nonempty antichain of intervals [a, b] of 1..n: starts and ends
    both strictly increase."""
    out = []
    stack = [()]
    while stack:
        chain = stack.pop()
        if chain:
            out.append(clutter(n, *[range(a, b + 1) for a, b in chain]))
        a0, b0 = chain[-1] if chain else (0, 0)
        stack.extend(chain + ((a, b),) for a in range(a0 + 1, n + 1)
                     for b in range(max(a, b0 + 1), n + 1))
    return out


def test_interval_clutter_theorem_matches_minor_enumeration():
    clutters = [c for n in range(1, 7) for c in interval_clutters(n)]
    assert len(clutters) == 618
    for c in clutters:
        assert is_interval_clutter(c)
        ok, counterexample = free_vertex_property(c)
        assert ok, (str(c), str(counterexample))


def test_is_interval_clutter_recognition():
    assert is_interval_clutter(C312)
    assert is_interval_clutter(PATH_L4)
    assert is_interval_clutter(clutter(4, [1, 2], [3, 4]))
    assert is_interval_clutter(clutter(5, [2, 3, 4]))
    assert not is_interval_clutter(TRIANGLE)
    assert not is_interval_clutter(clutter(4, [1, 3]))
    assert not is_interval_clutter(clutter(5, [1, 2], [2, 3, 5]))


# ---------------------------------------------------------------------------
# sequential CM
# ---------------------------------------------------------------------------


def test_seq_cm_examples():
    assert is_sequentially_cm(cover_complex(C312), GF2)
    points = SimplicialComplex.from_faces(3, [0b001, 0b010, 0b100])
    assert is_sequentially_cm(points, GF2)
    disjoint = SimplicialComplex.from_faces(4, [0b0011, 0b1100])
    assert not is_sequentially_cm(disjoint, GF2)


def projective_plane():
    """The 6-vertex triangulation of the real projective plane: its reduced
    homology is GF(2) in dimensions 1 and 2 and zero over QQ and GF(3)."""
    triangles = [
        (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
        (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
    ]
    return SimplicialComplex.from_faces(6, [Monomial.from_vars(t).mask for t in triangles])


def test_seq_cm_depends_on_the_field():
    # pure, so sequentially CM is CM; vertex links are 5-cycles, edge links
    # two points, and the whole complex is acyclic except over GF(2)
    rp2 = projective_plane()
    assert is_sequentially_cm(rp2, QQ)
    assert is_sequentially_cm(rp2, FieldSpec(3))
    assert not is_sequentially_cm(rp2, GF2)


def sequentially_cm_by_link_complexes(cx, field):
    """Duval's skeleton criterion with one chain complex per link."""
    faces = cx.faces()
    for i in range(cx.dim + 1):
        skeleton = SimplicialComplex.from_faces(
            cx.n, [f for f in faces if f.bit_count() == i + 1]).faces()
        for sigma in skeleton:
            link = [t & ~sigma for t in skeleton if t & sigma == 0 and t | sigma in skeleton]
            top = max(t.bit_count() for t in link) - 1
            dims = homology_dims(link, field)
            if any(h for d, h in dims.items() if d < top):
                return False
    return True


@st.composite
def random_graph_cover_complexes(draw, n_max=9):
    n = draw(st.integers(2, n_max))
    pairs = [(1 << a) | (1 << b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=12))
    return cover_complex(Clutter.from_edges(n, edges))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(random_graph_cover_complexes())
def test_seq_cm_matches_link_complexes(cx):
    for field in (GF2, FieldSpec(3), QQ):
        assert is_sequentially_cm(cx, field) == sequentially_cm_by_link_complexes(cx, field), (
            str(cx), field)


def test_seq_cm_matches_link_complexes_on_failures():
    # the property test above must meet complexes that are not sequentially CM
    cxs = [projective_plane(), SimplicialComplex.from_faces(4, [0b0011, 0b1100]),
           cover_complex(clutter(6, [1, 2], [3, 4], [5, 6], [1, 3]))]
    rng = random.Random(15)
    while len(cxs) < 20:
        n = rng.randint(4, 8)
        pairs = [(1 << a) | (1 << b) for a in range(n) for b in range(a + 1, n)]
        cx = cover_complex(Clutter.from_edges(n, rng.sample(pairs, rng.randint(2, min(8, len(pairs))))))
        if not is_sequentially_cm(cx, QQ):
            cxs.append(cx)
    for cx in cxs:
        for field in (GF2, FieldSpec(3), QQ):
            assert is_sequentially_cm(cx, field) == sequentially_cm_by_link_complexes(cx, field)


@st.composite
def small_face_complexes(draw, n_max=8):
    """Complexes generated by 3 to 8 random faces of 1 to 4 vertices each,
    on 4 to 8 vertices, so often of mixed facet sizes."""
    n = draw(st.integers(4, n_max))
    face = st.sets(st.integers(0, n - 1), min_size=1, max_size=4).map(
        lambda vertices: sum(1 << v for v in vertices))
    return SimplicialComplex.from_faces(n, draw(st.lists(face, min_size=3, max_size=8)))


def test_seq_cm_matches_link_complexes_on_random_complexes():
    complexes, verdicts = [], []

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(small_face_complexes())
    def check(cx):
        complexes.append(cx)
        for field in (GF2, FieldSpec(3), QQ):
            verdict = is_sequentially_cm(cx, field)
            assert verdict == sequentially_cm_by_link_complexes(cx, field), (str(cx), field)
            verdicts.append(verdict)

    check()
    # the examples meet complexes of both kinds, and mixed facet sizes
    assert any(verdicts) and not all(verdicts)
    assert any(len({f.bit_count() for f in cx.facets}) > 1 for cx in complexes)


def test_seq_cm_fails_below_the_top_facet_size():
    # the triangle {1,2,3} is CM, but the pure 1-skeleton of the complex,
    # its edges and {4,5}, is a disconnected graph
    cx = SimplicialComplex.from_faces(5, [0b00111, 0b11000])
    top = SimplicialComplex.from_faces(5, [0b00111])
    for field in (GF2, FieldSpec(3), QQ):
        assert not is_sequentially_cm(cx, field), field.label
        assert not sequentially_cm_by_link_complexes(cx, field), field.label
        assert is_sequentially_cm(top, field), field.label


@st.composite
def complexes_failing_below_the_top(draw):
    """Nonpure complexes whose top skeleton is Cohen-Macaulay and whose
    pure skeleton at a lower facet size t >= 2 is not, so they are not
    sequentially CM over any field, with their top facets apart.

    The top facets, of size T, are shelled: each adds one new vertex to the
    one before it less one vertex.  The one facet B of size t < T meets
    their vertices in a set s of at most t - 2 of them.  The link of s in
    the skeleton of size t then holds B - s, of dimension at least 1, apart
    from the faces of the top facets, so it is disconnected below its top
    dimension.  At most 10 vertices are used, the sequential-CM cap."""
    size = draw(st.integers(3, 5))
    extra = draw(st.integers(0, 2))
    t = draw(st.integers(2, size - 1))
    shared = draw(st.integers(max(0, t - 3), t - 2))
    order = draw(st.permutations(range(size + extra + t - shared)))
    tops = [sum(1 << order[v] for v in range(e, e + size)) for e in range(extra + 1)]
    top_vertices = order[: size + extra]
    below = draw(st.sets(st.sampled_from(top_vertices), min_size=shared, max_size=shared))
    lower = sum(1 << v for v in below) + sum(1 << v for v in order[size + extra:])
    n = len(order)
    return SimplicialComplex.from_faces(n, tops + [lower]), SimplicialComplex.from_faces(n, tops)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(complexes_failing_below_the_top())
def test_seq_cm_matches_link_complexes_below_the_top_facet_size(case):
    cx, top = case
    assert len({f.bit_count() for f in cx.facets}) == 2, str(cx)
    for field in (GF2, FieldSpec(3), QQ):
        assert not is_sequentially_cm(cx, field), (str(cx), field.label)
        assert not sequentially_cm_by_link_complexes(cx, field), (str(cx), field.label)
        assert is_sequentially_cm(top, field), (str(top), field.label)


def pure_skeleton(faces, t):
    """The faces lying in a face of size t."""
    tops = [f for f in faces if f.bit_count() == t]
    return {f for f in faces if any(f & top == f for top in tops)}


# sequentially CM, so that every link of every checked skeleton is ranked;
# the tetrahedron with an edge has facet sizes 4 and 2 but not 3
SEQ_CM_EXAMPLES = [
    cover_complex(C312), cover_complex(PATH_L4),
    cover_complex(clutter_of(make_path_ideal(PathParams(3, 1, 3)))),
    cover_complex(clutter_of(make_path_ideal(PathParams(2, 1, 5)))),
    SimplicialComplex.from_faces(4, [0b0111, 0b1000]),
    SimplicialComplex.from_faces(5, [0b00111, 0b01100, 0b11000]),
    SimplicialComplex.from_faces(5, [0b01111, 0b11000]),
    SimplicialComplex.from_faces(6, [0b000111, 0b001110, 0b011100, 0b110000, 0b100001]),
    # a triangle {0,1,2} and edges {2,3}, {3,4}, ..., {3,7}: vertex 3 has the
    # largest closed star of the complex but is not in the top skeleton
    SimplicialComplex.from_faces(8, [0b111, 0b1100, 0b11000, 0b101000, 0b1001000, 0b10001000]),
    # a pure 2-dimensional complex with the apex order 4, 6, 1, 2, ...: the
    # link of vertex 0 passes over 4, 6 and 1 to its apex 2, and no link
    # has the apex 1
    SimplicialComplex.from_faces(8, [
        0b1101, 0b11100, 0b110010, 0b1010100, 0b1100010, 0b1110000, 0b10010010, 0b11000010]),
]


def test_seq_cm_ranks_each_link_relative_to_an_apex_star_with_clearing(monkeypatch):
    """The reducers receive, for each face sigma of each skeleton at a facet
    size, the faces of its link outside the closed star of its apex but the
    pivot rows of the relative boundary one size up, and none of a size with
    no such face one size down; no other skeleton is ranked."""
    clearing_skipped = 0
    for cx in SEQ_CM_EXAMPLES:
        faces = cx.faces()
        sizes = sorted({f.bit_count() for f in cx.facets if f.bit_count() >= 2})
        for field, name in ((GF2, "pivots_gf2"), (FieldSpec(3), "pivots_gfp"), (QQ, "pivots_qq")):
            expected = cleared_only = 0
            for t in sizes:
                skeleton = pure_skeleton(faces, t)
                order = apex_order(skeleton)
                for sigma in skeleton:
                    if sigma.bit_count() > t - 2:
                        continue
                    link = {f & ~sigma for f in skeleton if f & sigma == sigma}
                    cleared_only += columns_sent(*boundary_ranks(link, field))
                    apex = next(v for v in order if 1 << v in link)
                    counts, ranks = boundary_ranks(link, field, drop=closed_star(link, apex))
                    expected += columns_sent(counts, ranks)
                    clearing_skipped += sum(ranks[2:])
            received = []
            original = getattr(pathideal.fields, name)

            def counting(columns, *args, **kwargs):
                columns = list(columns)
                received.append(len(columns))
                return original(columns, *args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(pathideal.fields, name, counting)
                assert is_sequentially_cm(cx, field), (str(cx), field.label)
            assert sum(received) == expected, (str(cx), field.label)
            assert sum(received) < cleared_only, (str(cx), field.label)
    assert clearing_skipped > 0


def test_seq_cm_builds_one_face_index_per_checked_skeleton(monkeypatch):
    """One index of the pure skeleton at each facet size t >= 2, in
    increasing t, built from exactly its faces, and none at any other size:
    a pure complex gets one index, of its own faces, and a complex of
    points none."""
    built = []

    class CountingIndex(FaceIndex):
        def __init__(self, faces):
            faces = set(faces)
            built.append(faces)
            super().__init__(faces)

    monkeypatch.setattr(topology, "FaceIndex", CountingIndex)
    points = SimplicialComplex.from_faces(3, [0b001, 0b010, 0b100])
    nonpure = 0
    for cx in SEQ_CM_EXAMPLES + [points]:
        faces = cx.faces()
        sizes = sorted({f.bit_count() for f in cx.facets})
        expected = [pure_skeleton(faces, t) for t in sizes if t >= 2]
        if len(sizes) > 1:
            nonpure += 1
        else:
            # a pure complex is its own top skeleton
            assert expected == ([faces] if sizes[0] >= 2 else [])
        for field in (GF2, FieldSpec(3), QQ):
            built.clear()
            assert is_sequentially_cm(cx, field), (str(cx), field.label)
            assert built == expected, (str(cx), field.label)
    # among them a nonpure complex whose facet sizes miss a size in between,
    # and one whose largest closed star is at a vertex outside its top skeleton
    assert nonpure >= 2 and any(
        {f.bit_count() for f in cx.facets} == {4, 2} for cx in SEQ_CM_EXAMPLES)
    assert any(
        apex_order(cx.faces())[0] >= max(pure_skeleton(cx.faces(), cx.dim + 1)).bit_length()
        for cx in SEQ_CM_EXAMPLES)


def test_seq_cm_builds_the_stars_of_the_apexes_it_picks_only(monkeypatch):
    """Each checked skeleton's index builds the closed star of each apex
    that some link picks, once, and no other star, not even of the vertices
    outside sigma that a link tries before its apex; the apex of a link is
    the first vertex of the skeleton's apex order that lies in it."""
    indexes = []

    class CountingIndex(FaceIndex):
        def __init__(self, faces):
            self.built_stars = []
            super().__init__(faces)
            indexes.append(self)

        def _star(self, v):
            self.built_stars.append(v)
            return super()._star(v)

    monkeypatch.setattr(topology, "FaceIndex", CountingIndex)
    tried_only = 0
    for cx in SEQ_CM_EXAMPLES:
        faces = cx.faces()
        expected = []
        for t in sorted({f.bit_count() for f in cx.facets if f.bit_count() >= 2}):
            skeleton = pure_skeleton(faces, t)
            order = apex_order(skeleton)
            picked, tried = set(), set()
            for sigma in skeleton:
                if sigma.bit_count() <= t - 2:
                    link = {f & ~sigma for f in skeleton if f & sigma == sigma}
                    apex = next(v for v in order if 1 << v in link)
                    picked.add(apex)
                    tried |= {v for v in order[:order.index(apex)] if not sigma >> v & 1}
            expected.append(sorted(picked))
            tried_only += len(tried - picked)
        for field in (GF2, QQ):
            indexes.clear()
            assert is_sequentially_cm(cx, field), (str(cx), field.label)
            assert [sorted(index.built_stars) for index in indexes] == expected, (str(cx), field.label)
    # some vertex is tried and passed over, but never an apex
    assert tried_only > 0


def test_seq_cm_cap():
    big = SimplicialComplex.from_faces(11, [(1 << 11) - 1])
    with pytest.raises(CapExceeded):
        is_sequentially_cm(big, GF2, cap=10)


def test_implication_chain_on_random_clutters():
    # free vertex property => a shelling exists => sequentially CM
    rng = random.Random(12)
    checked_fvp = 0
    for _ in range(60):
        n = rng.randint(2, 6)
        edges = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 4))]
        c = Clutter.from_edges(n, edges)
        cx = cover_complex(c)
        order = find_shelling(cx)
        if free_vertex_property(c)[0]:
            checked_fvp += 1
            assert order is not None, str(c)
        if order is not None:
            assert is_sequentially_cm(cx, GF2), str(c)
            assert is_sequentially_cm(cx, QQ), str(c)
    assert checked_fvp > 10


def test_seq_cm_consistent_with_shellability_on_family():
    for params in [PathParams(2, 1, 3), PathParams(3, 1, 2), PathParams(3, 2, 4)]:
        cx = cover_complex(clutter_of(make_path_ideal(params)))
        assert find_shelling(cx) is not None
        assert is_sequentially_cm(cx, GF2)
