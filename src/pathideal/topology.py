"""Clutters, vertex covers, shellability, minors and sequential Cohen-Macaulayness.

A clutter is an antichain of vertex subsets (edges) stored as bitmasks.
Its cover complex has one facet per minimal vertex cover, namely the
complement; a clutter in which every minor keeps a vertex lying in a
single edge (the free vertex property) has a shellable cover complex,
and shellable complexes are sequentially Cohen-Macaulay.  This module
makes each link of that chain executable on desk-scale instances.

The minimal covers are enumerated by a depth-first search whose cost
follows their number, not the 2^n vertex subsets; the number of covers can
still grow exponentially in n, so the enumeration keeps the subset cap.

A shelling is first looked for in the canonical order, largest facet
first; the capped backtracking search runs only when that order fails.

The free vertex property is decided by a search over the pieces of the
minors: their connected components, each with its twin classes (vertices
lying in the same edges) cut to one vertex and relabelled onto its
support, reached by single-vertex steps x_v = 0 or x_v = 1 and a split
into components.  The search remembers how it first reached each piece, so
a piece with no free vertex is named by replaying that chain into one
(zeros, ones) assignment of the clutter's own vertices; no 3^v assignment
walk is run.  The length-2 path with k edges has k pieces, but other
paths have exponentially many, so ``MINOR_CAP_N`` stays.

Sequential Cohen-Macaulayness checks the pure skeletons of the complex at
its facet sizes only, each through its own ``complexes.FaceIndex``, which
orders that skeleton's apex vertices and builds the closed stars of the
apexes its links pick, and no other (a pure complex is its own top
skeleton, so its one index is the complex's).
Each link is read off by restriction to the faces containing it and
ranked relative to the closed star of an apex vertex, from the top size
down with clearing (``FaceIndex.homology``), as the Hochster route ranks
each induced subcomplex.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .caps import (
    MINOR_CAP_N,
    SEQ_CM_CAP_N,
    SHELLING_CAP_FACETS,
    SUBSET_CAP_N,
    CapExceeded,
)
from .complexes import FaceIndex, SimplicialComplex
from .fields import FieldSpec
from .monomials import (
    MonomialIdeal, _canonical_antichain, _canonical_sorted, _check_canonical, _family_to_text,
    _is_run, iter_bits, monomial_from_text,
)


@dataclass(frozen=True)
class Clutter:
    """An antichain of edges (bitmasks) over an ambient vertex set."""

    n: int
    edges: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(a == 0 or a >> self.n for a in self.edges):
            raise ValueError("edge empty or outside the vertex set")
        _check_canonical(self.edges, "edges", "from_edges")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[int]) -> "Clutter":
        return cls(n, _canonical_antichain(edges))

    @property
    def support(self) -> int:
        mask = 0
        for e in self.edges:
            mask |= e
        return mask

    def __str__(self) -> str:
        return _family_to_text(self.n, self.edges)


def clutter_from_text(text: str) -> Clutter:
    """Read ``n=N; {1,2},{3}``, each edge as the ``{...}`` form of a monomial.

    The body is split on the commas outside braces, as ``ideal_from_text``
    splits its body, and every part must be one ``{...}`` set: any other
    text is refused rather than dropped.  An empty body has no edges."""
    match = re.fullmatch(r"\s*n\s*=\s*(\d+)\s*;(.*)", text, re.DOTALL)
    body = match.group(2).strip() if match else ""
    parts = re.split(r",(?![^{]*\})", body) if body else []
    if not match or not all(re.fullmatch(r"\s*\{[^{}]*\}\s*", part) for part in parts):
        raise ValueError(f"cannot parse clutter text {text!r}")
    return Clutter.from_edges(int(match.group(1)), [monomial_from_text(p).mask for p in parts])


def clutter_of(ideal: MonomialIdeal) -> Clutter:
    """The clutter whose edges are the generator supports."""
    if not ideal.is_proper_nonzero:
        raise ValueError("clutter requires a proper nonzero ideal")
    return Clutter(ideal.n, ideal.gen_masks())


def minimal_vertex_covers(clutter: Clutter, cap: int = SUBSET_CAP_N) -> tuple[int, ...]:
    """All inclusion-minimal transversals, canonically ordered, as bitmasks.

    A cover is minimal iff each of its vertices has a private edge (an edge
    it covers alone).  The covers are found by the depth-first search of
    Murakami and Uno (MMCS, 2014), whose cost follows the number of minimal
    covers rather than the 2^n vertex subsets.  A node holds a partial
    cover S, a candidate set CAND and the edges S misses.  It picks the
    missed edge F with the fewest candidates, takes C = F & CAND out of
    CAND, and for each v of C in turn searches below S + v when every
    vertex of S + v has a private edge, then puts v back into CAND.  S is
    emitted once it misses no edge.

    Proof.  Every emitted S hits every edge and each of its vertices has a
    private edge, so S is a minimal cover.  Conversely let T be a minimal
    cover, and call a node *on the way to* T when S <= T <= S | CAND.  The
    root (S empty, CAND all vertices) is on the way to T, and so is the
    parent of any node on the way, since a child's S contains its parent's
    S and its S | CAND lies inside its parent's.  At a node on the way with an edge F left, T
    hits F, and F misses S, so T meets C = F & CAND.  Let v_j be the last
    vertex of C, in the order tried, that lies in T.  The child for v_j has
    CAND equal to the parent's CAND minus C plus v_1, ..., v_(j-1), so it
    is on the way to T; no other child is, since the child for v_i with
    i < j lacks v_j, and for i > j, v_i is not in T.  The child is not
    pruned: private edges only shrink as S grows, so an edge e with
    e & T = {u} has e & (S + v_j) = {u} for each u in S + v_j <= T.  Each
    step adds a vertex of T, so the nodes on the way to T form one path
    from the root, which ends at a node that misses no edge.  There S is a
    cover inside T, so S = T by minimality, and T is emitted; any node that
    emits T has S = T and is on that path.  So every minimal cover is
    emitted exactly once.
    """
    if not clutter.edges:
        raise ValueError("cover enumeration requires at least one edge")
    if clutter.n > cap:
        raise CapExceeded(f"n={clutter.n} exceeds cap {cap}")
    edges = clutter.edges
    # bit i of hits[v - 1] is set when vertex v lies in edges[i]
    hits = [0] * clutter.n
    for i, e in enumerate(edges):
        for v in iter_bits(e):
            hits[v - 1] |= 1 << i
    covers: list[int] = []

    def search(cover: int, private: list[int], cand: int, missed: int) -> None:
        # private[j] holds the edges (as bits over edge indices) that the
        # j-th vertex of the cover hits alone
        if not missed:
            covers.append(cover)
            return
        edge = min(
            (edges[i - 1] for i in iter_bits(missed)), key=lambda e: (e & cand).bit_count()
        )
        choices = edge & cand
        cand &= ~choices
        while choices:
            bit = choices & -choices
            choices ^= bit
            hit = hits[bit.bit_length() - 1]
            kept = [p & ~hit for p in private]
            if all(kept):
                search(cover | bit, kept + [missed & hit], cand, missed & ~hit)
            cand |= bit

    search(0, [], (1 << clutter.n) - 1, (1 << len(edges)) - 1)
    return tuple(_canonical_sorted(covers))


def cover_complex(clutter: Clutter) -> SimplicialComplex:
    """The complex whose facets are the complements of the minimal covers.

    The minimal covers are an antichain, and so are their complements, so
    they need no minimalizing; ``SimplicialComplex`` still checks them.
    """
    full = (1 << clutter.n) - 1
    facets = [full & ~c for c in minimal_vertex_covers(clutter)]
    return SimplicialComplex(clutter.n, tuple(_canonical_sorted(facets)))


# ---------------------------------------------------------------------------
# shellability
# ---------------------------------------------------------------------------


def _may_follow(f: int, placed: list[int]) -> bool:
    """Whether facet f may follow the facets ``placed`` in a shelling: for
    every placed F_i some placed F_l has F_i & f inside F_l & f and f - F_l
    a single vertex v, that is, some such v lies in f - F_i."""
    singles = 0
    for g in placed:
        diff = f & ~g
        if diff.bit_count() == 1:
            singles |= diff
    for g in placed:
        if not singles & ~g:
            return False
    return True


def is_shelling(facets_in_order: list[int] | tuple[int, ...]) -> bool:
    """Definitional check of a candidate shelling order (pairwise, no search)."""
    placed: list[int] = []
    for f in facets_in_order:
        if not _may_follow(f, placed):
            return False
        placed.append(f)
    return True


def find_shelling(
    cx: SimplicialComplex, cap: int = SHELLING_CAP_FACETS
) -> Optional[tuple[int, ...]]:
    """A shelling order of the facets; None when none exists.

    The canonical order, largest facet first and then lexicographic, is
    checked first, with no cap: every shellable complex has a shelling in
    which the facet sizes do not increase (Bjorner and Wachs, Shellable
    nonpure complexes and posets I, 1996), and this order shells the cover
    complex of every path clutter with n <= 16.  Only when it fails does
    the search run, capped at ``cap`` facets: backtracking over facet
    prefixes, where whether a facet may be appended depends only on the
    set already placed, so failed sets are memoized.  Candidates are tried
    in the canonical order, so the search returns that order whenever it
    shells.
    """
    facets = sorted(cx.facets, key=lambda f: (-f.bit_count(), tuple(iter_bits(f))))
    if is_shelling(facets):
        return tuple(facets)
    if len(facets) > cap:
        raise CapExceeded(f"{len(facets)} facets exceed cap {cap}")
    total = len(facets)
    dead: set[frozenset[int]] = set()

    def extend(order: list[int], placed: frozenset[int]) -> Optional[list[int]]:
        if len(order) == total:
            return order
        if placed in dead:
            return None
        for idx, f in enumerate(facets):
            if idx in placed:
                continue
            if _may_follow(f, order):
                result = extend(order + [f], placed | {idx})
                if result is not None:
                    return result
        dead.add(placed)
        return None

    found = extend([], frozenset())
    if found is None:
        return None
    if not is_shelling(found):
        raise RuntimeError(f"the search returned a non-shelling order {found}")
    return tuple(found)


# ---------------------------------------------------------------------------
# minors and the free vertex property
# ---------------------------------------------------------------------------


def apply_assignment(clutter: Clutter, zeros: int, ones: int) -> Optional[Clutter]:
    """Set the ``zeros`` vertices to 0 and the ``ones`` vertices to 1.

    Vertices set to 0 delete every edge containing them; vertices set to 1
    shrink out of their edges; the result is minimalized.  Returns None when
    the result is not a proper nonzero ideal (no edges left, or an edge
    shrank to nothing).
    """
    if zeros & ones:
        raise ValueError("a vertex cannot be set to both 0 and 1")
    edges = []
    for e in clutter.edges:
        if e & zeros:
            continue
        shrunk = e & ~ones
        if shrunk == 0:
            return None
        edges.append(shrunk)
    return Clutter.from_edges(clutter.n, edges) if edges else None


def _free_vertices(edges: Iterable[int]) -> int:
    """The mask of the vertices lying in exactly one of ``edges``."""
    once = twice = 0
    for e in edges:
        twice |= once & e
        once |= e
    return once & ~twice


def has_free_vertex(clutter: Clutter) -> Optional[int]:
    """Smallest vertex lying in exactly one edge, or None."""
    free = _free_vertices(clutter.edges)
    return (free & -free).bit_length() if free else None


def _components(edges: list[int]) -> list[list[int]]:
    """The edges split into connected components, each a list of edges."""
    parts: list[tuple[int, list[int]]] = []  # (support, edges), disjoint supports
    for e in edges:
        support, part, apart = e, [e], []
        for other in parts:
            if other[0] & e:
                support |= other[0]
                part += other[1]
            else:
                apart.append(other)
        parts = apart + [(support, part)]
    return [part for _, part in parts]


def _reduced(part: list[int]) -> tuple[tuple[int, ...], list[int]]:
    """The clutter ``part`` with each twin class (the vertices lying in
    exactly the same edges) cut to one vertex, relabelled onto 1..s in the
    order of the classes' lowest vertices: its sorted edge tuple, a key, and
    for each new vertex the mask of the vertices of ``part`` it stands for."""
    if len(part) == 1:  # the vertices of one edge are one twin class
        return (1,), part
    # through[v]: the edges through vertex v + 1, as bits over part's indices
    through = [0] * max(part).bit_length()
    for i, e in enumerate(part):
        while e:
            low = e & -e
            e ^= low
            through[low.bit_length() - 1] |= 1 << i
    classes: dict[int, int] = {}
    for v, edge_bits in enumerate(through):
        if edge_bits:
            classes[edge_bits] = classes.get(edge_bits, 0) | 1 << v
    edges = [0] * len(part)
    for w, edge_bits in enumerate(classes):
        while edge_bits:
            low = edge_bits & -edge_bits
            edge_bits ^= low
            edges[low.bit_length() - 1] |= 1 << w
    return tuple(sorted(edges)), list(classes.values())


def _single_steps(edges: tuple[int, ...]) -> Iterator[tuple[int, int, list[int]]]:
    """The single-vertex steps from a clutter relabelled onto its support
    that leave a proper nonzero ideal: ``(bit, value, step)``, where x_v =
    value for the vertex v of ``bit`` gives the antichain ``step``.

    A step keeps an antichain without a general minimalization: x_v = 0
    keeps the edges that miss v, a subfamily; x_v = 1 shrinks the edges
    through v to e - v, which stay pairwise incomparable, and drops each
    edge f missing v that contains some e - v.  No such f lies inside an
    e - v, as then f would lie inside e.
    """
    bit = 1
    full = 1 << max(edges).bit_length()
    while bit < full:
        through = [e ^ bit for e in edges if e & bit]
        missing = [e for e in edges if not e & bit]
        if missing:  # x_v = 0, unless that leaves the zero ideal
            yield bit, 0, missing
        if 0 not in through:  # x_v = 1, unless {v} is an edge
            yield bit, 1, through + [f for f in missing if not any(g & f == g for g in through)]
        bit <<= 1


def _minor_without_free_vertex(clutter: Clutter) -> Optional[tuple[int, int]]:
    """A ``(zeros, ones)`` assignment whose minor of the clutter has no free
    vertex, or None when every minor has one.

    The search visits each *piece* once: a connected component of a minor,
    cut and relabelled by ``_reduced``.  From a piece it takes every step of
    ``_single_steps`` and splits the result into components.  It records
    how it first reached each piece, which ``_assignment_reaching`` replays.

    Proof that the clutter has the property iff every piece visited has a
    free vertex.  A minor sets the vertices Z to 0 and O to 1; substitution
    is a ring map, so it commutes with minimalizing, and setting the
    vertices one at a time gives the same ideal, the zero or the unit ideal
    staying zero or unit.  So the minors are the clutters reached from the
    clutter by single steps.  Relabelling in order maps the minors of a
    clutter onto those of its image and keeps which vertices are free.

    Components.  A step on a vertex v of a component P leaves the other
    components as they are (x_v = 1 drops no edge f outside P, as f would
    contain an e - v inside P), so by induction on the steps every component
    of a minor is reached from a component of the clutter by "one step, then
    split".  Each component of a minor is a minor (set one vertex of every
    edge of the others to 0), and a vertex is free in a minor iff it is in
    its component.

    Twins.  After a step twins stay twins, so the twin classes of a step
    are unions of classes.  For twins u and w, x_u = 0 deletes the edges
    through the whole class; x_u = 1 shrinks them, and they keep w, so it
    drops no edge (f containing e - u would contain w, so e) and gives the
    same piece, until the last member of the class is set to 1.  So every
    step reaches, after the cut, a piece that a step on a class
    representative reaches, and a vertex is free iff its representative is.
    """
    reached_from: dict[tuple[int, ...], tuple] = {}
    stack: list[tuple[int, ...]] = []

    def reach(parent: Optional[tuple[int, ...]], bit: int, value: int, step: list[int]) -> None:
        for index, part in enumerate(_components(step)):
            key = _reduced(part)[0]
            if key not in reached_from:
                reached_from[key] = (parent, bit, value, index)
                stack.append(key)

    reach(None, 0, 0, list(clutter.edges))
    while stack:
        current = stack.pop()
        if not _free_vertices(current):
            return _assignment_reaching(clutter, reached_from, current)
        for bit, value, step in _single_steps(current):
            reach(current, bit, value, step)
    return None


def _assignment_reaching(
    clutter: Clutter, reached_from: dict[tuple[int, ...], tuple], piece: tuple[int, ...]
) -> tuple[int, int]:
    """The ``(zeros, ones)`` assignment of the clutter's own vertices that
    replays the first reaches ``(parent, bit, value, index)`` from the
    clutter to ``piece``: the step x_v = value from the parent piece (None
    for the clutter itself), then the component ``index`` of the result.

    Proof that its minor is ``piece`` with each vertex w replaced by own(w),
    disjoint sets of unassigned vertices of the clutter.  At the start each
    vertex is its own.  For x_w = 0 the lowest vertex of own(w) is set to
    0, deleting the edges through w; for x_w = 1 all of own(w) is set to 1,
    shrinking those edges by w.  Dropping a component sets to 0 the lowest
    own vertex of the lowest vertex of each of its edges, deleting those
    edges and no other.  Cutting twin classes joins their own sets.  As setting
    vertices one at a time gives the minor of the whole assignment, this
    holds after every link, and a vertex of the minor is free iff the
    piece's vertex behind it is.
    """
    chain = []
    while piece is not None:
        chain.append(reached_from[piece])
        piece = chain[-1][0]
    own = [1 << i for i in range(clutter.n)]
    zeros = ones = 0
    step = list(clutter.edges)
    for parent, bit, value, index in reversed(chain):
        if parent is not None:
            mask = own[bit.bit_length() - 1]
            if value:
                ones |= mask
            else:
                zeros |= mask & -mask
            step = next(s for b, v, s in _single_steps(parent) if b == bit and v == value)
        parts = _components(step)
        for part in parts[:index] + parts[index + 1:]:
            for e in part:
                mask = own[(e & -e).bit_length() - 1]
                zeros |= mask & -mask
        own = [sum(own[u - 1] for u in iter_bits(g)) for g in _reduced(parts[index])[1]]
    return zeros, ones


def free_vertex_property(
    clutter: Clutter, cap: int = MINOR_CAP_N
) -> tuple[bool, Optional[tuple[tuple[int, int], Clutter]]]:
    """True iff every minor (the clutter itself included) has a free vertex.

    The connected, twin-reduced pieces of the minors are searched, without
    walking the 3^v assignments (see ``_minor_without_free_vertex``).  On failure the
    second item is the witness ``((zeros, ones), minor)``: the assignment
    and ``apply_assignment(clutter, zeros, ones)``, a minor with no free
    vertex, which is checked before it is returned.
    """
    if clutter.n > cap:
        raise CapExceeded(f"n={clutter.n} exceeds cap {cap}")
    if not clutter.edges:
        return True, None
    assignment = _minor_without_free_vertex(clutter)
    if assignment is None:
        return True, None
    minor = apply_assignment(clutter, *assignment)
    if minor is None or has_free_vertex(minor) is not None:
        raise RuntimeError(f"the assignment {assignment} names no counterexample in {clutter}")
    return False, (assignment, minor)


def is_interval_clutter(clutter: Clutter) -> bool:
    """True iff every edge is a run of consecutive vertices.

    Every interval clutter has the free vertex property.

    Proof.  Let a minor set the vertices Z to 0 and O to 1.  An edge e that
    survives meets no vertex of Z, so e minus O is the set of vertices of e
    that the minor keeps: an interval in the order of the kept vertices.
    Minimalizing drops edges, so the minor is again an interval clutter, in
    that order.  In an antichain of intervals no two start at the same
    vertex, since one of them would contain the other; so one interval
    starts first, at a vertex s, and every other edge starts after s and
    misses it.  So s lies in exactly one edge.  The clutter itself is the
    minor with Z and O empty, so it and every minor have a free vertex.
    """
    return all(map(_is_run, clutter.edges))


# ---------------------------------------------------------------------------
# sequential Cohen-Macaulayness
# ---------------------------------------------------------------------------


def _links_acyclic_below_top(skeleton: FaceIndex, t: int, field: FieldSpec) -> bool:
    """Reisner-style check on the pure skeleton generated by the faces of
    size t, whose face index is ``skeleton``: every link of every face (the
    empty face included) has zero reduced homology below its dimension.

    The link of sigma, the faces tau missing sigma with tau | sigma in the
    skeleton, is read off the faces rho of the skeleton that contain sigma,
    the AND of the index's holding masks of the vertices of sigma:
    ``FaceIndex.homology`` reduces their columns, restricted to the rows of
    the faces containing sigma, with the signs of the index's columns,
    those of the faces rho and not of the link.

    Proof that the ranks are those of the link.  Map tau to rho = tau | sigma;
    this matches the link faces of size h with the faces of size |sigma| + h
    containing sigma, the empty face going to sigma.  The boundary of rho has
    a term rho - u for each vertex u of rho, and rho - u contains sigma iff u
    lies in tau, so the restricted column of rho has the terms of the link
    boundary of tau.  Write c(u) for the number of vertices of sigma below
    u; u stands at position pos_tau(u) + c(u) in rho, so its restricted
    sign is (-1)^pos_tau(u) * (-1)^c(u).  With e(rho) the sign
    (-1)^(sum of c(u) over u in rho - sigma), (-1)^c(u) = e(rho) * e(rho - u),
    so the restricted matrix is D * B * D', with B the link's boundary
    matrix and D, D' diagonal with entries +-1.  Ranks are unchanged, and so
    is every reduced homology dimension; deleting the same rows and columns
    from B keeps this form, and the restricted maps still compose to zero,
    as D' * D' = 1 between two of them.

    Relative to an apex star, with clearing.  The apex of the link is the
    first vertex u of the skeleton's ``FaceIndex.apexes`` outside sigma
    with sigma + u in the skeleton (a lookup in the index's ``row``), so a
    vertex of the link; the index builds the closed star of u the first
    time a link picks it, and no star of a vertex passed over.  A link
    face tau is in the closed star of u in the link iff tau + u is in the link, iff rho + u is
    in the skeleton, iff rho is in the skeleton's closed star of u.  So dropping the rows of that star
    leaves the cells of the link relative to the star of u, and
    ``FaceIndex.homology`` gives their homology, the reduced homology of
    the link, over every field, ranked from the top size down with clearing
    (both proofs are in its docstring).  The empty face of the link, sigma
    itself, lies in that star, so every cell has a size above |sigma|.

    A face of size at least t - 1 has a link of dimension at most 0, whose
    only homology below the top could be in dimension -1; a link with a
    vertex has none there, so such faces are skipped.  Every other face
    lies in a face of size t, so its link has a vertex and the apex exists.
    """
    every = (1 << len(skeleton.faces)) - 1
    apexes, row = skeleton.apexes(), skeleton.row
    # the faces of size below t - 1: the rows below the first of size t - 1
    first = skeleton.sized[t - 1]
    walk = (first & -first) - 1
    while walk:
        low = walk & -walk
        walk ^= low
        sigma = skeleton.faces[low.bit_length() - 1]
        # u is a vertex of the link iff u is not in sigma and sigma + u is in
        # the skeleton
        apex = next(u for u in apexes if not sigma >> u & 1 and sigma | 1 << u in row)
        # cells: the rows containing sigma, outside the apex's closed star
        cells = every & ~skeleton.star(apex)
        for v in iter_bits(sigma):
            cells &= skeleton.holding[v - 1]
        # size t holds the link's top dimension, which may carry homology
        if any(skeleton.homology(cells, field)[:t]):
            return False
    return True


def is_sequentially_cm(
    cx: SimplicialComplex, field: FieldSpec, cap: int = SEQ_CM_CAP_N
) -> bool:
    """Sequential Cohen-Macaulayness over the given field.

    Uses Duval's skeleton criterion (Duval, "Algebraic shifting and
    sequentially Cohen-Macaulay simplicial complexes", Electron. J. Combin.
    1996): the complex qualifies iff for every t the pure skeleton
    Delta^[t], generated by its faces of size t, is Cohen-Macaulay, which
    is checked by vanishing of reduced homology of all face links below
    top dimension (``_links_acyclic_below_top``).  No claim is made across
    characteristics.

    Only facet sizes.  Delta^[t] is checked only for the sizes t >= 2 of
    the facets of Delta; a skeleton of size 1 is a set of points and has
    no link to check.  Proof that the other sizes need no check: let t be
    below the top size and not a facet size.  Every face of size t lies in
    a larger face, so in one of size t + 1, and Delta^[t] is the set of
    faces of size at most t of Delta^[t+1].  For a face sigma of size d of
    Delta^[t], the check asks for H~_h(lk sigma) = 0 for h <= t - d - 2.
    The homology in dimension h needs the link faces of size at most
    h + 2 <= t - d only, that is the faces of size at most t containing
    sigma, and those are the same in Delta^[t] and in Delta^[t+1].  The
    link of sigma in Delta^[t+1] has dimension t - d, so the check of
    Delta^[t+1] asks for the same vanishing, and the check of size t passes
    when that of size t + 1 does.  By downward induction from the top size,
    itself a facet size, every size passes when the facet sizes do.

    Each checked skeleton gets its own ``FaceIndex``, built from its faces
    (those of size at most t of the facets of size at least t), which
    serves every link in it; for a pure complex that is the complex's own
    index, and no other index is built.  Each link is ranked relative to
    the closed star of an apex vertex, with clearing (proved in
    ``_links_acyclic_below_top``); the apexes are tried in the order of the
    Hochster route, largest closed star in the skeleton first
    (``FaceIndex.apexes`` of the skeleton's index), and only the stars of
    the apexes picked are built.
    """
    if cx.is_void:
        raise ValueError("void complex")
    if cx.vertices.bit_count() > cap:
        raise CapExceeded(f"{cx.vertices.bit_count()} vertices exceed cap {cap}")
    for t in sorted({f.bit_count() for f in cx.facets}):
        if t >= 2:
            # the facets of size at least t, a subsequence of a canonical
            # antichain and so one itself
            wide = SimplicialComplex(cx.n, tuple(f for f in cx.facets if f.bit_count() >= t))
            skeleton = FaceIndex(f for f in wide.faces() if f.bit_count() <= t)
            if not _links_acyclic_below_top(skeleton, t, field):
                return False
    return True
