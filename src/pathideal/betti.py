"""Graded Betti tables of squarefree monomial ideals by three routes.

All routes produce the table of the ideal (not of the quotient ring):

* the combinatorial route sums reduced homology of induced subcomplexes of
  the associated simplicial complex, one subcomplex per vertex subset W,
  contributing to column ``j = |W|`` in homological degree ``i = j - d - 2``;
* the algebraic route tensors Lyubeznik's resolution, the subcomplex of the
  Taylor resolution on the generator sets that are admissible under one
  fixed order, with the residue field, keeping only subset differentials
  that do not change the lcm, and reads the table off strand-by-strand
  homology;
* the interval route, for ideals whose generators are intervals of
  consecutive variables (the path family among them), splits off the last
  interval and recurses on integer tables; it uses no linear algebra.

The first two are exponential and independent of each other: their
agreement on a shared instance is the core anti-bug check of the package,
and nothing in their inner loops is shared beyond the exact column
reducers of ``fields``.  The combinatorial route takes its boundary
columns from ``complexes.FaceIndex``, the package's one builder of
simplicial boundaries, which also restricts and reduces them
(``FaceIndex.homology``); the algebraic route builds its own strands
(``taylor_strand_complexes``) and ranks them through
``fields.rank_sparse``.  The interval route is polynomial and is always
checked against them, never used as an oracle for itself.

The combinatorial route restricts the faces to each W with per-vertex
bitmasks, and ranks the chain complex of Delta_W relative to the closed
star of one vertex of W, a cone whose faces need no rank.  It reduces
those boundary matrices from the top size down with clearing: the faces
that are pivot rows one size up are skipped, as their columns are proven
to reduce to zero.  Both steps, and their proofs, are in
``FaceIndex.homology``.  The algebraic route builds a smaller resolution
than Taylor's, but ranks every column of each of its strands, with no star
and no clearing, so ``--method both`` checks a reduced and cleared
computation against one that is neither, and a fault in the reduction or
the clearing cannot hide in both routes at once.  Its cost follows the
number of admissible sets, not 2^k, and it is capped on that number
(``lyubeznik_cells``).  Many W share one relative complex, and the
combinatorial route reduces each distinct one once per call
(``betti_hochster`` proves why that is exact and why the repeats are
common).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .caps import STRAND_CAP_CELLS, SUBSET_CAP_N, CapExceeded
from .complexes import FaceIndex
from .fields import GF2, FieldSpec, rank_sparse
from .monomials import MonomialIdeal, _is_run, iter_bits


class BettiTable:
    """Sparse table (i, j) -> multiplicity, in the ideal convention.

    All public tables are tables of the ideal; the quotient-ring table is
    the shift i -> i+1 and is never stored.
    """

    def __init__(self, entries: Mapping[tuple[int, int], int]):
        clean: dict[tuple[int, int], int] = {}
        for (i, j), b in entries.items():
            if b < 0:
                raise ValueError(f"negative multiplicity at ({i}, {j})")
            if b == 0:
                continue
            if i < 0 or j < 0:
                raise ValueError(f"negative index ({i}, {j})")
            clean[(i, j)] = b
        gen_degrees = [j for (i, j) in clean if i == 0]
        if gen_degrees:
            min_deg = min(gen_degrees)
            for (i, j) in clean:
                if j < i + min_deg:
                    raise ValueError(f"entry ({i}, {j}) below the generator degree bound")
        self._entries = clean

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        return dict(self._entries)

    def items_sorted(self) -> list[tuple[int, int, int]]:
        return [(i, j, b) for (i, j), b in sorted(self._entries.items())]

    def get(self, i: int, j: int) -> int:
        return self._entries.get((i, j), 0)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BettiTable) and self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def to_text(self) -> str:
        """Golden-file form: one `i j beta` line per entry, sorted."""
        return "".join(f"{i} {j} {b}\n" for i, j, b in self.items_sorted())

    def digest(self) -> str:
        return ";".join(f"{i},{j}:{b}" for i, j, b in self.items_sorted())

    def __repr__(self) -> str:
        return f"BettiTable({self._entries!r})"


@dataclass(frozen=True)
class Invariants:
    pd: int
    reg: int


@dataclass(frozen=True)
class Depths:
    depth_I: int
    depth_RI: int


def invariants_of(table: BettiTable) -> Invariants:
    """Projective dimension and regularity read off a nonempty table."""
    if not table:
        raise ValueError("empty Betti table has no invariants")
    keys = table._entries
    return Invariants(pd=max(i for i, _ in keys), reg=max(j - i for i, j in keys))


def depth_of(ideal: MonomialIdeal, table: BettiTable) -> Depths:
    """Depth in both conventions: the ideal as a module, and the quotient ring."""
    depth_i = ideal.n - invariants_of(table).pd
    return Depths(depth_I=depth_i, depth_RI=depth_i - 1)


def _require_proper_nonzero(ideal: MonomialIdeal) -> None:
    if ideal.is_zero:
        raise ValueError("zero ideal")
    if ideal.is_unit:
        raise ValueError("unit ideal")


def _face_masks(n: int, gen_masks: Iterable[int]) -> list[int]:
    """All faces of the associated complex: subsets containing no generator,
    in increasing order.

    Vertices are added one at a time: f + {v}, with f a face on the lower
    vertices, is a face iff it contains no generator whose top vertex is v,
    that is, contains no rest g - {v} of such a generator g.
    """
    # rests[v]: the generators whose top vertex is v, without v
    rests: list[list[int]] = [[] for _ in range(n)]
    for g in gen_masks:
        top = g.bit_length() - 1
        rests[top].append(g ^ (1 << top))
    faces = [0]
    for v, ending in enumerate(rests):
        # the faces on the lower vertices that hold no rest, one rest at a time
        kept = faces
        for rest in ending:
            kept = [f for f in kept if f & rest != rest]
        bit = 1 << v
        faces += [f | bit for f in kept]
    return faces


def _union_closure(gen_masks: Iterable[int]) -> list[int]:
    """All distinct unions of subfamilies of the generator supports."""
    unions = {0}
    for g in gen_masks:
        unions |= {u | g for u in unions}
    unions.discard(0)
    return sorted(unions)


def _check_degree_row(ideal: MonomialIdeal, table: BettiTable) -> None:
    hist = ideal.degree_histogram()
    row = {j: b for (i, j), b in table._entries.items() if i == 0}
    if row != hist:
        raise RuntimeError(
            f"column 0 of the table {row} does not match generator degrees {hist}"
        )


def _off_stars(index: FaceIndex, n: int, gen_masks: Iterable[int]) -> list[int]:
    """The rows of ``index``, the face index of the associated complex of
    an ideal on n variables, outside the closed star of each vertex v < n,
    from the generators: off_star[v] is the OR over the generators g
    through v of the AND of ``index.holding[u]`` over the u in g - {v}
    (every row when g = {v}).

    Proof.  A face F is outside the closed star of v iff F + {v} is not a
    face, iff F + {v} holds a generator g.  Such a g holds v, as F holds
    none, and F holds g - {v}.  Conversely if F holds g - {v} for a g
    through v, F + {v} holds g.  The faces that hold g - {v} are the AND of
    the holding masks of its vertices.  So the masks cost |g| - 1 ANDs per
    vertex of each generator, where building the stars from the faces
    costs a row lookup per face and vertex.
    """
    every = (1 << len(index.faces)) - 1
    # a variable in no face holds no row
    holding = index.holding + [0] * (n - index.n)
    off_star = [0] * n
    for g in gen_masks:
        vertices = [u - 1 for u in iter_bits(g)]
        for v in vertices:
            rows = every
            for u in vertices:
                if u != v:
                    rows &= holding[u]
            off_star[v] |= rows
    return off_star


def _half_tables(
    keep: list[int], rank: list[int], every: int, nowhere: int
) -> tuple[list[int], list[int]]:
    """The two tables of one half of the vertices of ``betti_hochster``.

    A part x of the half is a set of its s = len(keep) vertices, bit t for
    its vertex t.  ``inside[x]`` is the AND of ``keep[t]`` over the t
    outside x, ``every`` for the whole half, and ``apex[x]`` the least
    ``rank[t]`` over the t in x, ``nowhere`` for the empty part.

    Both are built by doubling over the vertices, each entry by one
    operation on an entry of the table before: on the parts of the first
    t vertices, x without t takes inside[x] & keep[t] and apex[x], and
    x + {t} takes inside[x] and min(apex[x], rank[t]).  So each table has
    2^s entries.
    """
    inside, apex = [every], [nowhere]
    for held, r in zip(keep, rank):
        inside = [mask & held for mask in inside] + inside
        apex += [a if a < r else r for a in apex]
    return inside, apex


def betti_hochster(
    ideal: MonomialIdeal,
    field: FieldSpec = GF2,
    cap: int = SUBSET_CAP_N,
    prune_cones: bool = True,
) -> BettiTable:
    """Betti table summed from homology of induced subcomplexes.

    Hochster's formula gives beta_{i,j} as the sum over vertex subsets W
    with |W| = j of the reduced homology of the induced subcomplex Delta_W
    in dimension j - i - 2.  With ``prune_cones`` (default) only subsets
    that equal the union of the generator supports they contain are
    visited; any other subset induces a cone, which is contractible and
    contributes nothing.

    The faces of Delta are enumerated once, and their ``FaceIndex`` gives
    each face a row, in one numbering of all faces, and its boundary column
    in those rows, a row mask from which the signs follow, built the first
    time ``FaceIndex.homology`` walks the row; the columns of the rows no W
    walks are never built.  ``FaceIndex.homology`` restricts the columns
    and reduces them over the field.  For a subset W the columns of the
    faces inside W are exactly the boundary matrices of Delta_W: every
    term of the boundary of a face inside W is a face inside W, so the
    rows of the faces outside W are zero in the kept columns.  Rank
    depends neither on how rows are numbered nor on zero rows, so each
    rank of the augmented chain complex of Delta_W is the rank of its kept
    columns.

    Restriction.  For each vertex v one bitmask over all faces (the index's
    ``holding``) marks those that contain v.  The faces inside W are all
    faces but those marked for a vertex outside W, and the apex's closed
    star is dropped with one more AND; ``FaceIndex.homology`` splits what
    is left by size.

    Half tables.  The cell mask of a W costs O(1) operations, not one AND
    per outside vertex.  Split the n variables at h = n // 2 and write
    W = x + (y << h), x the part of W below h and y the rest.  The faces
    inside W are those that meet no vertex outside W: no vertex below h
    outside x, and no vertex from h on outside y.  So their mask is
    inside_low[x] & inside_high[y], where each table ANDs the ``holding``
    complements of the vertices of its half outside the part
    (``_half_tables``).  The apex of W is the vertex of W first in the
    apex order, so its place in that order is the lesser of the least
    places in x and in y, which two more tables hold.  Each table entry is
    one operation on an entry built before it, and a call keeps
    2^(n - h) + 2^h masks, 512 at n = 16.

    Relative to a vertex star.  The vertices of Delta (the v with {v} a
    face) are ordered once per ideal by ``FaceIndex.apexes``, largest
    closed star in Delta first, an order it reads off the ``holding``
    counts; the apex of W is the first of them in W.  The faces of Delta_W
    in the apex's closed star are dropped: a face inside W is in the closed
    star of the apex in Delta_W iff it is in the closed star in Delta, as W
    holds the apex.  The rows outside each closed star come from the
    generators (``_off_stars``): F + {v} is not a face iff F holds g - {v}
    for a generator g through v, so one AND of holding masks per vertex of
    g - {v} and one OR per such g give them, and the index builds no star.
    What is left are the cells of Delta_W relative to that star,
    a cone, and ``FaceIndex.homology`` ranks them from the top size down
    with clearing; its docstring proves that this gives the reduced
    homology of Delta_W over every field.  The star holds most of the
    small faces of Delta_W, so far fewer columns are walked and reduced.
    When W holds no vertex of Delta, Delta_W = {∅} and its one face is
    counted as it is.

    One reduction per relative complex.  ``FaceIndex.homology`` is a pure
    function of the index, the cell mask and the field, and W enters the
    table only through j = |W|.  So the call first counts the visited W
    under their (cell mask, |W|), one counter per mask with a field for
    each |W|, and then reduces each distinct mask once, adding each
    nonzero dimension h of its homology at size g, times the count, at
    (j - g - 1, j): the table is the one that reducing every W gives.
    Repeats are common.  Let u be a vertex of W, not its apex, that lies
    in no cell.  Every face of Delta_W through u is then in the apex's
    closed star, so G + {u} in Delta_W gives G + {u} + {apex} in
    Delta_W: the link of u in Delta_W is a cone on the apex, and Delta_W is
    homotopy equivalent to Delta_{W - u}.  The masks show it directly:
    W - {u} has the same apex, and its cells are the cells of W that miss
    u, which are all of them, so the cell masks of W and W - {u} are equal.
    On the 144 Hochster jobs of the first ``exact-tables`` pass (seed 1),
    the 14,249 visited W fall under 11,130 (mask, |W|) keys and 6,638
    distinct masks, so 7,611 W repeat a mask of their call.  The counts
    and the reduced masks are dropped when the call returns.

    The strand route ranks every column of each strand of the Lyubeznik
    complex, so ``--method both`` compares this computation against one
    that neither reduces against a star nor clears.
    """
    _require_proper_nonzero(ideal)
    n = ideal.n
    if n > cap:  # faces range over all 2^n subsets
        raise CapExceeded(f"n={n} exceeds cap {cap}")
    gen_masks = ideal.gen_masks()
    index = FaceIndex(_face_masks(n, gen_masks))
    every = (1 << len(index.faces)) - 1
    # keep[v]: the rows whose face misses vertex v; a variable in no face
    # misses every row
    keep = [every ^ held for held in index.holding] + [every] * (n - index.n)
    off_star = _off_stars(index, n, gen_masks)
    if prune_cones:
        candidates = _union_closure(gen_masks)
    else:
        candidates = range(1, 1 << n)
    # rank[v]: the place of v in the apex order, len(apexes) for a variable
    # that is no vertex of Delta; off[rank]: the rows it keeps, all of them
    # for no apex
    apexes = index.apexes()
    rank = [len(apexes)] * n
    for place, v in enumerate(apexes):
        rank[v] = place
    off = [off_star[v] for v in apexes] + [every]
    # W splits into its vertices below half and the rest: W = x + (y << half)
    half = n >> 1
    lower = (1 << half) - 1
    low_inside, low_apex = _half_tables(keep[:half], rank[:half], every, len(apexes))
    high_inside, high_apex = _half_tables(keep[half:], rank[half:], every, len(apexes))
    # counts[cells]: the numbers of visited W with those cells, one field of
    # n bits for each |W| = j at bit j * n; fewer than 2^n W have |W| = j,
    # so no field overflows
    unit = [1 << j * n for j in range(n + 1)]
    counts: dict[int, int] = {}
    for w in candidates:
        x = w & lower
        y = w >> half
        a = low_apex[x]
        b = high_apex[y]
        cells = low_inside[x] & high_inside[y] & off[a if a < b else b]
        counts[cells] = counts.get(cells, 0) + unit[w.bit_count()]
    entries: dict[tuple[int, int], int] = {}
    for cells, packed in counts.items():
        dims = index.homology(cells, field)
        if not any(dims):
            continue
        pairs = [(g, h) for g, h in enumerate(dims) if h]
        while packed:
            # the lowest field in use: j, and its count
            j = ((packed & -packed).bit_length() - 1) // n
            count = packed >> j * n & (1 << n) - 1
            packed ^= count << j * n
            # i >= 0: a face of size j inside W is W itself, which holds the
            # apex and so lies in its closed star, never a cell; with no apex
            # the one cell is the empty face; so g <= j - 1 for every cell
            for g, h in pairs:
                i = j - g - 1  # faces of size g have dimension g - 1
                entries[(i, j)] = entries.get((i, j), 0) + h * count
    table = BettiTable(entries)
    _check_degree_row(ideal, table)
    return table


def lyubeznik_order(gen_masks: Iterable[int]) -> list[int]:
    """The generator order of the strand route: sorted by (degree, mask),
    then the even positions of that list followed by the odd ones.

    Every total order gives a Lyubeznik resolution, and the number of
    cells depends on it.  On a path ideal with a large overlap the
    generator between two others divides their lcm.  In the sorted order
    it never precedes both, and ``(5, 3, 14)`` keeps all 16,384 Taylor
    cells; in this order the middle generator of each pair in the second
    half comes first, and 4,352 cells are left.
    """
    ranked = sorted(gen_masks, key=lambda g: (g.bit_count(), g))
    return ranked[0::2] + ranked[1::2]


def lyubeznik_cells(order: list[int], cap: int = STRAND_CAP_CELLS) -> dict[int, int]:
    """The admissible sets of the generators ``order``, as a map from the
    set (bit t for ``order[t]``) to its lcm; the empty set is one of them.

    A set {i_1 < ... < i_r} is admissible when, for every t < r, no m_q
    with q < i_t divides lcm(m_{i_t}, ..., m_{i_r}) (G. Lyubeznik, J. Pure
    Appl. Algebra 51, 1988).  The search starts from the singletons and
    prepends a smaller index i to an admissible set T when no m_q with
    q < i divides lcm({i} + T), the one condition that {i} + T adds.

    Proof that the search reaches every admissible set exactly once.  Let
    S = {i_1 < ... < i_r} with r >= 2 and T = S - {i_1}.  The tails of S
    from t >= 2 are the tails of T, with the same indices, so S is
    admissible iff T is admissible and no m_q with q < i_1 divides lcm S,
    which is the test (every such q lies outside S).  Singletons have no
    condition.  By induction on r the search reaches every admissible set,
    from its one parent S - {i_1}, which it reaches once; and it prepends
    only when the test passes, so it reaches no other set.

    The cells are counted as they are found, the empty set among them, and
    ``CapExceeded`` is raised as soon as the count passes ``cap``, before
    any rank.  At most 2^k sets are admissible, so the default cap of 2^18
    refuses no ideal with k <= 18.
    """
    k = len(order)
    cells = {0: 0}
    stack = [(1 << j, order[j], j) for j in range(k)]
    while stack:
        cell, whole, low = stack.pop()
        cells[cell] = whole
        if len(cells) > cap:
            raise CapExceeded(f"k={k}: cell count exceeds cap {cap}")
        # m_q divides whole | m_i iff m_i holds the part of m_q outside whole
        misses: list[int] = []
        for i in range(low):
            g = order[i]
            for miss in misses:
                if miss & g == miss:
                    break
            else:
                stack.append((cell | 1 << i, whole | g, i))
            misses.append(g & ~whole)
    return cells


Strand = tuple[list[int], list[list[list[tuple[int, int]]]]]


def taylor_strand_complexes(
    ideal: MonomialIdeal, cap: int = STRAND_CAP_CELLS
) -> dict[int, Strand]:
    """The tensored Lyubeznik resolution, split into one chain complex per
    degree j, as ``{j: (sizes, boundaries)}``: ``sizes[h]`` cells at
    homological degree h, and ``boundaries[h]`` (h >= 1) the sparse columns
    ``[(row, coeff), ...]`` of the map from degree h to degree h - 1.

    The cells are the admissible sets of ``lyubeznik_cells`` under
    ``lyubeznik_order``.  Cell S sits at homological degree |S| with
    internal degree |lcm S|, in increasing mask order within its
    (|S|, |lcm S|) group; a differential term S -> S - {g} survives the
    tensor exactly when dropping g does not change the lcm, so each
    internal degree j carries its own complex.

    Proof.  Admissible sets are closed under subsets.  Let T be a subset
    of an admissible S and j < j' two elements of T.  The tail of T from j
    lies inside the tail of S from j, and j is not the last element of S,
    so no m_q with q < j divides the lcm of the tail of S, nor the lcm of
    the tail of T, which divides it.  So every face S - {g} of a cell is a
    cell, and Taylor's differential
    d e_S = sum over g in S of +-(lcm S / lcm(S - {g})) e_{S - {g}},
    restricted to the cells, is well defined.  With it the cells span a
    subcomplex L of the Taylor complex that is a free resolution of R/I
    (Lyubeznik 1988; J. Mermin, "Three simplicial resolutions", 2012).
    Tensoring with the residue field sends a coefficient
    lcm S / lcm(S - {g}) to 1 when the lcm does not change and to 0
    otherwise, so L tensor k has the cells as basis and keeps only the
    terms between cells of one lcm.  Those preserve the degree |lcm S|, so
    L tensor k is the direct sum of its strands, exactly as the Taylor
    complex is, and Tor_h(R/I, k)_j, the entry (h - 1, j) of the ideal's
    table, is the homology of strand j at |S| = h.
    """
    order = lyubeznik_order(ideal.gen_masks())
    lcm = lyubeznik_cells(order, cap)

    # by_degree[j][h]: the cells with an lcm of degree j and h generators,
    # in increasing order; position[s]: the place of s in its list
    by_degree: dict[int, list[list[int]]] = {}
    position: dict[int, int] = {}
    for s in sorted(lcm):
        sized = by_degree.setdefault(lcm[s].bit_count(), [])
        h = s.bit_count()
        while len(sized) <= h:
            sized.append([])
        position[s] = len(sized[h])
        sized[h].append(s)

    strands: dict[int, Strand] = {}
    for j in sorted(by_degree):
        sized = by_degree[j]
        boundaries: list[list[list[tuple[int, int]]]] = [[]]
        for cells in sized[1:]:
            cols = []
            for s in cells:
                # the sign of dropping a generator is -1 to the number of
                # generators of s below it: it alternates over the set bits
                column = []
                sign = 1
                rest, whole = s, lcm[s]
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    smaller = s ^ bit
                    if lcm[smaller] == whole:
                        column.append((position[smaller], sign))
                    sign = -sign
                cols.append(column)
            boundaries.append(cols)
        strands[j] = ([len(cells) for cells in sized], boundaries)
    return strands


def betti_taylor_tor(
    ideal: MonomialIdeal, field: FieldSpec = GF2, cap: int = STRAND_CAP_CELLS
) -> BettiTable:
    """Betti table from strand homology of the tensored Lyubeznik resolution."""
    _require_proper_nonzero(ideal)
    entries: dict[tuple[int, int], int] = {}
    for j, (sizes, boundaries) in taylor_strand_complexes(ideal, cap).items():
        top = len(sizes) - 1
        ranks = [0] * (top + 2)
        for h in range(1, top + 1):
            ranks[h] = rank_sparse(boundaries[h], sizes[h - 1], field)
        for h in range(1, top + 1):
            dim = sizes[h] - ranks[h] - ranks[h + 1]
            if dim:
                entries[(h - 1, j)] = dim
    table = BettiTable(entries)
    _check_degree_row(ideal, table)
    return table


Interval = tuple[int, int]


def _intervals(ideal: MonomialIdeal) -> Optional[tuple[Interval, ...]]:
    """The generators as (start, end) index intervals sorted by start, or
    None when some generator is not a run of consecutive variables."""
    out = []
    for g in ideal.gen_masks():
        if not _is_run(g):
            return None
        start = (g & -g).bit_length()
        out.append((start, start + g.bit_count() - 1))
    return tuple(sorted(out))


def _colon_by_last(rest: tuple[Interval, ...], start: int) -> tuple[Interval, ...]:
    """Minimal generators of I' : g for g starting at ``start``, where I' is
    generated by ``rest``, the intervals that start (and end) before g."""
    cut = start - 1
    if not rest or rest[-1][1] < cut:
        return rest
    p = len(rest) - 1
    while p > 0 and rest[p - 1][1] >= cut:
        p -= 1
    return rest[:p] + ((rest[-1][0], cut),)


class _IntervalMemo:
    """Tables of interval ideals, keyed by their intervals translated to
    start at 1.

    One instance serves every call and every field: a table is a function
    of its key alone, so sharing changes no result, and a sweep over k
    reuses the tables of the shorter prefixes.  It is emptied before a call
    once its tables hold more than ``LIMIT`` entries in total (an entry
    takes about 100 bytes).
    """

    LIMIT = 1 << 19

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.tables: dict[tuple[Interval, ...], dict[tuple[int, int], int]] = {(): {}}
        self.entries = 0

    def table(self, key: tuple[Interval, ...]) -> dict[tuple[int, int], int]:
        """The entries of the table of ``key`` by the splitting recursion,
        with an explicit stack so that the depth is not bounded by k."""
        if self.entries > self.LIMIT:
            self.clear()
        tables = self.tables
        stack = [key]
        while stack:
            top = stack[-1]
            if top in tables:
                stack.pop()
                continue
            rest, (start, end) = top[:-1], top[-1]
            colon = _colon_by_last(rest, start)
            pending = [sub for sub in (rest, colon) if sub not in tables]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            width = end - start + 1
            entries = dict(tables[rest])
            entries[(0, width)] = entries.get((0, width), 0) + 1
            for (i, j), b in tables[colon].items():
                entries[(i + 1, j + width)] = entries.get((i + 1, j + width), 0) + b
            tables[top] = entries
            self.entries += len(entries)
        return tables[key]


_INTERVAL_MEMO = _IntervalMemo()


def betti_interval(ideal: MonomialIdeal) -> BettiTable:
    """Betti table of an interval ideal by the interval splitting recursion.

    An interval ideal is generated by monomials x_a x_{a+1} ... x_b.  Sort
    its minimal generators by start, g_t = [a_t, b_t]; as they form an
    antichain, the ends increase too.  Let g = [a_k, b_k] be the last one and
    I' the ideal of the others.  Then

        beta_{i,j}(I) = beta_{i,j}(I') + [i = 0, j = |g|]
                        + beta_{i-1, j-|g|}(I' : g),

    and I' : g is generated by the intervals [a_i, min(b_i, a_k - 1)].

    Proof.  Only g is divisible by x_{b_k}, and the ideal (g) of a single
    generator has a linear resolution, so I = (g) + I' is a Betti splitting
    over every field (Francisco-Ha-Van Tuyl, "Splittings of monomial
    ideals", Proc. AMS 2009, Cor. 2.7):
    beta_{i,j}(I) = beta_{i,j}((g)) + beta_{i,j}(I') + beta_{i-1,j}((g) ∩ I').
    The first term is the single entry (0, |g|).  For squarefree h,
    (g) ∩ (h) = (g * (h minus g)), so (g) ∩ I' = g (I' : g), and
    multiplication by g is an isomorphism I' : g -> g (I' : g) of degree
    |g|, which shifts j by |g|.  As a_i < a_k and b_i < b_k, h minus g is the
    nonempty interval [a_i, min(b_i, a_k - 1)].  Its minimal generators:
    the intervals with b_i < a_k - 1 are unchanged and form a prefix; the
    others all end at a_k - 1 and contain the last of them, which no
    unchanged interval contains or is contained in.  So I' and I' : g are
    interval ideals with fewer generators, and induction on k proves the
    recursion.  Its base and every step are integers that do not mention
    the field, so the table is the same over every field.  The table is
    also unchanged when all indices are translated, which is why the memo
    keys are intervals translated to start at 1.

    The route does no linear algebra and visits O(k^2) interval tuples at
    most, against the 2^n vertex subsets and up to 2^k generator sets of
    the other two.
    """
    _require_proper_nonzero(ideal)
    intervals = _intervals(ideal)
    if intervals is None:
        raise ValueError(f"{ideal} is not generated by intervals of consecutive variables")
    return _interval_table(ideal, intervals)


def _interval_table(ideal: MonomialIdeal, intervals: tuple[Interval, ...]) -> BettiTable:
    """The table of ``betti_interval``, given the ideal's intervals."""
    shift = intervals[0][0] - 1
    key = tuple((a - shift, b - shift) for a, b in intervals)
    table = BettiTable(_INTERVAL_MEMO.table(key))
    _check_degree_row(ideal, table)
    return table


def betti_table(
    ideal: MonomialIdeal,
    field: FieldSpec = GF2,
    method: str = "auto",
    cap_n: int = SUBSET_CAP_N,
    cap_cells: int = STRAND_CAP_CELLS,
) -> BettiTable:
    """Compute the Betti table by the requested method.

    ``auto`` takes the interval route whenever every generator is an
    interval of consecutive variables, and otherwise the homology route
    when n <= k and the strand route when n > k, each falling back on the
    other beyond its cap; ``both`` runs the two exponential routes and
    insists on exact agreement.
    """
    _require_proper_nonzero(ideal)
    n, k = ideal.n, len(ideal.gens)
    if method == "hochster":
        return betti_hochster(ideal, field, cap=cap_n)
    if method == "taylor":
        return betti_taylor_tor(ideal, field, cap=cap_cells)
    if method == "interval":
        return betti_interval(ideal)
    if method == "auto":
        intervals = _intervals(ideal)
        if intervals is not None:
            return _interval_table(ideal, intervals)
        if n <= k and n <= cap_n:
            return betti_hochster(ideal, field, cap=cap_n)
        try:
            return betti_taylor_tor(ideal, field, cap=cap_cells)
        except CapExceeded as exc:
            if n <= cap_n:
                return betti_hochster(ideal, field, cap=cap_n)
            raise CapExceeded(f"n={n} exceeds cap {cap_n} and {exc}") from None
    if method == "both":
        via_homology = betti_hochster(ideal, field, cap=cap_n)
        via_strands = betti_taylor_tor(ideal, field, cap=cap_cells)
        if via_homology != via_strands:
            raise RuntimeError(
                "the two Betti routes disagree on "
                f"{ideal} over {field}: {via_homology.digest()} vs {via_strands.digest()}"
            )
        return via_homology
    raise ValueError(f"unknown method {method!r}")
