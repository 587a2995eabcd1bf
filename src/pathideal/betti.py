"""Graded Betti tables of squarefree monomial ideals by three routes.

All routes produce the table of the ideal (not of the quotient ring):

* the combinatorial route sums reduced homology of induced subcomplexes of
  the associated simplicial complex, one subcomplex per vertex subset W,
  contributing to column ``j = |W|`` in homological degree ``i = j - d - 2``;
* the algebraic route tensors the resolution indexed by generator subsets
  with the residue field, keeping only subset differentials that do not
  change the lcm, and reads the table off strand-by-strand homology;
* the interval route, for ideals whose generators are intervals of
  consecutive variables (the path family among them), splits off the last
  interval and recurses on integer tables; it uses no linear algebra.

The first two are exponential and independent of each other: their
agreement on a shared instance is the core anti-bug check of the package,
and nothing in their inner loops is shared beyond the exact column
reducers of ``fields``.  The combinatorial route takes its boundary
columns from ``complexes.FaceIndex``, the package's one builder of
simplicial boundaries, which also restricts and reduces them
(``FaceIndex.pivots``); the algebraic route builds its own
(``ChainComplex``) and ranks them through ``fields.rank_sparse``.  The
interval route is polynomial and is always checked against them, never
used as an oracle for itself.

The combinatorial route restricts the faces to each W with per-vertex
bitmasks, and ranks the chain complex of Delta_W relative to the closed
star of one vertex of W, a cone whose faces need no rank.  It reduces
those boundary matrices from the top size down with clearing: the faces
that are pivot rows one size up are skipped, as their columns are proven
to reduce to zero.  Both steps, and their proofs, are in
``FaceIndex.homology``.  The algebraic route ranks every column of an
unreduced complex, so ``--method both`` checks a reduced and cleared
computation against one that is neither, and a fault in the reduction or
the clearing cannot hide in both routes at once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .caps import SUBSET_CAP_N, TAYLOR_CAP_K, CapExceeded
from .complexes import FaceIndex
from .fields import GF2, FieldSpec, rank_sparse
from .monomials import MonomialIdeal, iter_bits


class BettiTable:
    """Sparse table (i, j) -> multiplicity, in the ideal convention.

    All public tables are tables of the ideal; the quotient-ring table is
    the shift i -> i+1 and is never stored.
    """

    convention = "ideal"

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
    hist = dict(Counter(g.bit_count() for g in ideal.gen_masks()))
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
        for v in iter_bits(g):
            rows = every
            for u in iter_bits(g ^ 1 << v - 1):
                rows &= holding[u - 1]
            off_star[v - 1] |= rows
    return off_star


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
    time ``FaceIndex.pivots`` walks the row; the columns of the rows no W
    walks are never built.  ``FaceIndex.pivots`` restricts the columns and
    reduces them over the field.  For a
    subset W the columns of the faces inside W are exactly the boundary
    matrices of Delta_W: every term of the boundary of a face inside W is a
    face inside W, so the rows of the faces outside W are zero in the kept
    columns.  Rank depends neither on how rows are numbered nor on zero
    rows, so each rank of the augmented chain complex of Delta_W is the
    rank of its kept columns.

    Restriction.  For each vertex v one bitmask over all faces (the index's
    ``holding``) marks those that contain v.  The faces inside W are all
    faces but those marked for a vertex outside W, one AND per outside
    vertex over one mask, and the apex's closed star is dropped with one
    more AND; ``FaceIndex.homology`` splits what is left by size.

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

    The strand route ranks every column of an unreduced complex, so
    ``--method both`` compares this computation against one that neither
    reduces against a star nor clears.
    """
    _require_proper_nonzero(ideal)
    n = ideal.n
    if n > cap:  # faces range over all 2^n subsets
        raise CapExceeded(f"n={n} exceeds cap {cap}")
    gen_masks = ideal.gen_masks()
    index = FaceIndex(_face_masks(n, gen_masks))
    every = (1 << len(index.faces)) - 1
    # keep[v]: the rows whose face misses vertex v
    keep = [every ^ held for held in index.holding]
    off_star = _off_stars(index, n, gen_masks)
    if prune_cones:
        candidates = _union_closure(gen_masks)
    else:
        candidates = list(range(1, 1 << n))
    apexes = index.apexes()
    entries: dict[tuple[int, int], int] = {}
    for w in candidates:
        # cells: the rows of the faces inside W and outside the closed star
        # of the apex; with no vertex of Delta in W, Delta_W = {∅} keeps its
        # one face
        cells = every
        for v in range(index.n):
            if not w >> v & 1:
                cells &= keep[v]
        for v in apexes:
            if w >> v & 1:
                cells &= off_star[v]
                break
        j = w.bit_count()
        for g, h in enumerate(index.homology(cells, field)):
            i = j - g - 1  # faces of size g have dimension g - 1
            if h and i >= 0:
                entries[(i, j)] = entries.get((i, j), 0) + h
    table = BettiTable(entries)
    _check_degree_row(ideal, table)
    return table


class ChainComplex:
    """A bounded chain complex of based vector spaces with integer matrices.

    ``sizes[g]`` is the dimension in grade g and ``boundaries[g]`` holds the
    sparse columns ``[(row, coeff), ...]`` of the map grade g -> grade g-1
    (g >= 1).
    """

    def __init__(self, sizes: list[int], boundaries: list[list[list[tuple[int, int]]]]):
        self.sizes = sizes
        self.boundaries = boundaries  # boundaries[g] defined for g >= 1


def taylor_strand_complexes(
    ideal: MonomialIdeal, cap: int = TAYLOR_CAP_K
) -> dict[int, ChainComplex]:
    """The tensored subset resolution, split into one chain complex per degree.

    Basis elements are generator subsets S at homological degree |S| with
    internal degree |lcm S|; a differential term S -> S\\{g} survives the
    tensor exactly when dropping g does not change the lcm, so each internal
    degree j carries its own complex.
    """
    gen_masks = ideal.gen_masks()
    k = len(gen_masks)
    if k > cap:
        raise CapExceeded(f"k={k} exceeds cap {cap}")
    total = 1 << k
    lcm = [0] * total
    for s in range(1, total):
        low = s & -s
        lcm[s] = lcm[s ^ low] | gen_masks[low.bit_length() - 1]

    # groups[(h, j)]: the subsets with h generators and an lcm of degree j,
    # in increasing order; position[s]: the place of s in its group
    groups: dict[tuple[int, int], list[int]] = {}
    position = [0] * total
    for s in range(total):
        group = groups.setdefault((s.bit_count(), lcm[s].bit_count()), [])
        position[s] = len(group)
        group.append(s)

    strands: dict[int, ChainComplex] = {}
    for j in sorted({j for _, j in groups}):
        top = max(h for h, jj in groups if jj == j)
        sizes = [len(groups.get((h, j), [])) for h in range(top + 1)]
        boundaries: list[list[list[tuple[int, int]]]] = [[]]
        for h in range(1, top + 1):
            cols = []
            for s in groups.get((h, j), []):
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
        strands[j] = ChainComplex(sizes, boundaries)
    return strands


def betti_taylor_tor(
    ideal: MonomialIdeal, field: FieldSpec = GF2, cap: int = TAYLOR_CAP_K
) -> BettiTable:
    """Betti table from strand homology of the tensored subset resolution."""
    _require_proper_nonzero(ideal)
    entries: dict[tuple[int, int], int] = {}
    for j, chain in taylor_strand_complexes(ideal, cap).items():
        top = len(chain.sizes) - 1
        ranks = [0] * (top + 2)
        for h in range(1, top + 1):
            ranks[h] = rank_sparse(chain.boundaries[h], chain.sizes[h - 1], field)
        for h in range(1, top + 1):
            dim = chain.sizes[h] - ranks[h] - ranks[h + 1]
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
        low = g & -g
        if not g or g & (g + low):
            return None
        start = low.bit_length()
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
    once its tables hold more than ``limit`` entries in total (an entry
    takes about 100 bytes).
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.clear()

    def clear(self) -> None:
        self.tables: dict[tuple[Interval, ...], dict[tuple[int, int], int]] = {(): {}}
        self.entries = 0

    def table(self, key: tuple[Interval, ...]) -> dict[tuple[int, int], int]:
        """The entries of the table of ``key`` by the splitting recursion,
        with an explicit stack so that the depth is not bounded by k."""
        if self.entries > self.limit:
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


_INTERVAL_MEMO = _IntervalMemo(limit=1 << 19)


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
    most, against the 2^n or 2^k subsets of the other two.
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
    cap_k: int = TAYLOR_CAP_K,
) -> BettiTable:
    """Compute the Betti table by the requested method.

    ``auto`` takes the interval route whenever every generator is an
    interval of consecutive variables, and otherwise the exponential route
    with the smaller subset count; ``both`` runs the two exponential routes
    and insists on exact agreement.
    """
    _require_proper_nonzero(ideal)
    n, k = ideal.n, len(ideal.gens)
    if method == "hochster":
        return betti_hochster(ideal, field, cap=cap_n)
    if method == "taylor":
        return betti_taylor_tor(ideal, field, cap=cap_k)
    if method == "interval":
        return betti_interval(ideal)
    if method == "auto":
        intervals = _intervals(ideal)
        if intervals is not None:
            return _interval_table(ideal, intervals)
        prefer_hochster = n <= k
        if prefer_hochster and n <= cap_n:
            return betti_hochster(ideal, field, cap=cap_n)
        if k <= cap_k:
            return betti_taylor_tor(ideal, field, cap=cap_k)
        if n <= cap_n:
            return betti_hochster(ideal, field, cap=cap_n)
        raise CapExceeded(f"n={n} and k={k} both exceed their caps ({cap_n}, {cap_k})")
    if method == "both":
        via_homology = betti_hochster(ideal, field, cap=cap_n)
        via_strands = betti_taylor_tor(ideal, field, cap=cap_k)
        if via_homology != via_strands:
            raise RuntimeError(
                "the two Betti routes disagree on "
                f"{ideal} over {field}: {via_homology.digest()} vs {via_strands.digest()}"
            )
        return via_homology
    raise ValueError(f"unknown method {method!r}")
