"""Slow reference constructions shared by the test modules.

They use none of the package's linear algebra or face index: ranks come
from a dense elimination with Fractions (or naive mod-p arithmetic), and
the minors of a clutter from the walk over all 3^v assignments.
"""

import itertools
from fractions import Fraction

from pathideal.caps import MINOR_CAP_N, CapExceeded
from pathideal.complexes import SimplicialComplex
from pathideal.monomials import iter_bits
from pathideal.topology import apply_assignment


def stanley_reisner_complex(ideal):
    """The complex whose faces are the variable subsets containing no
    generator, by a scan of all 2^n subsets; its facets are the faces to
    which no vertex can be added."""
    if not ideal.is_proper_nonzero:
        raise ValueError("the zero and the unit ideal are refused")
    n, gens = ideal.n, ideal.gen_masks()
    faces = {f for f in range(1 << n) if all(f & g != g for g in gens)}
    facets = [
        f for f in faces
        if not any(f | 1 << v in faces for v in range(n) if not f >> v & 1)
    ]
    return SimplicialComplex.from_faces(n, facets)


def reference_rank(matrix, p=None):
    """Gauss-Jordan elimination over the rationals (or naive mod p), the
    slow oracle; entries stay Python ints until a division leaves the
    integers, and become Fractions from then on."""
    rows = [list(row) if p is None else [x % p for x in row] for row in matrix]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        if p is None:
            inv = Fraction(1, rows[rank][c])
            if inv.denominator == 1:
                inv = inv.numerator
        else:
            inv = pow(int(rows[rank][c]), p - 2, p)
        rows[rank] = [
            x * inv if p is None else (x * inv) % p for x in rows[rank]
        ]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [
                    a if not b else a - f * b if p is None else (a - f * b) % p
                    for a, b in zip(rows[i], rows[rank])
                ]
        rank += 1
    return rank


def homology_dims(faces, field):
    """Reduced homology dimensions of a downward-closed face family, by
    dense boundary matrices and :func:`reference_rank`: a map face
    dimension -> dim, for dimensions -1 up to the top face dimension; an
    empty family gives an empty map."""
    sizes, ranks = boundary_ranks(faces, field)
    ranks.append(0)
    return {g - 1: sizes[g] - ranks[g] - ranks[g + 1] for g in range(len(sizes))}


def boundary_ranks(faces, field, drop=()):
    """The number of faces of each size of a downward-closed face family,
    and the rank of the boundary map on the faces of each size (0 on the
    empty face), by dense matrices and :func:`reference_rank`.

    With ``drop``, a subcomplex, the counts and ranks are those of the
    chain complex relative to it: its faces are neither rows nor columns.
    """
    drop = set(drop)
    top = max((f.bit_count() for f in faces), default=-1)
    sized = [
        sorted(f for f in faces if f.bit_count() == g and f not in drop)
        for g in range(top + 1)
    ]
    row = {f: r for faces_of_size in sized for r, f in enumerate(faces_of_size)}
    ranks = [0] * len(sized)
    for g in range(1, len(sized)):
        matrix = [[0] * len(sized[g]) for _ in sized[g - 1]]
        for c, f in enumerate(sized[g]):
            for pos, v in enumerate(v for v in range(f.bit_length()) if f >> v & 1):
                r = row.get(f & ~(1 << v))
                if r is not None:
                    matrix[r][c] = (-1) ** pos
        ranks[g] = reference_rank(matrix, field.p)
    return [len(faces_of_size) for faces_of_size in sized], ranks


def columns_sent(sizes, ranks):
    """The number of columns that a reduction from the top size down with
    clearing, given the face counts and boundary ranks of
    :func:`boundary_ranks`, sends to a reducer: at each size g >= 1 with
    faces one size down, the faces of size g but the pivot rows of the
    boundary one size up, as many as its rank; with no faces one size down
    the columns are zero and none is sent."""
    ranks = list(ranks) + [0]
    return sum(sizes[g] - ranks[g + 1] for g in range(1, len(sizes)) if sizes[g - 1])


def closed_star(faces, v):
    """The closed star of vertex v in a face family: the faces F for which
    F + {v} is also a face."""
    faces = set(faces)
    return {f for f in faces if f | 1 << v in faces}


def apex_order(faces):
    """The vertices v of a face family ({v} a face) by the size of their
    closed star, largest first, ties to the lower vertex."""
    faces = set(faces)
    vertices = [v for v in range(max(faces, default=0).bit_length()) if 1 << v in faces]
    return sorted(vertices, key=lambda v: (-len(closed_star(faces, v)), v))


def composition_is_zero(sizes, boundaries):
    """Whether d∘d = 0 in a chain complex given as ``(sizes, boundaries)``,
    symbolically over the integers (hence over any field)."""
    for g in range(2, len(sizes)):
        lower = boundaries[g - 1]
        for col in boundaries[g]:
            acc = {}
            for mid, c1 in col:
                for row, c2 in lower[mid]:
                    acc[row] = acc.get(row, 0) + c1 * c2
            if any(acc.values()):
                return False
    return True


def shells_by_definition(order):
    """Whether the facets in ``order`` are a shelling (Bjorner and Wachs,
    nonpure): for each facet F after the first, the faces it shares with the
    earlier facets form a complex whose maximal faces all have size |F| - 1."""
    for j, f in enumerate(order):
        shared = {f & g for g in order[:j]}
        maximal = [a for a in shared if not any(a != b and a & b == a for b in shared)]
        if any(a.bit_count() != f.bit_count() - 1 for a in maximal):
            return False
    return True


def minors(clutter, cap=MINOR_CAP_N):
    """All distinct minors of a clutter, each with one witnessing (zeros,
    ones) assignment, by the walk over the 3^v keep/0/1 assignments of the
    support vertices, deduplicated on the minor; the identity assignment
    comes first, so the clutter itself is yielded first."""
    support = list(iter_bits(clutter.support))
    if clutter.n > cap:
        raise CapExceeded(f"n={clutter.n} exceeds cap {cap}")
    seen = set()
    for choice in itertools.product((None, 0, 1), repeat=len(support)):
        zeros = sum(1 << (v - 1) for v, c in zip(support, choice) if c == 0)
        ones = sum(1 << (v - 1) for v, c in zip(support, choice) if c == 1)
        minor = apply_assignment(clutter, zeros, ones)
        if minor is not None and minor.edges not in seen:
            seen.add(minor.edges)
            yield (zeros, ones), minor


def documented_order(gen_masks):
    """The strand route's generator order as its docstring states it:
    sorted by (degree, mask), then the even positions of that list followed
    by the odd ones."""
    ranked = sorted(gen_masks, key=lambda g: (g.bit_count(), g))
    return [ranked[t] for t in range(0, len(ranked), 2)] + [
        ranked[t] for t in range(1, len(ranked), 2)
    ]


def admissible_sets_by_definition(order):
    """The Lyubeznik-admissible subsets of the generators ``order`` (bit t
    for ``order[t]``), in increasing mask order, by checking each of the
    2^k subsets literally: {i_1 < ... < i_r} is kept when for every t < r no
    order[q] with q < i_t divides the lcm of order[i_t], ..., order[i_r]."""
    kept = []
    for s in range(1 << len(order)):
        members = [t for t in range(len(order)) if s >> t & 1]
        admissible = True
        for t in range(len(members) - 1):
            tail = 0
            for u in members[t:]:
                tail |= order[u]
            if any(order[q] & tail == order[q] for q in range(members[t])):
                admissible = False
                break
        if admissible:
            kept.append(s)
    return kept


def taylor_strands_by_definition(ideal, gens=None, cells=None):
    """The strands of the tensored subset resolution, straight from the
    definition, as a map j -> (sizes, boundaries).

    The generators are ``gens`` (default: the ideal's own order), and the
    subsets are ``cells`` (default: all of them; a family closed under
    subsets).  Subset S has its row in increasing mask order within its
    (|S|, |lcm S|) group; its boundary column has a term for each position
    pos of S, in increasing order, whose generator can be dropped without
    changing the lcm, with sign -1 to the number of generators of S below
    pos.
    """
    gens = ideal.gen_masks() if gens is None else gens
    k = len(gens)
    cells = range(1 << k) if cells is None else sorted(cells)
    lcm = {}
    for s in cells:
        lcm[s] = 0
        for pos in range(k):
            if s >> pos & 1:
                lcm[s] |= gens[pos]
    groups = {}
    for s in cells:
        groups.setdefault((s.bit_count(), lcm[s].bit_count()), []).append(s)
    index = {key: {s: i for i, s in enumerate(subsets)} for key, subsets in groups.items()}
    strands = {}
    for j in sorted({j for _, j in groups}):
        top = max(h for h, jj in groups if jj == j)
        sizes = [len(groups.get((h, j), [])) for h in range(top + 1)]
        boundaries = [[]]
        for h in range(1, top + 1):
            prev = index.get((h - 1, j), {})
            cols = []
            for s in groups.get((h, j), []):
                col = []
                for pos in range(k):
                    bit = 1 << pos
                    if s & bit and lcm[s ^ bit] == lcm[s]:
                        sign = -1 if (s & (bit - 1)).bit_count() % 2 else 1
                        col.append((prev[s ^ bit], sign))
                cols.append(col)
            boundaries.append(cols)
        strands[j] = (sizes, boundaries)
    return strands


def strand_table(strands, field):
    """The ideal's Betti entries from strands in the form of
    :func:`taylor_strands_by_definition`, by dense matrices and
    :func:`reference_rank`: cells of size h in strand j give (h - 1, j)."""
    entries = {}
    for j, (sizes, boundaries) in strands.items():
        ranks = [0] * (len(sizes) + 1)
        for h in range(1, len(sizes)):
            matrix = [[0] * sizes[h] for _ in range(sizes[h - 1])]
            for c, col in enumerate(boundaries[h]):
                for r, sign in col:
                    matrix[r][c] = sign
            ranks[h] = reference_rank(matrix, field.p)
        for h in range(1, len(sizes)):
            dim = sizes[h] - ranks[h] - ranks[h + 1]
            if dim:
                entries[(h - 1, j)] = dim
    return entries
