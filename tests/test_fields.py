"""The sparse rank reducer cross-checked against a Fraction-based reference elimination."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathideal.fields import (
    GF2,
    QQ,
    FieldSpec,
    parse_field,
    pivots_gf2,
    pivots_gfp,
    pivots_qq,
    rank_sparse,
    reducer,
)

from oracles import reference_rank

FIELDS = (GF2, FieldSpec(3), FieldSpec(5), FieldSpec(65521), QQ)


def columns_of(matrix):
    """Sparse columns [(row, entry), ...] of a matrix given by its rows."""
    ncols = len(matrix[0]) if matrix else 0
    return [[(i, row[j]) for i, row in enumerate(matrix) if row[j]] for j in range(ncols)]


def dense_of(columns, nrows):
    """Rows of the matrix of sparse columns, entries that share a row summed."""
    matrix = [[0] * len(columns) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, coeff in col:
            matrix[i][j] += coeff
    return matrix


def assert_matches_reference(matrix, fields=FIELDS):
    for field in fields:
        got = rank_sparse(columns_of(matrix), len(matrix), field)
        assert got == reference_rank(matrix, field.p), (matrix, field)


def test_field_spec_labels_and_parsing():
    assert parse_field("gf2") == GF2
    assert parse_field("GF(7)").p == 7
    assert parse_field("rat") == QQ
    assert parse_field("q") == QQ
    assert GF2.label == "GF(2)"
    assert QQ.label == "QQ"
    with pytest.raises(ValueError):
        parse_field("gf4")
    with pytest.raises(ValueError):
        FieldSpec(1 << 17)
    with pytest.raises(ValueError):
        parse_field("reals")


def test_gf2_reducer_small_cases():
    def rank(masks):
        return len(reducer(GF2)(masks))

    assert rank([]) == 0
    assert rank([0b1, 0b10, 0b11]) == 2
    assert rank([0b111, 0b111]) == 1
    assert rank([0b101, 0b011, 0b110]) == 2  # columns sum to zero mod 2


def test_reducer_picks_the_field_reducer():
    assert reducer(GF2) is pivots_gf2
    assert reducer(QQ) is pivots_qq
    # one callable per field, built once
    assert reducer(FieldSpec(3)) is reducer(FieldSpec(3))
    assert reducer(FieldSpec(3)) is not reducer(FieldSpec(5))
    columns = [{0: 1, 1: 2}, {0: 2, 1: 1}]  # determinant -3
    assert len(reducer(FieldSpec(3))(columns)) == 1
    assert len(reducer(FieldSpec(5))(columns)) == 2


def test_rank_known_matrices():
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    zero = [[0] * 5 for _ in range(3)]
    singular = [[1, 2], [2, 4]]
    two = [[2]]
    for field in FIELDS:
        assert rank_sparse(columns_of(eye), 4, field) == 4
        assert rank_sparse(columns_of(zero), 3, field) == 0
        assert rank_sparse(columns_of(singular), 2, field) == 1
        # 2 divides every entry of [[2]] over GF(2) only
        assert rank_sparse(columns_of(two), 1, field) == (0 if field == GF2 else 1)
        assert rank_sparse([], 3, field) == 0
        assert rank_sparse([[], []], 0, field) == 0
    for matrix in (eye, zero, singular, two):
        assert_matches_reference(matrix)


def test_random_ranks_match_reference():
    rng = random.Random(42)
    for _ in range(80):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        assert_matches_reference([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)])


def test_low_rank_products_match_reference():
    rng = random.Random(43)
    for _ in range(30):
        r = rng.randint(1, 3)
        a = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(6)]
        b = [[rng.randint(-4, 4) for _ in range(7)] for _ in range(r)]
        product = [[sum(a[i][t] * b[t][j] for t in range(r)) for j in range(7)] for i in range(6)]
        assert rank_sparse(columns_of(product), 6, QQ) <= r
        assert_matches_reference(product)


def test_exact_bareiss_handles_large_entries():
    big = 1 << 40  # products of two entries leave int64
    cases = [
        ([[big, big + 1], [big - 1, big]], 2),
        ([[big, 2 * big], [3 * big, 6 * big]], 1),
    ]
    for matrix, rank in cases:
        assert rank_sparse(columns_of(matrix), len(matrix), QQ) == rank
        assert reference_rank(matrix) == rank


def test_rank_rational_accepts_entries_beyond_int64():
    huge = 1 << 80
    cases = [
        ([[huge, 1], [0, huge]], 2),
        ([[huge, 2 * huge]], 1),
    ]
    for matrix, rank in cases:
        assert rank_sparse(columns_of(matrix), len(matrix), QQ) == rank
        assert reference_rank(matrix) == rank


def test_rank_sparse_matches_dense():
    """Random ±1 columns, some with repeated rows, as boundary matrices come."""
    rng = random.Random(45)
    for _ in range(40):
        nrows = rng.randint(1, 8)
        columns = []
        for _ in range(rng.randint(1, 8)):
            rows = rng.sample(range(nrows), rng.randint(0, nrows))
            rows += rng.sample(rows, rng.randint(0, len(rows)))
            columns.append([(i, rng.choice([-1, 1])) for i in rows])
        dense = dense_of(columns, nrows)
        for field in FIELDS:
            assert rank_sparse(columns, nrows, field) == reference_rank(dense, field.p)


def test_rank_mod_p_stays_within_int64():
    """Entries stay reduced mod p < 2^16, so every product fits in 64 bits."""
    p = 65521  # largest prime below 2^16
    rng = random.Random(46)
    matrix = [[rng.randint(0, p - 1) for _ in range(6)] for _ in range(6)]
    assert_matches_reference(matrix, [FieldSpec(p)])
    # the determinant is p: rank 2 over QQ, 1 mod p
    det_p = [[1, p], [0, p]]
    assert rank_sparse(columns_of(det_p), 2, FieldSpec(p)) == 1
    assert rank_sparse(columns_of(det_p), 2, QQ) == 2


@st.composite
def sparse_matrices(draw):
    nrows = draw(st.integers(1, 8))
    entries = st.tuples(st.integers(0, nrows - 1), st.integers(-6, 6))
    columns = draw(st.lists(st.lists(entries, max_size=2 * nrows), min_size=1, max_size=8))
    return columns, nrows


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sparse_matrices())
def test_rank_sparse_equals_reference_property(matrix):
    columns, nrows = matrix
    dense = dense_of(columns, nrows)
    for field in FIELDS:
        assert rank_sparse(columns, nrows, field) == reference_rank(dense, field.p)


def reference_pivot_rows(matrix, p=None):
    """Rows of the lowest nonzero entries of the columns of a left-to-right
    column reduction with Fractions (or naive mod p), the slow oracle.

    A column is reduced while its lowest (largest-row) nonzero entry is the
    lowest entry of an earlier reduced column; the set of these rows does not
    depend on how the reduction is carried out.
    """
    nrows = len(matrix)
    lowest: dict[int, list] = {}
    for c in range(len(matrix[0]) if matrix else 0):
        col = [Fraction(matrix[r][c]) if p is None else matrix[r][c] % p for r in range(nrows)]
        while any(col):
            low = max(r for r in range(nrows) if col[r])
            pivot = lowest.get(low)
            if pivot is None:
                lowest[low] = col
                break
            if p is None:
                factor = col[low] / pivot[low]
                col = [a - factor * b for a, b in zip(col, pivot)]
            else:
                factor = col[low] * pow(pivot[low], p - 2, p)
                col = [(a - factor * b) % p for a, b in zip(col, pivot)]
    return set(lowest)


def reducer_pivots(matrix, field):
    """The pivot dict of the field's reducer on the columns of ``matrix``."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    p = field.p
    if p == 2:
        masks = [sum(1 << r for r in range(nrows) if matrix[r][c] % 2) for c in range(ncols)]
        return reducer(field)(masks)
    columns = [
        {r: matrix[r][c] % p if p else matrix[r][c] for r in range(nrows)
         if (matrix[r][c] % p if p else matrix[r][c])}
        for c in range(ncols)
    ]
    frozen = [dict(col) for col in columns]
    pivots = reducer(field)(columns)
    assert columns == frozen  # the reducer leaves its input alone
    return pivots


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sparse_matrices())
def test_pivot_rows_are_the_lowest_ones_of_a_column_reduction(matrix):
    columns, nrows = matrix
    dense = dense_of(columns, nrows)
    for field in (GF2, FieldSpec(3), FieldSpec(65521), QQ):
        pivots = reducer_pivots(dense, field)
        assert set(pivots) == reference_pivot_rows(dense, field.p), (dense, field)
        assert len(pivots) == reference_rank(dense, field.p)
        for row, column in pivots.items():
            lowest = column.bit_length() - 1 if field == GF2 else max(column)
            assert lowest == row
