"""Linear algebra tests against independently written schoolbook oracles."""

import itertools
import random
from functools import reduce
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmcode.construct import build_sparse_systematic
from pmcode.errors import (
    DimensionMismatch,
    DuplicateEvaluationPoint,
    FieldMismatch,
    IndexOutOfRange,
    Singular,
)
from pmcode.field import field_of_order, gf256_mul_bitwise
from pmcode.linalg import Matrix, compose, matrix_from_text, vandermonde

from golden_vectors import PSI

F11 = field_of_order(11)
F13 = field_of_order(13)
GF256 = field_of_order(256)


def random_matrix(field, rows, cols, rng):
    return Matrix(field, [[rng.randrange(field.order) for _ in range(cols)] for _ in range(rows)])


def schoolbook_matmul(field, a, b):
    """Oracle: definition of the matrix product, one field op at a time."""
    out = Matrix.zeros(field, a.rows, b.cols)
    for i in range(a.rows):
        for j in range(b.cols):
            acc = 0
            for t in range(a.cols):
                acc = field.add(acc, field.mul(a.data[i][t], b.data[t][j]))
            out.data[i][j] = acc
    return out


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", [F11, GF256], ids=["F11", "GF256"])
def test_matmul_matches_schoolbook(field):
    rng = random.Random(42)
    for _ in range(20):
        r, m, c = rng.randrange(1, 7), rng.randrange(1, 7), rng.randrange(1, 7)
        a = random_matrix(field, r, m, rng)
        b = random_matrix(field, m, c, rng)
        assert (a @ b) == schoolbook_matmul(field, a, b)


def test_gf256_matmul_with_zero_and_unit_entries_matches_schoolbook():
    # zeros and ones take their own branches; zero leading bytes must survive
    rng = random.Random(7)
    for _ in range(10):
        r, m, c = rng.randrange(1, 20), rng.randrange(1, 20), rng.randrange(1, 20)
        pick = lambda: rng.choice([0, 0, 1, rng.randrange(256)])
        a = Matrix(GF256, [[pick() for _ in range(m)] for _ in range(r)])
        b = Matrix(GF256, [[pick() for _ in range(c)] for _ in range(m)])
        assert (a @ b) == schoolbook_matmul(GF256, a, b)
    zero_lead = Matrix(GF256, [[0, 5], [0, 1]])
    assert (Matrix(GF256, [[1, 0]]) @ zero_lead).data == [[0, 5]]


@pytest.mark.parametrize("field", [F11, GF256, field_of_order(257)], ids=["F11", "GF256", "F257"])
def test_mul_vector_matches_matmul(field):
    rng = random.Random(3)
    a = random_matrix(field, 5, 8, rng)
    v = [rng.randrange(field.order) for _ in range(8)]
    assert a.mul_vector(v) == schoolbook_matmul(field, a, Matrix(field, [[x] for x in v])).column_vector(0)
    assert a.mul_vector(v) == (a @ Matrix(field, [[x] for x in v])).column_vector(0)
    for wrong in (v[:-1], v + [1]):
        with pytest.raises(DimensionMismatch, match="5x8 times vector of"):
            a.mul_vector(wrong)


def test_matmul_shape_and_field_checks():
    a = Matrix.zeros(F11, 2, 3)
    with pytest.raises(DimensionMismatch):
        a @ Matrix.zeros(F11, 2, 2)
    with pytest.raises(FieldMismatch):
        a @ Matrix.zeros(F13, 3, 2)


def test_transpose_of_product():
    rng = random.Random(9)
    a = random_matrix(F11, 4, 6, rng)
    b = random_matrix(F11, 6, 3, rng)
    assert (a @ b).transpose() == b.transpose() @ a.transpose()


# ---------------------------------------------------------------------------
# inverse and rank
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", [F11, F13, GF256], ids=["F11", "F13", "GF256"])
def test_inverse_roundtrip(field):
    rng = random.Random(17)
    eye = Matrix.identity(field, 8)
    found = 0
    while found < 10:
        a = random_matrix(field, 8, 8, rng)
        if a.rank() < 8:
            continue
        found += 1
        inv = a.inverse()
        assert a @ inv == eye
        assert inv @ a == eye


def test_inverse_of_singular_raises():
    a = Matrix(F11, [[1, 2], [2, 4]])
    with pytest.raises(Singular):
        a.inverse()
    with pytest.raises(DimensionMismatch):
        Matrix.zeros(F11, 2, 3).inverse()


def test_rank_examples():
    assert Matrix.identity(F11, 5).rank() == 5
    assert Matrix.zeros(F11, 4, 4).rank() == 0
    assert Matrix(F11, [[1, 2], [2, 4]]).rank() == 1
    assert Matrix(F11, [[1, 2, 3], [4, 5, 6]]).rank() == 2
    # rank of a product never exceeds the ranks of the factors
    rng = random.Random(5)
    a = random_matrix(F11, 6, 2, rng)
    b = random_matrix(F11, 2, 6, rng)
    assert (a @ b).rank() <= 2


def test_rank_does_not_mutate():
    # an unreduced prime entry, a GF(2^8) matrix and a singular one; inverse too
    cases = ([[1, 2], [3, 15]], F11), ([[7, 2], [3, 200]], GF256), ([[1, 2], [1, 2]], GF256)
    for a in (Matrix(field, data) for data, field in cases):
        before = [list(r) for r in a.data]
        a.rank()
        try:
            a.inverse()
        except Singular:
            pass
        assert a.data == before


def row_space_size(field, a) -> int:
    """Oracle: the number of distinct combinations of ``a``'s rows, enumerated."""
    space = set()
    for coeffs in itertools.product(range(field.order), repeat=a.rows):
        vec = [0] * a.cols
        for c, row in zip(coeffs, a.data):
            vec = [field.add(v, field.mul(c, x)) for v, x in zip(vec, row)]
        space.add(tuple(vec))
    return len(space)


def check_inverse(field, a, rank):
    """An inverse exists exactly when ``a`` is square and of full rank."""
    if a.rows != a.cols:
        with pytest.raises(DimensionMismatch):
            a.inverse()
    elif rank < a.rows:
        with pytest.raises(Singular):
            a.inverse()
    else:
        inv = a.inverse()
        eye = Matrix.identity(field, a.rows)
        assert schoolbook_matmul(field, a, inv) == eye == schoolbook_matmul(field, inv, a)


@pytest.mark.parametrize("q, rows, cols", [(3, 2, 2), (2, 2, 3), (2, 3, 3)], ids=["F3-2x2", "F2-2x3", "F2-3x3"])
def test_rank_and_inverse_of_every_small_matrix_match_their_definitions(q, rows, cols):
    field = field_of_order(q)
    for entries in itertools.product(range(q), repeat=rows * cols):
        a = Matrix(field, [entries[i * cols : (i + 1) * cols] for i in range(rows)])
        size, rank = row_space_size(field, a), 0
        while q**rank < size:
            rank += 1
        assert q**rank == size  # the row space of a rank-r matrix has q^r vectors
        assert a.rank() == rank, a.data
        check_inverse(field, a, rank)


def planted_gf256(rng, rows, cols, rank) -> Matrix:
    """A rows x cols GF(2^8) matrix of the given rank, built with the bitwise product.

    Basis row i is nonzero in column pivots[i] and zero in the columns of
    the pivots before it, so the basis is independent; every other row is a
    random combination of it, and the rows are shuffled.
    """
    pivots = rng.sample(range(cols), rank)
    basis = []
    for i in range(rank):
        row = [rng.randrange(256) for _ in range(cols)]
        for j in pivots[:i]:
            row[j] = 0
        row[pivots[i]] = rng.randrange(1, 256)
        basis.append(row)
    data = list(basis)
    for _ in range(rows - rank):
        coeffs = [rng.randrange(256) for _ in basis]
        data.append([
            reduce(xor, (gf256_mul_bitwise(c, row[j]) for c, row in zip(coeffs, basis)), 0)
            for j in range(cols)
        ])
    rng.shuffle(data)
    return Matrix(GF256, data)


@pytest.mark.parametrize("rows, cols", [(8, 8), (6, 9)])
def test_gf256_rank_and_inverse_with_planted_dependent_rows(rows, cols):
    rng = random.Random(rows * cols)
    for rank in range(min(rows, cols) + 1):
        for _ in range(3):
            a = planted_gf256(rng, rows, cols, rank)
            assert a.rank() == rank
            check_inverse(GF256, a, rank)


@pytest.mark.parametrize("field", [F11, F13], ids=["F11", "F13"])
def test_prime_entries_at_or_above_q_act_as_their_reduction(field):
    rng = random.Random(field.q)
    for size in range(1, 7):
        for singular in (False, True):
            a = random_matrix(field, size, size, rng)
            if singular:
                a.data[-1] = [field.mul(3, x) for x in a.data[0]]
            big = Matrix(field, [[x + field.q * rng.randrange(4) for x in row] for row in a.data])
            assert big.rank() == a.rank()
            if a.rank() == size:
                assert big.inverse() == a.inverse()
            else:
                with pytest.raises(Singular):
                    big.inverse()


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [256, 257])
def test_compose_runs_a_matrix_over_the_outputs_of_a_program(q):
    field = field_of_order(q)
    code = build_sparse_systematic(8, 4, 6, field=field)
    d, failed, rng = code.params.d, 7, random.Random(q)
    decode = code.decode_program([4, 5, 6, 7])
    assert decode.rows > len(decode.outputs)  # it has intermediate rows
    # row h dots helper h's selected rows with the repair vector: the symbol it sends
    selected = [c for c in code.repair_vector(failed) if c]
    transfer = Matrix(field, [[c if g == h else 0 for g in range(d) for c in selected] for h in range(d)])
    for first in (random_matrix(field, 5, 9, rng), decode, transfer):
        then = random_matrix(field, 3, len(first.outputs), rng)
        x = random_matrix(field, first.inputs, 4, rng)
        composed = compose(first, then)
        assert (composed.inputs, composed.rows) == (first.inputs, first.rows + 3)
        assert composed @ x == then @ (first @ x)
    helpers = list(range(d))
    plan = code.helper_plan(failed, helpers).program
    composed = compose(transfer, code.repair_matrix(failed, helpers))
    assert composed @ Matrix.identity(field, composed.inputs) == plan @ Matrix.identity(field, plan.inputs)


def test_compose_refuses_a_field_or_width_mismatch():
    first = build_sparse_systematic(8, 4, 6, field=F11).decode_program([4, 5, 6, 7])  # 12 outputs
    with pytest.raises(FieldMismatch):
        compose(first, Matrix.identity(GF256, 12))
    with pytest.raises(DimensionMismatch):
        compose(first, Matrix.identity(F11, 11))
    with pytest.raises(DimensionMismatch):
        compose(Matrix.identity(F11, 4), Matrix.identity(F11, 3))


# ---------------------------------------------------------------------------
# vandermonde
# ---------------------------------------------------------------------------

def test_vandermonde_powers_start_at_one():
    v = vandermonde(F11, [2], 4)
    assert v.data == [[2, 4, 8, 5]]


def test_vandermonde_known_reference():
    assert vandermonde(F11, list(range(1, 9)), 6).data == PSI


def test_vandermonde_full_rank_all_sizes_up_to_18():
    f = field_of_order(19)
    for n in range(1, 19):
        for m in range(1, n + 1):
            v = vandermonde(f, list(range(1, n + 1)), m)
            assert v.rank() == m, (n, m)


def test_vandermonde_duplicate_points_rejected():
    with pytest.raises(DuplicateEvaluationPoint):
        vandermonde(F11, [1, 2, 1], 3)


# ---------------------------------------------------------------------------
# structure helpers
# ---------------------------------------------------------------------------

def test_submatrix_and_take_rows():
    a = Matrix(F11, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert a.submatrix([0, 2], [1, 2]).data == [[2, 3], [8, 9]]
    assert a.take_rows([2, 0]).data == [[7, 8, 9], [1, 2, 3]]
    with pytest.raises(IndexOutOfRange):
        a.submatrix([3], [0])
    with pytest.raises(IndexOutOfRange):
        a.submatrix([0], [-1])


def test_stacking():
    a = Matrix(F11, [[1, 2]])
    b = Matrix(F11, [[3, 4], [5, 6]])
    assert Matrix.vstack([a, b]).data == [[1, 2], [3, 4], [5, 6]]
    with pytest.raises(FieldMismatch):
        Matrix.vstack([a, Matrix(F13, [[1, 2]])])
    with pytest.raises(DimensionMismatch):
        Matrix.vstack([a, Matrix(F11, [[1, 2, 3]])])


def test_from_columns():
    c = Matrix.from_columns(F11, [[1, 2], [3, 4]])
    assert c.data == [[1, 3], [2, 4]]


def test_matrix_is_unhashable():
    # a hash of mutable entries would lose a matrix from its own set once edited
    with pytest.raises(TypeError):
        hash(Matrix(F11, [[1, 2], [3, 4]]))


def test_ragged_rows_rejected():
    with pytest.raises(DimensionMismatch):
        Matrix(F11, [[1, 2], [3]])


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_text_roundtrip_prime_and_gf256():
    rng = random.Random(23)
    for field in (F11, GF256):
        a = random_matrix(field, 4, 7, rng)
        b = matrix_from_text(a.to_text())
        assert b == a
        assert b.field.order == field.order


def test_text_header_format():
    a = Matrix(F11, [[1, 2, 3], [4, 5, 6]])
    text = a.to_text()
    assert text.splitlines()[0] == "2 3 11"
    assert text.splitlines()[1] == "1 2 3"


def test_text_rejects_bad_input():
    with pytest.raises(ValueError):
        matrix_from_text("")
    with pytest.raises(ValueError):
        matrix_from_text("2 2 11\n1 2\n3\n")
    with pytest.raises(ValueError):
        matrix_from_text("1 2 11\n1 11\n")  # entry out of range
    with pytest.raises(ValueError):
        matrix_from_text("2 2 11\n1 2\n")  # row count mismatch
    with pytest.raises(FieldMismatch):
        matrix_from_text("1 1 11\n1\n", field=F13)


# Text from a short alphabet (plain st.text() makes hypothesis build its
# Unicode tables, which takes seconds): free-form, or a valid matrix text of
# a few rows with characters inserted, replaced or deleted.
TEXT_ALPHABET = "0123456789 -+_\t\r\n"


@st.composite
def matrix_texts(draw):
    if draw(st.booleans()):
        return draw(st.text(TEXT_ALPHABET, max_size=40))
    q = draw(st.sampled_from([2, 3, 11, 256, 257]))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = st.lists(st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    text = Matrix(field_of_order(q), draw(entries)).to_text()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 1))
        text = text[:at] + draw(st.text(TEXT_ALPHABET, max_size=2)) + text[at + cut :]
    return text


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(matrix_texts())
def test_matrix_text_parses_to_a_matrix_that_round_trips_or_is_refused(text):
    try:
        m = matrix_from_text(text)
    except ValueError:
        return
    assert m.field.order == int(text.split()[2])
    assert all(0 <= x < m.field.order for row in m.data for x in row)
    assert matrix_from_text(m.to_text()) == m
