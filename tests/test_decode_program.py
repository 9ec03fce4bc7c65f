"""The decode program: a sparse elimination of the node rows, applied by the bulk kernel."""

import itertools
import random

import numpy as np
import pytest

from pmcode import analysis
from pmcode.analysis import apply_rows_bulk, encode_stripes, random_stripes
from pmcode.construct import build_rbt_systematic, build_sparse_systematic, build_vanilla_systematic
from pmcode.core import PmVandermondeCode, build_params, encoding_from_phi_lambda
from pmcode.errors import DimensionMismatch, Singular
from pmcode.field import field_of_order
from pmcode.linalg import Matrix, Program, kernel_cost, vandermonde

from packet_oracle import packet_oracle, to_symbols

PACKET = 2  # blocks of 16 stripes
STRIPES = 45  # two blocks, a partial block of 1-byte packets and a 5-symbol tail
BUILDERS = {"sparse": build_sparse_systematic, "vanilla": build_vanilla_systematic, "rbt": build_rbt_systematic}


@pytest.fixture(autouse=True)
def small_packets(monkeypatch):
    monkeypatch.setattr(analysis, "PACKET", PACKET)


def node_rows(code, stored, ids):
    a = code.params.alpha
    return np.vstack([stored[i * a : (i + 1) * a] for i in ids])


def inverse_of(code, ids):
    """The dense inverse of the stacked node blocks: the reference the programs are checked against."""
    return Matrix.vstack([code.node_block(i) for i in ids]).inverse()


def check_decodes(code, data, stored, ids, per_stripe=False):
    """decode_program from ``ids`` gives the message, as the dense inverse does, at no more cost."""
    p = code.params
    rows = node_rows(code, stored, ids)
    message = apply_rows_bulk(p.field, code.decode_program(ids), rows)
    assert np.array_equal(message, data)
    inverse = inverse_of(code, ids)
    if p.field.kind == "binary8":
        assert np.array_equal(message, packet_oracle(p.field, inverse, rows, PACKET))
    assert kernel_cost(code.decode_program(ids)) <= kernel_cost(inverse)
    if per_stripe:
        symbols = to_symbols(rows, PACKET) if p.field.kind == "binary8" else rows
        expect = to_symbols(message, PACKET) if p.field.kind == "binary8" else message
        for s in range(rows.shape[1]):
            column = [int(x) for x in symbols[:, s]]
            assert code.decode(ids, [column[i * p.alpha : (i + 1) * p.alpha] for i in range(p.k)]) == [
                int(x) for x in expect[:, s]
            ]


@pytest.mark.parametrize("q", [256, 257])
@pytest.mark.parametrize("build", sorted(BUILDERS))
def test_every_subset_of_8_4_6_decodes_exactly(build, q):
    code = BUILDERS[build](8, 4, 6, field=field_of_order(q))
    data = random_stripes(code.params.field, code.params.B, STRIPES, seed=q)
    stored = encode_stripes(code, data)
    for ids in itertools.combinations(range(8), 4):
        check_decodes(code, data, stored, list(ids), per_stripe=True)


@pytest.mark.parametrize(
    "n, k, d, q",
    [(13, 6, 11, 256), (17, 8, 15, 256), (12, 6, 10, 257)],
    ids=["13-6-11-gf256", "17-8-15-gf256", "12-6-10-f257"],
)
def test_seeded_subsets_decode_exactly(n, k, d, q):
    code = build_sparse_systematic(n, k, d, field=field_of_order(q))
    data = random_stripes(code.params.field, code.params.B, STRIPES, seed=n)
    stored = encode_stripes(code, data)
    rng = random.Random(n * k)
    sets = [list(range(k)), list(range(n - k, n)), list(range(k // 2)) + list(range(n - k + k // 2, n))]
    sets += [sorted(rng.sample(range(n), k)) for _ in range(4)]
    sets += [sorted(rng.sample(range(k, n), k)) for _ in range(2)]  # all parity
    for ids in sets:
        check_decodes(code, data, stored, ids)


@pytest.mark.parametrize(
    "n, k, d, q, program, inverse",
    [(12, 6, 10, 257, 392, 896), (13, 6, 11, 256, 16_266, 35_443), (17, 8, 15, 256, 45_570, 115_622)],
    ids=["prime257-bulk", "gf256-bulk", "17-8-15-gf256"],
)
def test_degraded_decode_cost(n, k, d, q, program, inverse):
    # terms per stripe over F_257, bitmatrix ones per block over GF(2^8), for the last k nodes
    code = build_sparse_systematic(n, k, d, field=field_of_order(q))
    ids = list(range(n - k, n))
    assert isinstance(code.decode_program(ids), Program)
    assert kernel_cost(code.decode_program(ids)) == program
    assert kernel_cost(inverse_of(code, ids)) == inverse


def test_systematic_decode_is_a_copy():
    code = build_sparse_systematic(13, 6, 11, field=field_of_order(256))
    ids = list(range(6))
    assert code.decode_program(ids) == inverse_of(code, ids) == Matrix.identity(code.params.field, code.params.B)


def test_decode_takes_no_inverse(monkeypatch):
    code = build_sparse_systematic(13, 6, 11, field=field_of_order(256))
    data = random_stripes(code.params.field, code.params.B, STRIPES, seed=1)
    stored = encode_stripes(code, data)

    def no_inverse(self):
        raise AssertionError("the decode took an inverse")

    monkeypatch.setattr(Matrix, "inverse", no_inverse)
    ids = list(range(7, 13))
    program = code.decode_program(ids)
    assert np.array_equal(apply_rows_bulk(code.params.field, program, node_rows(code, stored, ids)), data)
    # the per-stripe decode, from a node set whose program it builds itself
    ids = [0, 2, 4, 8, 10, 12]
    symbols, message = to_symbols(node_rows(code, stored, ids), PACKET), to_symbols(data, PACKET)
    alpha = code.params.alpha
    for s in range(0, STRIPES, 7):
        column = [int(x) for x in symbols[:, s]]
        rows = [column[i * alpha : (i + 1) * alpha] for i in range(len(ids))]
        assert code.decode(ids, rows) == [int(x) for x in message[:, s]]


def test_colliding_lambdas_are_singular():
    # over F_13 with alpha = 2, 10^2 == 3^2: the lambdas of nodes 2 and 3 collide
    params = build_params(6, 3, 4, field_of_order(13))
    xs = [1, 2, 3, 10, 4, 5]
    phi = vandermonde(params.field, xs, 2)
    code = PmVandermondeCode(encoding_from_phi_lambda(params, phi, phi.column_vector(1), xs, validate=False))
    singular = 0
    for ids in itertools.combinations(range(6), 3):
        try:
            inverse = inverse_of(code, ids)
        except Singular:
            singular += 1
            with pytest.raises(Singular) as caught:
                code.decode_program(ids)
            assert str(caught.value) == f"nodes {list(ids)} do not determine the message"
        else:
            assert code.decode_program(ids) @ Matrix.identity(params.field, params.B) == inverse
    assert singular > 0


# a program over 3 inputs: row 0 = y0 + 2 y1, row 1 = 3 row0 + y2 (read by row 2),
# row 2 = row1 + 5 row0, row 3 = y1, row 4 = 7 y2 (read by none); outputs: rows 2, 1, 3
PROGRAM = [
    [1, 2, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 3, 0, 0, 0, 0],
    [0, 0, 0, 5, 1, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 7, 0, 0, 0, 0, 0],
]
OUTPUTS = [2, 1, 3]


@pytest.mark.parametrize("q", [256, 257])
def test_apply_rows_bulk_runs_a_program(q):
    field = field_of_order(q)
    program = Program(field, PROGRAM, 3, OUTPUTS)
    flat = program @ Matrix.identity(field, 3)
    data = random_stripes(field, 3, STRIPES, seed=q)
    out = apply_rows_bulk(field, program, data)
    if q == 256:
        assert np.array_equal(out, packet_oracle(field, flat, data, PACKET))
    else:
        for s in range(STRIPES):
            assert [int(x) for x in out[:, s]] == flat.mul_vector([int(x) for x in data[:, s]])
    assert np.array_equal(out[2], data[1])  # an output that copies an input


def test_program_checks_its_shape():
    field = field_of_order(257)
    assert Program(field, PROGRAM, 3, OUTPUTS).cols == 8
    with pytest.raises(DimensionMismatch):  # row 0 reads row 1
        Program(field, [[1, 0, 0, 0, 1, 0, 0, 0]] + PROGRAM[1:], 3, OUTPUTS)
    with pytest.raises(DimensionMismatch):  # an output named twice
        Program(field, PROGRAM, 3, [2, 2, 3])
    with pytest.raises(DimensionMismatch):  # a row of the wrong width
        Program(field, [row[:-1] for row in PROGRAM], 3, OUTPUTS)
    with pytest.raises(DimensionMismatch):
        apply_rows_bulk(field, Program(field, PROGRAM, 3, OUTPUTS), np.zeros((4, 5), dtype=np.int64))
