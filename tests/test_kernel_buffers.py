"""The kernel's caller-owned ``out`` buffers and reused work arrays.

``apply_rows_bulk(..., out=..., work=...)`` writes a call's outputs into a
buffer the caller keeps, which may be a column slice of a wider one, and
carves its own pool and scratch rows from the buffer a caller's ``work``
dict keeps from call to call.  Each check runs both field families through
the generator, a decode program and both repair plans' programs, and
compares with a call given neither and with the exact product (the
per-symbol ``packet_oracle`` over GF(2^8)).  Hand-made programs with zero
rows, and random programs drawn by ``hypothesis``, cover what no code's
programs hold.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmcode import analysis
from pmcode.analysis import apply_rows_bulk, encode_stripes, kernel_dtype, random_stripes
from pmcode.construct import build_sparse_systematic, build_vanilla_systematic
from pmcode.errors import DimensionMismatch
from pmcode.field import field_of_order
from pmcode.linalg import Matrix, Program

from packet_oracle import packet_oracle

PACKET = 2  # blocks of 16 stripes
# two whole blocks, a partial block of 8 stripes and a tail of fewer than 8
STRIPES = 2 * 8 * PACKET + 8 + 5


@pytest.fixture(autouse=True)
def small_packets(monkeypatch):
    monkeypatch.setattr(analysis, "PACKET", PACKET)


@lru_cache(maxsize=None)
def code(q: int):
    return build_sparse_systematic(8, 4, 6, field=field_of_order(q))


def program(q: int, which: str):
    """The generator, a decode program from the last k nodes, or a repair plan's program."""
    c = code(q)
    if which == "generator":
        return c.generator
    if which == "decode":
        return c.decode_program([4, 5, 6, 7])
    if which == "helper":
        return c.helper_plan(7, [0, 1, 2, 3, 4, 5]).program
    return c.rebuild_plan(7, [0, 1, 2, 3]).program


def exact(field, mat, data: np.ndarray) -> np.ndarray:
    """``mat`` on ``data``'s stripes, computed apart from the kernel."""
    flat = mat @ Matrix.identity(field, mat.inputs)  # a program's outputs as one matrix
    if field.kind == "binary8":
        return packet_oracle(field, flat, data, PACKET)
    return np.array((flat @ Matrix(field, data.tolist())).data)


PROGRAMS = ["generator", "decode", "helper", "rebuild"]


@pytest.mark.parametrize("which", PROGRAMS)
@pytest.mark.parametrize("q", [256, 257], ids=["gf256", "f257"])
def test_out_may_be_a_column_slice_of_a_wider_buffer(q, which):
    field = field_of_order(q)
    mat = program(q, which)
    data = random_stripes(field, mat.inputs, STRIPES, seed=q)
    wide = np.full((len(mat.outputs), STRIPES + 19), 77, dtype=kernel_dtype(field))
    out = wide[:, 11 : 11 + STRIPES]
    assert apply_rows_bulk(field, mat, data, out=out) is out
    assert np.array_equal(out, apply_rows_bulk(field, mat, data))
    assert np.array_equal(out, exact(field, mat, data))
    assert (wide[:, :11] == 77).all() and (wide[:, 11 + STRIPES :] == 77).all()  # nothing past the slice


def test_consecutive_calls_of_other_widths_and_fields_leave_each_result_alone():
    calls = [(q, which, stripes) for stripes in (STRIPES, 3, 8 * PACKET + 8, 2 * STRIPES)
             for q in (256, 257) for which in PROGRAMS]
    buffers, work, results = {}, {}, []
    for n, (q, which, stripes) in enumerate(calls):
        field = field_of_order(q)
        mat = program(q, which)
        data = random_stripes(field, mat.inputs, stripes, seed=n)
        # a caller's buffer, reused by every call of its program as a narrower column slice
        wide = buffers.setdefault((q, which), np.empty((len(mat.outputs), 2 * STRIPES), kernel_dtype(field)))
        into = apply_rows_bulk(field, mat, data, out=wide[:, :stripes], work=work).copy()
        results.append((field, mat, data, apply_rows_bulk(field, mat, data, work=work), into))
    assert work["buf"].size > 0  # one work buffer, grown to the largest call and reused by all
    for field, mat, data, fresh, into in results:
        want = exact(field, mat, data)
        assert np.array_equal(fresh, want)  # no later call wrote into an earlier result
        assert np.array_equal(into, want)


@pytest.mark.parametrize("q", [256, 257], ids=["gf256", "f257"])
def test_out_of_the_wrong_shape_or_dtype_is_refused(q):
    field = field_of_order(q)
    mat = program(q, "decode")
    data = random_stripes(field, mat.inputs, STRIPES, seed=1)
    dtype = kernel_dtype(field)
    for out in (np.empty((len(mat.outputs), STRIPES - 1), dtype),
                np.empty((len(mat.outputs) + 1, STRIPES), dtype),
                np.empty((len(mat.outputs), STRIPES), np.int64 if q == 257 else np.int32)):
        with pytest.raises(DimensionMismatch):
            apply_rows_bulk(field, mat, data, out=out)


def test_a_column_slice_of_prime_symbols_is_read_in_place(monkeypatch):
    # rows that are each contiguous reach the multiply-adds as they are: no copy of the input
    field = field_of_order(257)
    mat = program(257, "generator")
    wide = random_stripes(field, mat.inputs, STRIPES + 9, seed=3).astype(np.int32)
    data = wide[:, 4 : 4 + STRIPES]
    real, copies = np.ascontiguousarray, []
    monkeypatch.setattr(np, "ascontiguousarray", lambda *a, **kw: copies.append(a) or real(*a, **kw))
    out = apply_rows_bulk(field, mat, data)
    assert copies == []
    assert np.array_equal(out, exact(field, mat, data))


@pytest.mark.parametrize("build", [build_sparse_systematic, build_vanilla_systematic], ids=["sparse", "vanilla"])
def test_f257_kernel_agreement_with_and_without_skipping_zeros(build):
    # criterion 10's skip_zeros agreement, over the prime field whose kernel reads skip_zeros
    c = build(12, 6, 10, field=field_of_order(257))
    p = c.params
    data = random_stripes(p.field, p.B, 3000, seed=10)
    fast = encode_stripes(c, data, skip_zeros=True)
    slow = encode_stripes(c, data, skip_zeros=False)
    assert np.array_equal(fast, slow)
    out = np.empty((p.n * p.alpha, 3100), dtype=kernel_dtype(p.field))[:, 50:3050]
    work = {}
    for skip_zeros in (True, False):
        assert np.array_equal(encode_stripes(c, data, skip_zeros, out=out, work=work), fast)
    assert np.array_equal(fast[: p.B], data)  # systematic
    assert np.array_equal(fast[:, :40], exact(p.field, c.generator, data[:, :40]))


@pytest.mark.parametrize("q", [256, 257], ids=["gf256", "f257"])
def test_a_zero_row_reads_zero_over_garbage_out_and_work(q):
    field = field_of_order(q)
    # row 0 is zero and read by row 1, row 2 is a zero output and row 3 copies input 0
    zero = Program(field, [[0, 0, 0, 0, 0, 0, 0], [2, 0, 1, 1, 0, 0, 0], [0] * 7, [1, 0, 0, 0, 0, 0, 0]],
                   3, (1, 2, 3))
    # the same shape with rows 0 and 2 nonzero, which leaves row 0's work row nonzero
    busy = Program(field, [[0, 3, 0, 0, 0, 0, 0], [2, 0, 1, 1, 0, 0, 0], [0, 5, 7, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0]],
                   3, (1, 2, 3))
    data = random_stripes(field, 3, STRIPES, seed=q)
    work = {}
    out = apply_rows_bulk(field, busy, data, work=work)
    assert out[1].any()
    assert apply_rows_bulk(field, zero, data, out=out, work=work) is out
    assert not out[1].any()
    assert np.array_equal(out, exact(field, zero, data))


@st.composite
def programs(draw, field):
    """A straight-line program over ``field``: zero rows, copy rows and rows of terms.

    A row may read inputs and earlier rows, with unit and other coefficients;
    the outputs are some of the rows, in any order, so that both outputs and
    other rows may be read by later rows.
    """
    inputs, rows = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    data = []
    for t in range(rows):
        row = [0] * (inputs + rows)
        kind = draw(st.sampled_from(["zero", "copy", "terms"]))
        if kind == "copy":
            row[draw(st.integers(0, inputs + t - 1))] = 1
        elif kind == "terms":
            for j in draw(st.lists(st.integers(0, inputs + t - 1), min_size=1, unique=True)):
                row[j] = draw(st.one_of(st.just(1), st.integers(1, field.order - 1)))
        data.append(row)
    outputs = draw(st.permutations(range(rows)))[: draw(st.integers(1, rows))]
    return Program(field, data, inputs, outputs)


# whole blocks of 8 * PACKET stripes, then a partial block whose last w % 8 stripes are a tail
STRIPE_COUNTS = st.builds(lambda blocks, extra: max(1, 8 * PACKET * blocks + extra),
                          st.integers(0, 2), st.integers(0, 8 * PACKET - 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data(), q=st.sampled_from([256, 257]))
def test_random_programs_match_the_exact_product(data, q):
    # consecutive calls share one work dict and one garbage-filled out buffer
    field = field_of_order(q)
    dtype = kernel_dtype(field)
    rng = np.random.default_rng(q)
    wide = rng.integers(0, 256, size=(6, 3 * 8 * PACKET + 2), dtype=np.uint8).astype(dtype)
    work = {}
    for call in range(3):
        program = data.draw(programs(field))
        stripes = data.draw(STRIPE_COUNTS)
        stripes_in = random_stripes(field, program.inputs, stripes, seed=call)
        out = wide[: len(program.outputs), 1 : 1 + stripes]
        assert apply_rows_bulk(field, program, stripes_in, out=out, work=work) is out
        assert np.array_equal(out, exact(field, program, stripes_in))
