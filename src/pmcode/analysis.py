"""The bulk data path: one kernel per field family.

The bulk kernels here process whole stripe batches: one stripe is a column
of a (B x S) array, and every generator row is accumulated term by term over
its nonzero entries, so encoding cost tracks the generator's nonzero count.
Over GF(2^8) the stripes are laid out in packets (Blomer et al., ICSI
TR-95-048; Plank & Xu, IEEE NCA 2006): a block of 8 * ``PACKET`` stripes
holds bit b of its virtual symbols in packet b, a coefficient is its 8x8
bitmatrix over GF(2), and each 1 in it is one XOR of a ``PACKET``-byte
packet.  Over prime fields a term is an int32 (int64 for large moduli)
multiply-accumulate.  One kernel, ``apply_rows_bulk``, applies a code's
generator (``encode_stripes``), a repair plan's program
(``LinearCode.repair_plan``, ``helper_plan`` or ``rebuild_plan``) and a
``decode_program``, one kernel call per batch.  A repair from d helpers
takes only the helper rows its repair vector names; a rebuild from k nodes
takes all their rows.  A decode applies no inverse: its program is a
sparse elimination of the node rows (Markowitz's elimination form of the
inverse), whose rows also read earlier rows, so it costs the nonzeros of
the code's own rows after fill-in rather than those of their dense
inverse.  ``stream``, the one loop of the library and the command line,
calls it once per chunk of ``chunk_stripes`` stripes, in ``kernel_dtype``,
between a source and a sink of stripes (those of shard and data files are
in ``pmcode.shards``).  The reports built on it are ``pmcode.report``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import LinearCode
from .errors import DimensionMismatch, FieldMismatch
from .linalg import Matrix, Program


# ---------------------------------------------------------------------------
# bulk kernels
# ---------------------------------------------------------------------------

# Byte budget of a streamed chunk's input plus output kernel rows (see
# ``chunk_stripes``).  Small enough to stay cache-resident, large enough that
# per-call overhead is negligible.
_CHUNK_BYTES = 4 << 20

# GF(2^8) packet size in bytes: a block is 8 * PACKET stripes.  numpy costs
# about 1 us per call, so smaller packets spend their time in calls; a
# streamed chunk is at least one block, so larger ones raise peak memory.
PACKET = 4 << 10


def kernel_dtype(field) -> np.dtype:
    """What ``apply_rows_bulk`` computes in: uint8 over GF(2^8), and over F_q int32
    while (q-1)^2 + q fits, else int64."""
    if field.kind == "binary8":
        return np.dtype(np.uint8)
    q = field.q
    return np.dtype(np.int32 if (q - 1) ** 2 + q < 1 << 31 else np.int64)


def _work(work: dict, shape: tuple, dtype) -> np.ndarray:
    """An uninitialised work array, carved from the buffer ``work`` keeps, which grows to fit it."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    buf = work.get("buf")
    if buf is None or buf.size < size:
        buf = work["buf"] = np.empty(size, dtype=np.uint8)
    return buf[:size].view(dtype).reshape(shape)


def chunk_stripes(field, inputs: int, rows: int) -> int:
    """Stripes per streamed chunk: ``inputs`` + ``rows`` kernel rows fit ``_CHUNK_BYTES``.

    Those are a matrix's or ``linalg.Program``'s ``inputs`` and ``rows``,
    all the rows it computes: its outputs and the rows they read.  Kernel
    rows are ``kernel_dtype``; over GF(2^8) a chunk is a whole number of
    blocks and at least one.
    """
    if field.kind == "binary8":
        block = 8 * PACKET
        return block * max(1, _CHUNK_BYTES // (block * (inputs + rows)))
    return max(1, _CHUNK_BYTES // (kernel_dtype(field).itemsize * (inputs + rows)))


@lru_cache(maxsize=16)
def _xor_schedule(field, coefficients: bytes, cols: int, inputs: int, outputs: tuple) -> tuple:
    """(copies, blocks) for a program given row-major, one byte per entry.

    A block's pool holds its input rows' packets, then those of the
    program's rows that later rows read.  Packet bo of a row XORs the pool
    packets 8j+bi that the 1s of its coefficients' 8x8 bitmatrices name:
    coefficient c of column j has a 1 at (bo, bi) when bit bo of c*x^bi is
    set.  An output whose row's one nonzero is a 1 on an input copies that
    input row: ``copies`` lists (output k, input row j) for the whole
    stripes.  ``blocks`` is None when that is all; else it is (pooled
    packets, output packets, moved outputs, their pool rows).  Pooled
    packets are (pool packet, its pool packets) for the pooled rows in
    program order, output packets (packet 8k+bo of output k, its pool
    packets) for the other rows, and the outputs whose rows are pooled are
    moved from the pool block by block.  The cache lets every chunk of a
    command reuse its program's schedule.
    """
    products = np.frombuffer(b"".join(field.product_tables), dtype=np.uint8).reshape(256, 256)
    powers = products[:, 1 << np.arange(8)]  # [c, bi] = c * x^bi
    bits = ((powers[:, None, :] >> np.arange(8)[:, None]) & 1).astype(bool)  # [c, bo, bi]
    mat = np.frombuffer(coefficients, dtype=np.uint8).reshape(-1, cols)
    rows = mat.shape[0]
    output = np.full(rows, -1)
    output[list(outputs)] = np.arange(len(outputs))
    pooled = output < 0
    pooled[: cols - inputs] |= mat[:, inputs:].any(axis=0)  # read by a later row
    slot = np.arange(inputs + rows)  # column -> pool row
    slot[inputs:][pooled] = inputs + np.arange(np.count_nonzero(pooled))
    first = np.argmax(mat != 0, axis=1)
    copy = (np.count_nonzero(mat, axis=1) == 1) & (mat.max(axis=1) == 1) & (first < inputs) & ~pooled
    # first packet each row is computed into: its pool row, else its output row of the block
    target = np.where(pooled, 8 * slot[inputs:], 8 * output)
    total = 8 * rows
    row, col = np.nonzero(mat)
    entry, bo, bi = np.nonzero(bits[mat[row, col]])  # row-major, then bo, then bi
    packet = (8 * row[entry] + bo).astype(np.min_scalar_type(total))  # 16 bits sort by radix
    order = np.argsort(packet, kind="stable")  # by packet, each packet's sources ascending
    src = (8 * slot[col[entry]] + bi)[order]
    bounds = np.searchsorted(packet[order], np.arange(total + 1))

    def packets(which):
        """(target packet, its pool packets) for packets 8r .. 8r+7 of each row r in ``which``."""
        spans = [range(8 * r, 8 * r + 8) for r in which]
        return [(int(target[o >> 3]) + (o & 7), src[bounds[o] : bounds[o + 1]]) for span in spans for o in span]

    copies = [(int(output[r]), int(first[r])) for r in np.flatnonzero(copy)]
    if copy.all():
        return copies, None
    moved = np.flatnonzero(pooled & (output >= 0))
    computed = np.flatnonzero(~pooled & ~copy)
    return copies, (packets(np.flatnonzero(pooled)), packets(computed), output[moved], slot[inputs + moved])


@lru_cache(maxsize=16)
def _row_terms(rows: tuple, skip_zeros: bool) -> list:
    """Each row's (column, coefficient) terms, zeros left out with ``skip_zeros``; cached per matrix."""
    return [[(j, c) for j, c in enumerate(row) if c or not skip_zeros] for row in rows]


def _xor_packets(blocks, data: np.ndarray, out: np.ndarray, s0: int, packet: int, work: dict) -> None:
    """Stripes s0 .. s0 + 8*packet of ``out``: one block, one gather-XOR per scheduled packet."""
    pooled, computed, moved, sources = blocks
    s1 = s0 + 8 * packet
    rows_in = data.shape[0]
    pool = _work(work, (8 * rows_in + len(pooled), packet), np.uint8)
    pool[: 8 * rows_in].reshape(rows_in, 8 * packet)[...] = data[:, s0:s1]
    for o, idx in pooled:
        np.bitwise_xor.reduce(pool[idx], axis=0, out=pool[o])
    dst = out[:, s0:s1].view()
    dst.shape = (out.shape[0], 8, packet)  # packet b of row r is dst[r, b]; raises rather than copy
    for o, idx in computed:
        np.bitwise_xor.reduce(pool[idx], axis=0, out=dst[o >> 3, o & 7])
    dst[moved] = pool.reshape(-1, 8, packet)[sources]


def apply_rows_bulk(field, mat: Matrix | Program, data: np.ndarray, skip_zeros: bool = True, *,
                    out: np.ndarray | None = None, work: dict | None = None) -> np.ndarray:
    """The outputs of ``mat`` on the stripes that are ``data``'s columns, stripe 0 first.

    ``mat`` is a matrix, whose result is mat @ data, or a straight-line
    ``linalg.Program`` (a ``RepairPlan``'s, or ``LinearCode.decode_program``),
    whose rows may also read its earlier rows; each row is a kernel row,
    computed in its output row when it is one.  Over a prime field each
    stripe is a column of symbols, and a program's rows are computed in order.  Over
    GF(2^8) the stripes are cut into blocks of 8 * ``PACKET`` from stripe
    0.  Packet b of a block (stripes b*PACKET .. (b+1)*PACKET) holds bit b
    of PACKET * 8 virtual symbols, and every 1 in a coefficient's bitmatrix
    (``_xor_schedule``) is one packet XOR, so a coefficient costs its
    bitmatrix ones and a zero costs nothing, ``skip_zeros`` or not.  The
    program rows that later rows read are computed in a pool beside the
    block's input packets, then moved to their output rows.  The last,
    partial block of w stripes uses packets of w // 8 bytes; its final
    w % 8 stripes go through the exact ``mat @ Matrix``.  Prime-field data,
    symbols below q, is copied only when its dtype is not ``kernel_dtype``
    or a row is not contiguous; a term c != 1 is then one multiply into a
    scratch row plus one add, a unit term one add, and partial sums are
    reduced by a floor division by q.  Over either field, an output row
    whose one nonzero is a 1, as a systematic row is, is one row copy.
    ``data`` may be any 2-D view, including a transposed one.  The result is
    written into ``out`` when it is given: a (outputs x stripes)
    ``kernel_dtype`` array that does not overlap ``data``, which may be a
    column slice of a wider one.  The pool and the spare and scratch rows
    come from ``work``, a dict that a caller keeps across its calls to
    reuse them; they never leave the kernel.
    """
    if data.shape[0] != mat.inputs:
        raise DimensionMismatch(f"data has {data.shape[0]} rows, matrix wants {mat.inputs}")
    stripes = data.shape[1]
    dtype = kernel_dtype(field)
    shape = (len(mat.outputs), stripes)
    work = {} if work is None else work
    if out is None:
        out = np.empty(shape, dtype=dtype)
    elif out.shape != shape or out.dtype != dtype:
        raise DimensionMismatch(f"out is a {out.shape} {out.dtype} array, the outputs are {shape} {dtype}")
    if field.kind == "binary8":
        if data.dtype != np.uint8:
            raise FieldMismatch(f"GF(2^8) stripes must be uint8, got {data.dtype}")
        coefficients = b"".join(bytes(row) for row in mat.data)
        copies, blocks = _xor_schedule(field, coefficients, mat.cols, mat.inputs, tuple(mat.outputs))
        for r, j in copies:
            out[r] = data[j]
        if blocks:
            block = 8 * PACKET
            full = stripes - stripes % block
            for s0 in range(0, full, block):
                _xor_packets(blocks, data, out, s0, PACKET, work)
            if stripes - full >= 8:
                _xor_packets(blocks, data, out, full, (stripes - full) // 8, work)
        tail = stripes - stripes % 8
        if tail < stripes:
            out[:, tail:] = (mat @ Matrix(field, data[:, tail:].tolist())).data
        return out
    q = field.q
    if data.dtype != dtype or data.strides[1] != dtype.itemsize:
        data = np.ascontiguousarray(data, dtype=dtype)
    # keep partial sums below a quarter of the dtype's range before reducing
    stride = max(1, (1 << (8 * dtype.itemsize - 2)) // (q * q))
    scratch, *spare = _work(work, (1 + mat.rows - len(mat.outputs), stripes), dtype)
    # where each row is computed: its output row, or else a spare row
    target = [None] * mat.rows
    for k, r in enumerate(mat.outputs):
        target[r] = out[k]
    spare = iter(spare)
    target = [next(spare) if t is None else t for t in target]
    pool = [*data, *target]  # what each column reads
    for acc, terms in zip(target, _row_terms(tuple(map(tuple, mat.data)), skip_zeros)):
        if not terms:
            acc[...] = 0
        elif len(terms) == 1 and terms[0][1] == 1:
            acc[...] = pool[terms[0][0]]  # a copy of a row that is already reduced
            continue
        for n, (j, c) in enumerate(terms, 1):
            if n == 1:
                np.multiply(pool[j], c, out=acc)
            else:
                acc += pool[j] if c == 1 else np.multiply(pool[j], c, out=scratch)
            if n % stride == 0 or n == len(terms):
                # acc %= q, with numpy's fast path for division by a scalar
                np.floor_divide(acc, q, out=scratch)
                scratch *= q
                acc -= scratch
    return out


def stream(field, program: Matrix | Program, stripes: int, source, sink) -> None:
    """Apply ``program`` to ``stripes`` stripes, chunk by chunk: source, program, sink.

    A chunk holds the stripes ``chunk_stripes`` allows for the program's inputs plus all its
    rows.  ``source(width)`` and ``sink(width)`` allocate their buffers for the widest chunk and
    return ``read(s0, w)``, the inputs of stripes s0..s0+w, and ``write(s0, outputs)``.  Each
    chunk is one ``apply_rows_bulk`` call into a slice of one output buffer, with one ``work`` dict.
    With no stripes it calls neither factory; a negative count is refused before either.
    """
    if stripes < 0:
        raise DimensionMismatch(f"cannot stream {stripes} stripes")
    if not stripes:
        return
    width = min(chunk_stripes(field, program.inputs, program.rows), stripes)
    read, write = source(width), sink(width)
    outputs = np.empty((len(program.outputs), width), dtype=kernel_dtype(field))
    work = {}
    for s0 in range(0, stripes, width):
        w = min(width, stripes - s0)
        write(s0, apply_rows_bulk(field, program, read(s0, w), out=outputs[:, :w], work=work))


def encode_stripes(code: LinearCode, data: np.ndarray, skip_zeros: bool = True, *,
                   out: np.ndarray | None = None, work: dict | None = None) -> np.ndarray:
    """All node contents for a (B x S) stripe batch: (n*alpha x S), into ``out`` when given."""
    return apply_rows_bulk(code.params.field, code.generator, data, skip_zeros, out=out, work=work)


def random_stripes(field, rows: int, stripes: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if field.kind == "binary8":
        return rng.integers(0, 256, size=(rows, stripes), dtype=np.uint8)
    return rng.integers(0, field.q, size=(rows, stripes), dtype=np.int64)


