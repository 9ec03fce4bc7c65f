"""Reporting, certification, and throughput measurement.

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
inverse.  The command-line encode, repair and decode paths
call it on one chunk of ``chunk_stripes`` stripes at a time, and
``shard_dtype`` gives the symbol type those chunks have on disk.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .construct import ShortenedCode
from .core import (
    CheckResult,
    LinearCode,
    PmVandermondeCode,
    random_message,
    subset_cases,
    validate_properties,
)
from .errors import DimensionMismatch, FieldMismatch, PmCodeError, PropertyViolation
from .linalg import Matrix, Program


# ---------------------------------------------------------------------------
# sparsity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparsityReport:
    label: str
    n: int
    k: int
    d: int
    q: int
    row_nonzeros: tuple
    per_node_max: tuple
    zero_fraction: float
    parity_zero_fraction: float
    pattern: tuple  # one '.'/'*' string per generator row

    def to_text(self) -> str:
        lines = [
            f"label: {self.label}",
            f"params: [{self.n},{self.k},{self.d}] q={self.q}",
            f"zero_fraction: {self.zero_fraction:.6f}",
            f"parity_zero_fraction: {self.parity_zero_fraction:.6f}",
            f"max_row_nonzeros: {max(self.row_nonzeros)}",
            f"row_nonzeros: {' '.join(str(c) for c in self.row_nonzeros)}",
            f"per_node_max: {' '.join(str(c) for c in self.per_node_max)}",
            "pattern:",
        ]
        lines.extend("  " + row for row in self.pattern)
        return "\n".join(lines) + "\n"

    def to_tsv_rows(self) -> list[str]:
        alpha = len(self.row_nonzeros) // self.n
        return [
            "\t".join(
                [
                    self.label,
                    f"{self.n}/{self.k}/{self.d}/{self.q}",
                    str(t // alpha),
                    str(t % alpha),
                    str(nnz),
                ]
            )
            for t, nnz in enumerate(self.row_nonzeros)
        ]


def sparsity_report(code: LinearCode) -> SparsityReport:
    p = code.params
    g = code.generator
    counts = g.nonzeros_per_row()
    alpha = p.alpha
    per_node = tuple(
        max(counts[i * alpha : (i + 1) * alpha]) for i in range(p.n)
    )
    total = g.rows * g.cols
    zeros = total - sum(counts)
    parity_counts = counts[p.k * alpha :]
    parity_total = len(parity_counts) * g.cols
    parity_zeros = parity_total - sum(parity_counts)
    pattern = tuple(
        "".join("*" if x else "." for x in row) for row in g.data
    )
    return SparsityReport(
        label=code.label,
        n=p.n,
        k=p.k,
        d=p.d,
        q=p.field.order,
        row_nonzeros=tuple(counts),
        per_node_max=per_node,
        zero_fraction=zeros / total,
        parity_zero_fraction=parity_zeros / parity_total,
        pattern=pattern,
    )


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificationRecord:
    label: str
    n: int
    k: int
    d: int
    q: int
    seed: int
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_text(self) -> str:
        lines = [
            f"label: {self.label}",
            f"params: [{self.n},{self.k},{self.d}] q={self.q}",
            f"seed: {self.seed}",
            f"passed: {self.passed}",
        ]
        for c in self.checks:
            status = "ok" if c.ok else f"FAILED {list(c.failures[:5])}"
            lines.append(f"check {c.name}: {c.mode} cases={c.cases} {status}")
        return "\n".join(lines) + "\n"

    def to_tsv_rows(self) -> list[str]:
        return [
            "\t".join(
                [self.label, c.name, c.mode, str(c.cases), str(len(c.failures)), "ok" if c.ok else "fail"]
            )
            for c in self.checks
        ]


def underlying_encoding(code: LinearCode):
    """Walk wrapper chains down to the direct construction, if there is one."""
    while code is not None and not isinstance(code, PmVandermondeCode):
        code = getattr(code, "base", None) or getattr(code, "parent", None)
    return None if code is None else code.enc


def _failed_cases(cases, holds) -> tuple:
    """The cases for which ``holds`` is false or raises a PmCodeError (a singular block, say)."""
    failed = []
    for case in cases:
        try:
            if holds(case):
                continue
        except PmCodeError:
            pass
        failed.append(case)
    return tuple(failed)


# certify's fixed budgets: every case when there are at most *_LIMIT, else
# *_SAMPLES seeded draws; DECODES of the k-subsets are also decoded.
PROPERTY_LIMIT, PROPERTY_SAMPLES = 100_000, 50
SUBSET_LIMIT, SUBSET_SAMPLES = 1000, 50
DECODES = 10
REPAIR_LIMIT, REPAIR_SAMPLES = 1000, 50


def certify(code: LinearCode, seed: int = 0) -> CertificationRecord:
    """Re-derive the code's guarantees from scratch and report every failure.

    One row per check, with the mode and case count it ran: ``property-1``
    to ``-3`` of the underlying encoding matrix when there is one (a
    violation is one failed row with its witness; the other checks still
    run), ``k-subset-rank``, ``decode-roundtrip`` (exhaustive only when it
    decodes every k-subset), ``repair-exact`` (exact, with d scalars moved)
    and ``systematic-top-block`` when a systematic layout is claimed.  The
    budgets are the module constants above; ``seed`` seeds every draw.
    """
    p = code.params
    rng = random.Random(seed)
    checks = []

    enc = underlying_encoding(code)
    if enc is not None:
        try:
            checks += validate_properties(
                enc.params, enc.phi, list(enc.lam), PROPERTY_LIMIT, PROPERTY_SAMPLES, seed
            )
        except PropertyViolation as exc:
            checks.append(exc.check)

    # reconstruction: every k-subset's stacked block must have rank B
    def full_rank(ids):
        return Matrix.vstack([code.node_block(i) for i in ids]).rank() == p.B

    mode, cases = subset_cases(p.n, p.k, SUBSET_LIMIT, SUBSET_SAMPLES, rng)
    checks.append(CheckResult("k-subset-rank", mode, len(cases), _failed_cases(cases, full_rank)))

    m = random_message(p, rng)
    stored = code.stored_rows(m)

    def decodes_exactly(ids):
        return code.decode(ids, [stored[i] for i in ids]) == m

    decodes = cases if len(cases) <= DECODES else rng.sample(cases, DECODES)
    if len(decodes) < len(cases):
        mode = "sampled"
    checks.append(CheckResult("decode-roundtrip", mode, len(decodes), _failed_cases(decodes, decodes_exactly)))

    # repair: exact rebuild, d scalars moved.  A (failed, helpers) case is a
    # (d+1)-subset with one member failed: all of them, or one drawn per subset.
    def repairs_exactly(case):
        bundle = code.run_repair(stored, *case)
        return list(bundle.rebuilt) == stored[case[0]] and len(bundle.symbols) == p.d

    mode, groups = subset_cases(p.n, p.d + 1, REPAIR_LIMIT // (p.d + 1), REPAIR_SAMPLES, rng)
    repairs = [
        (g[j], g[:j] + g[j + 1 :])
        for g in groups
        for j in (range(p.d + 1) if mode == "exhaustive" else [rng.randrange(p.d + 1)])
    ]
    checks.append(CheckResult("repair-exact", mode, len(repairs), _failed_cases(repairs, repairs_exactly)))

    perm = getattr(code, "column_permutation", None)
    if perm is not None or isinstance(code, ShortenedCode):
        bad = []
        for t in range(p.B):
            row = code.generator.data[t]
            expect = perm[t] if perm is not None else t
            if any(x != (1 if s == expect else 0) for s, x in enumerate(row)):
                bad.append(t)
                if len(bad) >= 5:
                    break
        checks.append(CheckResult("systematic-top-block", "exhaustive", p.B, tuple(bad)))

    return CertificationRecord(
        label=code.label, n=p.n, k=p.k, d=p.d, q=p.field.order, seed=seed, checks=tuple(checks),
    )


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


def shard_layout(field) -> dict:
    """How a shard body lays out its symbols: the descriptor's ``layout``."""
    if field.kind == "binary8":
        return {"kind": "packets", "packet_bytes": PACKET}
    return {"kind": "u32be"}


def shard_dtype(field) -> np.dtype:
    """The numpy dtype of one stored symbol in ``shard_layout(field)``."""
    return np.dtype(np.uint8 if field.kind == "binary8" else ">u4")


def _prime_dtype(q: int):
    """The kernel's accumulator: int32 while (q-1)^2 + q fits, else int64."""
    return np.dtype(np.int32 if (q - 1) ** 2 + q < 1 << 31 else np.int64)


def chunk_stripes(field, inputs: int, rows: int) -> int:
    """Stripes per streamed chunk: ``inputs`` + ``rows`` kernel rows fit ``_CHUNK_BYTES``.

    Those are a matrix's or ``linalg.Program``'s ``inputs`` and ``rows``,
    all the rows it computes: its outputs and the rows they read.  Kernel
    rows are uint8 over GF(2^8), where a chunk is a whole number of blocks
    and at least one, and ``_prime_dtype`` over prime fields.
    """
    if field.kind == "binary8":
        block = 8 * PACKET
        return block * max(1, _CHUNK_BYTES // (block * (inputs + rows)))
    return max(1, _CHUNK_BYTES // (_prime_dtype(field.q).itemsize * (inputs + rows)))


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


def _xor_packets(blocks, data: np.ndarray, out: np.ndarray, s0: int, packet: int) -> None:
    """Stripes s0 .. s0 + 8*packet of ``out``: one block, one gather-XOR per scheduled packet."""
    pooled, computed, moved, sources = blocks
    s1 = s0 + 8 * packet
    rows_in = data.shape[0]
    pool = np.empty((8 * rows_in + len(pooled), packet), dtype=np.uint8)
    pool[: 8 * rows_in].reshape(rows_in, 8 * packet)[...] = data[:, s0:s1]
    for o, idx in pooled:
        np.bitwise_xor.reduce(pool[idx], axis=0, out=pool[o])
    dst = out[:, s0:s1].reshape(out.shape[0], 8, packet)  # a view: packet b of row r is dst[r, b]
    for o, idx in computed:
        np.bitwise_xor.reduce(pool[idx], axis=0, out=dst[o >> 3, o & 7])
    dst[moved] = pool.reshape(-1, 8, packet)[sources]


def apply_rows_bulk(field, mat: Matrix | Program, data: np.ndarray, skip_zeros: bool = True) -> np.ndarray:
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
    symbols below q, is first made one C-order ``_prime_dtype`` array (no
    copy when it already is one); a term c != 1 is then one multiply into a
    scratch row plus one add, a unit term one add, and partial sums are
    reduced by a floor division by q.  Over either field, an output row
    whose one nonzero is a 1, as a systematic row is, is one row copy.
    ``data`` may be any 2-D view, including a transposed one.
    """
    if data.shape[0] != mat.inputs:
        raise DimensionMismatch(f"data has {data.shape[0]} rows, matrix wants {mat.inputs}")
    stripes = data.shape[1]
    if field.kind == "binary8":
        if data.dtype != np.uint8:
            raise FieldMismatch(f"GF(2^8) stripes must be uint8, got {data.dtype}")
        coefficients = b"".join(bytes(row) for row in mat.data)
        copies, blocks = _xor_schedule(field, coefficients, mat.cols, mat.inputs, tuple(mat.outputs))
        out = np.empty((len(mat.outputs), stripes), dtype=np.uint8)
        for r, j in copies:
            out[r] = data[j]
        if blocks:
            block = 8 * PACKET
            full = stripes - stripes % block
            for s0 in range(0, full, block):
                _xor_packets(blocks, data, out, s0, PACKET)
            if stripes - full >= 8:
                _xor_packets(blocks, data, out, full, (stripes - full) // 8)
        tail = stripes - stripes % 8
        if tail < stripes:
            out[:, tail:] = (mat @ Matrix(field, data[:, tail:].tolist())).data
        return out
    q = field.q
    data = np.ascontiguousarray(data, dtype=_prime_dtype(q))  # copies only to convert
    # keep partial sums below a quarter of the dtype's range before reducing
    stride = max(1, (1 << (8 * data.itemsize - 2)) // (q * q))
    out = np.empty((len(mat.outputs), stripes), dtype=data.dtype)
    # where each row is computed: its output row, or else a spare row
    target = [None] * mat.rows
    for k, r in enumerate(mat.outputs):
        target[r] = out[k]
    spare = iter(np.empty((mat.rows - len(mat.outputs), stripes), dtype=data.dtype))
    target = [next(spare) if t is None else t for t in target]
    pool = [*data, *target]  # what each column reads
    scratch = np.empty(stripes, dtype=data.dtype)
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


def encode_stripes(code: LinearCode, data: np.ndarray, skip_zeros: bool = True) -> np.ndarray:
    """All node contents for a (B x S) stripe batch: (n*alpha x S)."""
    return apply_rows_bulk(code.params.field, code.generator, data, skip_zeros)


def random_stripes(field, rows: int, stripes: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if field.kind == "binary8":
        return rng.integers(0, 256, size=(rows, stripes), dtype=np.uint8)
    return rng.integers(0, field.q, size=(rows, stripes), dtype=np.int64)


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchResult:
    label: str
    n: int
    k: int
    d: int
    q: int
    stripes: int
    message_bytes: int
    reps: int
    seconds_median: float
    seconds_all: tuple
    throughput_mib_s: float
    generator_nonzeros: int
    parity_nonzeros: int

    def to_text(self) -> str:
        return (
            f"label: {self.label}\n"
            f"params: [{self.n},{self.k},{self.d}] q={self.q}\n"
            f"stripes: {self.stripes}\n"
            f"message_bytes: {self.message_bytes}\n"
            f"reps: {self.reps}\n"
            f"seconds_median: {self.seconds_median:.6f}\n"
            f"seconds_all: {' '.join(f'{s:.6f}' for s in self.seconds_all)}\n"
            f"throughput_mib_s: {self.throughput_mib_s:.3f}\n"
            f"generator_nonzeros: {self.generator_nonzeros}\n"
            f"parity_nonzeros: {self.parity_nonzeros}\n"
        )

    def to_tsv_row(self) -> str:
        return "\t".join(
            [
                self.label,
                f"{self.n}/{self.k}/{self.d}/{self.q}",
                str(self.stripes),
                str(self.message_bytes),
                f"{self.seconds_median:.6f}",
                f"{self.throughput_mib_s:.3f}",
                str(self.parity_nonzeros),
            ]
        )


def parity_nonzeros(code: LinearCode) -> int:
    p = code.params
    return sum(code.generator.nonzeros_per_row()[p.k * p.alpha :])


def predicted_speedup(sparse: LinearCode, dense: LinearCode) -> float:
    """Arithmetic-count model: encoding work scales with parity nonzeros."""
    return parity_nonzeros(dense) / parity_nonzeros(sparse)


def benchmark_pair(
    sparse: LinearCode,
    dense: LinearCode,
    workload_mib: float = 64.0,
    reps: int = 5,
    seed: int = 0,
) -> tuple[BenchResult, BenchResult, float, float]:
    """Benchmark a sparse code against its dense counterpart, of the same B and field.

    Both encode one seeded workload, single-threaded: at least
    ``workload_mib`` of file bytes at one byte per message symbol, as
    ``pmcode encode`` carries them, padded up to whole stripes.  After one
    untimed warmup of each, the reps alternate, sparse then dense, so that a
    drift in CPU speed during the run moves both medians alike.  Returns
    (sparse result, dense result, measured speedup, predicted speedup); the
    prediction is the parity nonzero-count ratio.
    """
    p = sparse.params
    stripes = max(1, math.ceil(workload_mib * (1 << 20) / p.B))
    data = random_stripes(p.field, p.B, stripes, seed)
    codes = (sparse, dense)
    for code in codes:
        encode_stripes(code, data)  # warmup
    times = ([], [])
    for _ in range(reps):
        for code, ts in zip(codes, times):
            t0 = time.perf_counter()
            encode_stripes(code, data)
            ts.append(time.perf_counter() - t0)
    message_bytes = stripes * p.B
    results = []
    for code, ts in zip(codes, times):
        med = statistics.median(ts)
        results.append(BenchResult(
            label=code.label,
            n=code.params.n,
            k=code.params.k,
            d=code.params.d,
            q=p.field.order,
            stripes=stripes,
            message_bytes=message_bytes,
            reps=reps,
            seconds_median=med,
            seconds_all=tuple(ts),
            throughput_mib_s=message_bytes / (1 << 20) / med if med > 0 else float("inf"),
            generator_nonzeros=sum(code.generator.nonzeros_per_row()),
            parity_nonzeros=parity_nonzeros(code),
        ))
    rs, rd = results
    return rs, rd, rd.seconds_median / rs.seconds_median, predicted_speedup(sparse, dense)
