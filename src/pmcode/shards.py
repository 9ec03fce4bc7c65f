"""The shard format and the data file's stripes: the one module that reads and
writes shard files, and the stripe source and sink of the data file.

The descriptor pins the shard ``layout`` (``shard_layout``, symbols of
``shard_dtype``); ``check_layout`` refuses one this version does not read.
Shard files carry a fixed 60-byte header::

    magic "PMSHARD1" | sha256(descriptor file) | node id u32 BE
    | stripe count u64 BE | payload byte length u64 BE

followed by alpha rows of ``stripes`` stripes each: u32 big-endian per
symbol for prime fields, and for GF(2^8) one byte per stripe in the packet
layout of ``analysis.apply_rows_bulk`` (``analysis.PACKET``, read on each
call), in which the first k nodes still hold the message bytes as they are.
Rows are read in place, one ``preadv`` per segment of a selected row, and
written at their offsets with ``pwrite``; prime-field symbols are read into
native uint32 rows, byte-swapped in place and range-checked as unsigned
numbers.

The data file is the other end of the same stripes: ``stripe_count``
stripes of B bytes, the last one padded with zeros.  ``data_source`` reads
it as message columns, widened to ``analysis.kernel_dtype`` over a prime
field, and ``data_sink`` writes decoded columns back as bytes, refusing a
symbol above 255 or nonzero padding.  Each source and sink is a factory of
``analysis.stream``: given the widest chunk, it allocates its buffers once
and returns ``read(s0, w)`` or ``write(s0, outputs)``.  Every problem is a
``CliError``.
"""

from __future__ import annotations

import os
import secrets
import struct
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from . import analysis
from .errors import CliError

DESCRIPTOR_V1 = "pmcode-descriptor-v1"  # the descriptor format from before shards had a layout
MAGIC = b"PMSHARD1"
HEADER = struct.Struct(">8s32sIQQ")


def shard_layout(field) -> dict:
    """How a shard body lays out its symbols: the descriptor's ``layout``."""
    if field.kind == "binary8":
        return {"kind": "packets", "packet_bytes": analysis.PACKET}
    return {"kind": "u32be"}


def shard_dtype(field) -> np.dtype:
    """The numpy dtype of one stored symbol in ``shard_layout(field)``."""
    return np.dtype(np.uint8 if field.kind == "binary8" else ">u4")


def check_layout(desc, field) -> None:
    """Raise CliError unless the descriptor's shards are laid out as this version reads them.

    v1 has no ``layout``: its prime-field shards are laid out as v2's, but
    its GF(2^8) shards hold one symbol per byte, not packets.
    """
    if desc["format"] == DESCRIPTOR_V1:
        if field.kind == "binary8":
            raise CliError(f"{DESCRIPTOR_V1} GF(2^8) shards use the byte layout this version no longer reads; "
                           "run gen again and re-encode the data")
    elif desc.get("layout") != shard_layout(field):
        raise CliError(f"descriptor layout {desc.get('layout')!r} is not {shard_layout(field)!r}; "
                       "re-encode the data")


def shard_name(node: int) -> str:
    return f"node_{node:03d}.shard"


def stripe_count(payload_len: int, B: int) -> int:
    """Stripes of B symbols that carry payload_len bytes; an empty payload takes one."""
    return max(1, -(-payload_len // B))


def _pread_into(fd: int, buf: memoryview, offset: int, path) -> None:
    while buf:
        got = os.preadv(fd, [buf], offset)
        if got == 0:
            raise CliError(f"{path}: shard ended while being read")
        buf, offset = buf[got:], offset + got


def pwrite_all(fd: int, buf: memoryview, offset: int) -> None:
    while buf:
        done = os.pwrite(fd, buf, offset)
        buf, offset = buf[done:], offset + done


def read_header(fd: int, path, digest: bytes, field, alpha: int) -> tuple[int, int, int]:
    """Check a shard's header and file size; returns (node, stripes, payload_len)."""
    head = os.pread(fd, HEADER.size, 0)
    if len(head) < HEADER.size:
        raise CliError(f"{path}: truncated shard header")
    magic, got_digest, node, stripes, payload_len = HEADER.unpack(head)
    if magic != MAGIC:
        raise CliError(f"{path}: not a shard file")
    if got_digest != digest:
        raise CliError(f"{path}: shard belongs to a different descriptor")
    body = os.fstat(fd).st_size - HEADER.size
    expected = alpha * stripes * shard_dtype(field).itemsize
    if body != expected:
        raise CliError(f"{path}: shard body is {body} bytes, expected {expected}")
    return node, stripes, payload_len


def write_header(fd: int, digest: bytes, node: int, stripes: int, payload_len: int) -> None:
    pwrite_all(fd, memoryview(HEADER.pack(MAGIC, digest, node, stripes, payload_len)), 0)


def row_source(sources, rows, field, stripes: int, width: int):
    """``read(s0, w)``: stripes s0..s0+w of the stored ``rows`` of each (path, fd) in ``sources``,
    stacked, as a column slice of one buffer of ``width`` stripes.

    Each byte of a selected row is read once, and no other row.  Prime-field symbols reach
    the kernel as an int32 view of the uint32 rows, when it computes in int32.
    """
    stored_dtype, dtype = shard_dtype(field), analysis.kernel_dtype(field)
    stored = np.empty((len(sources) * len(rows), width), dtype=stored_dtype.newbyteorder("="))
    inputs = stored.view(dtype) if dtype.itemsize == stored.itemsize else stored

    def read(s0: int, w: int) -> np.ndarray:
        for i, (path, fd) in enumerate(sources):
            block = stored[i * len(rows) : (i + 1) * len(rows), :w]
            for row, r in zip(block.view(np.uint8), rows):
                _pread_into(fd, memoryview(row), HEADER.size + (r * stripes + s0) * stored.itemsize, path)
            if stored.dtype != stored_dtype:
                block.byteswap(inplace=True)
            if field.kind != "binary8" and block.max(initial=0) >= field.q:
                raise CliError(f"{path}: symbol out of field range")
        return inputs[:, :w]

    return read


def row_sink(fds, alpha: int, field, stripes: int, width: int):
    """``write(s0, outputs)``: stores alpha outputs per descriptor in ``fds``, in order, as
    stripes s0..s0+w of its rows, through one staging row of ``width`` symbols.
    """
    stage = np.empty(width, dtype=shard_dtype(field))

    def write(s0: int, outputs: np.ndarray) -> None:
        w = outputs.shape[1]
        for i, fd in enumerate(fds):
            for r, row in enumerate(outputs[i * alpha : (i + 1) * alpha]):
                if row.dtype != stage.dtype:
                    stage[:w] = row
                    row = stage[:w]
                pwrite_all(fd, memoryview(row.view(np.uint8)), HEADER.size + (r * stripes + s0) * row.itemsize)

    return write


def data_source(src, size: int, field, B: int, width: int):
    """``read(s0, w)``: the data file ``src`` of ``size`` bytes as (B x w) message columns,
    zeros padding the last stripe."""
    chunk = np.empty((width, B), dtype=np.uint8)
    dtype = analysis.kernel_dtype(field)
    wide = np.empty((B, width), dtype=dtype) if dtype != chunk.dtype else None

    def read(s0: int, w: int) -> np.ndarray:
        data = chunk[:w].reshape(-1)
        want = min(data.size, size - s0 * B)
        if want > 0 and src.readinto(memoryview(data)[:want]) != want:
            raise CliError(f"{src.name}: file changed while being encoded")
        data[want:] = 0
        if wide is None:
            return chunk[:w].T
        wide[:, :w] = chunk[:w].T  # prime symbols, widened to the kernel's dtype
        return wide[:, :w]

    return read


def data_sink(fd: int, payload_len: int, B: int, width: int):
    """``write(s0, message)``: decoded (B x w) message columns as the data file's bytes,
    checking the padding."""
    stripe_bytes = np.empty((width, B), dtype=np.uint8)

    def write(s0: int, message: np.ndarray) -> None:
        if message.max(initial=0) > 255:
            raise CliError("decoded symbols exceed byte range; shards are inconsistent")
        data = stripe_bytes[: message.shape[1]]
        data[...] = message.T
        data = data.reshape(-1)
        # the header check makes this positive for all but an empty payload
        valid = payload_len - s0 * B
        if data[valid:].any():
            raise CliError(f"decoded padding past payload length {payload_len} is not zero; "
                           "the shards or their payload length are wrong")
        pwrite_all(fd, memoryview(data)[:valid], s0 * B)

    return write


@contextmanager
def atomic_output(path):
    """Yield the descriptor of a new temporary file beside ``path``.

    The file replaces ``path`` when the block completes and is removed when
    it raises, so a failed command never leaves a partial output behind.
    Failing to create or replace it is a CliError naming ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}") from exc
    try:
        try:
            yield fd
        finally:
            os.close(fd)
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise CliError(f"cannot write {path}: {exc.strerror}") from exc
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def scan(shard_dir, n: int) -> dict[int, Path]:
    """The shard of each node 0..n-1 present in ``shard_dir``, by its ``shard_name``."""
    paths = (Path(shard_dir) / shard_name(i) for i in range(n))
    found = {i: path for i, path in enumerate(paths) if path.is_file()}
    if not found:
        raise CliError(f"no node_*.shard files in {shard_dir}")
    return found


def open_nodes(stack: ExitStack, shard_dir, found: dict, ids, digest: bytes, params, role: str):
    """Open and check the shard of each id; returns ([(path, fd)], stripes, payload_len).

    Every header must name its node and agree with the first shard's
    geometry, whose payload length must fit its stripe count.  The
    descriptors close when ``stack`` does.
    """
    sources, geometry = [], None
    for i in ids:
        if i not in found:
            raise CliError(f"{role} {i} has no shard in {shard_dir}")
        path = found[i]
        fd = os.open(path, os.O_RDONLY)
        stack.callback(os.close, fd)
        node, stripes, payload_len = read_header(fd, path, digest, params.field, params.alpha)
        if node != i:
            raise CliError(f"{path}: header says node {node}")
        if geometry is None:
            if stripes != stripe_count(payload_len, params.B):
                raise CliError(f"{path}: payload length {payload_len} does not fit "
                               f"{stripes} stripes of {params.B} bytes")
            geometry = (stripes, payload_len)
        elif (stripes, payload_len) != geometry:
            raise CliError(f"{path}: stripe geometry differs from other {role}s")
        sources.append((path, fd))
    return sources, *geometry
