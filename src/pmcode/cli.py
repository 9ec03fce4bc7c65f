"""Command-line front end.

Subcommands:

* ``gen``      build a code and write its matrices plus a descriptor
* ``encode``   split a data file into per-node shard files
* ``repair``   rebuild one node's shard from d helper shards or k node shards
* ``decode``   recover the data file from any k shards
* ``certify``  re-check the construction properties, reconstruction, repair
               and systematic form, one row per check
* ``analyze``  print a generator sparsity report
* ``bench``    time sparse vs dense encoding on a seeded workload

The descriptor (``descriptor.json``, format ``pmcode-descriptor-v2``) pins
everything needed to rebuild the code deterministically: parameters, field,
construction route, the evaluation points actually chosen, sha256 hashes
of the generated matrix files, and the shard ``layout``
(``analysis.shard_layout``; ``analysis.shard_dtype`` gives its symbol
type).  Older descriptors also carry a ``seed``, which is ignored.  A v1
descriptor has no layout; its prime-field shards are read as they are, and
a v1 GF(2^8) descriptor is refused, since its shards hold bytes rather than
packets.  Shard files carry a fixed 60-byte header::

    magic "PMSHARD1" | sha256(descriptor file) | node id u32 BE
    | stripe count u64 BE | payload byte length u64 BE

followed by alpha rows of ``stripes`` stripes each: u32 big-endian per
symbol for prime fields, and for GF(2^8) one byte per stripe in the packet
layout of ``analysis.apply_rows_bulk``, in which the first k nodes still
hold the message bytes as they are.

``encode``, ``repair`` and ``decode`` stream the stripes in chunks of
``analysis.chunk_stripes`` stripes (whole packet blocks over GF(2^8)), so
their peak memory is bounded by the chunk, not by the object.  Each chunk is
read in place (``readinto`` on the input file, one ``preadv`` per segment of
a shard row that the command reads, each byte once, after a header and
file-size check) and each result is written at its offset with ``pwrite``.
``decode`` reads every row of its k shards.  ``repair`` runs one of two
plans (``LinearCode.repair_plan``): from d helpers it reads only the rows
the repair vector names (``helper_plan``), one per helper for a node
repaired by transfer, and from k nodes all their rows
(``rebuild_plan``).  By default it takes the plan that reads fewer
symbols, over the first d or the first k present nodes; a ``--helpers``
list runs the first.  It prints the symbols per stripe it read beside the
d that the helpers send.  An empty ``--nodes`` or ``--helpers`` list is
refused.  Every output goes to a temporary file beside it, which replaces
the destination only after the last chunk and is removed on any error, so a
failed command leaves no partial output; an output that is a directory or
one of the command's own inputs (the data file or a shard it reads, or the
descriptor) is refused before anything is written.  ``decode`` also checks
that the last stripe's bytes past the payload length decode to zero.  The
field arithmetic is ``analysis.encode_stripes`` and, on each chunk that
``_stream_rows`` reads, ``analysis.apply_rows_bulk`` with the repair plan's
program or ``LinearCode.decode_program``; this module does file I/O and
argument handling.  Each bulk command allocates its buffers once, for its
first and widest chunk, and each chunk is a column slice of them.
Prime-field symbols are read into native uint32 rows, byte-swapped in
place and range-checked as unsigned numbers.  Only ``certify``,
``analyze`` and ``bench`` import ``pmcode.report``.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import secrets
import stat
import struct
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path

# pmcode never calls BLAS; stop numpy's OpenBLAS from starting a thread pool
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .analysis import (
    apply_rows_bulk,
    chunk_stripes,
    encode_stripes,
    kernel_dtype,
    shard_dtype,
    shard_layout,
    underlying_encoding,
)
from .construct import (
    ShortenedCode,
    build_rbt_systematic,
    build_sparse_systematic,
    build_vanilla_systematic,
)
from .errors import BadCount, BadHelperCount, IndexOutOfRange, PmCodeError
from .field import GF256_DEFAULT_POLY, BinaryField, PrimeField
from .linalg import kernel_cost

DESCRIPTOR_FORMAT = "pmcode-descriptor-v2"
DESCRIPTOR_V1 = "pmcode-descriptor-v1"
MAGIC = b"PMSHARD1"
_HEADER = struct.Struct(">8s32sIQQ")

# top-level keys code_from_descriptor reads, with their JSON types
_DESCRIPTOR_KEYS = {
    "n": int, "k": int, "d": int,
    "construction": str, "field": dict, "xs": list, "hashes": dict,
}
# the number that pins each field kind
_FIELD_NUMBER = {"binary8": "poly", "prime": "q"}

_BUILDERS = {
    "vanilla": build_vanilla_systematic,
    "sparse": build_sparse_systematic,
    "rbt": build_rbt_systematic,
}


class CliError(PmCodeError):
    """A problem with command-line inputs or on-disk artifacts."""


# ---------------------------------------------------------------------------
# descriptor
# ---------------------------------------------------------------------------

def _make_field(kind: str, number: int, source: str):
    """The field of ``kind`` pinned by ``number``; a bad number is a CliError naming ``source``."""
    try:
        return BinaryField(number) if kind == "binary8" else PrimeField(number)
    except ValueError as exc:
        raise CliError(f"{source}: {exc}") from exc


def _field_from_args(args):
    if args.gf256:
        return _make_field("binary8", GF256_DEFAULT_POLY, "--gf256")
    if args.q is not None:
        return _make_field("prime", args.q, "--q")
    return None  # builders pick the smallest workable prime


def _field_to_json(field) -> dict:
    if field.kind == "binary8":
        return {"kind": "binary8", "poly": field.poly}
    return {"kind": "prime", "q": field.q}


def _field_from_json(fd: dict):
    return _make_field(fd["kind"], fd[_FIELD_NUMBER[fd["kind"]]], "descriptor field")


def generation_artifacts(code) -> dict[str, str]:
    """The text files gen writes: encoding matrix, pre-remap generator, g_sys."""
    enc = underlying_encoding(code)
    base = code.parent.base if isinstance(code, ShortenedCode) else code.base
    return {
        "psi.txt": enc.psi.to_text(),
        "g.txt": base.generator.to_text(),
        "g_sys.txt": code.generator.to_text(),
    }


def descriptor_for(code, construction: str, artifacts: dict[str, str]) -> dict:
    """The descriptor of ``code``, hashing its ``generation_artifacts``."""
    p = code.params
    enc = underlying_encoding(code)
    desc = {
        "format": DESCRIPTOR_FORMAT,
        "n": p.n,
        "k": p.k,
        "d": p.d,
        "construction": construction,
        "field": _field_to_json(p.field),
        "layout": shard_layout(p.field),
        "xs": list(enc.xs),
        "parent": None,
        "hashes": {
            name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in artifacts.items()
        },
    }
    if isinstance(code, ShortenedCode):
        pp = code.parent.params
        desc["parent"] = {"n": pp.n, "k": pp.k, "d": pp.d}
    return desc


def descriptor_bytes(desc: dict) -> bytes:
    return (json.dumps(desc, sort_keys=True, indent=2) + "\n").encode()


def _check_descriptor(desc) -> None:
    """Raise CliError unless every key code_from_descriptor reads has its JSON type."""
    if type(desc) is not dict:
        raise CliError(f"descriptor must be a JSON object, not {type(desc).__name__}")
    version = desc.get("format")
    if version not in (DESCRIPTOR_FORMAT, DESCRIPTOR_V1):
        raise CliError(f"unsupported descriptor format {version!r}")
    for key, kind in _DESCRIPTOR_KEYS.items():
        if key not in desc:
            raise CliError(f"descriptor is missing {key!r}")
        if type(desc[key]) is not kind:
            raise CliError(f"descriptor {key!r} must be a JSON {kind.__name__}, got {desc[key]!r}")
    fd = desc["field"]
    number = _FIELD_NUMBER.get(fd.get("kind")) if type(fd.get("kind")) is str else None
    if number is None:
        raise CliError(f"unknown field kind {fd.get('kind')!r}")
    if type(fd.get(number)) is not int:
        raise CliError(f"descriptor field of kind {fd['kind']!r} needs an integer {number!r}")


def _check_layout(desc, field) -> None:
    """Raise CliError unless the descriptor's shards are laid out as this version reads them.

    v1 has no ``layout``: its prime-field shards are laid out as v2's, but
    its GF(2^8) shards hold one symbol per byte, not packets.
    """
    if desc["format"] == DESCRIPTOR_V1:
        if field.kind == "binary8":
            raise CliError(
                f"{DESCRIPTOR_V1} GF(2^8) shards use the byte layout this version no longer reads; "
                "run gen again and re-encode the data"
            )
    elif desc.get("layout") != shard_layout(field):
        raise CliError(
            f"descriptor layout {desc.get('layout')!r} is not {shard_layout(field)!r}; re-encode the data"
        )


def load_descriptor(path) -> tuple[dict, bytes]:
    """Read a descriptor file; returns (parsed JSON, sha256 of the raw bytes)."""
    raw = Path(path).read_bytes()
    try:
        desc = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
        raise CliError(f"descriptor is not valid JSON: {exc}") from exc
    return desc, hashlib.sha256(raw).digest()


def code_from_descriptor(desc: dict):
    """Schema-check the descriptor, rebuild the code and verify it matches."""
    _check_descriptor(desc)
    construction = desc["construction"]
    if construction not in _BUILDERS:
        raise CliError(f"unknown construction {construction!r}")
    field = _field_from_json(desc["field"])
    _check_layout(desc, field)
    code = _BUILDERS[construction](desc["n"], desc["k"], desc["d"], field=field)
    enc = underlying_encoding(code)
    if list(enc.xs) != list(desc["xs"]):
        raise CliError("rebuilt code uses different evaluation points than the descriptor")
    for name, text in generation_artifacts(code).items():
        if hashlib.sha256(text.encode()).hexdigest() != desc["hashes"].get(name):
            raise CliError(f"rebuilt {name} does not match the descriptor hash")
    return code


def _code_from_selection(args):
    """Build from --descriptor if given, else from the explicit parameters."""
    if getattr(args, "descriptor", None):
        desc, _ = load_descriptor(args.descriptor)
        return code_from_descriptor(desc)
    if args.n is None or args.k is None or args.d is None:
        raise CliError("provide either --descriptor or all of --n/--k/--d")
    return _BUILDERS[args.construction](args.n, args.k, args.d, field=_field_from_args(args))


# ---------------------------------------------------------------------------
# shard files
# ---------------------------------------------------------------------------

def shard_name(node: int) -> str:
    return f"node_{node:03d}.shard"


def _stripe_count(payload_len: int, B: int) -> int:
    """Stripes of B symbols that carry payload_len bytes; an empty payload takes one."""
    return max(1, -(-payload_len // B))


def _pread_into(fd: int, buf: memoryview, offset: int, path) -> None:
    while buf:
        got = os.preadv(fd, [buf], offset)
        if got == 0:
            raise CliError(f"{path}: shard ended while being read")
        buf, offset = buf[got:], offset + got


def _pwrite_all(fd: int, buf: memoryview, offset: int) -> None:
    while buf:
        done = os.pwrite(fd, buf, offset)
        buf, offset = buf[done:], offset + done


def _read_header(fd: int, path, digest: bytes, field, alpha: int) -> tuple[int, int, int]:
    """Check a shard's header and file size; returns (node, stripes, payload_len)."""
    head = os.pread(fd, _HEADER.size, 0)
    if len(head) < _HEADER.size:
        raise CliError(f"{path}: truncated shard header")
    magic, got_digest, node, stripes, payload_len = _HEADER.unpack(head)
    if magic != MAGIC:
        raise CliError(f"{path}: not a shard file")
    if got_digest != digest:
        raise CliError(f"{path}: shard belongs to a different descriptor")
    body = os.fstat(fd).st_size - _HEADER.size
    expected = alpha * stripes * shard_dtype(field).itemsize
    if body != expected:
        raise CliError(f"{path}: shard body is {body} bytes, expected {expected}")
    return node, stripes, payload_len


def _read_rows(fd: int, path, out: np.ndarray, stripes: int, s0: int, field, rows) -> None:
    """Fill ``out`` (len(rows) x w, native symbol dtype) with stripes s0..s0+w of the stored ``rows``.

    Prime-field symbols are stored big-endian: they are swapped in place
    and must be below q as unsigned numbers.
    """
    size = out.itemsize
    for i, r in enumerate(rows):
        _pread_into(fd, memoryview(out[i].view(np.uint8)), _HEADER.size + (r * stripes + s0) * size, path)
    if out.dtype != shard_dtype(field):
        out.byteswap(inplace=True)
    if field.kind != "binary8" and out.max(initial=0) >= field.q:
        raise CliError(f"{path}: symbol out of field range")


def _write_header(fd: int, digest: bytes, node: int, stripes: int, payload_len: int) -> None:
    _pwrite_all(fd, memoryview(_HEADER.pack(MAGIC, digest, node, stripes, payload_len)), 0)


def _write_rows(fd: int, rows: np.ndarray, stripes: int, s0: int, stage: np.ndarray) -> None:
    """Store ``rows`` (alpha x w) as stripes s0..s0+w of each stored row.

    A row not in the stored dtype is first converted into ``stage``, a reused row of >= w symbols.
    """
    w = rows.shape[1]
    for r, row in enumerate(rows):
        if row.dtype != stage.dtype:
            stage[:w] = row
            row = stage[:w]
        _pwrite_all(fd, memoryview(row.view(np.uint8)), _HEADER.size + (r * stripes + s0) * row.itemsize)


def _chunk_width(field, mat, stripes: int) -> int:
    """Stripes in each chunk a command passes ``mat``: ``chunk_stripes``, or all when fewer."""
    return min(chunk_stripes(field, mat.inputs, mat.rows), stripes)


@contextmanager
def _atomic_output(path):
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


def _scan_shards(shard_dir, n: int) -> dict[int, Path]:
    """The shard of each node 0..n-1 present in ``shard_dir``, by its ``shard_name``."""
    paths = (Path(shard_dir) / shard_name(i) for i in range(n))
    found = {i: path for i, path in enumerate(paths) if path.is_file()}
    if not found:
        raise CliError(f"no node_*.shard files in {shard_dir}")
    return found


def _open_nodes(stack: ExitStack, shard_dir, shards: dict, ids, digest: bytes, params, role: str):
    """Open and check the shard of each id; returns ([(path, fd)], stripes, payload_len).

    Every header must name its node and agree with the first shard's
    geometry, whose payload length must fit its stripe count.  The
    descriptors close when ``stack`` does.
    """
    sources, geometry = [], None
    for i in ids:
        if i not in shards:
            raise CliError(f"{role} {i} has no shard in {shard_dir}")
        path = shards[i]
        fd = os.open(path, os.O_RDONLY)
        stack.callback(os.close, fd)
        node, stripes, payload_len = _read_header(fd, path, digest, params.field, params.alpha)
        if node != i:
            raise CliError(f"{path}: header says node {node}")
        if geometry is None:
            if stripes != _stripe_count(payload_len, params.B):
                raise CliError(
                    f"{path}: payload length {payload_len} does not fit "
                    f"{stripes} stripes of {params.B} bytes"
                )
            geometry = (stripes, payload_len)
        elif (stripes, payload_len) != geometry:
            raise CliError(f"{path}: stripe geometry differs from other {role}s")
        sources.append((path, fd))
    return sources, *geometry


def _refuse_overwriting(out, descriptor, sources) -> None:
    """Raise CliError if ``out`` is a directory, the descriptor or a file opened in ``sources``, (path, fd) pairs."""
    try:
        target = os.stat(out)
    except FileNotFoundError:
        return
    if stat.S_ISDIR(os.lstat(out).st_mode):  # a link to a directory is replaced, not followed
        raise CliError(f"cannot write {Path(out)}: {os.strerror(errno.EISDIR)}")
    inputs = [os.stat(descriptor)] + [os.fstat(fd) for _, fd in sources]
    if any(os.path.samestat(target, st) for st in inputs):
        raise CliError(f"{out} is one of this command's inputs; write the output elsewhere")


def _stream_rows(sources, rows, params, stripes: int, program):
    """Yield (s0, outputs): ``program``'s outputs on stripes s0..s0+w of the stored ``rows``.

    The program's inputs are those rows of every source, stacked in order,
    and each chunk holds as many stripes as ``chunk_stripes`` allows for its
    inputs plus all its rows: one ``apply_rows_bulk`` call per chunk.  Each
    byte of a selected row is read once, and no other row is read.  Each
    chunk is a column slice of one input and one output buffer, so the next
    chunk overwrites its outputs, and the kernel keeps its work arrays in
    one ``work`` dict.  Prime-field symbols reach the kernel as an int32
    view of the uint32 rows read, when it computes in int32.
    """
    field = params.field
    width = _chunk_width(field, program, stripes)
    stored = np.empty((program.inputs, width), dtype=shard_dtype(field).newbyteorder("="))
    dtype = kernel_dtype(field)
    inputs = stored.view(dtype) if dtype.itemsize == stored.itemsize else stored
    outputs = np.empty((len(program.outputs), width), dtype=dtype)
    work = {}
    for s0 in range(0, stripes, width):
        w = min(width, stripes - s0)
        for i, (path, fd) in enumerate(sources):
            _read_rows(fd, path, stored[i * len(rows) : (i + 1) * len(rows), :w], stripes, s0, field, rows)
        yield s0, apply_rows_bulk(field, program, inputs[:, :w], out=outputs[:, :w], work=work)


def _parse_ids(text: str) -> list[int]:
    """The comma-separated node ids of ``text``; none at all is a CliError, not a default."""
    try:
        ids = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        ids = []
    if not ids:
        raise CliError(f"bad node list {text!r}; expected comma-separated integers")
    return ids


def _data_symbols_per_byte_check(field):
    if field.kind != "binary8" and field.q < 257:
        raise CliError(
            f"field of order {field.q} cannot carry arbitrary bytes; "
            "use --gf256 or a prime of at least 257 when encoding files"
        )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    code = _BUILDERS[args.construction](args.n, args.k, args.d, field=_field_from_args(args))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = generation_artifacts(code)
    desc = descriptor_for(code, args.construction, artifacts)
    files = {name: text.encode() for name, text in artifacts.items()}
    files["descriptor.json"] = descriptor_bytes(desc)
    for name, raw in files.items():
        with _atomic_output(out / name) as fd:
            _pwrite_all(fd, memoryview(raw), 0)
    p = code.params
    print(
        f"wrote descriptor.json, {', '.join(artifacts)} to {out} "
        f"([{p.n},{p.k},{p.d}] q={p.field.order}, {args.construction})"
    )
    return 0


def cmd_encode(args) -> int:
    desc, digest = load_descriptor(args.descriptor)
    code = code_from_descriptor(desc)
    p = code.params
    _data_symbols_per_byte_check(p.field)
    out = Path(args.out_dir)
    with open(args.data, "rb", buffering=0) as src, ExitStack() as stack:
        st = os.fstat(src.fileno())
        if not stat.S_ISREG(st.st_mode):
            raise CliError(f"{args.data}: not a regular file; the stripe count needs its size up front")
        size = st.st_size
        out.mkdir(parents=True, exist_ok=True)
        for i in range(p.n):
            _refuse_overwriting(out / shard_name(i), args.descriptor, [(args.data, src.fileno())])
        stripes = _stripe_count(size, p.B)
        shards = [stack.enter_context(_atomic_output(out / shard_name(i))) for i in range(p.n)]
        for i, fd in enumerate(shards):
            _write_header(fd, digest, i, stripes, size)
        width = _chunk_width(p.field, code.generator, stripes)
        chunk = np.empty((width, p.B), dtype=np.uint8)
        dtype = kernel_dtype(p.field)
        wide = np.empty((p.B, width), dtype=dtype) if dtype != chunk.dtype else None
        rows = np.empty((p.n * p.alpha, width), dtype=dtype)
        stage = np.empty(width, dtype=shard_dtype(p.field))
        work = {}
        for s0 in range(0, stripes, width):
            w = min(width, stripes - s0)
            data = chunk[:w].reshape(-1)
            want = min(data.size, size - s0 * p.B)
            if want > 0 and src.readinto(memoryview(data)[:want]) != want:
                raise CliError(f"{args.data}: file changed while being encoded")
            data[want:] = 0  # zeros pad the last stripe
            message = chunk[:w].T
            if wide is not None:  # prime symbols, widened to the kernel's dtype
                wide[:, :w] = message
                message = wide[:, :w]
            encoded = encode_stripes(code, message, out=rows[:, :w], work=work)
            for i, fd in enumerate(shards):
                _write_rows(fd, encoded[i * p.alpha : (i + 1) * p.alpha], stripes, s0, stage)
    print(f"encoded {size} bytes into {p.n} shards of {stripes} stripes in {out}")
    return 0


def cmd_repair(args) -> int:
    desc, digest = load_descriptor(args.descriptor)
    code = code_from_descriptor(desc)
    p = code.params
    shards = _scan_shards(args.shard_dir, p.n)
    failed = args.failed
    try:
        if args.helpers is None:
            plan = code.repair_plan(failed, sorted(shards))
        else:
            plan = code.helper_plan(failed, _parse_ids(args.helpers))
    except (BadCount, BadHelperCount, IndexOutOfRange) as exc:
        raise CliError(f"cannot repair node {failed}: {exc}") from exc
    out = Path(args.out or Path(args.shard_dir) / shard_name(failed))
    role = "node" if plan.rebuild else "helper"
    with ExitStack() as stack:
        sources, stripes, payload_len = _open_nodes(stack, args.shard_dir, shards, plan.nodes, digest, p, role)
        _refuse_overwriting(out, args.descriptor, sources)
        fd = stack.enter_context(_atomic_output(out))
        _write_header(fd, digest, failed, stripes, payload_len)
        stage = np.empty(_chunk_width(p.field, plan.program, stripes), dtype=shard_dtype(p.field))
        for s0, rows in _stream_rows(sources, plan.rows, p, stripes, plan.program):
            _write_rows(fd, rows, stripes, s0, stage)
    nodes = ",".join(str(i) for i in plan.nodes)
    if plan.rebuild:
        selected = sum(1 for c in code.repair_vector(failed) if c)
        print(
            f"rebuilt node {failed} from k={p.k} nodes {nodes} -> {out}; per stripe: "
            f"read {plan.symbols} symbols ({p.alpha} of {p.alpha} rows per node), "
            f"kernel_cost {kernel_cost(plan.program)}; d={p.d} helpers would read {p.d * selected}, send {p.d}"
        )
    else:
        print(
            f"rebuilt node {failed} from helpers {nodes} -> {out}; per stripe: "
            f"read {plan.symbols} symbols ({len(plan.rows)} of {p.alpha} rows per helper), sent {p.d}, "
            f"naive rebuild reads {p.k * p.alpha}"
        )
    return 0


def cmd_decode(args) -> int:
    desc, digest = load_descriptor(args.descriptor)
    code = code_from_descriptor(desc)
    p = code.params
    shards = _scan_shards(args.shard_dir, p.n)
    ids = _parse_ids(args.nodes) if args.nodes is not None else sorted(shards)[: p.k]
    if len(ids) != p.k:
        raise CliError(f"need exactly k={p.k} nodes, got {len(ids)}")
    try:
        program = code.decode_program(ids)
    except (BadCount, IndexOutOfRange) as exc:
        raise CliError(f"bad node list {args.nodes!r}: {exc}") from exc
    with ExitStack() as stack:
        sources, stripes, payload_len = _open_nodes(stack, args.shard_dir, shards, ids, digest, p, "node")
        _refuse_overwriting(args.out, args.descriptor, sources)
        fd = stack.enter_context(_atomic_output(args.out))
        stripe_bytes = np.empty((_chunk_width(p.field, program, stripes), p.B), dtype=np.uint8)
        for s0, message in _stream_rows(sources, range(p.alpha), p, stripes, program):
            if message.max(initial=0) > 255:
                raise CliError("decoded symbols exceed byte range; shards are inconsistent")
            data = stripe_bytes[: message.shape[1]]
            data[...] = message.T
            data = data.reshape(-1)
            # the header check makes this positive for all but an empty payload
            valid = payload_len - s0 * p.B
            if data[valid:].any():
                raise CliError(f"decoded padding past payload length {payload_len} is not zero; "
                               "the shards or their payload length are wrong")
            _pwrite_all(fd, memoryview(data)[:valid], s0 * p.B)
    print(f"decoded {payload_len} bytes from nodes {','.join(str(i) for i in ids)} -> {args.out}")
    return 0


def cmd_certify(args) -> int:
    from .report import certify
    code = _code_from_selection(args)
    record = certify(code, seed=args.seed)
    if args.tsv:
        print("\n".join(record.to_tsv_rows()))
    else:
        print(record.to_text(), end="")
    return 0 if record.passed else 1


def cmd_analyze(args) -> int:
    from .report import sparsity_report
    code = _code_from_selection(args)
    report = sparsity_report(code)
    if args.tsv:
        print("\n".join(report.to_tsv_rows()))
    else:
        print(report.to_text(), end="")
    return 0


def cmd_bench(args) -> int:
    if args.reps < 1:
        raise CliError(f"--reps must be at least 1, got {args.reps}")
    if not 0 < args.mib < float("inf"):
        raise CliError(f"--mib must be a finite positive size, got {args.mib}")
    from .report import benchmark_pair
    field = _field_from_args(args)
    sparse = build_sparse_systematic(args.n, args.k, args.d, field=field)
    dense = build_vanilla_systematic(args.n, args.k, args.d, field=field)
    rs, rd, measured, predicted = benchmark_pair(
        sparse, dense, workload_mib=args.mib, reps=args.reps, seed=args.seed
    )
    if args.tsv:
        print(rs.to_tsv_row())
        print(rd.to_tsv_row())
    else:
        print("== sparse ==")
        print(rs.to_text(), end="")
        print("== dense ==")
        print(rd.to_text(), end="")
    print(f"measured_speedup: {measured:.3f}")
    print(f"predicted_speedup: {predicted:.3f}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_field_args(sub) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--q", type=int, help="prime field order (default: smallest workable prime)")
    group.add_argument("--gf256", action="store_true", help="use the 256-element binary field")


def _add_params_args(sub, required: bool) -> None:
    sub.add_argument("--n", type=int, required=required, help="number of storage nodes")
    sub.add_argument("--k", type=int, required=required, help="nodes needed to decode")
    sub.add_argument("--d", type=int, required=required, help="helpers contacted per repair")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmcode",
        description="Sparse systematic product-matrix regenerating codes.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("gen", help="build a code and write matrices plus descriptor")
    _add_params_args(sub, required=True)
    _add_field_args(sub)
    sub.add_argument("--construction", choices=sorted(_BUILDERS), default="sparse")
    sub.add_argument("--out-dir", required=True)
    sub.set_defaults(func=cmd_gen)

    sub = subs.add_parser("encode", help="split a file into per-node shards")
    sub.add_argument("--descriptor", required=True)
    sub.add_argument("--data", required=True)
    sub.add_argument("--out-dir", required=True)
    sub.set_defaults(func=cmd_encode)

    sub = subs.add_parser("repair", help="rebuild one node's shard from d helpers or k nodes")
    sub.add_argument("--descriptor", required=True)
    sub.add_argument("--shard-dir", required=True)
    sub.add_argument("--failed", type=int, required=True)
    sub.add_argument("--helpers", help="comma-separated ids of d helpers (default: the cheaper of the "
                     "first d present as helpers and the first k present as decode nodes)")
    sub.add_argument("--out", help="output shard path (default: node_<failed>.shard in the shard dir)")
    sub.set_defaults(func=cmd_repair)

    sub = subs.add_parser("decode", help="recover the data file from k shards")
    sub.add_argument("--descriptor", required=True)
    sub.add_argument("--shard-dir", required=True)
    sub.add_argument("--nodes", help="comma-separated node ids (default: first k present)")
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=cmd_decode)

    for name, func in (("certify", cmd_certify), ("analyze", cmd_analyze)):
        sub = subs.add_parser(name, help=f"{name} a code given a descriptor or parameters")
        sub.add_argument("--descriptor")
        _add_params_args(sub, required=False)
        _add_field_args(sub)
        sub.add_argument("--construction", choices=sorted(_BUILDERS), default="sparse")
        sub.add_argument("--tsv", action="store_true")
        if name == "certify":
            sub.add_argument("--seed", type=int, default=0)
        sub.set_defaults(func=func)

    sub = subs.add_parser("bench", help="time sparse vs dense encoding")
    _add_params_args(sub, required=True)
    _add_field_args(sub)
    sub.add_argument("--mib", type=float, default=64.0, help="workload size in MiB")
    sub.add_argument("--reps", type=int, default=5)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--tsv", action="store_true")
    sub.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PmCodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
